"""Properties of the stacked collision-map layer: a grid of P points gives,
slice by slice, what P separate single-point calls give."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collisim.engine import CollisionConfig, collide_once, collision_map_superoperator
from collisim.lindblad import steady_state_of
from collisim.linalg import PSD_TOL, NotAStateError, clamp_to_density, kron, unvec, vec
from collisim.model import AncillaPrep, CouplingSpec, QubitHamiltonian

from conftest import random_density

BASIS = [np.outer(np.eye(2)[i], np.eye(2)[j]).astype(complex) for i in range(2) for j in range(2)]

points = st.integers(1, 5).flatmap(lambda p: st.tuples(
    st.lists(st.lists(st.floats(-1.5, 1.5), min_size=9, max_size=9), min_size=p, max_size=p),
    st.lists(st.one_of(st.floats(-5.0, 5.0), st.sampled_from([math.inf, -math.inf])),
             min_size=p, max_size=p)))


def _grid(j, beta, dt, omega_s, omega_a):
    """The stacked config of the drawn points and the single-point configs."""
    def config(j, beta):
        return CollisionConfig(
            hs=QubitHamiltonian(omega_s), ancilla=AncillaPrep(beta=beta, omega_a=omega_a),
            coupling=CouplingSpec(np.reshape(j, np.shape(j)[:-1] + (3, 3)), dt=dt),
            n_collisions=1, rho0=np.diag([0.9, 0.1]).astype(complex))
    return config(np.array(j), np.array(beta)), [config(jp, bp) for jp, bp in zip(j, beta)]


def _maps(cfg):
    return collision_map_superoperator(cfg.unitary(), cfg.ancilla.state())


@settings(max_examples=60, deadline=None)
@given(grid=points, dt=st.floats(1e-3, 0.3), omega_s=st.floats(-2.0, 2.0),
       omega_a=st.floats(0.2, 2.0), seed=st.integers(0, 2 ** 16))
def test_stacked_maps_match_single_points_and_are_cptp(grid, dt, omega_s, omega_a, seed):
    stacked, singles = _grid(*grid, dt, omega_s, omega_a)
    phis = _maps(stacked)
    rho = random_density(2, np.random.default_rng(seed))
    for phi, cfg in zip(phis, singles):
        assert np.max(np.abs(phi - _maps(cfg))) <= 1e-14
        direct, _ = collide_once(rho, cfg.ancilla.state(), cfg.unitary())
        assert np.max(np.abs(phi @ vec(rho) - vec(direct))) <= 1e-12
    # Choi matrix sum_ij |i><j| (x) Phi(|i><j|), and Tr Phi(E_ij) = delta_ij
    images = [unvec(phis @ vec(e)) for e in BASIS]
    choi = sum(kron(e, img) for e, img in zip(BASIS, images))
    assert np.linalg.eigvalsh(choi).min() >= -1e-12
    for e, img in zip(BASIS, images):
        assert np.max(np.abs(np.trace(img, axis1=-2, axis2=-1) - np.trace(e))) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(p=st.integers(1, 6), seed=st.integers(0, 2 ** 16),
       shift=st.floats(0.0, 0.9 * PSD_TOL), bad=st.integers(0, 5))
def test_stacked_clamp_equals_per_state_and_raises_on_any_bad_state(p, seed, shift, bad):
    rng = np.random.default_rng(seed)

    def state():
        # full rank, pure, or pure with a round-off-sized negative eigenvalue
        kind = rng.integers(0, 3)
        if kind == 0:
            return random_density(2, rng)
        ket = rng.normal(size=2) + 1j * rng.normal(size=2)
        return np.outer(ket, ket.conj()) / np.vdot(ket, ket).real - (kind == 2) * shift * np.eye(2)
    states = np.array([state() for _ in range(p)])
    stacked = clamp_to_density(states)
    for state, out in zip(states, stacked):
        assert np.array_equal(out, clamp_to_density(state))
    states[bad % p] = np.diag([1.0 + 1e-6, -1e-6])
    with pytest.raises(NotAStateError):
        clamp_to_density(states)


@settings(max_examples=60, deadline=None)
@given(grid=points, omega_s=st.floats(-2.0, 2.0), omega_a=st.floats(0.2, 2.0))
def test_stacked_kernel_solve_matches_single_point_reports(grid, omega_s, omega_a):
    stacked, singles = _grid(*grid, 0.05, omega_s, omega_a)
    hs = QubitHamiltonian(omega_s)

    def solve(cfg):
        try:
            return steady_state_of(cfg.coupling, hs, cfg.ancilla)
        except ValueError as exc:     # includes NotAStateError
            return type(exc)
    reports = [solve(cfg) for cfg in singles]
    rep = solve(stacked)
    if any(isinstance(r, type) for r in reports):
        assert isinstance(rep, type)
        return
    for k, single in enumerate(reports):
        assert bool(rep.degenerate[k]) == single.degenerate
        if single.degenerate:
            continue    # the kernel is not one state; any vector of it is an answer
        assert np.max(np.abs(rep.rho_star[k] - single.rho_star)) <= 1e-12
        for key in ("coherence_l1", "ergotropy", "residual"):
            assert getattr(rep, key)[k] == pytest.approx(getattr(single, key), abs=1e-12)
        if single.beta_eff is None:
            assert math.isnan(rep.beta_eff[k])
        else:
            assert rep.beta_eff[k] == pytest.approx(single.beta_eff, rel=1e-12, abs=1e-12)
