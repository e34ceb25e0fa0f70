"""Properties of the Bloch-vector representation over random inputs.

The library carries a qubit state as its Bloch vector r, one collision as
the real affine map r -> M r + c and the generator as dr/dt = A r + b. Each
is checked here against a matrix-based reference: the joint-state collision
and the eigenvalue-based observables of tests/conftest.py, and the
generator of perfbench/reference.py (loaded by conftest, never edited).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collisim.engine import CollisionConfig, collision_map_superoperator
from collisim.lindblad import build_generator
from collisim.linalg import trace_distance
from collisim.model import (PAULI4, AncillaPrep, CouplingSpec, QubitHamiltonian,
                            density_matrix)
from collisim.observables import effective_beta, ergotropy, l1_coherence
from collisim.thermo import bloch_entropy

from conftest import (bloch_vector, collide_once, eigen_ergotropy, eigen_trace_distance,
                      entropy, entry_l1_coherence, population_beta_eff, reference)

couplings = st.lists(st.floats(-1.5, 1.5), min_size=9, max_size=9).map(
    lambda j: np.reshape(j, (3, 3)))
betas = st.one_of(st.floats(-5.0, 5.0), st.sampled_from([math.inf, -math.inf]))
omegas_s = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
omegas_a = st.one_of(st.floats(-2.0, -0.2), st.floats(0.2, 2.0))
dts = st.floats(1e-3, 0.3)


def _ball(v, length):
    """The direction of v (the z axis for a zero vector) at the given length."""
    n = np.linalg.norm(v)
    return np.array([0.0, 0.0, length]) if n == 0 else np.asarray(v) / n * length


# inside the ball, on the sphere (pure states), at the centre and at the poles
states = st.one_of(
    st.tuples(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
              st.floats(0.0, 1.0)).map(lambda p: _ball(*p)),
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(lambda v: _ball(v, 1.0)),
    st.sampled_from([(0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0)]
                    ).map(np.array))


def _config(j, beta, dt, omega_s, omega_a):
    return CollisionConfig(hs=QubitHamiltonian(omega_s),
                           ancilla=AncillaPrep(beta=beta, omega_a=omega_a),
                           coupling=CouplingSpec(j, dt=dt), n_collisions=1, rho0=np.zeros(3))


@settings(max_examples=80, deadline=None)
@given(j=couplings, beta=betas, dt=dts, omega_s=omegas_s, omega_a=omegas_a, r=states)
def test_affine_map_reproduces_the_joint_state_collision(j, beta, dt, omega_s, omega_a, r):
    cfg = _config(j, beta, dt, omega_s, omega_a)
    u = cfg.unitary()
    t = collision_map_superoperator(u, cfg.ancilla.state)
    m, c = t[1:, 1:], t[1:, 0]
    direct, _ = collide_once(density_matrix(r), density_matrix(cfg.ancilla.state), u)
    assert np.max(np.abs(m @ r + c - bloch_vector(direct))) <= 1e-12
    assert np.max(np.abs(density_matrix(m @ r + c) - direct)) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(j=couplings, beta=betas, dt=dts, omega_s=omegas_s, omega_a=omegas_a,
       seed=st.integers(0, 2 ** 16))
def test_affine_map_keeps_the_bloch_ball(j, beta, dt, omega_s, omega_a, seed):
    # CPTP: every pure state goes to a state, |M r + c| <= 1
    cfg = _config(j, beta, dt, omega_s, omega_a)
    t = collision_map_superoperator(cfg.unitary(), cfg.ancilla.state)
    units = np.random.default_rng(seed).normal(size=(32, 3))
    units = np.concatenate([units / np.linalg.norm(units, axis=-1, keepdims=True),
                            np.eye(3), -np.eye(3)])
    images = units @ t[1:, 1:].T + t[1:, 0]
    assert np.linalg.norm(images, axis=-1).max() <= 1 + 1e-12


@settings(max_examples=80, deadline=None)
@given(j=couplings, beta=betas, omega_s=omegas_s, omega_a=omegas_a)
def test_generator_matrix_reproduces_the_reference_generator(j, beta, omega_s, omega_a):
    # the reference L acts on row-major states; its Bloch form has
    # A_ij = Tr[sigma_i L(sigma_j)]/2 and b_i = Tr[sigma_i L(I)]/2
    ref = reference.Model(omega_s, omega_a, beta, j, 0.05).generator
    images = [(ref @ s.ravel()).reshape(2, 2) for s in PAULI4]
    want = np.array([[np.trace(PAULI4[i] @ images[k]) / 2 for k in range(4)]
                     for i in range(4)])
    assert np.max(np.abs(want.imag)) <= 1e-12
    gen = build_generator(CouplingSpec(j, dt=0.05), QubitHamiltonian(omega_s),
                          AncillaPrep(beta=beta, omega_a=omega_a))
    assert np.max(np.abs(gen - want.real)) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(r=states, omega=omegas_s, other=states)
def test_closed_form_observables_match_the_eigen_references(r, omega, other):
    rho = density_matrix(r)
    h = QubitHamiltonian(omega).matrix()
    assert bloch_entropy(np.linalg.norm(r)) == pytest.approx(entropy(rho), abs=1e-12)
    assert ergotropy(r, omega) == pytest.approx(eigen_ergotropy(rho, h),
                                                abs=1e-12 * max(1.0, abs(omega)))
    assert ergotropy(r, omega) >= 0.0
    assert trace_distance(r, other) == pytest.approx(
        eigen_trace_distance(rho, density_matrix(other)), abs=1e-12)
    assert l1_coherence(r) == pytest.approx(entry_l1_coherence(rho), abs=1e-12)
    got, want = effective_beta(r, omega), population_beta_eff(rho, omega)
    if math.isfinite(want):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    else:
        assert got == want or (math.isnan(got) and math.isnan(want))


@pytest.mark.parametrize("r, s, ergo, beta_eff", [
    ((0.0, 0.0, 0.0), math.log(2), 0.0, 0.0),           # maximally mixed
    ((0.0, 0.0, 1.0), 0.0, 1.0, -math.inf),             # |e>: p_g = 0
    ((0.0, 0.0, -1.0), 0.0, 0.0, math.inf),             # |g>: p_e = 0
    ((1.0, 0.0, 0.0), 0.0, 0.5, 0.0),                   # |+>
])
def test_closed_forms_on_pure_and_maximally_mixed_states(r, s, ergo, beta_eff):
    r = np.array(r)
    assert bloch_entropy(np.linalg.norm(r)) == pytest.approx(s, abs=1e-15)
    assert ergotropy(r, 1.0) == pytest.approx(ergo, abs=1e-15)
    assert effective_beta(r, 1.0) == pytest.approx(beta_eff, abs=1e-15)
    assert effective_beta(r, -1.0) == pytest.approx(-beta_eff, abs=1e-15)
