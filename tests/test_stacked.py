"""Properties of the stacked collision-map layer: a grid of P points gives,
slice by slice, what P separate single-point calls give."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collisim.cli as cli
from collisim.engine import (CollisionConfig, NoSteadyStateError,
                             collision_map_superoperator, run, steady_state_by_iteration)
from collisim.lindblad import build_generator, kernel_state, steady_state_of
from collisim.linalg import (PSD_TOL, NotAStateError, check_density, clamp_to_density, kron,
                             trace_distance)
from collisim.model import PAULI4, AncillaPrep, CouplingSpec, QubitHamiltonian, density_matrix

from conftest import apply_map, bloch_vector, collide_once, random_bloch, random_density

BASIS = [np.outer(np.eye(2)[i], np.eye(2)[j]).astype(complex) for i in range(2) for j in range(2)]


def _linear_image(t, x):
    """The image of any 2x2 matrix x under the linear map whose Pauli transfer
    matrix is t: x = sum_mu x_mu sigma_mu / 2, with x_mu = Tr[sigma_mu x], goes
    to sum_mu (t x)_mu sigma_mu / 2."""
    coords = np.einsum("mij,ji->m", PAULI4, x)
    return np.einsum("...m,mij->...ij", (t @ coords), PAULI4) / 2

# one point: J (9 entries), beta, dt, omega_s, omega_a
POINT = (st.lists(st.floats(-1.5, 1.5), min_size=9, max_size=9),
         st.one_of(st.floats(-5.0, 5.0), st.sampled_from([math.inf, -math.inf])),
         st.floats(1e-3, 0.3), st.floats(-2.0, 2.0), st.floats(0.2, 2.0))
# 1 to 5 points, as one list per parameter
points = st.integers(1, 5).flatmap(lambda p: st.tuples(
    *(st.lists(x, min_size=p, max_size=p) for x in POINT)))


def _grid(j, beta, dt, omega_s, omega_a, n=1, rho0=None, tol=None):
    """The stacked config of the drawn points and the single-point configs.

    Each parameter is a list with one value per point; rho0, if given, is a
    stack with one state per point, and tol an array of convergence_tol.
    """
    rho0 = np.array([[0.0, 0.0, 0.8]] * len(beta)) if rho0 is None else rho0
    tol = np.full(len(beta), 1e-10) if tol is None else tol

    def config(j, beta, dt, omega_s, omega_a, rho0, tol):
        return CollisionConfig(
            hs=QubitHamiltonian(omega_s), ancilla=AncillaPrep(beta=beta, omega_a=omega_a),
            coupling=CouplingSpec(np.reshape(j, np.shape(j)[:-1] + (3, 3)), dt=dt),
            n_collisions=n, rho0=rho0, convergence_tol=tol)
    return (config(*map(np.array, (j, beta, dt, omega_s, omega_a)), rho0, tol),
            [config(*point) for point in zip(j, beta, dt, omega_s, omega_a, rho0, tol)])


def _with_degenerate_points(grid):
    """The drawn points, then a pure J_zy point and an uncoupled one, at the
    other parameters of the first and last drawn points."""
    grid = [x + [x[0], x[-1]] for x in grid]
    grid[0][-2:] = [[0.0] * 7 + [1.0, 0.0], [0.0] * 9]
    return grid


def _maps(cfg):
    return collision_map_superoperator(cfg.unitary(), cfg.ancilla.state)


@settings(max_examples=60, deadline=None)
@given(grid=points, seed=st.integers(0, 2 ** 16))
def test_stacked_maps_match_single_points_and_are_cptp(grid, seed):
    stacked, singles = _grid(*grid)
    phis = _maps(stacked)
    rho = random_density(2, np.random.default_rng(seed))
    for phi, cfg in zip(phis, singles):
        assert np.max(np.abs(phi - _maps(cfg))) <= 1e-14
        direct, _ = collide_once(rho, density_matrix(cfg.ancilla.state), cfg.unitary())
        assert np.max(np.abs(density_matrix(apply_map(phi, bloch_vector(rho))) - direct)) <= 1e-12
    # Choi matrix sum_ij |i><j| (x) Phi(|i><j|), and Tr Phi(E_ij) = delta_ij
    images = [_linear_image(phis, e) for e in BASIS]
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
        # (1 - |r|)/2 = -shift
        kind = rng.integers(0, 3)
        if kind == 0:
            return random_bloch(rng)
        r = rng.normal(size=3)
        return r / np.linalg.norm(r) * (1 + 2 * shift * (kind == 2))
    states = np.array([state() for _ in range(p)])
    stacked = clamp_to_density(states)
    for state, out in zip(states, stacked):
        assert np.array_equal(out, clamp_to_density(state))
        assert np.linalg.eigvalsh(density_matrix(out)).min() >= -1e-15
    states[bad % p] = [0.0, 0.0, 1.0 + 2e-6]    # eigenvalue -1e-6
    with pytest.raises(NotAStateError):
        clamp_to_density(states)


@settings(max_examples=60, deadline=None)
@given(grid=points)
def test_stacked_kernel_solve_matches_single_point_reports(grid):
    stacked, singles = _grid(*_with_degenerate_points(grid))

    def solve(cfg):
        try:
            return steady_state_of(cfg.coupling, cfg.hs, cfg.ancilla)
        except ValueError as exc:     # includes NotAStateError
            return type(exc)
    reports = [solve(cfg) for cfg in singles]
    rep = solve(stacked)
    if any(isinstance(r, type) for r in reports):
        assert isinstance(rep, type)
        return
    assert rep.degenerate[-2:].all()
    # one kernel_state call over the stack is the single calls, bit for bit
    g = build_generator(stacked.coupling, stacked.hs, stacked.ancilla)
    r, dim = kernel_state(g)
    for k, single in enumerate(reports):
        assert bool(rep.degenerate[k]) == single.degenerate
        r_k, dim_k = kernel_state(g[k])
        assert np.array_equal(r[k], r_k) and dim[k] == dim_k
        rho_k, rho_single = density_matrix(rep.r_star[k]), density_matrix(single.r_star)
        assert np.max(np.abs(rho_k - rho_single)) <= 1e-12
        for key in ("coherence_l1", "ergotropy", "residual"):
            assert getattr(rep, key)[k] == pytest.approx(getattr(single, key), abs=1e-12)
        assert rep.beta_eff[k] == pytest.approx(single.beta_eff, rel=1e-12, abs=1e-12, nan_ok=True)


def _iterate(cfg):
    try:
        return steady_state_by_iteration(cfg)
    except (NoSteadyStateError, ValueError) as exc:     # ValueError includes NotAStateError
        return exc


@settings(max_examples=60, deadline=None)
@given(grid=points, seed=st.integers(0, 2 ** 16))
def test_stacked_iteration_matches_single_points_bit_for_bit(grid, seed):
    # every parameter, convergence_tol and rho0 vary over the stack; for odd
    # seeds the uncoupled point starts from a diagonal state and solves, for
    # even ones its coherence precesses forever (unless omega_s dt is tiny)
    grid = _with_degenerate_points(grid)
    rng = np.random.default_rng(seed)
    rho0 = np.array([random_bloch(rng) for _ in grid[1]])
    if seed % 2:
        rho0[-1, :2] = 0.0
    tol = 10.0 ** -rng.integers(3, 11, len(rho0)).astype(float)
    stacked, singles = _grid(*grid, rho0=rho0, tol=tol)
    reports = [_iterate(cfg) for cfg in singles]
    rep = _iterate(stacked)
    if any(type(r) is NotAStateError for r in reports):
        assert type(rep) is NotAStateError
        return
    failed = np.array([isinstance(r, NoSteadyStateError) for r in reports])
    assert not failed[-2]
    if failed.any():
        assert isinstance(rep, NoSteadyStateError)
        assert np.array_equal(rep.failed, failed)
        np.testing.assert_array_equal(rep.residual, [r.residual for r in reports])
        return
    assert rep.degenerate[-2:].all()
    for key in ("r_star", "residual", "degenerate"):
        np.testing.assert_array_equal(getattr(rep, key), [getattr(r, key) for r in reports])


def test_stacked_iteration_fails_only_at_the_point_without_a_limit():
    # no coupling and a coherent rho0: the coherence precesses forever; its
    # neighbours, one regular and one degenerate, still solve
    j = [[1.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.3, 0.0], [0.0] * 9, [0.0] * 7 + [1.0, 0.0]]
    stacked, singles = _grid(j, [1.0] * 3, [0.05] * 3, [1.0] * 3, [1.0] * 3,
                             rho0=np.array([[0.6, 0.0, 0.0]] * 3))
    with pytest.raises(NoSteadyStateError, match=r"modulus 1 at stack index \(1,\)") as err:
        steady_state_by_iteration(stacked)
    assert np.array_equal(err.value.failed, [False, True, False])
    with pytest.raises(NoSteadyStateError) as alone:
        steady_state_by_iteration(singles[1])
    assert str(alone.value) in str(err.value) and not alone.value.failed.shape
    residuals = [steady_state_by_iteration(singles[0]).residual, alone.value.residual,
                 steady_state_by_iteration(singles[2]).residual]
    np.testing.assert_array_equal(err.value.residual, residuals)


def test_stacked_tolerance_alone_makes_the_stack():
    # one uncoupled coherent point under three tolerances: only the tight one
    # fails, and the error and the report have the shape of the tolerance stack
    def config(tol):
        return CollisionConfig(
            hs=QubitHamiltonian(1.0), ancilla=AncillaPrep(beta=1.0, omega_a=1.0),
            coupling=CouplingSpec(np.zeros((3, 3)), dt=0.05), n_collisions=1,
            rho0=np.array([0.6, 0.0, 0.0]), convergence_tol=tol)
    with pytest.raises(NoSteadyStateError, match=r"modulus 1 at stack index \(1,\)") as err:
        steady_state_by_iteration(config(np.array([1.0, 1e-10, 1.0])))
    assert np.array_equal(err.value.failed, [False, True, False])
    assert err.value.residual.shape == (3,)
    rep, alone = steady_state_by_iteration(config(np.array([1.0, 2.0]))), \
        steady_state_by_iteration(config(1.0))
    assert rep.r_star.shape == (2, 3)
    np.testing.assert_array_equal(rep.r_star, [alone.r_star] * 2)


@settings(max_examples=40, deadline=None)
@given(grid=points, n=st.integers(1, 12), seed=st.integers(0, 2 ** 16))
def test_stacked_run_slices_match_single_point_runs(grid, n, seed):
    # every stack mixes finite beta with both zero-temperature limits, at
    # the other parameters of its first and last points
    grid = [x + [x[0], x[-1]] for x in grid]
    grid[1][-2:] = [math.inf, -math.inf]
    beta = grid[1]
    rng = np.random.default_rng(seed)
    rho0 = np.array([random_bloch(rng) for _ in beta])
    stacked, singles = _grid(*grid, n, rho0)
    traj = run(stacked)
    assert traj.states.shape == (len(beta), n + 1, 3)
    for k, cfg in enumerate(singles):
        single = run(cfg)
        rho_k, rho_single = density_matrix(traj.states[k]), density_matrix(single.states)
        assert np.max(np.abs(rho_k - rho_single)) <= 1e-12
        for key in ("w", "q", "de_s", "ds", "sigma"):
            assert getattr(traj.ledger, key).shape == (len(beta), n)
            np.testing.assert_allclose(getattr(traj.ledger, key)[k],
                                       getattr(single.ledger, key), rtol=0, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(point=st.tuples(*POINT), seed=st.integers(0, 2 ** 16))
def test_iterated_state_is_the_limit_of_the_collision_map(point, seed):
    n = 10 ** 4
    (cfg,) = _grid(*([x] for x in point),
                   rho0=np.array([random_bloch(np.random.default_rng(seed))]))[1]
    phi = _maps(cfg)
    after_n = (np.linalg.matrix_power(phi, n) @ np.r_[1.0, cfg.rho0])[1:]
    try:
        rep = steady_state_by_iteration(cfg)
    except NoSteadyStateError:
        # no limit: n collisions later, one more still moves the state
        step = trace_distance(apply_map(phi, after_n), after_n)
        assert step >= 0.5 * cfg.convergence_tol * cfg.coupling.dt
        return
    rho = rep.r_star
    check_density(rho)
    assert trace_distance(apply_map(phi, rho), rho) <= 1e-13
    assert math.isfinite(rep.residual) and rep.residual >= 0
    moduli = np.sort(np.abs(np.linalg.eigvals(phi)))
    if moduli[-2] ** n < 1e-14:
        assert trace_distance(rho, after_n) <= 1e-10


SWEEP_BASE = {"model": {"omega_s": 1.0, "omega_a": 1.0, "beta": 1.0},
              "coupling": {"j": {"xx": 1.0, "yy": 0.5, "zy": 0.3}, "dt": 0.05},
              "run": {"n_collisions": 12, "rho0": "fig3"},
              "output": {"path": "out.csv"}}


def _table(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _sweep(tmp_path, axes, name="sweep"):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"base": SWEEP_BASE, "axes": axes}))
    out = tmp_path / name
    return cli.main(["sweep", "--config", str(path), "--out", str(out)]), out


def _counting_runs(monkeypatch):
    """Record the number of trajectories in each call of the CLI's run."""
    sizes = []

    def counted(cfg):
        traj = run(cfg)
        sizes.append(traj.states[..., 0, 0].size)
        return traj
    monkeypatch.setattr(cli, "run", counted)
    return sizes


def _check_sweep_against_standalone_runs(out_dir, axes, sizes):
    """Sweep the axes as one stack and compare each point with its own `run`."""
    out_dir.mkdir()
    code, out = _sweep(out_dir, [{"path": path, "values": v} for path, v in axes.items()])
    assert code == 0
    points = list(itertools.product(*axes.values()))
    # every point has the same run.n_collisions, so the sweep is one stack
    assert sizes == [len(points)]
    header, rows = _table(out / "out_sweep.csv")
    assert header[2:] == list(cli.RUN_COLUMNS)
    per_point = SWEEP_BASE["run"]["n_collisions"] + 1
    assert len(rows) == len(points) * per_point
    for k, values in enumerate(points):
        doc = json.loads(json.dumps(SWEEP_BASE))
        for path, value in zip(axes, values):
            section, key = path.split(".")
            doc[section][key] = value
        cfg_path, out_k = out_dir / f"run{k}.json", out_dir / f"run{k}"
        cfg_path.write_text(json.dumps(doc))
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out_k)]) == 0
        _, expected = _table(out_k / "out.csv")
        for got, want in zip(rows[k * per_point:(k + 1) * per_point], expected):
            assert [float(x) for x in got[:2]] == list(values)
            for x, y in zip(got[2:], want):
                x, y = float(x), float(y)
                if math.isfinite(y):
                    assert abs(x - y) <= 1e-12 * max(1.0, abs(y))
                else:
                    assert x == y or math.isnan(x) and math.isnan(y)


def test_sweep_split_into_stacks_matches_standalone_runs(tmp_path, monkeypatch):
    sizes = _counting_runs(monkeypatch)
    for name, axes in (("omega_s_beta", {"model.omega_s": [0.0, 1.0, 2.5],
                                         "model.beta": [0.5, 2.0, 4.0]}),
                       ("dt_omega_a", {"coupling.dt": [0.01, 0.037, 0.2],
                                       "model.omega_a": [-0.7, 0.3, 1.9]})):
        sizes.clear()
        _check_sweep_against_standalone_runs(tmp_path / name, axes, sizes)


def test_sweep_point_failing_in_a_stack_spares_its_neighbours(tmp_path, monkeypatch):
    def flaky(cfg):
        if np.any(np.asarray(cfg.ancilla.beta) == 2.0):
            raise NotAStateError("forced failure")
        return run(cfg)
    monkeypatch.setattr(cli, "run", flaky)
    betas = [0.5, 2.0, 4.0]
    code, out = _sweep(tmp_path, [{"path": "model.beta", "values": betas}])
    assert code == 3
    failures = json.loads((out / "out_sweep_failures.json").read_text())
    assert failures == [{"point": 1, "axes": {"model.beta": 2.0},
                         "error": "NotAStateError: forced failure"}]
    _, rows = _table(out / "out_sweep.csv")
    per_point = SWEEP_BASE["run"]["n_collisions"] + 1
    assert [float(row[0]) for row in rows] == [0.5] * per_point + [4.0] * per_point
