import itertools
import math
import os
import pickle
import signal
import time

import numpy as np
import pytest

from diagflow import (
    DivergenceError,
    ExperimentConfig,
    HyperbolicEntropy,
    NewtonError,
    PowerEntropy,
    QuadraticLoss,
    StepController,
    convergence_scale_sweep,
    init_layers,
    InitScheme,
    integrate,
    integrate_redundant,
    locate_min_layers,
    make_problem,
    min_l1_norm,
    mirror_residual_closed_form,
    pl_constant,
    rate_check,
    run_bias,
    run_convergence,
    run_crossings,
    sigma_lower_bound,
    solve_kkt,
    StepUnderflowError,
    time_to_gap,
    Trajectory,
)
from diagflow.experiments import FLOW_LIMIT_GAP, GAP_TARGET, _map
from diagflow.report import ChildError, ForkedCall


def test_pl_constant_identity_design():
    assert pl_constant(QuadraticLoss(np.eye(4), np.zeros(4))) == pytest.approx(2.0, rel=1e-14)


def test_pl_inequality_monte_carlo():
    rng = np.random.default_rng(0)
    loss = QuadraticLoss(rng.uniform(-1, 1, (6, 4)), rng.uniform(-1, 1, 6))
    mu = pl_constant(loss)
    thetas = rng.normal(size=(10_000, 4)) * rng.choice([0.1, 1.0, 10.0], size=(10_000, 1))
    r = thetas @ loss.X.T - loss.y
    gaps = np.einsum("ij,ij->i", r, r) - loss.optimal_value
    grads = 2.0 * r @ loss.X
    sq = np.einsum("ij,ij->i", grads, grads)
    assert np.all(2.0 * mu * gaps <= sq * (1 + 1e-9) + 1e-9)


def test_pl_constant_scales_quadratically():
    rng = np.random.default_rng(1)
    X = rng.uniform(-1, 1, (5, 3))
    y = rng.uniform(-1, 1, 5)
    base = pl_constant(QuadraticLoss(X, y))
    scaled = pl_constant(QuadraticLoss(3.0 * X, y))
    assert scaled == pytest.approx(9.0 * base, rel=1e-12)


def test_pl_constant_rejects_zero_design():
    with pytest.raises(ValueError):
        pl_constant(QuadraticLoss(np.zeros((3, 2)), np.ones(3)))


def test_pl_constant_uses_smallest_nonzero_eigenvalue():
    # underdetermined: X X^T has no zero modes, X^T X does
    rng = np.random.default_rng(2)
    X = rng.uniform(-1, 1, (2, 5))
    w = np.linalg.eigvalsh(X @ X.T)
    assert pl_constant(QuadraticLoss(X, np.zeros(2))) == pytest.approx(2 * w[0], rel=1e-12)


def test_rate_check_clean_run():
    loss = make_problem(6, 4, 3, x_scale=0.5)
    stack0 = init_layers(4, 3, InitScheme("uniform"), seed=4)
    idx = locate_min_layers(stack0)
    traj = integrate(stack0, loss, StepController(t_max=5.0))
    rc = rate_check(traj, sigma_lower_bound(stack0, idx).sigma, pl_constant(loss))
    assert rc.violations == 0
    assert rc.ok


def test_rate_check_vacuous_when_sigma_zero():
    # a zero rate degrades the bound to gap(t) <= gap(0): plain descent
    loss = make_problem(6, 4, 5)
    stack0 = init_layers(4, 3, InitScheme("uniform"), seed=6)
    traj = integrate(stack0, loss, StepController(t_max=2.0))
    rc = rate_check(traj, 0.0, pl_constant(loss))
    assert rc.violations == 0


def test_rate_check_detects_violations():
    loss = make_problem(6, 4, 7)
    stack0 = init_layers(4, 3, InitScheme("uniform"), seed=8)
    traj = integrate(stack0, loss, StepController(t_max=2.0))
    rc = rate_check(traj, 1e6, 1e6)  # absurd rate no flow satisfies
    assert rc.violations > 0
    assert not rc.ok


def test_time_to_gap():
    loss = make_problem(6, 4, 9)
    stack0 = init_layers(4, 2, InitScheme("uniform"), seed=10)
    traj = integrate(stack0, loss, StepController(mode="adaptive", t_max=100.0, stop_gap=1e-9))
    t = time_to_gap(traj, 1e-6)
    assert t is not None and 0 < t <= traj.times[-1]
    assert time_to_gap(traj, -1.0) is None


def test_time_to_gap_interpolates_the_log_gap():
    times = np.array([0.0, 1.0, 3.0, 4.0])
    rows = len(times)
    traj = Trajectory(times, np.zeros((rows, 2, 1)), np.zeros((rows, 1)), np.zeros((rows, 1)),
                      np.exp(-2.0 * times), np.zeros((rows, 1)))
    assert time_to_gap(traj, math.exp(-5.0)) == pytest.approx(2.5, rel=1e-14)
    assert time_to_gap(traj, 2.0) == 0.0
    assert time_to_gap(traj, math.exp(-8.0)) == 4.0
    assert time_to_gap(traj, 0.0) is None


def test_time_to_gap_does_not_move_with_the_grid():
    # the convergence command's default run: the switch to RODAS4 leaves
    # 572 rows of Dormand–Prince's 831, and read off the grid the time to
    # gap 1e-6 moved from 24.5886 to 24.9095; interpolated, the two agree
    # to 2.5e-6
    cfg = ExperimentConfig(layers=6, dim=8, t_max=400.0, scheme="zero_first")
    loss, stack0 = cfg.problem()
    ctrl = StepController(mode="adaptive", h=cfg.step, t_max=cfg.t_max,
                          stop_gap=GAP_TARGET * 1e-3)
    switched = integrate(stack0, loss, ctrl)
    dopri = integrate(stack0, _WithoutHessian(loss), ctrl)
    assert len(switched) < len(dopri)
    assert (time_to_gap(switched, GAP_TARGET)
            == pytest.approx(time_to_gap(dopri, GAP_TARGET), rel=1e-5))


class _WithoutHessian:
    """The loss without its ``hessian``, so that adaptive runs stay on Dormand–Prince."""

    def __init__(self, loss):
        self.value, self.gradient = loss.value, loss.gradient
        self.value_and_gradient, self.optimal_value = loss.value_and_gradient, loss.optimal_value


def test_run_convergence_and_csv(tmp_path):
    out = tmp_path / "gap.csv"
    cfg = ExperimentConfig(n=8, dim=5, layers=4, seed=1, t_max=200.0,
                           scheme="zero_first", scale=1.2)
    res = run_convergence(cfg)
    assert res.rate.violations == 0
    assert res.time_to_target is not None
    idx = locate_min_layers(res.trajectory.stack_at(0))
    assert np.array_equal(res.index.layer, idx.layer)
    assert np.array_equal(res.index.unique, idx.unique)
    res.write(out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,loss_gap,log_loss_gap,bound"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(float(first[3]), rel=1e-12)


def test_convergence_scale_sweep_ordering():
    cfg = ExperimentConfig(n=8, dim=5, layers=4, seed=2, t_max=300.0, scheme="zero_first")
    results = convergence_scale_sweep(cfg, scales=(1.0, 1.5))
    assert results[0].sigma.sigma < results[1].sigma.sigma
    assert results[0].time_to_target > results[1].time_to_target
    # sigma scales by the squared factor per non-first layer, exactly
    expected = results[0].sigma.sigma * 1.5 ** (2 * (cfg.layers - 1))
    assert results[1].sigma.sigma == pytest.approx(expected, rel=1e-12)


def test_run_crossings(tmp_path):
    out = tmp_path / "nodes.csv"
    cfg = ExperimentConfig(n=10, dim=5, layers=4, seed=3, t_max=5.0)
    res = run_crossings(cfg)
    assert res.census.ok
    res.write(out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,u_1_1,u_2_1,u_3_1,u_4_1"
    assert len(lines) == len(res.trajectory) + 1


def test_solve_kkt_identity_design_is_direct_inversion():
    rng = np.random.default_rng(11)
    d = 4
    y = rng.uniform(-1.5, 1.5, d)
    loss = QuadraticLoss(np.eye(d), y)
    e = HyperbolicEntropy(np.full(d, 0.8), np.zeros(d))
    sol = solve_kkt(loss, e)
    np.testing.assert_allclose(sol.nu, e.xi_from_theta(y), rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(sol.theta, y, atol=1e-10)
    assert sol.kkt_residual <= 1e-10


def test_solve_kkt_minimizes_entropy_on_solution_line():
    # d=2, n=1: scan the solution line with golden-section refinement and
    # compare against the Newton solution
    X = np.array([[1.0, 2.0]])
    y = np.array([2.0])
    loss = QuadraticLoss(X, y)
    e = HyperbolicEntropy(np.array([0.5, 0.5]), np.zeros(2))
    theta_p = np.array([0.0, 1.0])
    direction = np.array([2.0, -1.0])

    def q_on_line(s):
        return e.value(theta_p + s * direction)

    grid = np.linspace(-5, 5, 2001)
    vals = [q_on_line(s) for s in grid]
    k = int(np.argmin(vals))
    lo, hi = grid[k - 1], grid[k + 1]
    phi = (np.sqrt(5.0) - 1) / 2
    a, b = lo, hi
    c1, c2 = b - phi * (b - a), a + phi * (b - a)
    for _ in range(80):
        if q_on_line(c1) < q_on_line(c2):
            b, c2 = c2, c1
            c1 = b - phi * (b - a)
        else:
            a, c1 = c1, c2
            c2 = a + phi * (b - a)
    theta_brute = theta_p + 0.5 * (a + b) * direction

    sol = solve_kkt(loss, e)
    np.testing.assert_allclose(sol.theta, theta_brute, atol=1e-6)
    assert sol.residual <= 1e-10


def test_solve_kkt_redundant_map():
    # target must be reachable from the positive orthant
    rng = np.random.default_rng(12)
    X = 1.0 - rng.random((2, 4))
    loss = QuadraticLoss(X, X @ (0.5 + rng.random(4)))
    e = PowerEntropy(np.full(4, 0.9), 3)
    sol = solve_kkt(loss, e)
    assert sol.residual <= 1e-10
    assert np.all(sol.theta > 0)
    assert sol.kkt_residual <= 1e-8


def test_solve_kkt_errors():
    # inconsistent target: no interpolant exists, Jacobian is rank-deficient
    loss = QuadraticLoss(np.array([[1.0], [1.0]]), np.array([1.0, 2.0]))
    e = HyperbolicEntropy(np.array([1.0]), np.zeros(1))
    with pytest.raises(np.linalg.LinAlgError):
        solve_kkt(loss, e)
    # unreachable tolerance runs out of iterations
    good = QuadraticLoss(np.eye(2), np.array([0.3, -0.4]))
    e2 = HyperbolicEntropy(np.ones(2), np.zeros(2))
    with pytest.raises(NewtonError):
        solve_kkt(good, e2, tol=0.0, max_iter=3)


def test_min_l1_norm_hand_cases():
    value, theta = min_l1_norm(np.array([[1.0, 1.0]]), np.array([1.0]))
    assert value == pytest.approx(1.0, abs=1e-12)
    value, theta = min_l1_norm(np.array([[1.0, 2.0]]), np.array([2.0]))
    assert value == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(theta, [0.0, 1.0], atol=1e-12)


def test_min_l1_norm_dominates_random_feasible_points():
    rng = np.random.default_rng(13)
    X = rng.uniform(-1, 1, (3, 6))
    y = rng.uniform(-1, 1, 3)
    value, theta = min_l1_norm(X, y)
    assert np.max(np.abs(X @ theta - y)) <= 1e-8
    theta_p = np.linalg.lstsq(X, y, rcond=None)[0]
    null = np.eye(6) - np.linalg.pinv(X) @ X
    for _ in range(200):
        cand = theta_p + null @ rng.uniform(-3, 3, 6)
        assert np.sum(np.abs(cand)) >= value - 1e-9


def test_min_l1_norm_errors():
    with pytest.raises(ValueError, match=r"desk-scale only \(dim <= 16\)"):
        min_l1_norm(np.ones((2, 17)), np.ones(2))
    with pytest.raises(ValueError, match="desk-scale only"):
        min_l1_norm(np.ones((2, 20)), np.ones(2))
    with pytest.raises(ValueError, match="y is not in the range of X"):
        min_l1_norm(np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([1.0, 1.0]))


def _enumerate_min_l1(X, y, feas_tol=1e-9):
    """Reference: every support of size at most n, least squares, strict ``<``."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    y_scale = 1.0 + float(np.max(np.abs(y))) if y.size else 1.0
    best = math.inf
    best_theta = None
    for k in range(0, min(n, d) + 1):
        for support in itertools.combinations(range(d), k):
            s = list(support)
            if k == 0:
                theta_s = np.zeros(0)
                res = float(np.max(np.abs(y))) if y.size else 0.0
            else:
                theta_s, *_ = np.linalg.lstsq(X[:, s], y, rcond=None)
                res = float(np.max(np.abs(X[:, s] @ theta_s - y)))
            if res <= feas_tol * y_scale:
                value = float(np.sum(np.abs(theta_s)))
                if value < best:
                    best = value
                    best_theta = np.zeros(d)
                    best_theta[s] = theta_s
    if best_theta is None:
        raise ValueError("no feasible support found: y is not in the range of X")
    return best, best_theta


def _outcome(fn, X, y):
    try:
        return fn(X, y)
    except ValueError as exc:
        return str(exc)


def test_min_l1_norm_equals_support_enumeration_bit_for_bit():
    shapes = [(1, 3), (2, 4), (2, 7), (3, 6), (3, 9), (4, 8), (5, 10), (6, 10), (4, 4), (6, 3)]
    problems = [make_problem(n, d, seed) for n, d in shapes for seed in range(3)]
    problems.append(make_problem(8, 16, 11))
    cases = [(p.X, p.y) for p in problems]
    # a consistent overdetermined target: the old loop's supports stop at size d
    X = make_problem(6, 3, 5).X
    cases.append((X, X @ np.array([0.5, -1.0, 2.0])))
    for X, y in cases:
        expected, got = _outcome(_enumerate_min_l1, X, y), _outcome(min_l1_norm, X, y)
        if isinstance(expected, str):  # random y with n > d: no interpolant
            assert got == expected
        else:
            assert got[0] == expected[0]
            assert np.array_equal(got[1], expected[1])


def test_min_l1_norm_degenerate_integer_instances():
    # duplicate and zero columns, repeated rows, inconsistent targets: on
    # tied LPs the two searches may return different minimizers
    rng = np.random.default_rng(21)
    for _ in range(150):
        n, d = int(rng.integers(1, 5)), int(rng.integers(1, 8))
        X = rng.integers(-2, 3, (n, d)).astype(float)
        if d > 1 and rng.random() < 0.3:
            X[:, 1] = X[:, 0]
        if rng.random() < 0.3:
            X[:, -1] = 0.0
        if n > 1 and rng.random() < 0.3:
            X[-1] = X[0]
        if rng.random() < 0.5:
            y = X @ rng.integers(-2, 3, d)
        else:
            y = rng.integers(-2, 3, n).astype(float)
        expected, got = _outcome(_enumerate_min_l1, X, y), _outcome(min_l1_norm, X, y)
        if isinstance(expected, str) or isinstance(got, str):
            assert got == expected
            continue
        assert got[0] == pytest.approx(expected[0], rel=1e-12, abs=0.0)
        assert np.max(np.abs(X @ got[1] - y), initial=0.0) <= 1e-9 * (1.0 + np.max(np.abs(y)))
        assert np.sum(np.abs(got[1])) == got[0]


def test_min_l1_norm_edge_cases():
    value, theta = min_l1_norm(np.zeros((2, 3)), np.zeros(2))
    assert value == 0.0
    assert np.array_equal(theta, np.zeros(3))
    with pytest.raises(ValueError, match="y is not in the range of X"):
        min_l1_norm(np.zeros((2, 3)), np.array([1.0, 0.0]))
    # d = 1: the one coefficient is forced
    value, theta = min_l1_norm(np.array([[2.0], [-4.0]]), np.array([3.0, -6.0]))
    assert value == pytest.approx(1.5, rel=1e-15)
    np.testing.assert_allclose(theta, [1.5], rtol=1e-15)
    # n > d with a consistent target
    value, theta = min_l1_norm(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                               np.array([1.0, -2.0, -1.0]))
    assert value == pytest.approx(3.0, abs=1e-12)
    np.testing.assert_allclose(theta, [1.0, -2.0], atol=1e-12)
    with pytest.raises(ValueError, match="y is not in the range of X"):
        min_l1_norm(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.array([1.0, 1.0, 3.0]))


def test_min_l1_norm_agrees_with_linprog():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(22)
    for n, d in [(1, 4), (2, 6), (3, 9), (5, 12), (4, 16), (8, 16)]:
        X = rng.uniform(-1.0, 1.0, (n, d))
        y = rng.uniform(-1.0, 1.0, n)
        value, theta = min_l1_norm(X, y)
        # theta = p - q with p, q >= 0; minimize sum(p + q)
        lp = optimize.linprog(np.ones(2 * d), A_eq=np.hstack([X, -X]), b_eq=y,
                              bounds=(0, None), method="highs")
        assert lp.status == 0
        assert value == pytest.approx(lp.fun, rel=1e-9)
        assert np.max(np.abs(X @ theta - y)) <= 1e-9


def test_run_bias_two_layer(tmp_path):
    out = tmp_path / "bias.csv"
    cfg = ExperimentConfig(n=2, dim=4, layers=2, seed=14, t_max=1e4)
    res = run_bias(cfg, alphas=(1.0, 0.1))
    assert res.max_mismatch <= 1e-3
    for row in res.rows:
        assert row.flow_gap <= 1e-10
        assert row.l1_norm >= row.l1_min - 1e-9
    # smaller initialization hugs the minimal-L1 interpolator more tightly
    assert res.rows[1].l1_norm - res.rows[1].l1_min <= res.rows[0].l1_norm - res.rows[0].l1_min
    res.write(out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "alpha,l1_norm,l1_min,linf_mismatch"
    assert len(lines) == 3


def test_run_bias_redundant_model():
    cfg = ExperimentConfig(n=2, dim=4, layers=3, seed=15, t_max=1e4)
    res = run_bias(cfg, alphas=(1.0,), model="redundant")
    assert res.max_mismatch <= 1e-3
    assert np.all(res.rows[0].theta_flow > 0)


# The tied cases the benchmark leaves out for run length, on run_bias's
# instance (n=3, d=6, seed 0): both flows park at the saddle where theta_2
# alone is ~3.0007 and are still there at t_max = 1e4, so they never reach
# the interpolating limit that solve_kkt looks for. Each gap is that of the
# Dormand–Prince run alone (55 s and 132 s there, against ~0.05 s with the
# switch to RODAS4), to all 15 printed digits.
@pytest.mark.parametrize("num_layers, alpha, gap", [
    (5, 0.01, 2.29061648769389),
    (6, 0.03, 2.29061649551021),
])
def test_tied_small_alpha_flow_stays_at_a_saddle(num_layers, alpha, gap):
    cfg = ExperimentConfig(n=3, dim=6, layers=num_layers, seed=0, t_max=1e4)
    bias = run_bias(cfg, alphas=(1.0,), model="redundant")
    ctrl = StepController(mode="adaptive", h=cfg.step, t_max=cfg.t_max,
                          stop_gap=FLOW_LIMIT_GAP, max_points=2000)
    start = time.perf_counter()
    traj = integrate_redundant(bias.rows[0].entropy.u0 * alpha, num_layers, bias.loss, ctrl)
    elapsed = time.perf_counter() - start
    assert traj.times[-1] == cfg.t_max
    assert traj.losses[-1] - traj.optimum == pytest.approx(gap, rel=1e-13)
    assert abs(traj.final_theta[1] - 3.0007) < 1e-4
    assert elapsed < 5.0


@pytest.mark.parametrize("model, layers, alphas", [
    ("two_layer", 2, (1.0, 0.1, 0.01)),
    ("redundant", 4, (1.0, 0.1, 0.03)),
])
def test_run_bias_rows_hold_the_closed_form_mirror_identity(model, layers, alphas):
    # bias's instance (n=3, d=6, seed 0); the tied rows switch to RODAS4,
    # which integrates xi's row with the layers (residuals measured up to
    # 1.3e-6; a trapezoid xi gave up to 7.3e-4)
    cfg = ExperimentConfig(n=3, dim=6, layers=layers, seed=0, t_max=1e4)
    for row in run_bias(cfg, alphas=alphas, model=model).rows:
        assert mirror_residual_closed_form(row.trajectory, row.entropy) <= 1e-5, row.alpha
        assert row.linf_mismatch <= 1e-3


def test_run_bias_requires_underdetermined_instance():
    cfg = ExperimentConfig(n=6, dim=4, layers=2, seed=0)
    with pytest.raises(ValueError):
        run_bias(cfg)
    with pytest.raises(ValueError):
        run_bias(ExperimentConfig(n=2, dim=4, layers=2, seed=0), model="three_layer")


def test_make_problem_deterministic_and_positive():
    a = make_problem(5, 3, 16)
    b = make_problem(5, 3, 16)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    p = make_problem(5, 3, 17, positive=True)
    assert np.all(p.X > 0) and np.all(p.y > 0)


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(layers=1)
    with pytest.raises(ValueError):
        ExperimentConfig(dim=0)
    with pytest.raises(ValueError):
        ExperimentConfig(t_max=0.0)
    for bad in (dict(t_max=np.nan), dict(t_max=np.inf), dict(step=np.nan), dict(seed=-1),
                dict(scale=np.nan), dict(layers=2, dim=2, values=[[1.0, np.nan], [1.0, 1.0]])):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)


@pytest.mark.parametrize("error, attributes", [
    (DivergenceError(2.5, 0.125, 7.0), ("time", "h", "max_abs_theta")),
    (DivergenceError(2.5, 0.125, math.nan, "non-finite state at t=2.5"),
     ("time", "h", "max_abs_theta")),
    (StepUnderflowError(3.0, 1e-20), ("time", "h")),
    (NewtonError("backtracking stalled", 1.054e-9), ("reason", "residual")),
], ids=["divergence", "divergence_nan", "underflow", "newton"])
def test_errors_survive_a_pickle_round_trip(error, attributes):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    for name in attributes:
        assert repr(getattr(copy, name)) == repr(getattr(error, name)), name


def _assert_identical(a, b, where="result"):
    """The same floats, bit for bit, in every array and float of two result objects."""
    if isinstance(a, (np.ndarray, float, np.floating)):
        a, b = np.asarray(a), np.asarray(b)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), where
    elif hasattr(a, "__dict__"):
        assert type(a) is type(b), where
        for name in vars(a):
            _assert_identical(getattr(a, name), getattr(b, name), f"{where}.{name}")
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b), where
        for k, (x, y) in enumerate(zip(a, b)):
            _assert_identical(x, y, f"{where}[{k}]")
    else:
        assert a == b, where


def _on_cpus(monkeypatch, cpus: int) -> list:
    """Make ``cpus`` CPUs usable to the sweeps; the returned list gains one entry per fork."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def test_sweeps_on_several_cpus_equal_the_serial_sweeps_bit_for_bit(monkeypatch):
    # bias's instance (n=3, d=6, seed 0): the two-layer rows stay on
    # Dormand–Prince, the tied ones switch to RODAS4
    sweeps = [
        lambda: run_bias(ExperimentConfig(n=3, dim=6, layers=2, seed=0, t_max=1e4),
                         alphas=(1.0, 0.1, 0.01)),
        lambda: run_bias(ExperimentConfig(n=3, dim=6, layers=4, seed=0, t_max=1e4),
                         alphas=(1.0, 0.1, 0.03), model="redundant"),
        lambda: convergence_scale_sweep(ExperimentConfig(n=8, dim=5, layers=4, seed=2,
                                                         t_max=300.0, scheme="zero_first"),
                                        scales=(1.0, 1.4, 1.8)),
    ]
    forks = _on_cpus(monkeypatch, 1)
    serial = [sweep() for sweep in sweeps]
    assert not forks
    for cpus in (2, 3):
        forks = _on_cpus(monkeypatch, cpus)
        _assert_identical([sweep() for sweep in sweeps], serial)
        assert len(forks) == 3 * (cpus - 1)



def test_bias_rows_say_whether_their_flow_is_tied(monkeypatch):
    # the flag is a Trajectory field, so it must come back from a forked worker too
    for cpus in (1, 2):
        forks = _on_cpus(monkeypatch, cpus)
        for model, layers, tied in (("two_layer", 2, False), ("redundant", 3, True)):
            cfg = ExperimentConfig(n=2, dim=4, layers=layers, seed=15, t_max=1e4)
            rows = run_bias(cfg, alphas=(1.0, 0.5), model=model).rows
            assert [row.trajectory.tied for row in rows] == [tied, tied]
        assert len(forks) == 2 * (cpus - 1)

def test_map_deals_the_items_out_and_returns_them_in_order(monkeypatch):
    # worker i starts on item n - 1 - i, this process (worker 0) on the last;
    # the other items go to whichever worker is free, so only the first
    # items' workers are fixed
    for cpus in (1, 2, 3, 8):
        forks = _on_cpus(monkeypatch, cpus)
        results = _map(lambda k: (k, os.getpid()), list(range(7)))
        w = min(cpus, 7)
        assert [k for k, _ in results] == list(range(7))
        firsts = [pid for _, pid in results[7 - w:]]
        assert firsts[-1] == os.getpid() and len(set(firsts)) == w == len(forks) + 1
        assert {pid for _, pid in results} == set(firsts)
    assert _map(lambda k: k, []) == [] and _map(lambda k: -k, [5]) == [-5]
    # an exception that fn returns, not raises, is a value like any other
    for cpus in (1, 2, 3):
        _on_cpus(monkeypatch, cpus)
        returned = _map(lambda k: ValueError(k), [1, 2, 3])
        assert [(type(e), e.args) for e in returned] == [(ValueError, (k,)) for k in (1, 2, 3)]


def test_map_starts_this_process_on_the_last_item(monkeypatch):
    # the sweeps list their costliest item last; a child can start only
    # after its fork, so this process, first to start, takes that item
    for cpus in (1, 2, 3):
        _on_cpus(monkeypatch, cpus)
        started = []
        _map(lambda k: started.append(k), list(range(5)))
        assert started[0] == 4  # what this process ran, in its order


def test_map_runs_every_item_after_an_earlier_one_fails(monkeypatch, tmp_path):
    # this process fails on its first item, the last one; the others still
    # run, on every worker, and the lowest failing index is raised
    ran = tmp_path / "ran"

    def fn(k):
        with open(ran, "a", encoding="utf-8") as fh:  # one short append per item
            fh.write(f"{k}\n")
        if k in (2, 5):
            raise StepUnderflowError(float(k), 1e-20)
        return k

    for cpus in (1, 2, 3):
        _on_cpus(monkeypatch, cpus)
        ran.write_text("")
        with pytest.raises(StepUnderflowError) as info:
            _map(fn, list(range(6)))
        assert info.value.time == 2.0
        assert sorted(map(int, ran.read_text().split())) == list(range(6))


def test_map_returns_many_items_in_order(monkeypatch):
    # more indices than a pipe holds (64 KiB is 8,192 of them) go out one
    # token at a time, so no write waits on a reader
    items = list(range(20_000))
    for cpus in (1, 2, 3):
        _on_cpus(monkeypatch, cpus)
        assert _map(lambda k: -k, items) == [-k for k in items]


@pytest.mark.parametrize("failing", [{2, 3, 4}, {3, 4}, {1, 5}, {0, 1}],
                         ids=["second_child", "parent_before_child", "first_child", "parent"])
def test_map_raises_the_failure_of_the_lowest_index(monkeypatch, failing):
    # three workers: this process starts on item 5 and the children on 4 and
    # 3; items 2, 1 and 0 go to whichever worker is free first. Each case
    # fails on more than one item, and the lowest index's exception is raised
    _on_cpus(monkeypatch, 3)

    def fn(k):
        if k in failing:
            if k % 2:
                raise NewtonError(f"item {k}", residual=k / 8)
            raise StepUnderflowError(float(k), 2.0 ** -k)
        return k

    with pytest.raises((NewtonError, StepUnderflowError)) as info:
        _map(fn, list(range(6)))
    first = min(failing)
    assert type(info.value) is (NewtonError if first % 2 else StepUnderflowError)
    if first % 2:
        assert (info.value.reason, info.value.residual) == (f"item {first}", first / 8)
    else:
        assert (info.value.time, info.value.h) == (float(first), 2.0 ** -first)


def test_map_says_that_a_worker_was_killed_by_a_signal(monkeypatch):
    _on_cpus(monkeypatch, 2)
    parent = os.getpid()

    def fn(k):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return k

    with pytest.raises(ChildError, match="killed by signal 9"):
        _map(fn, [0, 1, 2])


def test_map_says_that_a_worker_could_not_send_its_results(monkeypatch, capfd):
    _on_cpus(monkeypatch, 2)
    with pytest.raises(ChildError, match=r"failed \(exit status 1\)"):
        _map(lambda k: lambda: k, [0, 1])  # a closure does not pickle
    assert "Can't pickle" in capfd.readouterr().err  # the child's traceback


def test_a_child_whose_parent_end_is_closed_exits_with_status_1_and_prints_nothing(capfd):
    # the parent's end of the result pipe closes before the child sends: the
    # send fails with EPIPE, and the child, with no one left to tell, exits
    # with status 1 and no traceback
    go_read, go_write = os.pipe()

    def wait_for_go():
        os.close(go_write)  # so that the read ends if the parent never writes
        return os.read(go_read, 1)

    try:
        call = ForkedCall("test child", wait_for_go)
        call._source.close()
        os.write(go_write, b"x")
        _, status = os.waitpid(call.pid, 0)
    finally:
        os.close(go_read)
        os.close(go_write)
    assert os.waitstatus_to_exitcode(status) == 1
    assert capfd.readouterr().err == ""


class _UnpicklableError(RuntimeError):
    def __init__(self, message, residual):  # pickle calls it with the message alone
        super().__init__(f"{message} ({residual})")


def test_map_says_that_a_worker_sent_what_does_not_unpickle(monkeypatch):
    _on_cpus(monkeypatch, 2)
    parent = os.getpid()

    def fn(k):
        if os.getpid() != parent:
            raise _UnpicklableError("stalled", 1e-9)
        return k

    with pytest.raises(ChildError, match="sent outcomes that do not unpickle: TypeError"):
        _map(fn, [0, 1])


def test_map_kills_its_workers_when_its_own_share_fails(monkeypatch):
    _on_cpus(monkeypatch, 2)
    parent = os.getpid()

    def fn(k):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        _map(fn, [0, 1])
    assert time.perf_counter() - start < 10.0  # conftest checks that the child was reaped


def test_map_kills_its_workers_when_a_fork_fails(monkeypatch):
    _on_cpus(monkeypatch, 3)
    fork = os.fork
    forks = []

    def fork_once():
        forks.append(1)
        if len(forks) > 1:
            raise BlockingIOError("no more processes")
        return fork()

    monkeypatch.setattr(os, "fork", fork_once)
    start = time.perf_counter()
    with pytest.raises(BlockingIOError):
        _map(lambda k: time.sleep(60), [0, 1, 2])
    assert time.perf_counter() - start < 10.0  # the first child was killed, not waited for


def test_a_tied_sweep_raises_the_newton_error_of_its_small_alpha_row(monkeypatch):
    # tied L=5 at alpha=0.01 reaches its limit by t_max=1e6, where solve_kkt
    # stalls (ROADMAP item 5); with two workers a child computes that row
    _on_cpus(monkeypatch, 2)
    cfg = ExperimentConfig(n=3, dim=6, layers=5, seed=0, t_max=1e6)
    with pytest.raises(NewtonError, match="backtracking stalled") as info:
        run_bias(cfg, alphas=(1.0, 0.01), model="redundant")
    assert info.value.reason == "backtracking stalled"
    assert 1e-10 < info.value.residual < 1e-8
