import itertools
import math

import numpy as np
import pytest

from diagflow import (
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
    locate_min_layers,
    make_problem,
    min_l1_norm,
    pl_constant,
    rate_check,
    run_bias,
    run_convergence,
    run_crossings,
    sigma_lower_bound,
    solve_kkt,
    time_to_gap,
)


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
