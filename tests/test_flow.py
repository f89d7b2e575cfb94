import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from diagflow import (
    DivergenceError,
    InitScheme,
    LayerStack,
    QuadraticLoss,
    StepController,
    StepUnderflowError,
    Trajectory,
    init_layers,
    integrate,
    integrate_redundant,
    layer_rhs,
    make_problem,
    mirror_residual_general,
    theta_rhs,
    write_trajectory_csv,
)
from diagflow.flow import SNAPSHOT_BLOCK

# theta(1) for the scalar benchmark below (u0=1, v0=2, loss theta^2),
# computed once with explicit Euler at step 1e-6
EULER_THETA_AT_1 = 3.71808082726851011e-03


def scalar_loss():
    return QuadraticLoss(np.array([[1.0]]), np.array([0.0]))


def test_layer_rhs_two_layer_scalar():
    a, b = 1.5, -0.7
    rhs = layer_rhs(LayerStack([[a], [b]]), scalar_loss())
    g = 2 * a * b
    assert np.allclose(rhs, [[-b * g], [-a * g]], rtol=1e-15)


def test_layer_rhs_zero_at_stationary_point():
    loss = QuadraticLoss(np.array([[1.0]]), np.array([6.0]))
    rhs = layer_rhs(LayerStack([[2.0], [3.0]]), loss)
    assert np.array_equal(rhs, np.zeros((2, 1)))


def test_layer_rhs_matches_finite_differences_of_composite_loss():
    rng = np.random.default_rng(10)
    loss = make_problem(5, 3, 0)
    layers = rng.uniform(-1.5, 1.5, (4, 3))
    rhs = layer_rhs(LayerStack(layers), loss)
    h = 1e-6
    for j in range(4):
        for i in range(3):
            up = layers.copy()
            dn = layers.copy()
            up[j, i] += h
            dn[j, i] -= h
            fd = (loss.value(np.prod(up, axis=0)) - loss.value(np.prod(dn, axis=0))) / (2 * h)
            np.testing.assert_allclose(-rhs[j, i], fd, rtol=1e-6, atol=1e-9)


def test_theta_rhs_diagonal_weights():
    stack = LayerStack([[1.0, 2.0], [3.0, 4.0]])
    loss = QuadraticLoss(np.eye(2), np.zeros(2))
    g = loss.gradient(stack.theta)
    assert np.allclose(theta_rhs(stack, loss), [-10.0 * g[0], -20.0 * g[1]], rtol=1e-14)


def test_theta_rhs_consistent_with_product_rule():
    rng = np.random.default_rng(11)
    for _ in range(100):
        L = int(rng.integers(2, 6))
        d = int(rng.integers(1, 6))
        loss = QuadraticLoss(rng.uniform(-1, 1, (d + 1, d)), rng.uniform(-1, 1, d + 1))
        stack = LayerStack(rng.uniform(-1.5, 1.5, (L, d)))
        direct = theta_rhs(stack, loss)
        rhs = layer_rhs(stack, loss)
        from diagflow import leave_one_out_products
        chained = np.sum(leave_one_out_products(stack.layers) * rhs, axis=0)
        np.testing.assert_allclose(direct, chained, rtol=1e-12, atol=1e-14)


def test_theta_rhs_zero_gradient():
    loss = QuadraticLoss(np.array([[1.0]]), np.array([6.0]))
    assert np.array_equal(theta_rhs(LayerStack([[2.0], [3.0]]), loss), [0.0])


def test_integrate_equilibrium_is_constant():
    loss = QuadraticLoss(np.array([[1.0]]), np.array([6.0]))
    traj = integrate(LayerStack([[2.0], [3.0]]), loss, StepController(t_max=2.0))
    assert np.array_equal(traj.thetas, np.full((len(traj), 1), 6.0))
    assert np.array_equal(traj.losses, np.full(len(traj), loss.optimal_value))
    assert np.array_equal(traj.xi, np.zeros((len(traj), 1)))


def test_integrate_matches_frozen_euler_oracle():
    traj = integrate(LayerStack([[1.0], [2.0]]), scalar_loss(), StepController(t_max=1.0))
    assert abs(float(traj.final_theta[0]) - EULER_THETA_AT_1) <= 1e-5


def test_integrate_descends():
    loss = make_problem(6, 4, 1)
    stack0 = init_layers(4, 3, InitScheme("uniform"), seed=2)
    traj = integrate(stack0, loss, StepController(t_max=3.0))
    assert traj.losses[-1] <= traj.losses[0]
    assert np.all(np.diff(traj.losses) <= 1e-10)


def test_integration_is_bit_reproducible():
    loss = make_problem(6, 4, 22)
    stack0 = init_layers(4, 3, InitScheme("uniform"), seed=23)
    for ctrl in (StepController(t_max=1.0),
                 StepController(mode="adaptive", t_max=1.0)):
        a = integrate(stack0, loss, ctrl)
        b = integrate(stack0, loss, ctrl)
        assert np.array_equal(a.layers, b.layers)
        assert np.array_equal(a.xi, b.xi)
        assert np.array_equal(a.times, b.times)


def test_trajectory_bookkeeping():
    loss = make_problem(6, 4, 3)
    stack0 = init_layers(4, 3, InitScheme("uniform"), seed=4)
    traj = integrate(stack0, loss, StepController(t_max=1.0))
    assert np.array_equal(traj.xi[0], np.zeros(4))
    assert traj.times[0] == 0.0
    assert np.all(np.diff(traj.times) > 0)
    # snapshots and recorded thetas stay exactly consistent
    recomputed = np.prod(traj.layers, axis=1)
    assert np.array_equal(recomputed, traj.thetas)
    assert np.array_equal(traj.layers[0], stack0.layers)


def test_theta_increments_match_theta_dynamic():
    # theta(t+h) - theta(t) agrees with the trapezoidal integral of theta's
    # own velocity field along the same grid
    loss = make_problem(6, 4, 5, x_scale=0.5)
    stack0 = init_layers(4, 3, InitScheme("uniform"), seed=6)
    traj = integrate(stack0, loss, StepController(h=1e-3, t_max=2.0, max_points=10**6))
    vel = np.array([theta_rhs(traj.stack_at(k), loss) for k in range(len(traj))])
    dt = np.diff(traj.times)[:, None]
    increments = traj.thetas[1:] - traj.thetas[:-1]
    quad = 0.5 * dt * (vel[:-1] + vel[1:])
    assert np.max(np.abs(increments - quad)) <= 1e-8


def test_fourth_order_convergence_on_scalar_benchmark():
    # end-state errors against the h/4 reference shrink ~16x per halving
    loss = scalar_loss()
    stack0 = LayerStack([[1.0], [2.0]])

    def end_theta(h):
        traj = integrate(stack0, loss, StepController(h=h, t_max=1.0, max_points=10**6))
        return float(traj.final_theta[0])

    h = 2e-3
    ref = end_theta(h / 4)
    e1 = abs(end_theta(h) - ref)
    e2 = abs(end_theta(h / 2) - ref)
    assert 12.0 < e1 / e2 < 22.0


def test_step_halving_improves_accuracy():
    loss = make_problem(5, 3, 7)
    stack0 = init_layers(3, 2, InitScheme("uniform"), seed=8)
    ref = integrate(stack0, loss, StepController(h=1.25e-4, t_max=1.0, max_points=10**6))
    coarse = integrate(stack0, loss, StepController(h=1e-3, t_max=1.0))
    fine = integrate(stack0, loss, StepController(h=5e-4, t_max=1.0))
    e1 = np.max(np.abs(coarse.final_theta - ref.final_theta))
    e2 = np.max(np.abs(fine.final_theta - ref.final_theta))
    assert e2 < e1


def test_adaptive_agrees_with_fine_fixed_grid():
    loss = make_problem(6, 4, 9)
    stack0 = init_layers(4, 3, InitScheme("uniform"), seed=10)
    fixed = integrate(stack0, loss, StepController(h=1e-4, t_max=2.0, max_points=10**6))
    adapt = integrate(stack0, loss, StepController(mode="adaptive", t_max=2.0))
    np.testing.assert_allclose(adapt.final_theta, fixed.final_theta, atol=1e-7)
    assert len(adapt) < len(fixed)


def test_adaptive_handles_stiff_large_initialization():
    loss = make_problem(10, 8, 0)
    stack0 = init_layers(8, 6, InitScheme("zero_first", scale=1.8), seed=1)
    traj = integrate(stack0, loss, StepController(mode="adaptive", t_max=2.0))
    assert np.all(np.isfinite(traj.thetas))
    gap = traj.losses - loss.optimal_value
    assert gap[-1] < 1e-3 * gap[0]


def test_stop_gap_ends_run_early():
    loss = make_problem(6, 4, 12)
    stack0 = init_layers(4, 2, InitScheme("uniform"), seed=13)
    ctrl = StepController(mode="adaptive", t_max=1e4, stop_gap=1e-8)
    traj = integrate(stack0, loss, ctrl)
    assert traj.losses[-1] - loss.optimal_value <= 1e-8
    assert traj.times[-1] < 1e4


def test_divergence_guard_reports_time():
    loss = QuadraticLoss(np.array([[3.0]]), np.array([0.0]))
    with pytest.raises(DivergenceError) as err:
        integrate(LayerStack([[1.0], [2.0]]), loss, StepController(h=50.0, t_max=5000.0))
    assert err.value.time > 0


def _scalar_run(h):
    loss = QuadraticLoss(np.array([[3.0]]), np.array([0.0]))
    return integrate(LayerStack([[1.0], [2.0]]), loss, StepController(h=h, t_max=10 * h))


def _tied_run(h):
    loss = make_problem(4, 3, 20, positive=True)
    return integrate_redundant(np.array([0.8, 1.1, 0.9]), 4, loss, StepController(h=h, t_max=10 * h))


# one oversized first step per branch of the guard, checked in this order
@pytest.mark.parametrize("run, h, message", [
    (_scalar_run, 1e3, "non-finite state at t=1000; reduce the step size"),
    (_scalar_run, 0.2, "integration diverged at t=0.2; reduce the step size"),
    (_tied_run, 0.25, "state left the positive orthant at t=0.25; reduce the step size"),
], ids=["non_finite", "theta_above_limit", "left_positive_orthant"])
def test_divergence_guard_branches(run, h, message):
    with pytest.raises(DivergenceError) as err:
        run(h)
    assert str(err.value) == message
    assert err.value.time == h


def test_adaptive_step_underflow():
    # curvature 1e16: no step above the floor meets the default tolerances
    loss = QuadraticLoss([[1e8]], [1.0])
    ctrl = StepController(mode="adaptive", t_max=1.0)
    with pytest.raises(StepUnderflowError) as err:
        integrate(LayerStack([[1.0], [2.0]]), loss, ctrl)
    assert err.value.time == 0.0


def test_snapshot_decimation_caps_points_but_not_xi_accuracy():
    loss = make_problem(5, 3, 16)
    stack0 = init_layers(3, 2, InitScheme("uniform"), seed=17)
    full = integrate(stack0, loss, StepController(h=1e-3, t_max=2.0, max_points=10**6))
    thin = integrate(stack0, loss, StepController(h=1e-3, t_max=2.0, max_points=100))
    assert len(full) == 2001
    assert len(thin) <= 100
    assert thin.times[-1] == full.times[-1]
    # xi is accumulated on the full grid before decimation
    assert np.array_equal(thin.xi[-1], full.xi[-1])
    # every kept snapshot is the full run's row at the same time
    rows = np.searchsorted(full.times, thin.times)
    for name in ("times", "layers", "thetas", "xi", "losses", "grads"):
        assert np.array_equal(getattr(thin, name), getattr(full, name)[rows]), name


_FIELDS = ("times", "layers", "thetas", "xi", "losses", "grads")


def _decimation_rows(k, max_points):
    """Every stride-th of k rows plus the last, the stride capping them at max_points."""
    stride = math.ceil(k / (max_points - 1)) if k > max_points else 1
    return sorted({*range(0, k, stride), k - 1})


@pytest.mark.parametrize("ctrl, full_rows", [
    (StepController(h=1e-2, t_max=1.0, max_points=100), 101),   # max_points + 1 rows
    (StepController(h=1e-2, t_max=1.0, max_points=101), 101),   # max_points rows
    (StepController(h=1e-2, t_max=1.0, max_points=102), 101),   # max_points - 1 rows
    (StepController(h=1e-2, t_max=1.0, max_points=2), 101),
    (StepController(h=1e-2, t_max=1.0, max_points=3), 101),
    (StepController(h=1e-2, t_max=1.0, max_points=7), 101),
    (StepController(h=0.03, t_max=1.0, max_points=5), 35),      # T is not a multiple of h
    (StepController(h=1e-3, t_max=2.3, max_points=333), 2301),
    (StepController(h=1e-2, t_max=50.0, max_points=9, stop_gap=1e-3), 419),
    (StepController(mode="adaptive", t_max=5.0, max_points=11), 92),
], ids=["rows_m+1", "rows_m", "rows_m-1", "m2", "m3", "m7", "ragged_T", "long_ragged_T",
        "stop_gap", "adaptive"])
def test_kept_rows_are_the_undecimated_rows_at_the_decimation_indices(ctrl, full_rows):
    loss = make_problem(5, 3, 16)
    stack0 = init_layers(3, 3, InitScheme("uniform"), seed=17)
    full = integrate(stack0, loss, replace(ctrl, max_points=10**6))
    kept = integrate(stack0, loss, ctrl)
    assert len(full) == full_rows
    rows = _decimation_rows(full_rows, ctrl.max_points)
    assert len(kept) == len(rows) <= ctrl.max_points
    for name in _FIELDS:
        assert np.array_equal(getattr(kept, name), getattr(full, name)[rows]), name
    assert kept.optimum == full.optimum


def test_fixed_run_holds_only_the_snapshots_it_returns():
    # 10,000 steps kept at 3,335 rows: recording every step before
    # decimating peaked at 4.7 times the returned arrays
    loss = make_problem(8, 64, 0)
    stack0 = init_layers(64, 2, InitScheme("uniform"), seed=1)
    tracemalloc.start()
    try:
        traj = integrate(stack0, loss, StepController(h=1e-3, t_max=10.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj) == 3335
    assert peak <= 2 * sum(getattr(traj, name).nbytes for name in _FIELDS)


@pytest.mark.parametrize("overlap", [0, 1, 2])
def test_snapshot_blocks_cover_every_window_once(overlap):
    B = SNAPSHOT_BLOCK
    for k in (0, 1, 2, 3, B - 1, B, B + 1, 2 * B - 2, 2 * B - 1, 2 * B, 3 * B + 5):
        traj = Trajectory(np.arange(k, dtype=float), np.zeros((k, 2, 1)), np.zeros((k, 1)),
                          np.zeros((k, 1)), np.zeros(k), np.zeros((k, 1)))
        parts = [part.times.astype(int) for part in traj.blocks(overlap)]
        assert all(0 < len(p) <= B for p in parts) or k == 0
        assert sorted({*np.concatenate(parts)}) == [*range(k)]
        # each run of overlap + 1 neighbouring rows lies in exactly one block
        width = min(overlap + 1, k)
        windows = [tuple(p[a:a + width]) for p in parts for a in range(len(p) - width + 1)]
        assert sorted(windows) == [tuple(range(a, a + width)) for a in range(k - width + 1)]


def _recorded_runs():
    loss = make_problem(5, 3, 16)
    stack0 = init_layers(3, 3, InitScheme("uniform"), seed=17)
    tied_loss = make_problem(3, 5, 21, positive=True)
    yield loss, integrate(stack0, loss, StepController(h=1e-2, t_max=1.0))
    yield loss, integrate(stack0, loss, StepController(mode="adaptive", t_max=5.0, max_points=20))
    yield tied_loss, integrate_redundant(np.full(5, 0.8), 4, tied_loss,
                                         StepController(mode="adaptive", t_max=50.0, max_points=30))


def test_trajectory_records_the_gradient_and_optimum_it_was_driven_by():
    for loss, traj in _recorded_runs():
        assert traj.grads.shape == traj.thetas.shape
        for theta, g in zip(traj.thetas, traj.grads):
            assert np.array_equal(g, loss.gradient(theta))
        assert traj.optimum == loss.optimal_value


def test_controller_validation():
    with pytest.raises(ValueError):
        StepController(mode="euler")
    with pytest.raises(ValueError):
        StepController(h=0.0)
    with pytest.raises(ValueError):
        StepController(t_max=-1.0)
    for field in ("h", "t_max"):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                StepController(**{field: value})


def test_csv_export_roundtrip(tmp_path):
    loss = make_problem(5, 3, 18)
    stack0 = init_layers(3, 2, InitScheme("uniform"), seed=19)
    traj = integrate(stack0, loss, StepController(t_max=0.5))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path, include_layers=True)
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["t", "loss"]
    assert header[2:5] == ["theta_1", "theta_2", "theta_3"]
    assert header[5:8] == ["xi_1", "xi_2", "xi_3"]
    assert header[8:] == ["u_1_1", "u_1_2", "u_1_3", "u_2_1", "u_2_2", "u_2_3"]
    row = np.array(lines[-1].split(","), dtype=float)
    assert row[0] == traj.times[-1]
    np.testing.assert_array_equal(row[2:5], traj.thetas[-1])
    # %.17g formatting makes repeated writes byte-identical
    other = tmp_path / "traj2.csv"
    write_trajectory_csv(traj, other, include_layers=True)
    assert path.read_bytes() == other.read_bytes()


def test_redundant_flow_basics():
    loss = make_problem(4, 3, 20, positive=True)
    u0 = np.array([0.8, 1.1, 0.9])
    traj = integrate_redundant(u0, 4, loss, StepController(t_max=1.0))
    assert traj.num_layers == 4
    # snapshots are tied copies of one vector and theta is their product
    assert np.array_equal(traj.layers[:, 0], traj.layers[:, 2])
    assert np.array_equal(np.prod(traj.layers, axis=1), traj.thetas)
    assert np.all(traj.layers > 0)
    assert traj.losses[-1] <= traj.losses[0]


class _QuarticLoss:
    """Duck-typed objective: only value/gradient are required of a loss."""

    def value(self, theta):
        return float(np.sum(theta ** 4))

    def gradient(self, theta):
        return 4.0 * theta ** 3


def test_integrate_accepts_any_value_gradient_pair():
    loss = _QuarticLoss()
    traj = integrate(LayerStack([[0.8, -0.5], [0.6, 0.9]]), loss,
                     StepController(t_max=1.0))
    assert traj.losses[-1] < traj.losses[0]
    assert np.all(np.diff(traj.losses) <= 1e-10)
    assert np.array_equal(traj.xi[0], np.zeros(2))
    assert traj.optimum == 0.0  # a loss without optimal_value has optimum 0


def test_quartic_loss_through_general_mirror_residual():
    # the residual reads the gradients the driver recorded from a duck-typed loss
    stack0 = LayerStack([[0.8, -0.5, 0.7], [0.6, 0.9, -0.7], [0.9, 0.6, 0.8]])
    r1, r2 = (
        mirror_residual_general(integrate(
            stack0, _QuarticLoss(), StepController(h=h, t_max=1.0, max_points=10**6)))
        for h in (1e-3, 5e-4)
    )
    assert r1 <= 1e-4
    assert 3.2 <= r1 / r2 <= 4.8


@pytest.mark.parametrize("num_layers", [3, 4, 5])
def test_tied_flow_matches_untied_flow_on_tied_layers(num_layers):
    # L equal layers stay equal and move L times slower than the tied u,
    # so the tied flow at (h, T) is the untied flow at (L*h, L*T)
    L = num_layers
    loss = make_problem(4, 3, 22, positive=True)
    u0 = np.array([0.8, 1.1, 0.9])
    tied = integrate_redundant(u0, L, loss, StepController(h=1e-3, t_max=1.0))
    untied = integrate(LayerStack(np.tile(u0, (L, 1))), loss,
                       StepController(h=L * 1e-3, t_max=L * 1.0))
    assert len(tied) == len(untied)
    np.testing.assert_allclose(tied.thetas, untied.thetas, rtol=0, atol=1e-12)
    np.testing.assert_allclose(tied.layers, untied.layers, rtol=0, atol=1e-12)
    np.testing.assert_allclose(L * tied.xi, untied.xi, rtol=0, atol=1e-12)


def test_redundant_flow_validation():
    loss = make_problem(4, 3, 21, positive=True)
    with pytest.raises(ValueError):
        integrate_redundant(np.array([1.0, -0.5, 1.0]), 4, loss, StepController(t_max=1.0))
    with pytest.raises(ValueError):
        integrate_redundant(np.ones(3), 2, loss, StepController(t_max=1.0))


def _reference_thetas(velocity, y0, times, theta_of):
    """Theta at ``times`` from scipy's DOP853 at rtol 1e-12, atol 1e-14."""
    integ = pytest.importorskip("scipy.integrate")
    sol = integ.solve_ivp(lambda t, y: velocity(y), (0.0, times[-1]), y0, method="DOP853",
                          t_eval=times, rtol=1e-12, atol=1e-14)
    assert sol.success
    return theta_of(sol.y.T)


# Worst theta errors measured at T=2 against the reference: fixed RK4 at
# h=1e-3 1.5e-11 untied and 9.4e-9 tied; adaptive step doubling 7.1e-8
# untied and 1.7e-7 tied. The bounds leave a factor of at least 5.
@pytest.mark.parametrize("mode, bound", [("fixed", 1e-9), ("adaptive", 1e-6)])
@pytest.mark.parametrize("num_layers", [2, 3, 4, 5])
def test_integrate_matches_scipy_reference(num_layers, mode, bound):
    L, d = num_layers, 4
    loss = make_problem(6, d, 20 + L)
    stack0 = init_layers(d, L, InitScheme("uniform"), seed=30 + L)
    traj = integrate(stack0, loss, StepController(mode=mode, t_max=2.0, max_points=200))
    ref = _reference_thetas(
        lambda y: layer_rhs(LayerStack(y.reshape(L, d)), loss).ravel(),
        stack0.layers.ravel(), traj.times,
        lambda ys: np.prod(ys.reshape(-1, L, d), axis=1))
    assert np.max(np.abs(traj.thetas - ref)) <= bound


@pytest.mark.parametrize("mode, bound", [("fixed", 1e-7), ("adaptive", 1e-6)])
@pytest.mark.parametrize("num_layers", [3, 4, 5])
def test_integrate_redundant_matches_scipy_reference(num_layers, mode, bound):
    L = num_layers
    loss = make_problem(3, 6, 40, positive=True)
    u0 = init_layers(6, 2, InitScheme("positive"), seed=50).layers[0]
    traj = integrate_redundant(u0, L, loss, StepController(mode=mode, t_max=2.0, max_points=200))
    ref = _reference_thetas(lambda u: -L * u ** (L - 1) * loss.gradient(u ** L),
                            u0, traj.times, lambda us: us ** L)
    assert np.max(np.abs(traj.thetas - ref)) <= bound
