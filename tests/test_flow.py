import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from diagflow import (
    DivergenceError,
    ExperimentConfig,
    InitScheme,
    LayerStack,
    PowerEntropy,
    QuadraticLoss,
    StepController,
    StepUnderflowError,
    Trajectory,
    init_layers,
    integrate,
    integrate_redundant,
    layer_rhs,
    leave_one_out_products,
    make_problem,
    mirror_residual_general,
    mobility,
    run_bias,
    theta_of_layers,
    write_trajectory_csv,
)
from diagflow import flow as flow_module
from diagflow.experiments import FLOW_LIMIT_GAP, GAP_TARGET
from diagflow.flow import (
    _DENSE_W_ENTRIES,
    _MIN_STEP_FRACTION,
    _RO_GAMMA,
    _STIFF_FAILS,
    DIVERGENCE_LIMIT,
    SNAPSHOT_BLOCK,
    _dense_w_solver,
    _error_ratio,
    _guard,
    _rodas_step,
    _StiffnessTest,
    _w_solver,
    _woodbury_w_solver,
)
from diagflow.model import product_jacobian, tied_hooks

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


def _theta_velocity(stack, loss):
    """Velocity of theta: minus the mobility diagonal times the gradient."""
    return -mobility(stack.layers) * loss.gradient(stack.theta)


def test_theta_rhs_diagonal_weights():
    stack = LayerStack([[1.0, 2.0], [3.0, 4.0]])
    loss = QuadraticLoss(np.eye(2), np.zeros(2))
    g = loss.gradient(stack.theta)
    assert np.allclose(_theta_velocity(stack, loss), [-10.0 * g[0], -20.0 * g[1]], rtol=1e-14)


def test_theta_rhs_consistent_with_product_rule():
    rng = np.random.default_rng(11)
    for _ in range(100):
        L = int(rng.integers(2, 6))
        d = int(rng.integers(1, 6))
        loss = QuadraticLoss(rng.uniform(-1, 1, (d + 1, d)), rng.uniform(-1, 1, d + 1))
        stack = LayerStack(rng.uniform(-1.5, 1.5, (L, d)))
        direct = _theta_velocity(stack, loss)
        rhs = layer_rhs(stack, loss)
        chained = np.sum(leave_one_out_products(stack.layers) * rhs, axis=0)
        np.testing.assert_allclose(direct, chained, rtol=1e-12, atol=1e-14)


def test_theta_rhs_zero_gradient():
    loss = QuadraticLoss(np.array([[1.0]]), np.array([6.0]))
    assert np.array_equal(_theta_velocity(LayerStack([[2.0], [3.0]]), loss), [0.0])


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
    vel = np.array([_theta_velocity(traj.stack_at(k), loss) for k in range(len(traj))])
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


@pytest.mark.parametrize("flow", ["layers", "tied"])
def test_one_rk4_step_is_the_textbook_sum_bit_for_bit(flow):
    # the driver sums its stages by one np.add.reduce over rows; that must be
    # y + (h/6) (k1 + (k2 + k2) + (k3 + k3) + k4), added left to right, with
    # the velocities k and the state y the layers, then xi's row
    h = 0.01
    if flow == "layers":
        loss = make_problem(10, 8, 1)
        y0 = init_layers(8, 5, InitScheme("uniform"), seed=11).layers
        traj = integrate(LayerStack(y0), loss, StepController(h=h, t_max=h))
        got = np.vstack([traj.layers[1], traj.xi[1]])

        def velocity(s):
            g = loss.gradient(theta_of_layers(s[:-1]))
            return np.vstack([-leave_one_out_products(s[:-1]) * g, -g])
    else:
        L, loss = 4, make_problem(4, 3, 20, positive=True)
        y0 = np.array([[0.8, 1.1, 0.9]])
        traj = integrate_redundant(y0[0], L, loss, StepController(h=h, t_max=h))
        got = np.vstack([traj.layers[1, :1], traj.xi[1]])

        def velocity(s):
            g = loss.gradient(theta_of_layers(np.repeat(s[:1], L, axis=0)))
            return np.vstack([-(L * s[:1] ** (L - 1)) * g, -g])
    y = np.vstack([y0, np.zeros((1, y0.shape[1]))])
    k1 = velocity(y)
    k2 = velocity(y + (h / 2) * k1)
    k3 = velocity(y + (h / 2) * k2)
    k4 = velocity(y + h * k3)
    assert len(traj) == 2
    assert np.array_equal(got, y + (h / 6) * (k1 + (k2 + k2) + (k3 + k3) + k4))


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
    assert err.value.time == err.value.h == h
    top = err.value.max_abs_theta
    if "non-finite" in message:
        assert not np.isfinite(top)
    else:
        assert (top > DIVERGENCE_LIMIT) == ("diverged" in message)


@pytest.mark.parametrize("layers", [
    [[np.inf, 1.0], [0.0, 2.0]],             # inf * 0 in one coordinate
    [[1e200, 1.0], [1e200, 2.0], [0.0, 3.0]],  # finite layers whose product overflows, times 0
    [[np.nan, 1.0], [2.0, 2.0]],             # a NaN layer
], ids=["inf_times_zero", "overflow_times_zero", "nan_layer"])
def test_guard_rejects_a_nan_theta_as_non_finite(layers):
    # theta is NaN, so neither the fast path nor the bound on |theta| may accept it
    y = np.array(layers)
    with np.errstate(over="ignore", invalid="ignore"):
        theta = theta_of_layers(y)
        assert np.isnan(theta[0])
        with pytest.raises(DivergenceError) as err:
            _guard(y, theta, 0.5, 0.01, False)
    assert str(err.value) == "non-finite state at t=0.5; reduce the step size"
    assert (err.value.time, err.value.h) == (0.5, 0.01)
    assert np.isnan(err.value.max_abs_theta)


@pytest.mark.parametrize("theta, xi, message, top", [
    ([1e12, -1e12, 1e12], 0.0, None, None),
    ([1e200, 1.0, 2.0], 0.0, "integration diverged at t=0.5; reduce the step size", 1e200),
    ([np.inf, 1.0, 2.0], 0.0, "non-finite state at t=0.5; reduce the step size", np.inf),
    ([1.0, 1.0, 2.0], np.inf, "non-finite state at t=0.5; reduce the step size", 2.0),
    ([1.0, 1.0, 2.0], np.nan, "non-finite state at t=0.5; reduce the step size", 2.0),
    ([1.0, 1.0, 2.0], 1e13, None, None),
], ids=["sum_of_squares_above_the_limit", "square_overflows", "inf_theta", "inf_xi", "nan_xi",
        "finite_xi_above_the_limit"])
def test_guard_bounds_the_largest_theta_not_its_sum_of_squares(theta, xi, message, top):
    # the fast path tests theta @ theta + xi @ xi against the limit squared;
    # a theta at the limit whose sum of squares is above it passes, as does a
    # finite xi above the limit, and a theta whose square overflows is
    # reported by its largest component
    y = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [xi, 0.0, 0.0]])  # two layers and xi
    theta = np.array(theta)
    with np.errstate(over="ignore", invalid="ignore"):
        if message is None:
            assert np.dot(theta, theta) + np.dot(y[-1], y[-1]) > DIVERGENCE_LIMIT ** 2
            _guard(y, theta, 0.5, 0.01, False)
            return
        with pytest.raises(DivergenceError) as err:
            _guard(y, theta, 0.5, 0.01, False)
    assert str(err.value) == message
    assert (err.value.time, err.value.h, err.value.max_abs_theta) == (0.5, 0.01, top)


def test_adaptive_step_underflow():
    # curvature 1e16: no step above the floor meets the default tolerances
    loss = QuadraticLoss([[1e8]], [1.0])
    ctrl = StepController(mode="adaptive", t_max=1.0)
    with pytest.raises(StepUnderflowError) as err:
        integrate(LayerStack([[1.0], [2.0]]), loss, ctrl)
    assert err.value.time == 0.0
    assert 0 < err.value.h < _MIN_STEP_FRACTION
    assert str(err.value) == f"adaptive step size underflow at t=0 (h={err.value.h:.3g})"


def test_a_growing_step_never_underflows():
    # the floor binds only after a rejected step: a first step of 1e-15
    # grows by up to 5 times per accepted step, past the floor of 1e-14
    loss = make_problem(5, 3, 16)
    ctrl = StepController(mode="adaptive", h=1e-15, t_max=5.0)
    traj = integrate(init_layers(3, 3, InitScheme("uniform"), seed=17), loss, ctrl)
    assert traj.times[1] == 1e-15
    assert traj.times[-1] == 5.0


@pytest.mark.parametrize("ctrl", [
    StepController(mode="adaptive", t_max=1e-15),
    StepController(mode="adaptive", t_max=1e-300),
    StepController(mode="adaptive", t_max=1e-3 + 1.5e-15),  # a last step of 1.5e-15
    StepController(h=1e-17, t_max=1e-15),                   # fixed steps below the floor
], ids=["adaptive_1e-15", "adaptive_1e-300", "adaptive_ragged", "fixed_tiny_step"])
def test_a_finished_run_never_underflows(ctrl):
    # the floor binds only while the run is unfinished: the controller's
    # step after a short last one may fall below it
    loss = make_problem(5, 3, 16)
    traj = integrate(init_layers(3, 3, InitScheme("uniform"), seed=17), loss, ctrl)
    assert traj.times[-1] == pytest.approx(ctrl.t_max, rel=1e-12)


def test_snapshot_decimation_caps_points_but_not_xi_accuracy():
    loss = make_problem(5, 3, 16)
    stack0 = init_layers(3, 2, InitScheme("uniform"), seed=17)
    full = integrate(stack0, loss, StepController(h=1e-3, t_max=2.0, max_points=10**6))
    thin = integrate(stack0, loss, StepController(h=1e-3, t_max=2.0, max_points=100))
    assert len(full) == 2001
    assert len(thin) <= 100
    assert thin.times[-1] == full.times[-1]
    # xi is a state row, integrated on the full grid before decimation
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
    (StepController(mode="adaptive", t_max=5.0, max_points=11), 98),
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


def _collect_rows(rows):
    """An ``on_row`` callback that appends a copy of each row it sees to ``rows``."""
    return lambda row: rows.append(tuple(np.array(v, dtype=float) for v in row))


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# (t, layers, theta, xi, loss, gradient): the order of a row given to ``on_row``
_ROW_FIELDS = ("times", "layers", "thetas", "xi", "losses", "grads")


@pytest.mark.parametrize("ctrl", [
    StepController(h=1e-2, t_max=1.0, max_points=2),
    StepController(h=1e-2, t_max=1.0, max_points=3),
    StepController(h=1e-2, t_max=1.0, max_points=7),
    StepController(h=1e-3, t_max=6.0),                # 6,001 rows, 3,001 kept
    StepController(h=0.03, t_max=1.0, max_points=5),  # T is not a multiple of h
], ids=["m2", "m3", "m7", "m5000_6001_rows", "ragged_T"])
def test_row_callback_sees_each_returned_row_once_in_order(ctrl):
    loss = make_problem(5, 3, 16)
    stack0 = init_layers(3, 3, InitScheme("uniform"), seed=17)
    rows = []
    traj = integrate(stack0, loss, ctrl, on_row=_collect_rows(rows))
    assert len(rows) == len(traj)
    for name, column in zip(_ROW_FIELDS, zip(*rows)):
        assert _same_bits(column, getattr(traj, name)), name


@pytest.mark.parametrize("ctrl, hessian", [
    (StepController(h=1e-2, t_max=50.0, max_points=9, stop_gap=1e-3), False),
    (StepController(mode="adaptive", t_max=5.0, max_points=11), False),
    (StepController(mode="adaptive", t_max=500.0, max_points=50), True),  # would switch to RODAS4
], ids=["stop_gap", "adaptive", "rodas4"])
def test_row_callback_is_refused_on_a_grid_not_counted_up_front(ctrl, hessian):
    # such a grid is known only at the end, when the Trajectory holds every
    # kept row; the run stops before its first step and hands over nothing
    loss = _CountingLoss(make_problem(6, 4, 0), hessian=hessian)
    stack0 = init_layers(4, 4, InitScheme("uniform", scale=0.3), seed=1)
    rows = []
    with pytest.raises(ValueError, match="on_row needs a fixed-step run without stop_gap"):
        integrate(stack0, loss, ctrl, on_row=_collect_rows(rows))
    assert rows == [] and sum(loss.calls.values()) == 1  # the initial state's evaluation


class _PoisonedLoss:
    """A loss whose gradient turns NaN from its ``calls``-th evaluation on."""

    def __init__(self, loss, calls):
        self._loss, self.left = loss, calls

    def gradient(self, theta):
        self.left -= 1
        g = self._loss.gradient(theta)
        return g if self.left > 0 else np.full_like(g, np.nan)

    def value(self, theta):
        return self._loss.value(theta)


@pytest.mark.parametrize("max_points", [10**6, 7])
def test_a_diverging_run_delivers_no_row_past_its_last_accepted_one(max_points):
    # on a counted grid rows go out as they are written, so the rows before
    # the divergence are out when it raises, and nothing after them
    loss = make_problem(5, 3, 16)
    stack0 = init_layers(3, 3, InitScheme("uniform"), seed=17)
    ctrl = StepController(h=1e-2, t_max=1.0, max_points=max_points)
    rows = []
    with pytest.raises(DivergenceError) as err:
        integrate(stack0, _PoisonedLoss(loss, 250), ctrl, on_row=_collect_rows(rows))
    clean = integrate(stack0, loss, ctrl)
    kept = clean.times < err.value.time
    assert 0.5 < err.value.time < 0.7 and 2 <= len(rows) == kept.sum()
    for name, column in zip(_ROW_FIELDS, zip(*rows)):
        assert _same_bits(column, getattr(clean, name)[kept]), name


def _reference_rk4(y0, loss, ctrl, theta_of, velocity):
    """Fixed-step RK4 written out with allocating stages, xi carried as the
    state's last row with velocity ``-g``, every row recorded, then kept by
    the snapshot rule: the columns ``integrate`` must reproduce bit for bit."""
    def augmented(y, g):
        return np.vstack([velocity(y[:-1], g), -g])

    def rhs(y):
        return augmented(y, loss.gradient(theta_of(y[:-1])))

    t, h, y = 0.0, ctrl.h, np.vstack([y0, np.zeros(np.shape(y0)[1])])
    theta = theta_of(y[:-1])
    val, g = loss.value_and_gradient(theta)
    k1 = augmented(y, g)
    rows = [(t, y[:-1], theta, y[-1], val, g)]
    while t < ctrl.t_max - 1e-12 * ctrl.t_max:
        h = min(h, ctrl.t_max - t)
        k2 = rhs(y + (0.5 * h) * k1)
        k3 = rhs(y + (0.5 * h) * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t + h
        theta = theta_of(y[:-1])
        val, g = loss.value_and_gradient(theta)
        k1 = augmented(y, g)
        rows.append((t, y[:-1], theta, y[-1], val, g))
    keep = _decimation_rows(len(rows), ctrl.max_points)
    return [np.array(column)[keep] for column in zip(*rows)]


@pytest.mark.parametrize("max_points", [10**6, 37], ids=["every_row", "decimated"])
@pytest.mark.parametrize("scheme", ["uniform", "zero_first"])
@pytest.mark.parametrize("num_layers", [2, 3, 4, 5, 6])
def test_fixed_run_equals_plain_rk4_bit_for_bit(num_layers, scheme, max_points):
    # zero_first starts with an exact-zero layer
    L, d = num_layers, 4
    loss = make_problem(6, d, 80 + L, x_scale=0.5)
    stack0 = init_layers(d, L, InitScheme(scheme), seed=90 + L)
    ctrl = StepController(h=1e-3, t_max=0.3, max_points=max_points)
    traj = integrate(stack0, loss, ctrl)
    want = _reference_rk4(stack0.layers, loss, ctrl, theta_of_layers,
                          lambda y, g: -leave_one_out_products(y) * g)
    for name, column in zip(_FIELDS, want):
        assert np.array_equal(getattr(traj, name), column), name


@pytest.mark.parametrize("num_layers", [3, 4, 5])
def test_fixed_tied_run_equals_plain_rk4_bit_for_bit(num_layers):
    L = num_layers
    loss = make_problem(3, 5, 21, positive=True)
    ctrl = StepController(h=1e-3, t_max=0.3, max_points=50)
    u0 = np.array([0.8, 1.1, 0.9, 0.7, 1.2])
    traj = integrate_redundant(u0, L, loss, ctrl)
    want = _reference_rk4(u0[None, :], loss, ctrl, lambda y: y.repeat(L, axis=0).prod(axis=0),
                          lambda y, g: -L * y ** (L - 1) * g)
    want[1] = np.repeat(want[1], L, axis=1)
    for name, column in zip(_FIELDS, want):
        assert np.array_equal(getattr(traj, name), column), name


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


def test_adaptive_run_holds_its_rows_in_arrays():
    # 531 accepted steps, most of them RODAS4's once the run turns stiff,
    # every row kept: the rows go into arrays that double as they fill (the
    # peak measured 2.5 times the returned arrays)
    loss = make_problem(6, 4, 0)
    stack0 = init_layers(4, 4, InitScheme("uniform", scale=0.3), seed=1)
    tracemalloc.start()
    try:
        traj = integrate(stack0, loss, StepController(mode="adaptive", t_max=500.0, max_points=10**6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * sum(getattr(traj, name).nbytes for name in _FIELDS)
    assert len(traj) == 532


class _CountingLoss:
    """A loss that counts its calls per entry point.

    It offers ``hessian`` only when asked to, so that by default adaptive
    runs stay on Dormand–Prince. ``switch_gap`` is the loss gap at the first
    ``hessian`` call, where the run switched to RODAS4.
    """

    def __init__(self, loss, hessian=False):
        self._loss = loss
        self.optimal_value = loss.optimal_value
        self.calls = dict.fromkeys(("value", "gradient", "value_and_gradient", "hessian"), 0)
        self.switch_gap = None
        if hessian:
            self.hessian = self._hessian

    def value(self, theta):
        self.calls["value"] += 1
        return self._loss.value(theta)

    def gradient(self, theta):
        self.calls["gradient"] += 1
        return self._loss.gradient(theta)

    def value_and_gradient(self, theta):
        self.calls["value_and_gradient"] += 1
        return self._loss.value_and_gradient(theta)

    def _hessian(self, theta):
        if self.switch_gap is None:
            self.switch_gap = self._loss.gap(theta)
        self.calls["hessian"] += 1
        return self._loss.hessian(theta)


class _KeepingLoss(_CountingLoss):
    """A ``_CountingLoss`` with ``hessian`` that keeps every theta handed to
    ``value_and_gradient``, with a copy taken at the call."""

    def __init__(self, loss):
        super().__init__(loss, hessian=True)
        self.kept = []

    def value_and_gradient(self, theta):
        self.kept.append((theta, theta.copy()))
        return super().value_and_gradient(theta)


@pytest.mark.parametrize("ctrl", [
    StepController(h=1e-2, t_max=5.0, max_points=10**6),
    StepController(mode="adaptive", t_max=100.0, max_points=10**6),
], ids=["fixed", "adaptive_to_rodas4"])
def test_a_loss_may_keep_every_theta_of_value_and_gradient(ctrl):
    # the flow passes value_and_gradient a fresh theta per new state and
    # never writes to it again; the adaptive run switches to RODAS4 between
    # t = 50 and 100, and its kept thetas include rejected attempts
    loss = _KeepingLoss(make_problem(6, 4, 0))
    traj = integrate(init_layers(4, 4, InitScheme("uniform", scale=0.3), seed=1), loss, ctrl)
    assert (loss.switch_gap is not None) == (ctrl.mode == "adaptive")
    assert all(np.array_equal(theta, copy) for theta, copy in loss.kept)
    assert len({id(theta) for theta, _ in loss.kept}) == len(loss.kept)
    if ctrl.mode == "fixed":
        assert len(loss.kept) == len(traj)
    kept = iter(theta for theta, _ in loss.kept)  # the rows are a subsequence of the kept
    assert all(any(np.array_equal(row, theta) for theta in kept) for row in traj.thetas)


def test_adaptive_step_costs_six_loss_calls():
    # each attempted step takes five gradients and one value and gradient at
    # the new point, which an accepted step reuses (RK4 step doubling took
    # eleven calls per attempt)
    loss = _CountingLoss(make_problem(5, 3, 16))
    stack0 = init_layers(3, 3, InitScheme("uniform"), seed=17)
    traj = integrate(stack0, loss, StepController(mode="adaptive", t_max=5.0, max_points=10**6))
    assert sum(loss.calls.values()) <= 7 * (len(traj) - 1)
    attempts = loss.calls["value_and_gradient"] - 1  # one call at the start
    assert loss.calls["value"] == 0
    assert loss.calls["gradient"] == 5 * attempts


@pytest.mark.parametrize("make_loss, run", [
    (lambda: make_problem(5, 3, 16),
     lambda f: integrate(init_layers(3, 3, InitScheme("uniform"), seed=17), f,
                         StepController(mode="adaptive", t_max=5.0, max_points=10**6))),
    (lambda: make_problem(3, 5, 21, positive=True),
     lambda f: integrate_redundant(np.full(5, 0.8), 4, f,
                                   StepController(mode="adaptive", t_max=50.0, max_points=10**6))),
], ids=["layers", "tied"])
def test_a_run_that_never_turns_stiff_keeps_the_dormand_prince_floats(make_loss, run):
    # the stiffness test watches a loss with hessian but moves no float of a
    # run that passes it: the run is the one of a loss without hessian
    loss = make_loss()
    watched = _CountingLoss(loss, hessian=True)
    runs = run(watched), run(loss), run(_CountingLoss(loss))
    assert watched.calls["hessian"] == 0
    for name in _FIELDS:
        assert all(np.array_equal(getattr(r, name), getattr(runs[-1], name)) for r in runs), name


def test_error_ratio_leaves_xi_row_out():
    # xi, the state's last row, never shapes the grid: with it in the norm
    # the tied L=4, alpha=1 bias flow took 303 rows instead of 194
    y = np.ones((3, 2))  # every scale is _ATOL + _RTOL = 1.01e-8
    for xi_err in (0.0, 1e-3, np.inf, np.nan):
        err = np.array([2.02e-8, -1e-9, 0.0, 5e-9, xi_err, -xi_err])
        assert _error_ratio(err, y, y) == pytest.approx(2.0)


def test_stiffness_test_reads_the_flow_rows_only():
    # stages whose flow rows fail the test (|k7 - k6| far above the spread
    # |(a7 - a6) @ k|) make the run stiff at the 15th step whatever xi's
    # row, the last, holds; counted in the norms, xi's row delayed the
    # switch to RODAS4 by up to 68 steps on two-layer bias flows
    # (n=8, d=16), or kept a run from switching at all
    rng = np.random.default_rng(0)
    test = _StiffnessTest()
    for step in range(1, _STIFF_FAILS + 1):
        k = 1.0 + 1e-3 * rng.standard_normal((7, 3, 4))
        k[6] += rng.standard_normal((3, 4))
        k[:, -1] = 10.0 * rng.standard_normal((7, 4))
        assert test.stiff(k) == (step == _STIFF_FAILS), step


def _central_differences(velocity, y, eps=1e-6):
    """The Jacobian of ``velocity`` at ``y`` by central differences, in ``y.ravel()``'s order."""
    columns = []
    for m in range(y.size):
        e = np.zeros(y.size)
        e[m] = eps
        e = e.reshape(y.shape)
        columns.append(((velocity(y + e) - velocity(y - e)) / (2 * eps)).ravel())
    return np.array(columns).T


def _dense_jacobian(q, p, B, H):
    """The Jacobian with factors ``(q, p, B, H)`` (``_w_solver``'s form), in ``p.ravel()``'s order."""
    m, d = p.shape
    J = -q.ravel()[:, None] * np.tile(H, (m, m)) * p.ravel()
    i = np.arange(d)
    J.reshape(m, d, m, d)[:, i, :, i] -= B
    return J


def _check_factors(q, p, B, H, velocity, y):
    """The factors give ``velocity``'s Jacobian at ``y``, and both W solvers,
    whatever the state's size, solve with it."""
    J = _dense_jacobian(q, p, B, H)
    np.testing.assert_allclose(J, _central_differences(velocity, y), rtol=1e-6, atol=1e-8)
    c = 3.7  # 1 / (h gamma)
    r = np.random.default_rng(3).standard_normal(y.shape)
    for solver in (_dense_w_solver, _woodbury_w_solver):
        x = solver(c, q, p, B, H)(r)
        np.testing.assert_allclose((c * np.eye(y.size) - J) @ x.ravel(), r.ravel(), atol=1e-12)


def _jacobian_case(flow, L):
    """A state ``y`` of the layer flow or of the tied flow, with its loss, its
    theta, its velocity factor P (the velocity is ``-P g``) and the factors
    ``(p, B)`` of its Jacobian: the hook's ``dtheta/dy`` and its ``dP/dy``
    times g. One layer of the layer flow is an exact zero: the hook's
    products of the other layers take no division."""
    if flow == "layers":
        loss = make_problem(5, 3, 60 + L)
        y = init_layers(3, L, InitScheme("uniform", scale=1.5), seed=70 + L).layers.copy()
        y[L // 2] = 0.0
        theta_of, factor = (lambda y: np.prod(y, axis=0)), leave_one_out_products
        dtheta, curvature = product_jacobian(y)
    else:
        loss = make_problem(3, 6, 40, positive=True)
        y = init_layers(6, 2, InitScheme("positive", scale=1.5), seed=50).layers[:1]
        theta_of, factor = (lambda y: y[0] ** L), (lambda y: L * y ** (L - 1))
        dtheta, curvature = tied_hooks(L, y.shape[1:])[1](y)
    g = loss.gradient(theta_of(y))
    return loss, y, theta_of, factor, dtheta, curvature * g[:, None, None]


@pytest.mark.parametrize("num_layers", [2, 3, 4, 5])
def test_layer_jacobian_matches_central_differences(num_layers):
    loss, y, theta_of, factor, p, B = _jacobian_case("layers", num_layers)
    _check_factors(p, p, B, loss.hessian(theta_of(y)),
                   lambda y: layer_rhs(LayerStack(y), loss), y)


@pytest.mark.parametrize("num_layers", [3, 4, 5])
def test_tied_jacobian_matches_central_differences(num_layers):
    loss, y, theta_of, factor, p, B = _jacobian_case("tied", num_layers)
    _check_factors(p, p, B, loss.hessian(theta_of(y)),
                   lambda y: -factor(y) * loss.gradient(theta_of(y)), y)


@pytest.mark.parametrize("flow, num_layers", [
    *(("layers", L) for L in (2, 3, 4, 5)), *(("tied", L) for L in (3, 4, 5))])
def test_jacobian_with_the_xi_row_matches_central_differences(flow, num_layers):
    # the velocity -[P; 1] g of the state _drive integrates, xi's row last:
    # xi's Jacobian row is -H diag(p) and nothing depends on xi, so the
    # flow's factors (p, B) are padded to q = [p; 1], [p; 0] and a zero row
    # and column of B, and _w_solver solves with q != p
    loss, y, theta_of, factor, p, B = _jacobian_case(flow, num_layers)
    ones = np.ones((1, y.shape[1]))
    _check_factors(np.vstack([p, ones]), np.vstack([p, 0 * ones]),
                   np.pad(B, ((0, 0), (0, 1), (0, 1))), loss.hessian(theta_of(y)),
                   lambda s: -np.vstack([factor(s[:-1]), ones]) * loss.gradient(theta_of(s[:-1])),
                   np.vstack([y, -0.7 * ones]))


@pytest.mark.parametrize("flow", ["layers", "tied"])
def test_rodas4_gets_the_jacobian_of_the_whole_state(flow, monkeypatch):
    # the factors _drive hands RODAS4 are the Jacobian of the state it steps
    # from, xi's row included; a right factor padded with 1, a false
    # dependence on xi, kept the tied bias flows at small alpha from finishing
    handed = []

    def spy(y, h, k, rhs, evaluate, jacobian):
        handed.append((y.copy(), *(a.copy() for a in jacobian)))
        return _rodas_step(y, h, k, rhs, evaluate, jacobian)

    monkeypatch.setattr(flow_module, "_rodas_step", spy)
    L = 4
    if flow == "layers":  # switches between t = 50 and 100
        loss = make_problem(6, 4, 0)
        integrate(init_layers(4, L, InitScheme("uniform", scale=0.3), seed=1), loss,
                  StepController(mode="adaptive", t_max=100.0))
        theta_of, factor = (lambda y: np.prod(y, axis=0)), leave_one_out_products
    else:  # run_bias's tied instance at alpha = 1, which switches between t = 1 and 5
        rng = np.random.default_rng(0)
        X = 1.0 - rng.random((3, 6))
        loss = QuadraticLoss(X, X @ (0.5 + rng.random(6)))
        u0 = 0.5 + 0.5 * np.random.default_rng(1).random(6)
        integrate_redundant(u0, L, loss, StepController(mode="adaptive", t_max=5.0))
        theta_of, factor = (lambda y: y[0] ** L), (lambda y: L * y ** (L - 1))

    def velocity(s):
        return -np.vstack([factor(s[:-1]), np.ones((1, s.shape[1]))]) * loss.gradient(theta_of(s[:-1]))

    assert len(handed) > 1
    for y, q, p, B, H in (handed[0], handed[-1]):
        _check_factors(q, p, B, H, velocity, y)


@pytest.mark.parametrize("num_layers", [5, 6], ids=["48_entries", "56_entries"])
def test_w_solver_takes_the_dense_solver_up_to_its_bound(num_layers):
    # a layer state at d=8 with xi's row has (L + 1) d entries: 48 at L=5
    # take the dense solver, 56 at L=6 (criterion 9's) the Woodbury one
    d = 8
    loss = make_problem(10, d, 2)
    y = init_layers(d, num_layers, InitScheme("uniform"), seed=3).layers
    theta = np.prod(y, axis=0)
    p, curvature = product_jacobian(y)
    ones = np.ones((1, d))
    factors = (np.vstack([p, ones]), np.vstack([p, 0 * ones]),
               np.pad(curvature * loss.gradient(theta)[:, None, None], ((0, 0), (0, 1), (0, 1))),
               loss.hessian(theta))
    dense = (num_layers + 1) * d <= _DENSE_W_ENTRIES
    assert dense == (num_layers == 5)
    c = 3.7
    r = np.random.default_rng(4).standard_normal((num_layers + 1, d))
    x = _w_solver(c, *factors)(r)
    assert np.array_equal(x, (_dense_w_solver if dense else _woodbury_w_solver)(c, *factors)(r))
    W = c * np.eye(r.size) - _dense_jacobian(*factors)
    np.testing.assert_allclose(W @ x.ravel(), r.ravel(), atol=1e-12)


def test_a_singular_w_is_a_rejected_rodas_attempt():
    # y' = y / (h gamma) at a state of one coordinate makes W = I / (h gamma) -
    # J zero on y's row: the dense inverse raises, and the attempt returns y
    # with an infinite error ratio, so that the driver retries it smaller
    h = 0.5
    c = 1.0 / (h * _RO_GAMMA)
    y = np.array([[1.0], [0.0]])  # y's row and xi's
    B = np.zeros((1, 2, 2))
    B[0, 0, 0] = -c
    factors = np.zeros_like(y), np.zeros_like(y), B, np.zeros((1, 1))
    with pytest.raises(np.linalg.LinAlgError):
        _dense_w_solver(c, *factors)

    def rhs(y, out):
        raise AssertionError("an attempt without a solver evaluates no stage")

    y_new, ratio, state = _rodas_step(y, h, np.zeros((7, 2, 1)), rhs, rhs, factors)
    assert y_new is y and ratio == np.inf and state is None


@pytest.mark.parametrize("m, d", [(2, 6), (5, 8), (7, 6)])
def test_dense_w_solver_inverts_the_w_of_a_two_axis_index_bit_for_bit(m, d):
    # W's blocks c I + B, added through a flat index, are the floats that
    # W[:, i, :, i] += c I + B gives; the solves of the unit vectors are the
    # columns of the inverse
    rng = np.random.default_rng(m * d)
    q, p, H = rng.uniform(0.5, 1.5, (m, d)), rng.uniform(0.5, 1.5, (m, d)), rng.random((d, d))
    B, c = rng.standard_normal((d, m, m)), 7.3
    W = q[:, :, None, None] * H[:, None, :] * p
    i = np.arange(d)
    W[:, i, :, i] += c * np.eye(m) + B
    want = np.linalg.inv(W.reshape(m * d, m * d))
    solve = _dense_w_solver(c, q, p, B, H)
    got = np.array([solve(e.reshape(m, d)).ravel() for e in np.eye(m * d)]).T
    assert np.array_equal(got, want)


def test_w_solver_never_forms_the_dense_matrix():
    # at L=6, d=64 a dense W would take (L d)^2 floats, 1.2 MB; the
    # factored Jacobian and its solver peaked at 0.17 MB
    L, d = 6, 64
    loss = make_problem(48, d, 5)
    y = init_layers(d, L, InitScheme("uniform"), seed=6).layers
    theta = np.prod(y, axis=0)
    H, g = loss.hessian(theta), loss.gradient(theta)
    p, curvature = product_jacobian(y)
    B = curvature * g[:, None, None]
    tracemalloc.start()
    try:
        _w_solver(4.0, p, p, B, H)(np.ones_like(y))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (L * d) ** 2 * 8 / 4


def _one_rodas_step(f, jac, y, h):
    """One RODAS4 step of ``y' = f(y)`` with the dense Jacobian ``jac``, as one
    coordinate of ``len(y)`` rows and, in xi's place, a last row that stays
    still and that the error ratio leaves out: ``B = -J`` padded with zeros,
    and no Hessian term."""
    m = len(y)
    col = np.append(y, 0.0)[:, None]
    k = np.empty((7, *col.shape))

    def rhs(col, out):  # a stage is minus the velocity
        out[:] = -np.append(f(col[:m, 0]), 0.0)[:, None]
        return out

    def evaluate(col_new):
        rhs(col_new, k[-1])

    rhs(col, k[0])
    B = np.zeros((1, m + 1, m + 1))
    B[0, :m, :m] = -jac(y)
    factors = np.zeros_like(col), np.zeros_like(col), B, np.zeros((1, 1))
    return _rodas_step(col, h, k, rhs, evaluate, factors)[0][:m, 0]


def test_rodas_step_is_fourth_order():
    # van der Pol at mu = 1 from (2, 0): the local error of one step falls
    # about 2^5 = 32 times per halving of h (measured 27.7, 33.1 and 34.5)
    integ = pytest.importorskip("scipy.integrate")

    def f(y):
        return np.array([y[1], (1 - y[0] ** 2) * y[1] - y[0]])

    def jac(y):
        return np.array([[0.0, 1.0], [-2 * y[0] * y[1] - 1, 1 - y[0] ** 2]])

    y0 = np.array([2.0, 0.0])
    errors = []
    for h in (0.2, 0.1, 0.05, 0.025):
        exact = integ.solve_ivp(lambda t, y: f(y), (0, h), y0, method="DOP853",
                                rtol=1e-13, atol=1e-15).y[:, -1]
        errors.append(np.max(np.abs(_one_rodas_step(f, jac, y0, h) - exact)))
    ratios = [e1 / e2 for e1, e2 in zip(errors, errors[1:])]
    assert all(24 < r < 40 for r in ratios), ratios


def test_rodas_step_is_l_stable():
    # one step of y' = lambda y at h lambda = -1e4 gives R(-1e4) (8.8e-4):
    # the stability function vanishes at infinity, so stiff modes are damped
    lam = -1e4
    y1 = _one_rodas_step(lambda y: lam * y, lambda y: np.array([[lam]]), np.array([1.0]), 1.0)
    assert abs(y1[0]) < 1e-3


def _tied_bias_flow():
    """``run_bias(model="redundant")``'s flow at L=4, alpha=0.1 (n=3, d=6, seed 0)."""
    cfg = ExperimentConfig(n=3, dim=6, layers=4, seed=0, t_max=1e4)
    bias = run_bias(cfg, alphas=(1.0,), model="redundant")
    loss, u0, L = bias.loss, bias.rows[0].entropy.u0 * 0.1, cfg.layers
    ctrl = StepController(mode="adaptive", h=cfg.step, t_max=cfg.t_max,
                          stop_gap=FLOW_LIMIT_GAP, max_points=10**6)
    return (loss, lambda f: integrate_redundant(u0, L, f, ctrl),
            lambda u: -L * u ** (L - 1) * loss.gradient(u ** L), u0, lambda us: us ** L)


def _criterion_9_flow():
    """Criterion 9's run at scale 1.8."""
    cfg = ExperimentConfig(n=10, dim=8, layers=6, seed=2, t_max=400.0, scheme="zero_first",
                           scale=1.8)
    loss, stack0 = cfg.problem()
    L, d = cfg.layers, cfg.dim
    ctrl = StepController(mode="adaptive", h=cfg.step, t_max=cfg.t_max,
                          stop_gap=GAP_TARGET * 1e-3, max_points=10**6)
    return (loss, lambda f: integrate(stack0, f, ctrl),
            lambda y: layer_rhs(LayerStack(y.reshape(L, d)), loss).ravel(),
            stack0.layers.ravel(), lambda ys: np.prod(ys.reshape(-1, L, d), axis=1))


# Worst theta errors measured against the reference: 1.4e-6 tied, at the
# first escape (t = 1.42, before the switch, as far off on Dormand–Prince
# alone), and 5.6e-9 for criterion 9's run. ``level`` is a loss gap the run
# crosses after its switch: the exit from the tied flow's plateau at gap
# ~0.12 (t = 46.4), and criterion 9's target gap (t = 0.37).
@pytest.mark.parametrize("flow, bound, level", [
    (_tied_bias_flow, 1e-5, 1e-2),
    (_criterion_9_flow, 5e-8, GAP_TARGET),
], ids=["tied_L4_alpha0.1", "criterion9_scale1.8"])
def test_switched_run_matches_scipy_reference(flow, bound, level):
    loss, run, velocity, y0, theta_of = flow()
    counted = _CountingLoss(loss, hessian=True)
    traj = run(counted)
    assert counted.switch_gap is not None and counted.switch_gap > level
    # a RODAS4 attempt costs what a Dormand–Prince attempt does, plus one Hessian
    attempts = counted.calls["value_and_gradient"] - 1
    assert counted.calls["gradient"] == 5 * attempts
    assert counted.calls["hessian"] < attempts
    ref = _reference_thetas(velocity, y0, traj.times, theta_of)
    assert np.max(np.abs(traj.thetas - ref)) <= bound
    # the crossing is kept, not damped away: the first row below the level
    # is the reference's
    ref_gaps = np.array([loss.gap(theta) for theta in ref])
    assert np.argmax(traj.losses - traj.optimum < level) == np.argmax(ref_gaps < level)


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



def test_snapshot_blocks_keep_the_tied_flag():
    loss = make_problem(4, 3, 9, x_scale=0.5, positive=True)
    u0, ctrl = np.array([0.9, 1.1, 0.8]), StepController(h=1e-3, t_max=2.0)
    tied = integrate_redundant(u0, 3, loss, ctrl)
    untied = integrate(LayerStack(np.tile(u0, (3, 1))), loss, ctrl)
    assert tied.tied and not untied.tied
    for traj in (tied, untied):
        parts = list(traj.blocks(overlap=2))
        assert len(parts) > 1
        assert all(part.tied == traj.tied for part in parts)

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
    for gap in (np.nan, np.inf, -1e-12):
        with pytest.raises(ValueError, match="stop_gap must be"):
            StepController(stop_gap=gap)
    assert StepController(stop_gap=0.0).stop_gap == 0.0


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


@pytest.mark.parametrize("include_layers", [True, False])
def test_csv_rows_are_the_snapshots_in_17_digits(tmp_path, include_layers):
    # signed zeros and non-finite values print as %.17g prints them
    loss = make_problem(5, 3, 18)
    traj = integrate(init_layers(3, 2, InitScheme("zero_first"), seed=19), loss,
                     StepController(t_max=0.6, max_points=10**6))
    traj.thetas[1, 0], traj.xi[2, 1], traj.losses[3] = -0.0, np.inf, np.nan
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path, include_layers=include_layers)
    layers = traj.layers.reshape(len(traj), -1) if include_layers else np.empty((len(traj), 0))
    rows = zip(traj.times, traj.losses, traj.thetas, traj.xi, layers)
    want = ["%.17g" % v for t, value, th, x, u in rows for v in (t, value, *th, *x, *u)]
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    assert len(lines) == len(traj) > SNAPSHOT_BLOCK
    assert [cell for line in lines for cell in line.split(",")] == want


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


@pytest.mark.parametrize("u0, num_layers, message", [
    (np.array([1.0, np.nan, 1.0]), 4, "strictly positive"),
    (np.ones(3), 3.5, "integer >= 3"),  # once integrated as P = 3.5 u^2.5 with theta = u^3
    (np.ones(3), math.nan, "integer >= 3"),
])
def test_redundant_flow_and_power_entropy_share_one_check(u0, num_layers, message):
    loss = _CountingLoss(make_problem(4, 3, 21, positive=True))
    with pytest.raises(ValueError, match=message):
        integrate_redundant(u0, num_layers, loss, StepController(t_max=1.0))
    assert sum(loss.calls.values()) == 0  # raised before any step
    with pytest.raises(ValueError, match=message):
        PowerEntropy(u0, num_layers)


def test_redundant_flow_takes_an_integral_float_as_its_integer():
    loss = make_problem(4, 3, 21, positive=True)
    u0, ctrl = np.array([0.8, 1.1, 0.9]), StepController(t_max=0.5)
    as_float, as_int = (integrate_redundant(u0, L, loss, ctrl) for L in (4.0, 4))
    assert as_float.num_layers == 4
    for name in _FIELDS:
        assert _same_bits(getattr(as_float, name), getattr(as_int, name)), name


@pytest.mark.parametrize("alpha, ctrl", [
    (1.0, StepController(h=1e-3, t_max=2.0, max_points=10**6)),
    (0.03, StepController(mode="adaptive", t_max=1e4, stop_gap=FLOW_LIMIT_GAP, max_points=2000)),
], ids=["fixed", "adaptive_rodas4"])
def test_tied_theta_is_the_product_of_its_recorded_layers_bit_for_bit(alpha, ctrl):
    # run_bias's tied instance (L=4, seed 0); the adaptive run switches to RODAS4
    rng = np.random.default_rng(0)
    X = 1.0 - rng.random((3, 6))
    loss = _CountingLoss(QuadraticLoss(X, X @ (0.5 + rng.random(6))), hessian=True)
    u0 = alpha * (0.5 + 0.5 * np.random.default_rng(1).random(6))
    traj = integrate_redundant(u0, 4, loss, ctrl)
    assert (loss.switch_gap is not None) == (ctrl.mode == "adaptive")
    assert np.array_equal(traj.layers, np.repeat(traj.layers[:, :1], 4, axis=1))
    for layers, theta in zip(traj.layers, traj.thetas):
        assert _same_bits(theta_of_layers(layers), theta)


def _reference_thetas(velocity, y0, times, theta_of):
    """Theta at ``times`` from scipy's DOP853 at rtol 1e-12, atol 1e-14."""
    integ = pytest.importorskip("scipy.integrate")
    sol = integ.solve_ivp(lambda t, y: velocity(y), (0.0, times[-1]), y0, method="DOP853",
                          t_eval=times, rtol=1e-12, atol=1e-14)
    assert sol.success
    return theta_of(sol.y.T)


# Worst theta errors measured at T=2 against the reference: fixed RK4 at
# h=1e-3 1.5e-11 untied and 9.4e-9 tied; adaptive Dormand–Prince 2.6e-9
# untied and 2.6e-8 tied. The bounds leave a factor of at least 5.
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
