"""Gradient-flow integration for layered diagonal networks.

Trains the layers by the continuous-time dynamic

    du^j/dt = -(prod_{k != j} u^k) * grad L(theta),   theta = prod_j u^j,

with a classical fixed-step RK4 scheme by default and an optional adaptive
mode for stiff, large-initialization runs: the Dormand–Prince 5(4) pair,
whose last stage is the next step's first (FSAL), so an attempted step
costs six loss evaluations. Along the trajectory the accumulated dual
variable

    xi(t) = -integral_0^t grad L(theta(s)) ds

is built up by trapezoidal quadrature on the full step grid (before any
snapshot decimation), together with theta, the loss and its gradient per
snapshot. Only this module calls the loss; the rest reads the ``Trajectory``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import LayerStack, leave_one_out_products, mobility, theta_of_layers

# Abort threshold on |theta|_inf: gradient flow on a quadratic cannot
# diverge, so crossing this signals discretization failure.
DIVERGENCE_LIMIT = 1e12

_MIN_STEP_FRACTION = 1e-14

# Adaptive mode's per-component error tolerances, relative and absolute.
_RTOL, _ATOL = 1e-8, 1e-10

# Snapshots a diagnostic holds at once (``Trajectory.blocks``), so that its
# temporaries are O(block * L * d) however long the trajectory is.
SNAPSHOT_BLOCK = 256


class DivergenceError(RuntimeError):
    """State left the finite/bounded region; retry with a smaller step.

    ``time`` is where the step of size ``h`` ended, and ``max_abs_theta``
    the largest |theta| component there (NaN when theta is not finite).
    """

    def __init__(self, t: float, h: float, max_abs_theta: float, message: str | None = None):
        self.time, self.h, self.max_abs_theta = t, h, max_abs_theta
        super().__init__(message or f"integration diverged at t={t:.6g}; reduce the step size")


class StepUnderflowError(RuntimeError):
    """Adaptive controller drove the step ``h`` below the floor at ``time``."""

    def __init__(self, t: float, h: float):
        self.time, self.h = t, h
        super().__init__(f"adaptive step size underflow at t={t:.6g} (h={h:.3g})")


@dataclass(frozen=True)
class StepController:
    """Integrator settings.

    ``mode`` is ``"fixed"`` (RK4 with step ``h``) or ``"adaptive"``
    (Dormand–Prince 5(4) with FSAL from ``h``, to ``_RTOL`` = 1e-8 and
    ``_ATOL`` = 1e-10). ``max_points`` caps the number of stored snapshots
    by the snapshot rule of ``_Columns``; the dual-variable quadrature always
    runs on the undecimated grid. ``stop_gap``, when set, ends the run early
    once ``loss - optimal_value`` drops to that level.
    """

    mode: str = "fixed"
    h: float = 1e-3
    t_max: float = 10.0
    max_points: int = 5000
    stop_gap: float | None = None

    def __post_init__(self):
        if self.mode not in ("fixed", "adaptive"):
            raise ValueError(f"unknown integrator mode {self.mode!r}")
        if not 0 < self.h < math.inf:
            raise ValueError("step size must be positive and finite")
        if not 0 < self.t_max < math.inf:
            raise ValueError("t_max must be positive and finite")
        if self.max_points < 2:
            raise ValueError("max_points must be at least 2")
        if self.stop_gap is not None and not 0 <= self.stop_gap < math.inf:
            raise ValueError("stop_gap must be None or finite and non-negative")


@dataclass(eq=False)
class Trajectory:
    """Recorded flow: per snapshot the time, layers, theta, dual variable xi,
    loss and loss gradient; ``optimum`` is the loss's ``optimal_value`` or 0."""

    times: np.ndarray    # (K,)
    layers: np.ndarray   # (K, L, d)
    thetas: np.ndarray   # (K, d)
    xi: np.ndarray       # (K, d)
    losses: np.ndarray   # (K,)
    grads: np.ndarray    # (K, d)
    optimum: float = 0.0

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def num_layers(self) -> int:
        return self.layers.shape[1]

    @property
    def dim(self) -> int:
        return self.layers.shape[2]

    def stack_at(self, k: int) -> LayerStack:
        return LayerStack(self.layers[k])

    @property
    def final_theta(self) -> np.ndarray:
        return self.thetas[-1]

    def blocks(self, overlap: int = 0):
        """Consecutive views of at most ``SNAPSHOT_BLOCK`` snapshots each.

        Consecutive blocks share ``overlap`` rows, so every run of
        ``overlap + 1`` neighbouring snapshots lies in exactly one block.
        An empty trajectory gives one empty block.
        """
        columns = (self.times, self.layers, self.thetas, self.xi, self.losses, self.grads)
        for start in range(0, max(len(self) - overlap, 1), SNAPSHOT_BLOCK - overlap):
            rows = slice(start, start + SNAPSHOT_BLOCK)
            yield Trajectory(*(column[rows] for column in columns), optimum=self.optimum)


def _layer_velocity(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    return -leave_one_out_products(y) * g


def layer_rhs(stack: LayerStack, loss) -> np.ndarray:
    """Right-hand side of the layer dynamic, one row per layer."""
    return _layer_velocity(stack.layers, loss.gradient(theta_of_layers(stack.layers)))


def theta_rhs(stack: LayerStack, loss) -> np.ndarray:
    """Velocity of theta: minus the mobility diagonal times the gradient."""
    return -mobility(stack.layers) * loss.gradient(theta_of_layers(stack.layers))


def _guard(y: np.ndarray, theta: np.ndarray, t: float, h: float, positive: bool) -> None:
    top = float(np.abs(theta).max())
    if not (np.isfinite(y).all() and np.isfinite(theta).all()):
        raise DivergenceError(t, h, top, f"non-finite state at t={t:.6g}; reduce the step size")
    if top > DIVERGENCE_LIMIT:
        raise DivergenceError(t, h, top)
    if positive and (y <= 0).any():
        raise DivergenceError(t, h, top,
                              f"state left the positive orthant at t={t:.6g}; reduce the step size")


def _next_step(t: float, h: float, t_end: float) -> float | None:
    """The step ``_drive`` takes from ``t`` (clipped to end at ``t_end``); None once done."""
    return min(h, t_end - t) if t < t_end - 1e-12 * t_end else None


class _Columns:
    """The snapshot rule, and the six ``Trajectory`` columns of the rows it keeps.

    The rule: of the ``K`` rows of a run (the initial state, step 0, and
    each accepted step), keep every ``stride``-th plus the last, where the
    stride is 1 if ``K <= max_points`` and ``ceil(K / (max_points - 1))``
    otherwise, so that at most ``max_points`` rows are kept. When the time
    grid does not depend on the state (a fixed-step run without
    ``stop_gap``), ``K`` is counted up front by ``_drive``'s own recurrence,
    only the kept rows are written, and the arrays hold exactly that many.
    Otherwise every row is written, into arrays that start at 256 rows and
    double as they fill, and ``kept`` thins them at the end. On the rows of
    a counted grid that thinning is the identity, so both paths keep the
    same rows.
    """

    def __init__(self, row: tuple, ctrl: StepController):
        self.max_points = ctrl.max_points
        self.stride, self.last, capacity = 1, None, 256
        if ctrl.mode == "fixed" and ctrl.stop_gap is None:
            t, h, steps = 0.0, ctrl.h, 0
            while (h := _next_step(t, h, ctrl.t_max)) is not None:
                t, steps = t + h, steps + 1
            self.stride, self.last = self._stride(steps + 1), steps
            capacity = math.ceil(steps / self.stride) + 1
        self.arrays = [np.empty((capacity, *np.shape(v))) for v in row]
        self.count = self.step = 0
        self._write(row)

    def _stride(self, k: int) -> int:
        return math.ceil(k / (self.max_points - 1)) if k > self.max_points else 1

    def add(self, row: tuple) -> None:
        """The row of the next accepted step, written if the rule keeps it."""
        self.step += 1
        if self.step % self.stride == 0 or self.step == self.last:
            self._write(row)

    def _write(self, row: tuple) -> None:
        if self.count == len(self.arrays[0]):
            for i, old in enumerate(self.arrays):  # one column at a time, to bound the peak
                self.arrays[i] = np.empty((2 * len(old), *old.shape[1:]))
                self.arrays[i][:self.count] = old
        for column, v in zip(self.arrays, row):
            column[self.count] = v
        self.count += 1

    def kept(self) -> list[np.ndarray]:
        """The columns at the kept rows, thinned by the rule."""
        k = self.count
        stride = self._stride(k)
        if stride == 1 and k == len(self.arrays[0]):
            return self.arrays
        rows = np.arange(0, k, stride)
        if (k - 1) % stride:
            rows = np.append(rows, k - 1)
        return [self.arrays.pop(0)[rows] for _ in range(len(self.arrays))]


def integrate(stack0: LayerStack, loss, ctrl: StepController) -> Trajectory:
    """Run gradient flow on the layers from ``stack0`` until ``ctrl.t_max``.

    Snapshots follow the snapshot rule of ``_Columns``; xi is accumulated
    by the trapezoidal rule on the full accepted grid. Deterministic given
    its inputs.

    Raises ``DivergenceError`` when the state leaves the finite region and,
    in adaptive mode, ``StepUnderflowError`` when no acceptable step exists.
    """
    return _drive(stack0.layers, loss, ctrl, theta_of=theta_of_layers, velocity=_layer_velocity)


def integrate_redundant(u0: np.ndarray, num_layers: int, loss, ctrl: StepController) -> Trajectory:
    """Run gradient flow for the tied parameterization ``theta = u**L``.

    All ``L`` layers share the single weight vector ``u``, so the dynamic is
    ``du/dt = -L * u**(L-1) * grad L(theta)``. Snapshots replicate ``u``
    across the layer axis. Requires ``u0 > 0`` componentwise; the flow is
    aborted if the state leaves the positive orthant (which can only happen
    through discretization error).
    """
    u0 = np.asarray(u0, dtype=float)
    if num_layers < 3:
        raise ValueError("redundant flow expects at least 3 layers")
    if u0.ndim != 1 or not np.all(u0 > 0):
        raise ValueError("u0 must be a strictly positive vector")
    L = num_layers
    # the state is the one row u; theta is the product of its L copies
    traj = _drive(u0[None, :], loss, ctrl,
                  theta_of=lambda y: y.repeat(L, axis=0).prod(axis=0),
                  velocity=lambda y, g: -L * y ** (L - 1) * g,
                  positive=True)
    return replace(traj, layers=np.repeat(traj.layers, L, axis=1))


def _rk4_step(y, h, k, rhs, evaluate):
    """One classical RK4 step; its error ratio is 0, so every step is accepted."""
    k1 = k[0]
    k2 = rhs(y + (0.5 * h) * k1)
    k3 = rhs(y + (0.5 * h) * k2)
    k4 = rhs(y + h * k3)
    y_new = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y_new, 0.0, evaluate(y_new)


# Dormand–Prince 5(4) (J. Comput. Appl. Math. 6, 1980; scipy's RK45). Stage
# i > 0 is the velocity at y + h * _DP_A[i] @ k. The last row is also the
# 5th-order weights, so stage 7 is the velocity at the new point and becomes
# the next step's first (FSAL). _DP_E weighs the stages into the difference
# of the 5th- and the embedded 4th-order solution.
_DP_A = np.array([
    [0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
_DP_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40])


def _dopri_step(y, h, k, rhs, evaluate):
    """One Dormand–Prince step, filling all 7 stages of ``k``.

    Its error ratio is the max-norm of the 5th- minus the 4th-order solution
    over ``_ATOL + _RTOL * max(|y|, |y_new|)``, and infinite when not finite.
    """
    hA, flat = h * _DP_A, k.reshape(len(k), -1)  # flat: the stages as rows
    for i in range(1, 6):
        k[i] = rhs(y + (hA[i, :i] @ flat[:i]).reshape(y.shape))
    y_new = y + (hA[6] @ flat[:6]).reshape(y.shape)
    state = evaluate(y_new)
    scale = _ATOL + _RTOL * np.maximum(np.abs(y), np.abs(y_new)).ravel()
    ratio = float(np.max(np.abs((h * _DP_E) @ flat) / scale))
    return y_new, (ratio if np.isfinite(ratio) else np.inf), state


def _drive(y0, loss, ctrl, theta_of, velocity, positive=False):
    """Integrate ``dy/dt = velocity(y, grad L(theta_of(y)))`` under ``ctrl``.

    Both steppers share one protocol: ``step(y, h, k, rhs, evaluate)``
    starts with the velocity at ``y`` in ``k[0]`` of the stage buffer,
    evaluates the loss at its new point once, by ``evaluate``, which leaves
    the velocity there in ``k[-1]``, and returns ``(y_new, error_ratio,
    (theta, value, gradient))``. A step with ratio at most 1 is accepted and
    hands ``k[-1]`` on as the next ``k[0]`` (FSAL). Fixed mode's RK4 steps
    cost three ``gradient`` calls and one ``value_and_gradient``, adaptive
    mode's Dormand–Prince steps five and one per attempt, after which the
    controller rescales ``h``. The snapshot rule is ``_Columns``'s.
    """
    value_and_gradient = getattr(loss, "value_and_gradient", None)
    if value_and_gradient is None:
        def value_and_gradient(theta):
            return loss.value(theta), loss.gradient(theta)

    def rhs(y):
        return velocity(y, loss.gradient(theta_of(y)))

    def evaluate(y):
        theta = theta_of(y)
        value, g = value_and_gradient(theta)
        k[-1] = velocity(y, g)
        return theta, value, g

    adaptive = ctrl.mode == "adaptive"
    step = _dopri_step if adaptive else _rk4_step
    t, h = 0.0, ctrl.h
    y = np.array(y0, dtype=float)
    k = np.empty((len(_DP_A), *y.shape))  # RK4 uses only the first and the last stage
    optimum = getattr(loss, "optimal_value", 0.0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        theta, val, g = evaluate(y)
        k[0] = k[-1]
        xi = np.zeros(y.shape[1])
        columns = _Columns((t, y, theta, xi, val, g), ctrl)
        while (h := _next_step(t, h, ctrl.t_max)) is not None:
            y_new, ratio, state = step(y, h, k, rhs, evaluate)
            if ratio <= 1.0:
                y, t = y_new, t + h
                theta, val, g_new = state
                _guard(y, theta, t, h, positive)
                xi = xi - (0.5 * h) * (g + g_new)
                g = g_new
                columns.add((t, y, theta, xi, val, g))
                if ctrl.stop_gap is not None and val - optimum <= ctrl.stop_gap:
                    break
                k[0] = k[-1]
            if adaptive:  # the step-size controller, whose floor binds only before t_max
                factor = 5.0 if ratio == 0.0 else 0.9 * ratio ** -0.2
                h *= min(max(factor, 0.2), 5.0)
                if (h < _MIN_STEP_FRACTION * max(t, 1.0)
                        and _next_step(t, h, ctrl.t_max) is not None):
                    raise StepUnderflowError(t, h)
    return Trajectory(*columns.kept(), optimum=optimum)
