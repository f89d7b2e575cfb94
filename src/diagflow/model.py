"""Core types for deep diagonal linear networks.

The model is linear in the inputs with coefficient vector
``theta = u^1 * u^2 * ... * u^L`` (componentwise product), where each
``u^j`` is one trainable layer vector of the network. ``LayerStack`` holds
the layers, ``QuadraticLoss`` the data-fitting objective.

The flow uses a loss through a small protocol, so the quadratic instance
can be replaced by any smooth objective that has

* ``value(theta)`` and ``gradient(theta)`` (required);
* ``value_and_gradient(theta)``, used instead of the two calls when present;
* ``optimal_value``, the infimum of the loss (optional, defaults to 0).

Only the flow calls the loss: it reads ``optimal_value`` once per run and
records the value and gradient per snapshot on the ``Trajectory``, which
the diagnostics and the rate checks read instead.

Only the solvers that need the design matrix (``pl_constant``,
``solve_kkt``, ``run_bias``) require a ``QuadraticLoss``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Relative eigenvalue cutoff separating zero modes: of X^T X for the
# least-squares optimum cached on QuadraticLoss, and of X X^T for the
# gradient-dominance constant.
EIG_CUTOFF = 1e-12


def leave_one_out_products(values: np.ndarray) -> np.ndarray:
    """For each slice ``j`` along axis 0, the product of all other slices.

    Computed without division, so exact zeros are handled: a prefix
    ``np.multiply.accumulate`` (slices ``0, ..., j-1`` in that order) times a
    suffix one (the last slice down to ``j+1``). The factors are multiplied
    in the order of a sequential prefix/suffix loop, so every float equals
    that loop's bit for bit. On ``(L, d)`` layers, slice ``j`` is
    ``prod_{k != j} u^k``.
    """
    v = np.asarray(values)
    out = np.empty_like(v)
    out[:1] = 1
    np.multiply.accumulate(v[:-1], axis=0, out=out[1:])
    out[:-1] *= np.multiply.accumulate(v[:0:-1], axis=0)[::-1]
    return out


def mobility(layers: np.ndarray) -> np.ndarray:
    """Mobility diagonal ``sum_j prod_{k != j} (u^k)**2`` of ``(..., L, d)`` layers.

    Theta's velocity along the flow is minus this diagonal times the loss
    gradient.
    """
    return np.sum(leave_one_out_products(np.moveaxis(layers ** 2, -2, 0)), axis=0)


@dataclass(frozen=True, eq=False)
class LayerStack:
    """Weights of a deep diagonal linear network, one row per layer."""

    layers: np.ndarray  # shape (num_layers, dim)

    def __post_init__(self):
        layers = np.array(self.layers, dtype=float)
        if layers.ndim != 2:
            raise ValueError("layers must form a 2-d array (num_layers, dim)")
        if layers.shape[0] < 2:
            raise ValueError("a diagonal network needs at least 2 layers")
        if layers.shape[1] < 1:
            raise ValueError("dimension must be at least 1")
        if not np.all(np.isfinite(layers)):
            raise ValueError("layer weights must be finite")
        layers.setflags(write=False)
        object.__setattr__(self, "layers", layers)

    @property
    def num_layers(self) -> int:
        return self.layers.shape[0]

    @property
    def dim(self) -> int:
        return self.layers.shape[1]

    @property
    def theta(self) -> np.ndarray:
        return theta_of_layers(self.layers)


def theta_of_layers(layers: np.ndarray) -> np.ndarray:
    """Componentwise product of all layers of an ``(L, d)`` array."""
    return np.multiply.reduce(layers, axis=0)


@dataclass(frozen=True, eq=False)
class QuadraticLoss:
    """Unnormalized squared loss ``||X theta - y||^2``.

    ``optimal_value`` is the least-squares minimum, computed once at
    construction from the normal equations with eigenvalue cutoff
    ``EIG_CUTOFF`` (relative). ``least_squares_solution`` is the associated
    minimum-norm minimizer, which for an underdetermined full-row-rank
    system is the minimum-L2 interpolator.
    """

    X: np.ndarray
    y: np.ndarray
    optimal_value: float = field(init=False)
    least_squares_solution: np.ndarray = field(init=False)

    def __post_init__(self):
        X = np.array(self.X, dtype=float)
        y = np.array(self.y, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be a 2-d array (n, d)")
        if y.shape != (X.shape[0],):
            raise ValueError(
                f"y has shape {y.shape}, expected ({X.shape[0]},)"
            )
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

        gram = X.T @ X
        w, V = np.linalg.eigh(gram)
        w_max = w[-1] if w.size else 0.0
        inv = np.zeros_like(w)
        keep = w > EIG_CUTOFF * max(w_max, np.finfo(float).tiny)
        inv[keep] = 1.0 / w[keep]
        theta_ls = V @ (inv * (V.T @ (X.T @ y)))
        r = X @ theta_ls - y
        theta_ls.setflags(write=False)
        object.__setattr__(self, "least_squares_solution", theta_ls)
        object.__setattr__(self, "optimal_value", float(r @ r))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def _check(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim,):
            raise ValueError(
                f"theta has shape {theta.shape}, expected ({self.dim},)"
            )
        return theta

    def value(self, theta: np.ndarray) -> float:
        r = self.X @ self._check(theta) - self.y
        return float(r @ r)

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        return 2.0 * (self.X.T @ (self.X @ self._check(theta) - self.y))

    def value_and_gradient(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        r = self.X @ self._check(theta) - self.y
        return float(r @ r), 2.0 * (self.X.T @ r)

    def gap(self, theta: np.ndarray) -> float:
        """Suboptimality ``value(theta) - optimal_value``."""
        return self.value(theta) - self.optimal_value


@dataclass(frozen=True, eq=False)
class InitScheme:
    """How to draw initial layer weights.

    kind:
        ``uniform``    every node i.i.d. uniform on [-1, 1], times ``scale``.
        ``zero_first`` first layer identically zero, remaining layers i.i.d.
                       uniform on [0.5, 1.5), times ``scale``. The base draw
                       depends only on the seed, so two scales from the same
                       seed differ by an exact factor.
        ``positive``   every node i.i.d. uniform on (0, 1], times ``scale``.
        ``explicit``   weights taken from ``values`` (shape (L, d)).
    """

    kind: str
    scale: float = 1.0
    values: np.ndarray | None = None

    KINDS = ("uniform", "zero_first", "positive", "explicit")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown init scheme {self.kind!r}")
        if self.kind == "explicit" and self.values is None:
            raise ValueError("explicit scheme requires values")


def init_layers(dim: int, num_layers: int, scheme: InitScheme, seed: int) -> LayerStack:
    """Draw an initial ``LayerStack``; deterministic given the seed."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if num_layers < 2:
        raise ValueError("num_layers must be at least 2")
    rng = np.random.default_rng(seed)
    if scheme.kind == "uniform":
        layers = rng.uniform(-1.0, 1.0, (num_layers, dim)) * scheme.scale
    elif scheme.kind == "zero_first":
        base = rng.uniform(0.5, 1.5, (num_layers - 1, dim))
        layers = np.vstack([np.zeros((1, dim)), base * scheme.scale])
    elif scheme.kind == "positive":
        layers = (1.0 - rng.random((num_layers, dim))) * scheme.scale
    else:  # explicit
        layers = np.asarray(scheme.values, dtype=float) * scheme.scale
        if layers.shape != (num_layers, dim):
            raise ValueError(
                f"explicit values have shape {layers.shape}, "
                f"expected ({num_layers}, {dim})"
            )
    return LayerStack(layers)
