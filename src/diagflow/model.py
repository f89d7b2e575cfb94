"""Core types for deep diagonal linear networks.

The model is linear in the inputs with coefficient vector
``theta = u^1 * u^2 * ... * u^L`` (componentwise product), where each
``u^j`` is one trainable layer vector of the network. ``LayerStack`` holds
the layers, ``QuadraticLoss`` the data-fitting objective.

It is the one module that multiplies layers, and holds both maps the flow
integrates with their driver hooks (see ``flow``): the product map ``theta =
u^1 * ... * u^L``, its first derivatives (the leave-one-out products, also
as the ``product_factors`` hook), its second (the leave-two-out products)
and the ``product_jacobian`` hook; the tied map ``theta = u**L`` in closed
form, ``check_tied``, the one check of its ``u0`` and L, and ``tied_hooks``.

The flow uses a loss through a small protocol, so the quadratic instance
can be replaced by any smooth objective that has

* ``value(theta)`` and ``gradient(theta)`` (required);
* ``value_and_gradient(theta)``, used instead of the two calls when present;
* ``hessian(theta)``, the ``(d, d)`` Hessian (optional): with it an
  adaptive flow that turns stiff switches to the Rosenbrock step RODAS4,
  without it the flow stays on Dormand–Prince;
* ``optimal_value``, the infimum of the loss (optional, defaults to 0).

Every ``theta`` the flow passes is a fresh array that no later step
writes to, so a loss may keep it (to cache on it, say). Only the flow
calls the loss: it reads ``optimal_value`` once per run and records the
value and gradient per snapshot on the ``Trajectory``, which the
diagnostics and the rate checks read instead.

Only the solvers that need the design matrix (``pl_constant``,
``solve_kkt``, ``run_bias``) require a ``QuadraticLoss``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

_FLOAT64 = np.dtype(np.float64)

# Relative eigenvalue cutoff separating zero modes: of X^T X for the
# least-squares optimum cached on QuadraticLoss, and of X X^T for the
# gradient-dominance constant.
EIG_CUTOFF = 1e-12


def product_factors(num_layers: int, shape):
    """The ``factors(v, out) -> theta`` hook over ``num_layers`` slices of ``shape``.

    It writes the leave-one-out products of ``v[:L]`` into ``out``, an
    ``(L, *shape)`` array, and returns theta as a fresh array, without
    division: ``prefix[j]``, the product of slices ``0..j-1`` (theta for j
    = L), and ``suffix[j]``, that of slices ``L-1`` down to ``j+1``, are
    each one ``np.multiply.accumulate`` into a reused buffer, and ``out =
    prefix[:L] * suffix``: every float is that of a sequential prefix/suffix
    loop. Only ``v`` is sliced per call; the buffers' views are taken once.
    """
    L = num_layers
    prefix, suffix = np.ones((L + 1, *shape)), np.ones((L, *shape))
    prefix_rows, prefix_head, theta = prefix[1:], prefix[:L], prefix[L]  # views
    suffix_rows = suffix[-2::-1]

    def factors(v: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.multiply.accumulate(v[:L], axis=0, out=prefix_rows)
        np.multiply.accumulate(v[L - 1:0:-1], axis=0, out=suffix_rows)
        np.multiply(prefix_head, suffix, out)
        return theta.copy()

    return factors


def leave_one_out_products(values: np.ndarray) -> np.ndarray:
    """For each slice ``j`` along axis 0, the float64 product of all other
    slices (of layers: theta's derivative in ``u^j``), by ``product_factors``,
    laid out in memory as ``values``, since the order of later sums depends on it."""
    v = np.asarray(values)
    out = np.empty_like(v, dtype=float)
    product_factors(len(v), v.shape[1:])(v, out)
    return out


def leave_two_out_products(layers: np.ndarray) -> np.ndarray:
    """``(L, L, ...)`` products of the ``(L, ...)`` layers: entry ``[j, k]``
    multiplies all but layers j and k, the second derivative of theta in
    ``u^j`` and ``u^k``, and the diagonal is 0. Without division: layers j
    and k of a broadcast copy are set to 1 and the rest multiplied in order."""
    L = len(layers)
    others = np.broadcast_to(layers, (L, L, *layers.shape)).copy()
    layer = np.arange(L)
    others[layer, :, layer] = 1.0  # others[j, k] drops layers j and k
    others[:, layer, layer] = 1.0
    products = others.prod(axis=2)
    products[layer, layer] = 0.0
    return products


def product_jacobian(layers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The layer flow's ``jacobian`` hook: the leave-one-out and leave-two-out products."""
    return leave_one_out_products(layers), leave_two_out_products(layers).transpose(2, 0, 1)


def check_tied(u0, num_layers) -> tuple[np.ndarray, int]:
    """The tied map's ``(u0, L)`` as a float vector and an int; ``ValueError`` unless
    ``u0 > 0``, which rejects NaN, and L is an integer >= 3 (4.0 is 4)."""
    u0 = np.asarray(u0, dtype=float)
    if u0.ndim != 1 or not np.all(u0 > 0):
        raise ValueError("u0 must be a strictly positive vector")
    if not (num_layers >= 3 and float(num_layers).is_integer()):
        raise ValueError("num_layers must be an integer >= 3")
    return u0, int(num_layers)


def tied_hooks(num_layers: int, shape):
    """The tied flow's hooks ``(factors, jacobian)`` on the row ``v[:1] = [u]`` of ``shape``:
    both take ``P = L u^(L-1)`` by one expression, ``factors`` writes it into ``out``, one
    row, and returns theta as the product of L copies of u in a reused buffer, ``jacobian``
    gives ``([P], L (L-1) u^(L-2))``."""
    L = num_layers
    copies = np.empty((L, *shape))

    def factors(v: np.ndarray, out: np.ndarray) -> np.ndarray:
        u = v[:1]
        np.multiply(L, u ** (L - 1), out)
        np.copyto(copies, u)
        return theta_of_layers(copies)

    def jacobian(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.multiply(L, v ** (L - 1)), (L * (L - 1) * v[0] ** (L - 2))[:, None, None]

    return factors, jacobian


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
    system is the minimum-L2 interpolator. The gradient's ``2 X^T`` is kept
    as a transposed view of ``2 X``, the layout of ``X.T``, so that BLAS
    sums in the same order and every gradient is the float ``2 (X^T r)``.
    Its products go through ``np.dot``: the BLAS calls of ``@``, without
    its ufunc dispatch.
    The constant Hessian ``2 X^T X`` is built, read-only, at the first
    ``hessian`` call.
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
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError("X and y must be finite")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        two_xt = (2.0 * X).T
        two_xt.setflags(write=False)
        object.__setattr__(self, "_two_xt", two_xt)
        object.__setattr__(self, "_theta_shape", (X.shape[1],))

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
        """``theta`` as a float64 array of shape ``(d,)``; a float64 array is
        passed on as it is, after one shape comparison."""
        if type(theta) is not np.ndarray or theta.dtype is not _FLOAT64:
            theta = np.asarray(theta, dtype=float)
        if theta.shape != self._theta_shape:
            raise ValueError(
                f"theta has shape {theta.shape}, expected ({self.dim},)"
            )
        return theta

    def value(self, theta: np.ndarray) -> float:
        r = np.dot(self.X, self._check(theta)) - self.y
        return float(np.dot(r, r))

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        return np.dot(self._two_xt, np.dot(self.X, self._check(theta)) - self.y)

    def value_and_gradient(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        r = np.dot(self.X, self._check(theta)) - self.y
        return float(np.dot(r, r)), np.dot(self._two_xt, r)

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        """``2 X^T X``, the same read-only array at every ``theta``."""
        self._check(theta)
        return self._hessian

    @functools.cached_property
    def _hessian(self) -> np.ndarray:
        hessian = 2.0 * (self.X.T @ self.X)
        hessian.setflags(write=False)
        return hessian

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
