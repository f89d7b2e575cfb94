"""Certification of the flattened product parameterization.

The layered weights flatten coordinate-major into a vector ``w`` of length
``L*d`` (block ``i`` holds all ``L`` nodes of coordinate ``i``), and theta
becomes the block-product map ``w -> (prod of block i)_i``. This module
checks, numerically, the structural facts the mirror-flow argument rests on:

* blocks have disjoint supports, so second-derivative/gradient products
  commute across output coordinates exactly;
* the Jacobian keeps full row rank ``d`` wherever every block has at most
  one zero node (the working manifold), and the flow never leaves that set
  when started inside it.

The disjoint supports also make the flows generated by the coordinate
gradient fields act on separate variables, so their domains are symmetric
under composition by construction; there is nothing finite to check for
that and no test is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import Trajectory
from .model import LayerStack, leave_one_out_products

RANK_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class FlatParams:
    """Coordinate-major flattening of a layer stack."""

    w: np.ndarray  # (num_layers * dim,)
    num_layers: int
    dim: int

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.shape != (self.num_layers * self.dim,):
            raise ValueError(
                f"w has length {w.shape}, expected ({self.num_layers * self.dim},)"
            )
        object.__setattr__(self, "w", w)

    @classmethod
    def from_stack(cls, stack: LayerStack) -> "FlatParams":
        return cls(stack.layers.T.reshape(-1), stack.num_layers, stack.dim)

    def to_stack(self) -> LayerStack:
        return LayerStack(self.blocks.T)

    @property
    def blocks(self) -> np.ndarray:
        """View of shape (dim, num_layers); row i is coordinate i's block."""
        return self.w.reshape(self.dim, self.num_layers)

    def _check_coordinate(self, i: int) -> None:
        if not 0 <= i < self.dim:
            raise IndexError(f"coordinate {i} out of range [0, {self.dim})")


def theta_of_flat(fp: FlatParams) -> np.ndarray:
    """Block products; identical to the layered theta after unflattening."""
    return np.prod(fp.blocks, axis=1)


def coordinate_gradient(fp: FlatParams, i: int) -> np.ndarray:
    """Gradient of output coordinate i; supported on block i only."""
    fp._check_coordinate(i)
    return jacobian(fp)[i]


def coordinate_hessian(fp: FlatParams, i: int) -> np.ndarray:
    """Hessian of output coordinate i; zero outside block i, zero diagonal."""
    fp._check_coordinate(i)
    L = fp.num_layers
    n = fp.w.shape[0]
    H = np.zeros((n, n))
    block = fp.blocks[i]
    for a in range(L):
        for b in range(a + 1, L):
            keep = [m for m in range(L) if m != a and m != b]
            v = float(np.prod(block[keep])) if keep else 1.0
            H[i * L + a, i * L + b] = v
            H[i * L + b, i * L + a] = v
    return H


def commuting_defect(fp: FlatParams, i1: int, i2: int) -> float:
    """Inf-norm of the commutator of second-derivative/gradient products.

    Identically zero for the block-product map: distinct blocks share no
    variables, and the self-commutator cancels termwise.
    """
    g1 = coordinate_gradient(fp, i1)
    g2 = coordinate_gradient(fp, i2)
    h1 = coordinate_hessian(fp, i1)
    h2 = coordinate_hessian(fp, i2)
    return float(np.max(np.abs(h1 @ g2 - h2 @ g1)))


def jacobian(fp: FlatParams) -> np.ndarray:
    """Full Jacobian of the block-product map, shape (dim, num_layers*dim)."""
    L, d = fp.num_layers, fp.dim
    loo = leave_one_out_products(fp.blocks, axis=1)
    J = np.zeros((d, L * d))
    for i in range(d):
        J[i, i * L : (i + 1) * L] = loo[i]
    return J


def jacobian_rank(fp: FlatParams, tol: float = RANK_TOL) -> int:
    """Numerical rank via singular values at or above ``tol * s_max``."""
    s = np.linalg.svd(jacobian(fp), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s >= tol * s[0]))


def on_manifold(fp: FlatParams) -> bool:
    """True iff every coordinate block has at most one zero node."""
    return bool(np.all((fp.blocks == 0.0).sum(axis=1) <= 1))


def trajectory_on_manifold(traj: Trajectory) -> bool:
    """Manifold membership of every recorded snapshot."""
    if len(traj) == 0:
        raise ValueError("trajectory is empty")
    zeros_per_block = (traj.layers == 0.0).sum(axis=1)  # (K, d)
    return bool(np.all(zeros_per_block <= 1))
