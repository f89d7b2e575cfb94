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

from .conservation import locate_min_layers
from .flow import Trajectory
from .model import InitScheme, LayerStack, init_layers, leave_one_out_products, theta_of_layers

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
    """Block products: the layered theta of the unflattened stack."""
    return theta_of_layers(fp.blocks.T)


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


def jacobian_rank(fp: FlatParams) -> int:
    """Numerical rank via singular values at or above ``RANK_TOL * s_max``."""
    s = np.linalg.svd(jacobian(fp), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s >= RANK_TOL * s[0]))


def on_manifold(fp: FlatParams) -> bool:
    """True iff every coordinate block has at most one zero node."""
    return bool(np.all((fp.blocks == 0.0).sum(axis=1) <= 1))


def trajectory_on_manifold(traj: Trajectory) -> bool:
    """Manifold membership of every recorded snapshot."""
    if len(traj) == 0:
        raise ValueError("trajectory is empty")
    zeros_per_block = (traj.layers == 0.0).sum(axis=1)  # (K, d)
    return bool(np.all(zeros_per_block <= 1))


@dataclass(frozen=True, eq=False)
class Certificate:
    """What ``certify`` measured at one shape, with the value each field must have."""

    max_defect: float            # commuting defect at random points: exactly 0
    ranks_ok: bool               # rank == dim at every sampled point on the manifold
    rank_one_block: int          # two zero nodes in block 1: dim - 1
    rank_two_blocks: int | None  # and two in block 2 (dim >= 2): dim - 2
    control_defect: float        # control map sharing a variable: clearly nonzero
    init_on_manifold: bool       # a uniform init with unique minimal nodes is on it


def certify(num_layers: int, dim: int, samples: int, seed: int) -> Certificate:
    """Certify the product map at one shape from ``samples`` seeded draws.

    Every other rank sample has one zero node in each block. The control map
    ``(w1 w2, w1 w3)`` shares ``w1`` across outputs, so its commutator is
    nonzero: it shows that the defect check can fail.
    """
    rng = np.random.default_rng(seed)
    L, d = num_layers, dim

    max_defect = 0.0
    for _ in range(samples):
        fp = FlatParams(rng.uniform(-2.0, 2.0, L * d), L, d)
        i1, i2 = rng.integers(0, d, size=2)
        max_defect = max(max_defect, commuting_defect(fp, int(i1), int(i2)))

    ranks_ok = True
    for k in range(samples):
        w = rng.uniform(0.2, 2.0, L * d) * rng.choice([-1.0, 1.0], L * d)
        if k % 2 == 1:
            w.reshape(d, L)[np.arange(d), rng.integers(0, L, size=d)] = 0.0
        ranks_ok &= jacobian_rank(FlatParams(w, L, d)) == d

    w = rng.uniform(0.2, 2.0, L * d)
    w[0] = w[1] = 0.0
    rank_one_block = jacobian_rank(FlatParams(w, L, d))
    rank_two_blocks = None
    if d >= 2:
        w[L] = w[L + 1] = 0.0
        rank_two_blocks = jacobian_rank(FlatParams(w, L, d))

    wc = rng.uniform(0.5, 1.5, 3)
    g1 = np.array([wc[1], wc[0], 0.0])
    g2 = np.array([wc[2], 0.0, wc[0]])
    h1 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    h2 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    control_defect = float(np.max(np.abs(h1 @ g2 - h2 @ g1)))

    stack0 = init_layers(d, L, InitScheme("uniform"), seed=seed)
    bridge = locate_min_layers(stack0).holds and on_manifold(FlatParams.from_stack(stack0))
    return Certificate(max_defect, bool(ranks_ok), rank_one_block, rank_two_blocks,
                       control_defect, bridge)
