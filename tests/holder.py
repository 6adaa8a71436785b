"""Numerical Holder-norm estimation for grid-sampled maps.

The estimate approaches the true norm from below, up to finite-difference
error: derivatives come from finite differences (second order, one-sided
at the boundary) and the Holder quotient is maximized over a finite pair
sample. It is the test oracle of hypothesis.holder_bound, the closed-form
upper bound that certifies the generator family.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial
from typing import Callable

import numpy as np

from trigan.density import grid_points
from trigan.errors import ConfigInvalid, DegenerateJacobian

# all-pairs quotients stay below ~17M distance evaluations; 1D/2D oracle
# grids (257, 33^2) fall under this, larger grids switch to strides
_ALL_PAIRS_NODE_CAP = 4096
_STRATIFIED_STRIDES = (1, 2, 3, 5, 7, 11, 13, 21, 34, 55, 89, 144,
                       233, 377, 610, 987, 1597, 2584, 4181, 6765)


@dataclass(frozen=True)
class HolderEstimate:
    k: int
    alpha: float
    ck_norm: float            # max_{|n| <= k} sup |D^n f|
    holder_seminorm: float    # max_{|n| = k} alpha-quotient over the pair sample
    total: float              # ck_norm + holder_seminorm


def estimate_holder_norm(values: np.ndarray | Callable, k: int, alpha: float,
                         dim: int | None = None,
                         resolution: int | None = None) -> HolderEstimate:
    """Estimate the C^{k,alpha} norm of a map sampled on a uniform grid.

    values: either an array of shape (m,)*d (scalar) or (m,)*d + (d2,)
    (vector components last), or a callable taking (N, dim) points, in which
    case dim and resolution must be given. Returns a lower bound.
    """
    if callable(values):
        if dim is None or resolution is None:
            raise ConfigInvalid("callable input needs dim and resolution")
        values = grid_values_of_map(values, dim, resolution)
    values = np.asarray(values, dtype=np.float64)
    if k < 0:
        raise ConfigInvalid("k must be a nonnegative integer")
    if not 0.0 < alpha <= 1.0:
        raise ConfigInvalid("alpha must lie in (0, 1]")

    # trailing axis is a component axis when its length differs from the grid's
    if values.ndim >= 2 and values.shape[-1] != values.shape[0]:
        comps = [values[..., i] for i in range(values.shape[-1])]
    else:
        comps = [values]
    d = comps[0].ndim
    m = comps[0].shape[0]
    if any(c.shape != (m,) * d for c in comps):
        raise ConfigInvalid("component grids must be uniform cubes")
    if m < k + 2:
        raise ConfigInvalid(f"resolution {m} < k + 2 = {k + 2}")
    h = 1.0 / (m - 1)

    ck = 0.0
    top_draws: list[tuple[np.ndarray, int]] = []
    for comp in comps:
        for n in _multi_indices(d, k):
            deriv = comp
            for axis, order in enumerate(n):
                for _ in range(order):
                    deriv = np.gradient(deriv, h, axis=axis, edge_order=2)
            # one-sided boundary stencils accumulate O(1) error by the third
            # differentiation; restrict orders >= 2 to the interior so the
            # estimate stays a genuine lower bound
            trim = _boundary_trim(sum(n), m)
            view = deriv[(slice(trim, m - trim),) * d] if trim else deriv
            ck = max(ck, float(np.abs(view).max()))
            if sum(n) == k:
                top_draws.append((view, trim))

    semi = 0.0
    for view, trim in top_draws:
        nodes = grid_points(d, m, trim)
        semi = max(semi, _pair_quotient(view.ravel(), nodes, alpha))
    return HolderEstimate(k=k, alpha=float(alpha), ck_norm=ck,
                          holder_seminorm=semi, total=ck + semi)


def inverse_lipschitz_bound(c1_norm: float, jac_inf: float, d: int) -> float:
    """Lipschitz bound d! * c1_norm^(d-1) / jac_inf for the inverse map."""
    if jac_inf <= 0.0:
        raise DegenerateJacobian(f"jac_inf must be positive, got {jac_inf}")
    if c1_norm <= 0.0:
        raise ConfigInvalid("c1_norm must be positive")
    return factorial(d) * c1_norm ** (d - 1) / jac_inf


def grid_values_of_map(fn: Callable, dim: int, resolution: int) -> np.ndarray:
    """Sample a map [0,1]^dim -> R^{d2} on the uniform grid; components last."""
    out = np.asarray(fn(grid_points(dim, resolution)), dtype=np.float64)
    if out.ndim == 1:
        return out.reshape((resolution,) * dim)
    return out.reshape((resolution,) * dim + (out.shape[1],))


def _multi_indices(d: int, k: int):
    for total in range(k + 1):
        for n in itertools.product(range(total + 1), repeat=d):
            if sum(n) == total:
                yield n


def _boundary_trim(order: int, m: int) -> int:
    if order < 2:
        return 0
    # keep at least two nodes per axis so pair quotients stay defined
    return min(order, (m - 2) // 2)


def _pair_quotient(flat: np.ndarray, nodes: np.ndarray, alpha: float) -> float:
    n = flat.size
    if n <= _ALL_PAIRS_NODE_CAP:
        best = 0.0
        block = 512
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            dist = np.linalg.norm(nodes[lo:hi, None, :] - nodes[None, :, :], axis=2)
            diff = np.abs(flat[lo:hi, None] - flat[None, :])
            mask = dist > 0.0
            q = np.where(mask, diff / np.where(mask, dist, 1.0) ** alpha, 0.0)
            best = max(best, float(q.max()))
        return best
    # stratified deterministic pairs: every node against fixed strides
    best = 0.0
    idx = np.arange(n)
    for stride in _STRATIFIED_STRIDES:
        j = (idx + stride) % n
        dist = np.linalg.norm(nodes - nodes[j], axis=1)
        mask = dist > 0.0
        diff = np.abs(flat - flat[j])
        q = np.where(mask, diff / np.where(mask, dist, 1.0) ** alpha, 0.0)
        best = max(best, float(q.max()))
    return best
