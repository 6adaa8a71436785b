"""The JS divergence and the adversarial loss cubes.

All integrals run over one shared evaluation grid (129 points per axis for
d <= 2, 33 above; Simpson weights) that is decoupled from density storage
and that no caller can change, so every loss and divergence of one
dimension is computed on the same nodes. Every density is renormalized by
ITS OWN quadrature mass on that grid before any formula is applied. That
convention makes the algebraic relations between the quantities computed
here (the JS-loss identity, the dominance of the ratio discriminator)
hold pointwise on the grid, i.e. to floating-point accuracy rather than
quadrature accuracy.

The only discriminators are the ratio class D_ab = f_a / (f_a + f_b) of
the generator family, as the (a, b) axes of the pair_losses cube over the
densities of a net's stacked maps. The loss's real-data term and each
generator's term are one weighted sum of log D over a sample, so
pair_losses takes the real points as the last row group after the
generators' fakes and computes every term by one formula.

Deterministic reductions only: weighted sums go through np.sum (pairwise
tree order, independent of worker counts).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .density import (_MAX_GRID_NODES, GridDensity, axis_weights, default_resolution,
                      grid_points)
from .errors import ConfigInvalid, NonPositiveDensity
from .rosenblatt import PushforwardDensity

# floats of pair_losses' one scratch array (512 KB): each numpy call fills
# as many partner maps' rows as fit, and at least one
_SCRATCH_FLOATS = 1 << 16


def eval_resolution(dim: int) -> int:
    """Nodes per axis of the shared evaluation grid; refuses grids past the cap."""
    resolution = default_resolution(dim)
    if resolution ** dim > _MAX_GRID_NODES:
        raise ConfigInvalid(f"dim {dim} needs a {resolution}^{dim} evaluation grid, "
                            f"cap is {_MAX_GRID_NODES} nodes")
    return resolution


@lru_cache(maxsize=8)
def eval_grid(dim: int):
    """The shared evaluation nodes and their tensor Simpson weights."""
    resolution = eval_resolution(dim)
    pts = grid_points(dim, resolution)
    w1 = axis_weights(resolution, "simpson")
    w = np.ones(1)
    for _ in range(dim):
        w = np.multiply.outer(w, w1).ravel()
    pts.flags.writeable = False
    w.flags.writeable = False
    return pts, w


def _dim_of(obj) -> int:
    if isinstance(obj, (GridDensity, PushforwardDensity)):
        return obj.dim
    raise ConfigInvalid(f"not a density object: {type(obj).__name__}")


def _values_on(obj, pts: np.ndarray) -> np.ndarray:
    vals = np.asarray(obj.evaluate(pts), dtype=np.float64)
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
        raise NonPositiveDensity("density evaluated nonpositive on the grid")
    return vals


def js_divergence(f, g) -> float:
    """Symmetrized divergence to the midpoint; lies in [0, log 2]."""
    d = _dim_of(f)
    if _dim_of(g) != d:
        raise ConfigInvalid("density dimensions differ")
    pts, w = eval_grid(d)
    fv, gv = _values_on(f, pts), _values_on(g, pts)
    fv, gv = fv / float(np.sum(w * fv)), gv / float(np.sum(w * gv))
    mid = 0.5 * (fv + gv)
    return float(0.5 * (np.sum(w * fv * np.log(fv / mid))
                        + np.sum(w * gv * np.log(gv / mid))))


def pair_losses(scale, f, w=None, ends=None) -> np.ndarray:
    """Cube L[g, a, b]: the loss of generator g against D_ab = f_a / (f_a + f_b),
    over h distinct maps.

    f holds each map's density at G + 1 row groups of M points: the G
    generators' fakes, then the real points. With w None, f is (h, G + 1, M),
    each group its own points with unit weights; else f is (h, M), points
    shared by every group, and row r of w (G + 1, M) weights group r (its
    last row, the target's). With U[r, a] the weighted sum of log f_a over
    group r, and V[r, a, b] that of log(f_a + f_b), which is symmetric in
    (a, b) and summed for a < b only, then mirrored once: as log D_ab =
    log f_a - log(f_a + f_b) and log(1 - D_ab) = log f_b - log(f_a + f_b),

        L[g, a, b] = scale ((U[G, a] - V[G, a, b]) + (U[g, b] - V[g, a, b])).

    Each numpy call works on a block of rows, for V the rows of map a with
    a block of its partners b > a, in one scratch array of at most
    _SCRATCH_FLOATS floats (or one partner's rows, when those alone are
    more): about h + h^2 / (2 block) passes of numpy calls, not one per
    pair. Every entry is np.sum along the sample axis of one contiguous
    row, so it is the same number for any block size and in any cube that
    holds its maps. D_aa is the constant 1/2, whose loss is exactly
    log(1/2) when scale times each row group's weights sums to 1/2, as in
    both cubes; so L[g, a, a] is written as log(1/2). Raises
    NonPositiveDensity unless every density is positive and finite.

    With ends, one cube per prefix is stacked into (len(ends), G, h, h):
    cube p sums each row over its first ends[p] points only, in every
    group, with scale[p]. Each log row is still taken once, over all M
    points, so cube p is bitwise the cube of those points alone.
    """
    single = ends is None
    scales, ends = ([scale], [None]) if single else (scale, ends)
    h, p = f.shape[0], len(ends)
    u_sum, v_sum = _log_sums(f, w, ends)
    n_gen = u_sum.shape[1] - 1
    # x + 0.0 == x, so adding the zero lower triangle's transpose mirrors it
    v_sum += np.swapaxes(v_sum, -1, -2)
    real = np.subtract(u_sum[:, n_gen, :, None], v_sum[:, n_gen], out=v_sum[:, n_gen])
    out = np.subtract(u_sum[:, :n_gen, None, :], v_sum[:, :n_gen], out=v_sum[:, :n_gen])
    out += real[:, None]
    out *= np.reshape(scales, (p, 1, 1, 1))
    out[..., np.arange(h), np.arange(h)] = math.log(0.5)
    return out[0] if single else out


def _log_sums(f, w, ends):
    """pair_losses' weighted log sums over each prefix end and row group: U
    (p, G + 1, h) of log f_a, and the upper triangle (a < b) of V (p, G + 1,
    h, h) of log(f_a + f_b), zero elsewhere."""
    h, p, m = f.shape[0], len(ends), f.shape[-1]
    groups = f.shape[1] if w is None else len(w)
    # floats of one map's rows: its row groups' log rows, or (shared
    # points) its log row, then that row under each weight row
    width = groups * m if w is None else (groups + 1) * m
    block = max(1, min(h - 1, _SCRATCH_FLOATS // width))
    scratch = np.empty(block * width)

    def rows(k):
        if w is None:
            return scratch[:k * width].reshape(k, groups, m)
        return scratch[:k * m].reshape(k, m)

    def sums(logs, out):
        if w is not None:
            k = len(logs)
            weighted = scratch[k * m:k * width].reshape(k, groups, m)
            logs = np.multiply(logs[:, None, :], w, out=weighted)
        for i, end in enumerate(ends):
            np.sum(logs[..., :end], axis=-1, out=out[i].T)

    u_sum, v_sum = np.empty((p, groups, h)), np.zeros((p, groups, h, h))
    # log f is finite for every f exactly when U is finite
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, h, block):
            part = slice(lo, min(lo + block, h))
            sums(np.log(f[part], out=rows(part.stop - lo)), u_sum[:, :, part])
    if not np.all(np.isfinite(u_sum)):
        raise NonPositiveDensity("a density is not positive and finite at a sample point")
    for a in range(h - 1):
        for lo in range(a + 1, h, block):
            part = slice(lo, min(lo + block, h))
            logs = np.add(f[a], f[part], out=rows(part.stop - lo))
            sums(np.log(logs, out=logs), v_sum[:, :, a, part])
    return u_sum, v_sum
