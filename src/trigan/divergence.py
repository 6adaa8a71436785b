"""Divergences, the adversarial loss, and the loss-maximizing discriminator.

All integrals run over one shared evaluation grid (129 points per axis for
d <= 2, 33 above; Simpson weights) that is decoupled from density storage
and that no caller can change, so every loss and divergence of one
dimension is computed on the same nodes. Every density is renormalized by
ITS OWN quadrature mass on that grid before any formula is applied. That
convention makes the algebraic relations between the quantities computed
here (the JS-loss identity, the nonnegativity of KL, the dominance of the
ratio discriminator) hold pointwise on the grid, i.e. to floating-point
accuracy rather than quadrature accuracy.

A discriminator is a plain function of (N, d) points. The ratio class
D_ab = f_a / (f_a + f_b) of the generator family has one form only: the
(a, b) axes of the pair_losses cube.

Deterministic reductions only: weighted sums go through np.sum (pairwise
tree order, independent of worker counts).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .density import (_MAX_GRID_NODES, GridDensity, axis_weights, default_resolution,
                      grid_points)
from .errors import ConfigInvalid, DiscriminatorOutOfRange, NonPositiveDensity
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


def _renormalized_pair(f, g):
    d = _dim_of(f)
    if _dim_of(g) != d:
        raise ConfigInvalid("density dimensions differ")
    pts, w = eval_grid(d)
    fv = _values_on(f, pts)
    gv = _values_on(g, pts)
    mass_f, mass_g = float(np.sum(w * fv)), float(np.sum(w * gv))
    return pts, w, fv / mass_f, gv / mass_g, (mass_f, mass_g)


def kl_divergence(f, g) -> float:
    """Quadrature of f log(f/g), both renormalized on the shared grid.

    With nonnegative weights the renormalized weighted sum is a discrete KL,
    so the result is nonnegative up to rounding of the masses.
    """
    _, w, fv, gv, _ = _renormalized_pair(f, g)
    return float(np.sum(w * fv * np.log(fv / gv)))


def js_divergence(f, g) -> float:
    """Symmetrized divergence to the midpoint; lies in [0, log 2]."""
    _, w, fv, gv, _ = _renormalized_pair(f, g)
    mid = 0.5 * (fv + gv)
    return float(0.5 * (np.sum(w * fv * np.log(fv / mid))
                        + np.sum(w * gv * np.log(gv / mid))))


def optimal_discriminator(f_mu, f_phi) -> Callable[[np.ndarray], np.ndarray]:
    """The pointwise loss maximizer x -> f_mu / (f_mu + f_phi), each density
    divided by its own quadrature mass on the shared grid."""
    _, _, _, _, (mass_f, mass_g) = _renormalized_pair(f_mu, f_phi)

    def evaluator(x: np.ndarray) -> np.ndarray:
        fv = _values_on(f_mu, x) / mass_f
        gv = _values_on(f_phi, x) / mass_g
        return fv / (fv + gv)

    return evaluator


def theoretical_loss(f_mu, f_phi, disc: Callable[[np.ndarray], np.ndarray]) -> float:
    """(1/2) integral of [f_mu log D + f_phi log(1 - D)] on the shared grid,
    for a discriminator D given as a function of (N, d) points."""
    pts, w, fv, gv, _ = _renormalized_pair(f_mu, f_phi)
    dv = np.asarray(disc(pts), dtype=np.float64)
    if np.any(dv <= 0.0) or np.any(dv >= 1.0) or not np.all(np.isfinite(dv)):
        raise DiscriminatorOutOfRange("discriminator left the open interval (0, 1)")
    return float(loss_terms(0.5, w * fv, dv, w * gv, dv))


def loss_terms(scale, wy, dy, wx, dx):
    """scale * (sum wy log dy + sum over the last axis of wx log(1 - dx)),
    the adversarial loss at discriminator values dy (real) and dx (fake);
    a leading axis on wx or dx gives one loss per generator. It serves
    every discriminator given by its values, and the constant-1/2 entries
    of pair_losses; the ratio discriminators are pair_losses' (a, b) axes."""
    return scale * (np.sum(wy * np.log(dy)) + np.sum(wx * np.log1p(-dx), axis=-1))


def pair_losses(scale, fy, wy, fx, wx, ends=None) -> np.ndarray:
    """Cube L[g, a, b]: the loss of generator g against D_ab = f_a / (f_a + f_b),
    over h distinct maps.

    fy (h, N) holds f_a at the real-side points, with weights wy (a scalar
    or (N,)). fx[a] is f_a at the fake-side points: (G, M), each generator's
    own points, with a scalar wx, or (M,), points shared by the G = len(wx)
    generators, with wx of shape (G, M). As log D_ab = log f_a - log(f_a +
    f_b) and log(1 - D_ab) = log f_b - log(f_a + f_b),

        L[g, a, b] = scale ((S[a] - T[a, b]) + (U[g, b] - V[g, a, b])),

    where S and U are the weighted sums of log f, and T and V those of
    log(f_a + f_b), which are symmetric in (a, b): they are summed for
    a < b only and mirrored once. Each numpy call works on a block of rows,
    for T and V the rows of map a with a block of its partners b > a, in
    one scratch array of at most _SCRATCH_FLOATS floats (or one partner's
    rows, when those alone are more): about h + h^2 / (2 block) passes of
    numpy calls, not one per pair. Every entry is np.sum along
    the sample axis of one contiguous row, so it is the same number for any
    block size and in any cube that holds its maps. D_aa is the constant
    1/2, and L[g, a, a] is loss_terms at 1/2. Raises NonPositiveDensity
    unless every density is positive and finite.

    With ends, one cube per prefix is stacked into (len(ends), G, h, h):
    cube p sums each row over its first ends[p] samples only, on both
    sides, with scale[p]. Each log row is still taken once, over the whole
    sample axis, so cube p is bitwise the cube of those samples alone.
    """
    single = ends is None
    scales, ends = ([scale], [None]) if single else (scale, ends)
    h, p = fy.shape[0], len(ends)
    s_sum, t_sum, u_sum, v_sum = _log_sums(fy, wy, fx, wx, ends)
    # x + 0.0 == x, so adding the zero lower triangle's transpose mirrors it
    t_sum += np.swapaxes(t_sum, -1, -2)
    v_sum += np.swapaxes(v_sum, -1, -2)
    out = np.subtract(u_sum[:, :, None, :], v_sum, out=v_sum)
    out += s_sum[:, None, :, None] - t_sum[:, None]
    out *= np.reshape(scales, (p, 1, 1, 1))
    half_y, half_x = np.full(fy.shape[-1], 0.5), np.full(fx.shape[-1], 0.5)
    for cube, s, end in zip(out, scales, ends):
        wy_p, wx_p = (w if np.ndim(w) == 0 else w[..., :end] for w in (wy, wx))
        half = loss_terms(s, wy_p, half_y[:end], wx_p, half_x[:end])
        cube[:, np.arange(h), np.arange(h)] = np.reshape(half, (-1, 1))
    return out[0] if single else out


def _log_sums(fy, wy, fx, wx, ends):
    """pair_losses' weighted log sums over each prefix end: S (p, h) and U
    (p, G, h) of log f_a, and the upper triangles (a < b) of T (p, h, h) and
    V (p, G, h, h) of log(f_a + f_b), zero elsewhere."""
    h, p, n_y, n_x = fy.shape[0], len(ends), fy.shape[-1], fx.shape[-1]
    shared = fx.ndim == 2
    g = len(wx) if shared else fx.shape[1]
    # floats of one row block per map: its real-side row, or its fake-side
    # rows (shared points: its log row, then that row under each weight row)
    x_width = (g + 1) * n_x if shared else g * n_x
    width = max(n_y, x_width)
    block = max(1, min(h - 1, _SCRATCH_FLOATS // width))
    scratch = np.empty(block * width)
    # x * 1.0 == x bit for bit, so unit weights skip the multiply
    unit_y = np.ndim(wy) == 0 and wy == 1.0
    unit_x = np.ndim(wx) == 0 and wx == 1.0

    def y_rows(k):
        return scratch[:k * n_y].reshape(k, n_y)

    def x_rows(k):
        if shared:
            return scratch[:k * n_x].reshape(k, n_x)
        return scratch[:k * x_width].reshape(k, g, n_x)

    def y_sums(logs, out):
        if not unit_y:
            logs *= wy
        for i, end in enumerate(ends):
            np.sum(logs[:, :end], axis=-1, out=out[i])

    def x_sums(logs, out):
        k = len(logs)
        if shared:
            weighted = scratch[k * n_x:k * x_width].reshape(k, g, n_x)
            logs = np.multiply(logs[:, None, :], wx, out=weighted)
        elif not unit_x:
            logs *= wx
        for i, end in enumerate(ends):
            np.sum(logs[..., :end], axis=-1, out=out[i].T)

    s_sum, t_sum = np.empty((p, h)), np.zeros((p, h, h))
    u_sum, v_sum = np.empty((p, g, h)), np.zeros((p, g, h, h))
    # log f is finite for every f exactly when S and U are finite
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, h, block):
            rows = slice(lo, min(lo + block, h))
            k = rows.stop - lo
            y_sums(np.log(fy[rows], out=y_rows(k)), s_sum[:, rows])
            x_sums(np.log(fx[rows], out=x_rows(k)), u_sum[:, :, rows])
    if not (np.all(np.isfinite(s_sum)) and np.all(np.isfinite(u_sum))):
        raise NonPositiveDensity("a density is not positive and finite at a sample point")
    for a in range(h - 1):
        for lo in range(a + 1, h, block):
            rows = slice(lo, min(lo + block, h))
            k = rows.stop - lo
            logs = np.add(fy[a], fy[rows], out=y_rows(k))
            y_sums(np.log(logs, out=logs), t_sum[:, a, rows])
            logs = np.add(fx[a], fx[rows], out=x_rows(k))
            x_sums(np.log(logs, out=logs), v_sum[:, :, a, rows])
    return s_sum, t_sum, u_sum, v_sum
