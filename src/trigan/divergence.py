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

Deterministic reductions only: weighted sums go through np.sum (pairwise
tree order, independent of worker counts).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .density import _MAX_GRID_NODES, GridDensity, axis_weights, grid_points
from .errors import ConfigInvalid, DiscriminatorOutOfRange, NonPositiveDensity
from .rosenblatt import PushforwardDensity


@dataclass(frozen=True)
class DiscriminatorFn:
    """Function [0,1]^d -> (0,1) with recorded range bounds."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    lower: float
    upper: float

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.evaluator(points)


@dataclass(frozen=True)
class PairDiscriminator:
    """Ratio discriminator f_a / (f_a + f_b) of two pushforward densities.

    pushforwards holds f_a and f_b, or f_a alone when both members realize
    the same map and the discriminator is the constant 1/2. Losses against
    it are entries of pair_losses, the kernel of the loss cubes.
    """

    pushforwards: tuple
    lower: float
    upper: float

    def densities(self, points: np.ndarray) -> np.ndarray:
        """(h, N): row a is pushforwards[a] at the points, h = 1 or 2."""
        return np.stack([f.evaluate(points) for f in self.pushforwards])

    def __call__(self, points: np.ndarray) -> np.ndarray:
        f = self.densities(points)
        return f[0] / (f[0] + f[-1])


def eval_resolution(dim: int) -> int:
    """Nodes per axis of the shared evaluation grid; refuses grids past the cap."""
    resolution = 129 if dim <= 2 else 33
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
    return pts, w, fv / np.sum(w * fv), gv / np.sum(w * gv)


def kl_divergence(f, g) -> float:
    """Quadrature of f log(f/g), both renormalized on the shared grid.

    With nonnegative weights the renormalized weighted sum is a discrete KL,
    so the result is nonnegative up to rounding of the masses.
    """
    _, w, fv, gv = _renormalized_pair(f, g)
    return float(np.sum(w * fv * np.log(fv / gv)))


def js_divergence(f, g) -> float:
    """Symmetrized divergence to the midpoint; lies in [0, log 2]."""
    _, w, fv, gv = _renormalized_pair(f, g)
    mid = 0.5 * (fv + gv)
    return float(0.5 * (np.sum(w * fv * np.log(fv / mid))
                        + np.sum(w * gv * np.log(gv / mid))))


def optimal_discriminator(f_mu, f_phi) -> DiscriminatorFn:
    """The pointwise loss maximizer f_mu / (f_mu + f_phi), mass-renormalized.

    Recorded bounds come from certified density ranges when both inputs
    carry them (grid node range for stored densities, the [1/(d! K^d), K]
    range for certified generators), else from the observed grid range with
    a small widening.
    """
    pts, w, _, _ = _renormalized_pair(f_mu, f_phi)
    mass_f = float(np.sum(w * _values_on(f_mu, pts)))
    mass_g = float(np.sum(w * _values_on(f_phi, pts)))

    def evaluator(x: np.ndarray) -> np.ndarray:
        fv = _values_on(f_mu, x) / mass_f
        gv = _values_on(f_phi, x) / mass_g
        return fv / (fv + gv)

    rng_f = _density_range(f_mu)
    rng_g = _density_range(f_phi)
    if rng_f is not None and rng_g is not None:
        lo = (rng_f[0] / mass_f) / (rng_f[0] / mass_f + rng_g[1] / mass_g)
        hi = (rng_f[1] / mass_f) / (rng_f[1] / mass_f + rng_g[0] / mass_g)
    else:
        observed = evaluator(pts)
        lo = float(observed.min()) * (1.0 - 1e-9)
        hi = 1.0 - (1.0 - float(observed.max())) * (1.0 - 1e-9)
    return DiscriminatorFn(evaluator=evaluator, lower=float(lo), upper=float(hi))


def _density_range(obj):
    if isinstance(obj, GridDensity):
        # multilinear interpolants attain their extremes at grid nodes
        return (obj.kappa, float(obj.values.max()))
    if isinstance(obj, PushforwardDensity):
        return obj.density_bounds
    return None


def theoretical_loss(f_mu, f_phi,
                     disc: DiscriminatorFn | PairDiscriminator | Callable) -> float:
    """(1/2) integral of [f_mu log D + f_phi log(1 - D)] on the shared grid;
    a pair discriminator's loss is its pair_losses entry."""
    pts, w, fv, gv = _renormalized_pair(f_mu, f_phi)
    if isinstance(disc, PairDiscriminator):
        dens = disc.densities(pts)
        return float(pair_losses(0.5, dens, w * fv, dens, (w * gv)[None])[0, 0, -1])
    dv = np.asarray(disc(pts), dtype=np.float64)
    if np.any(dv <= 0.0) or np.any(dv >= 1.0) or not np.all(np.isfinite(dv)):
        raise DiscriminatorOutOfRange("discriminator left the open interval (0, 1)")
    return float(loss_terms(0.5, w * fv, dv, w * gv, dv))


def loss_terms(scale, wy, dy, wx, dx):
    """scale * (sum wy log dy + sum over the last axis of wx log(1 - dx)),
    the adversarial loss at discriminator values dy (real) and dx (fake);
    a leading axis on wx or dx gives one loss per generator. It serves
    every discriminator given by its values, and the constant-1/2 entries
    of pair_losses; ratio discriminators otherwise go through pair_losses."""
    return scale * (np.sum(wy * np.log(dy)) + np.sum(wx * np.log1p(-dx), axis=-1))


def pair_losses(scale, fy, wy, fx, wx) -> np.ndarray:
    """Cube L[g, a, b]: the loss of generator g against D_ab = f_a / (f_a + f_b),
    over h distinct maps.

    fy (h, N) holds f_a at the real-side points, with weights wy (a scalar
    or (N,)). fx[a] is f_a at the fake-side points: (G, M), each generator's
    own points, with a scalar wx, or (M,), points shared by the G = len(wx)
    generators, with wx of shape (G, M). As log D_ab = log f_a - log(f_a +
    f_b) and log(1 - D_ab) = log f_b - log(f_a + f_b),

        L[g, a, b] = scale ((S[a] - T[a, b]) + (U[g, b] - V[g, a, b])),

    where S and U are the weighted sums of log f, and T and V those of
    log(f_a + f_b), which are symmetric in (a, b) and summed once per pair
    a < b. Each row is reduced by np.sum along the sample axis in buffers
    reused across rows, so one pair's entry is the same number in any cube
    that holds the pair. D_aa is the constant 1/2, and L[g, a, a] is
    loss_terms at 1/2. Raises NonPositiveDensity unless every density is
    positive and finite.
    """
    h = fy.shape[0]
    ybuf, xbuf = np.empty(fy.shape[1:]), np.empty(fx.shape[1:])
    # shared fake-side points: each log row is weighted by every generator's wx
    wbuf = np.empty((len(wx), fx.shape[-1])) if fx.ndim == 2 else xbuf

    def y_sum(logs):
        logs *= wy
        return np.sum(logs)

    def x_sums(logs, out):
        np.sum(np.multiply(logs, wx, out=wbuf), axis=-1, out=out)

    s_sum, t_sum = np.empty(h), np.zeros((h, h))
    u_sum, v_sum = np.empty((wbuf.shape[0], h)), np.zeros((wbuf.shape[0], h, h))
    # log f is finite for every f exactly when S and U are finite
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(h):
            s_sum[a] = y_sum(np.log(fy[a], out=ybuf))
            x_sums(np.log(fx[a], out=xbuf), u_sum[:, a])
    if not (np.all(np.isfinite(s_sum)) and np.all(np.isfinite(u_sum))):
        raise NonPositiveDensity("a density is not positive and finite at a sample point")
    for a, b in itertools.combinations(range(h), 2):
        t_sum[a, b] = t_sum[b, a] = y_sum(np.log(np.add(fy[a], fy[b], out=ybuf), out=ybuf))
        x_sums(np.log(np.add(fx[a], fx[b], out=xbuf), out=xbuf), v_sum[:, a, b])
        v_sum[:, b, a] = v_sum[:, a, b]
    out = scale * ((s_sum[:, None] - t_sum) + (u_sum[:, None, :] - v_sum))
    half = loss_terms(scale, wy, np.full(fy.shape[-1], 0.5), wx, np.full(fx.shape[-1], 0.5))
    out[:, np.arange(h), np.arange(h)] = np.reshape(half, (-1, 1))
    return out


LOG2 = math.log(2.0)
