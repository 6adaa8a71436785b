"""Loss and covering formulas that no command reaches: the tests' oracles.

The library computes the adversarial loss only as the cubes of
divergence.pair_losses, whose discriminators are the ratios of two maps'
densities. The formulas here take any discriminator, given as a function
of (N, d) points, and state the loss by its definition: the optimal
discriminator and the theoretical loss on the shared evaluation grid, and
the empirical loss on a training sample. covering_bound is the entropy
bound of a Holder ball that the chaining constants of trigan.bounds start
from. holder_bound, jacobian_range and solve_box_half are the box solve as
first written: every operator rebuilt on each call, and all 60 bisection
steps taken.
"""

from __future__ import annotations

from math import perm
from typing import Callable

import numpy as np

from trigan.bounds import _c1
from trigan.divergence import _dim_of, _values_on, eval_grid
from trigan.errors import ConfigInvalid, TriganError
from trigan.hypothesis import _SAFETY, _box_vector, _centred


class DiscriminatorOutOfRange(TriganError):
    """Discriminator evaluated outside (0, 1)."""


def loss_terms(scale, wy, dy, wx, dx):
    """scale * (sum wy log dy + sum over the last axis of wx log(1 - dx)),
    the adversarial loss at discriminator values dy (real) and dx (fake);
    a leading axis on wx or dx gives one loss per generator."""
    return scale * (np.sum(wy * np.log(dy)) + np.sum(wx * np.log1p(-dx), axis=-1))


def _renormalized_pair(f, g):
    """The grid nodes and weights, f and g on the nodes divided by their own
    quadrature masses, and the two masses."""
    d = _dim_of(f)
    if _dim_of(g) != d:
        raise ConfigInvalid("density dimensions differ")
    pts, w = eval_grid(d)
    fv = _values_on(f, pts)
    gv = _values_on(g, pts)
    mass_f, mass_g = float(np.sum(w * fv)), float(np.sum(w * gv))
    return pts, w, fv / mass_f, gv / mass_g, (mass_f, mass_g)


def optimal_discriminator(f_mu, f_phi) -> Callable[[np.ndarray], np.ndarray]:
    """The pointwise loss maximizer x -> f_mu / (f_mu + f_phi), each density
    divided by its own quadrature mass on the shared grid."""
    _, _, _, _, (mass_f, mass_g) = _renormalized_pair(f_mu, f_phi)

    def evaluator(x: np.ndarray) -> np.ndarray:
        fv = _values_on(f_mu, x) / mass_f
        gv = _values_on(f_phi, x) / mass_g
        return fv / (fv + gv)

    return evaluator


def _in_range(vals: np.ndarray) -> np.ndarray:
    if np.any(vals <= 0.0) or np.any(vals >= 1.0) or not np.all(np.isfinite(vals)):
        raise DiscriminatorOutOfRange("discriminator left the open interval (0, 1)")
    return vals


def theoretical_loss(f_mu, f_phi, disc: Callable[[np.ndarray], np.ndarray]) -> float:
    """(1/2) integral of [f_mu log D + f_phi log(1 - D)] on the shared grid."""
    pts, w, fv, gv, _ = _renormalized_pair(f_mu, f_phi)
    dv = _in_range(np.asarray(disc(pts), dtype=np.float64))
    return float(loss_terms(0.5, w * fv, dv, w * gv, dv))


def empirical_loss(disc, generator, sample) -> float:
    """(1/2n) sum log D(Y_i) + (1/2n) sum log(1 - D(phi(Z_i))) of one
    generator map phi on a learning.TrainingSample."""
    fake = generator.apply(sample.noise_points)
    dy = _in_range(np.asarray(disc(sample.real_points), dtype=np.float64))
    dx = _in_range(np.asarray(disc(fake), dtype=np.float64))
    return float(loss_terms(1.0 / (2.0 * sample.n), 1.0, dy, 1.0, dx))


def covering_bound(d1: int, d2: int, k: int, alpha: float, K: float,
                   epsilon: float, c1_star: float = 1.0) -> float:
    """Upper bound on log N of a Holder ball: C1 (K/eps)^{d1/(alpha+k)}."""
    if epsilon <= 0.0 or K <= 0.0:
        raise ConfigInvalid("epsilon and K must be positive")
    smooth = alpha + k
    return _c1(d1, d2, smooth, c1_star) * (K / epsilon) ** (d1 / smooth)


def holder_bound(config, vector, radius: float = 0.0) -> float:
    """hypothesis.holder_bound with its operators rebuilt on every call."""
    p, k = config.degree, config.k
    v = np.asarray(vector, dtype=np.float64).ravel()
    centring = np.eye(p) - 1.0 / p
    ck = semi = 0.0
    for theta_sl, coup_sl in config.blocks():
        theta, coup = v[theta_sl], v[coup_sl].reshape(p, -1)
        quotient = 0.0
        for m in range(min(k + 1, p) + 1):
            rows = np.tril(np.ones((p, p))) if m == 0 else np.diff(np.eye(p), m - 1, axis=0)
            op = rows @ centring
            reach = radius * np.abs(op).sum(axis=1)
            w_sup = np.abs(rows.sum(axis=1) / p + op @ theta) + reach
            c_sup = np.abs(op @ coup) + reach[:, None]
            along = perm(p, m) * float((w_sup + c_sup.sum(axis=1)).max())
            across = 2.0 * perm(p, m) * c_sup.max(axis=0)
            for order, sups in ((m, [along]), (m + 1, list(across))):
                if order <= k:
                    ck = max([ck, *sups])
                elif order == k + 1:
                    quotient += sum(sups)
        semi = max(semi, quotient)
    return float(ck + semi)


def jacobian_range(config, vector, radius: float = 0.0) -> tuple:
    """hypothesis.jacobian_range with its centring rebuilt on every call."""
    v = _box_vector(config, np.ravel(vector))
    p = config.degree
    reach = radius * np.abs(np.eye(p) - 1.0 / p).sum(axis=1)
    lo = hi = 1.0
    for theta_sl, coup_sl in config.blocks():
        base, cc = _centred(p, v[theta_sl], v[coup_sl].reshape(p, -1))
        spread = np.abs(cc).sum(axis=1) + reach * (1 + cc.shape[1])
        lo *= p * max(float((base - spread).min()), 0.0)
        hi *= p * float((base + spread).max())
    return lo, hi


def solve_box_half(config) -> float:
    """The certified box half-width by all 60 bisection steps of the oracle kernels."""
    origin, cap = np.zeros(config.n_params), _SAFETY * config.K
    lo_b, hi_b = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo_b + hi_b)
        lo, hi = jacobian_range(config, origin, mid)
        if lo >= 1.0 / cap and hi <= cap and holder_bound(config, origin, mid) <= cap:
            lo_b = mid
        else:
            hi_b = mid
    return lo_b
