"""Whole-row conditional CDFs: the reference the table-map kernel is tested against.

The map layer evaluates a conditional CDF from the 2^(j-1) prefix corners
of a cumulative table. This module computes the same CDF the direct way:
interpolate the whole conditional-density row at the prefix, cumulate it by
the trapezoid rule, and evaluate the piecewise-quadratic antiderivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from trigan.density import GridDensity, _corners, prefix_marginal_tables
from trigan.errors import ConfigInvalid, NonPositiveDensity


@dataclass(frozen=True)
class ConditionalCDF:
    """CDF of one coordinate given a prefix context.

    cdf_values are the exact cumulative trapezoid integrals of the conditional
    density at the knots, rescaled so the first is 0 and the last is 1. The
    CDF between knots is the quadratic antiderivative of the piecewise-linear
    conditional density, so value/inverse/derivative are mutually consistent.
    """

    axis: int
    context: tuple
    knots: np.ndarray
    cdf_values: np.ndarray
    pdf_values: np.ndarray   # conditional density at the knots, integral 1

    def __post_init__(self):
        if self.cdf_values[0] != 0.0 or self.cdf_values[-1] != 1.0:
            raise ConfigInvalid("cdf endpoints must be pinned to 0 and 1")
        if np.any(np.diff(self.cdf_values) <= 0.0):
            raise NonPositiveDensity("conditional CDF must be strictly increasing")

    def _cells(self, t: np.ndarray) -> np.ndarray:
        m = self.knots.size
        return np.clip(np.searchsorted(self.knots, t, side="right") - 1, 0, m - 2)

    def value(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        h = self.knots[1] - self.knots[0]
        k = self._cells(t)
        s = t - self.knots[k]
        p0, p1 = self.pdf_values[k], self.pdf_values[k + 1]
        out = self.cdf_values[k] + p0 * s + (p1 - p0) * s * s / (2.0 * h)
        out = np.clip(out, 0.0, 1.0)
        return np.where(t >= self.knots[-1], 1.0, np.where(t <= self.knots[0], 0.0, out))

    def derivative(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        h = self.knots[1] - self.knots[0]
        k = self._cells(t)
        s = (t - self.knots[k]) / h
        return self.pdf_values[k] * (1.0 - s) + self.pdf_values[k + 1] * s

    def inverse(self, u: np.ndarray) -> np.ndarray:
        """Exact cell-wise inverse; follows the inf convention for u at cell edges."""
        u = np.asarray(u, dtype=np.float64)
        h = self.knots[1] - self.knots[0]
        m = self.knots.size
        k = np.clip(np.searchsorted(self.cdf_values, u, side="right") - 1, 0, m - 2)
        r = np.maximum(u - self.cdf_values[k], 0.0)
        p0, p1 = self.pdf_values[k], self.pdf_values[k + 1]
        # solve p0*s + (p1-p0)/(2h) s^2 = r for s in [0, h]; stable quadratic form
        disc = np.maximum(p0 * p0 + 2.0 * (p1 - p0) * r / h, 0.0)
        s = 2.0 * r / (p0 + np.sqrt(disc))
        return np.clip(self.knots[k] + s, 0.0, 1.0)


def _interp_prefix(values: np.ndarray, prefix: np.ndarray) -> np.ndarray:
    """Interpolate over all axes but the last; returns shape (N, m).

    values has shape (m,)*j; prefix has shape (N, j-1). The result row i is
    the slice values[prefix_i, :] of the multilinear interpolant.
    """
    m = values.shape[0]
    prefix = np.atleast_2d(np.asarray(prefix, dtype=np.float64))
    if prefix.shape[1] != values.ndim - 1:
        raise ConfigInvalid("prefix length does not match values rank")
    rows = values.reshape(-1, m)
    out = np.zeros((prefix.shape[0], m))
    for off, weight in zip(*_corners(prefix, m)):
        out += weight[:, None] * rows[off]
    return out


def conditional_cdf(density: GridDensity, axis: int, context: Sequence[float]) -> ConditionalCDF:
    """CDF of coordinate `axis` (1-based) given the prefix context."""
    if not 1 <= axis <= density.dim:
        raise ConfigInvalid(f"axis must be in 1..{density.dim}")
    context = tuple(float(c) for c in context)
    if len(context) != axis - 1:
        raise ConfigInvalid(f"context must have length {axis - 1}")
    if any(c < 0.0 or c > 1.0 for c in context):
        raise ConfigInvalid("context components must lie in [0, 1]")
    vj = prefix_marginal_tables(density)[axis - 1]  # rank == axis
    g = _interp_prefix(vj, np.array([context]) if context else np.empty((1, 0)))[0]
    if np.any(g <= 0.0):
        raise NonPositiveDensity("conditional density hit zero; positivity violated")
    h = density.knots[1] - density.knots[0]
    raw = np.concatenate(([0.0], np.cumsum(h * (g[:-1] + g[1:]) / 2.0)))
    z = raw[-1]
    if z <= 0.0:
        raise NonPositiveDensity("conditional density has zero mass")
    cdf = raw / z
    cdf[0], cdf[-1] = 0.0, 1.0
    return ConditionalCDF(axis=axis, context=context, knots=density.knots,
                          cdf_values=cdf, pdf_values=g / z)
