"""Triangular monotone transport maps on the unit cube.

The forward Rosenblatt map sends a target density to the uniform through
successive conditional CDFs: component j is the CDF of coordinate j given
the first j-1 coordinates. Its inverse is the generator that pushes uniform
noise to the target. A map and its inverse share one immutable object: a
TriangularMap is the components of ONE triangular map T and a flag saying
whether the object is T (apply evaluates the components) or its inverse
(apply solves them coordinate by coordinate). A map's law is what it does
to uniform noise: PushforwardDensity(m) is the density of m.apply(Z), and
sample(m, ...) draws from it, whichever way the components are read;
target_sampler(target) is the map whose law is a grid or pushforward target.

Conditional CDFs are exact piecewise-quadratic antiderivatives of the
piecewise-linear conditional densities, so forward evaluation, inversion
(closed form per cell, the cell found by binary lifting), and the diagonal
partials are mutually consistent to machine precision, and the Jacobian of
the forward map telescopes to the stored multilinear interpolant of the
density. One prefix-linear kernel evaluates every component, whatever its
rank.

A Bernstein map may be a stack of members, as a net's distinct maps are:
its components' blocks carry leading member axes lead, so apply and
PushforwardDensity.evaluate read (N, d) points shared by every member and
return lead + (N, d) and lead + (N,). One member (lead ()) and a table map
run the same code, in blocks of at most _CHUNK map-points with scratch
allocated once per call, and write into the array they are given (a table
map's apply in GridDensity.evaluate's blocks, below the mmap threshold).

A density solves only the preimage coordinates it reads. A degree-2 Bernstein
component psi(t) = 2 w1 t + a t^2 has its partial at the root in closed form,
psi'(psi^{-1}(x)) = 2 sqrt(w1^2 + a x) (root_partial), and the root itself
from the same discriminant when a later component's coupling reads it:
none in 1D or uncoupled, the first d - 1 when coupled. Table and
higher-degree components solve every coordinate and take the partial there.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import rng
from .density import (_EVAL_BLOCK, GridDensity, _corner_sum, _corners,
                      prefix_marginal_tables, require_finite)
from .errors import ConfigInvalid, DegenerateJacobian, RootNotBracketed

_CHUNK = 16384
_JAC_FLOOR = 1e-12


class TableComponent(NamedTuple("_TableFields", [
        ("table", np.ndarray), ("knots", np.ndarray), ("cumulative", np.ndarray)])):
    """Conditional-CDF component backed by prefix-marginal value tables.

    table has rank j (the component index, 1-based); trapezoid contraction
    of table over its last axis must reproduce the previous component's
    table, which is what makes the full Jacobian telescope exactly.

    The raw conditional cumulative of a prefix is linear in the prefix
    interpolation weights, so cumulative (the trapezoid cumsum of table
    along its last axis) is built once; a point then reads only the
    2^(j-1) prefix corners of table and cumulative at the cells it needs,
    and the inverse finds its cell by binary lifting over the gathered
    cumulatives. The same kernel serves every rank: the rank-1 component
    has no prefix axes and a single corner of weight 1. cumulative is
    derived data and is never serialized.
    """

    __slots__ = ()
    lead = ()   # one map: a table component stacks no members

    def __new__(cls, table: np.ndarray, knots: np.ndarray):
        h = knots[1] - knots[0]
        cells = h * (table[..., :-1] + table[..., 1:]) / 2.0
        zero = np.zeros(table.shape[:-1] + (1,))
        return super().__new__(cls, table, knots,
                               np.concatenate([zero, np.cumsum(cells, axis=-1)], axis=-1))

    def __getnewargs__(self):
        return self[:2]     # pickle rebuilds cumulative

    @property
    def reads(self) -> int:
        """Leading coordinates the component reads: every earlier one."""
        return self.table.ndim - 1

    def _corner_rows(self, prefix: np.ndarray):
        """at(flat, k): entry k of each point's prefix-interpolated row of a
        flat (raveled) table, summed over the 2^(j-1) prefix corners."""
        m = self.knots.size
        rows, weights = _corners(np.asarray(prefix, dtype=np.float64), m)
        return _corner_sum([row * m for row in rows], weights)

    def _cells(self, t: np.ndarray) -> np.ndarray:
        m = self.knots.size
        return np.clip(np.searchsorted(self.knots, t, side="right") - 1, 0, m - 2)

    def value(self, prefix: np.ndarray, t: np.ndarray, out=None) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        at, table, cum = self._corner_rows(prefix), self.table.ravel(), self.cumulative.ravel()
        h = self.knots[1] - self.knots[0]
        k = self._cells(t)
        s = t - self.knots[k]
        g0, g1 = at(table, k), at(table, k + 1)
        raw = at(cum, k) + g0 * s + (g1 - g0) * s * s / (2.0 * h)
        out = np.clip(raw / at(cum, self.knots.size - 1), 0.0, 1.0, out=out)
        out[t <= 0.0], out[t >= 1.0] = 0.0, 1.0
        return out

    def partial(self, prefix: np.ndarray, t: np.ndarray, out=None) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        at, table, cum = self._corner_rows(prefix), self.table.ravel(), self.cumulative.ravel()
        h = self.knots[1] - self.knots[0]
        k = self._cells(t)
        s = (t - self.knots[k]) / h
        return np.divide(at(table, k) * (1.0 - s) + at(table, k + 1) * s,
                         at(cum, self.knots.size - 1), out=out)

    def _cell_below(self, at, target: np.ndarray) -> np.ndarray:
        """Last cell k in [0, m-2] with at(cumulative, k) <= target, which is
        nondecreasing in k, by binary lifting: k moves up by each power of two,
        clamped to m-2, where the cumulative there is still <= target."""
        m, cum = self.knots.size, self.cumulative.ravel()
        k = np.zeros(target.size, dtype=np.int64)
        for b in reversed(range((m - 2).bit_length())):
            cand = np.minimum(k + (1 << b), m - 2)
            below = at(cum, cand) <= target
            cand -= k
            cand *= below
            k += cand
        return k

    def inverse_exact(self, prefix: np.ndarray, u: np.ndarray, out=None) -> np.ndarray:
        """Closed-form cell-wise inverse of the piecewise-quadratic CDF, u in [0, 1]."""
        u = np.asarray(u, dtype=np.float64)
        at, table, cum = self._corner_rows(prefix), self.table.ravel(), self.cumulative.ravel()
        h = self.knots[1] - self.knots[0]
        target = u * at(cum, self.knots.size - 1)
        lo = self._cell_below(at, target)
        r = np.maximum(target - at(cum, lo), 0.0)
        p0, p1 = at(table, lo), at(table, lo + 1)
        disc = np.maximum(p0 * p0 + 2.0 * (p1 - p0) * r / h, 0.0)
        s = 2.0 * r / (p0 + np.sqrt(disc))
        return np.clip(self.knots[lo] + s, 0.0, 1.0, out=out)


class TriangularMap(NamedTuple):
    """Lower-triangular monotone bijection of the unit cube, or a stack of
    them (lead) that reads the same points.

    components always realize one fixed triangular map T, one component per
    axis; components_direct says whether T is this object (apply evaluates
    T) or its inverse (apply solves T coordinate-wise).
    """

    components: tuple
    components_direct: bool = True

    @property
    def dim(self) -> int:
        return len(self.components)

    @property
    def lead(self) -> tuple:
        """The stack's leading axes: () for one map, (h,) for h maps."""
        return self.components[0].lead

    def inverse(self) -> "TriangularMap":
        return self._replace(components_direct=not self.components_direct)

    def apply(self, points: np.ndarray, out=None) -> np.ndarray:
        """The map at (N, d) points, lead + (N, d), written into out when it
        is given: each component evaluated (direct) or solved coordinate by
        coordinate."""
        pts = _as_points(points, self.dim)
        out = np.empty(self.lead + pts.shape) if out is None else out
        table = isinstance(self.components[0], TableComponent)  # GridDensity.evaluate's blocks
        step = _EVAL_BLOCK if table else _block(self.lead)
        scratch = np.empty(min(len(pts), step))   # clipped solve targets
        for lo in range(0, len(pts), step):
            block, res = pts[lo:lo + step], out[..., lo:lo + step, :]
            for j, comp in enumerate(self.components):
                if self.components_direct:
                    comp.value(block[:, :j], block[:, j], out=res[..., j])
                else:
                    target = np.clip(block[:, j], 0.0, 1.0, out=scratch[:len(block)])
                    _solve_monotone(comp, res[..., :j], target, out=res[..., j])
        return out


class PushforwardDensity(NamedTuple):
    """Density of base_map.apply(Z) for Z uniform: f(x) = 1/|J(base_map^{-1}(x))|."""

    base_map: TriangularMap

    @property
    def dim(self) -> int:
        return self.base_map.dim

    def evaluate(self, points: np.ndarray, out=None) -> np.ndarray:
        """The density at (N, d) points, lead + (N,), written into out when
        it is given: the Jacobian of the map's inverse. When the components
        realize the map, that is 1 / prod_j partial_j at the preimage y of
        the point x; a component with a root_partial reads its partial off
        x_j, and y_j from the same discriminant when a later component reads
        it; the others solve y_j and take the partial there. Else it is the
        product at the points. Each partial must clear _JAC_FLOOR."""
        gen = self.base_map
        direct, comps, lead = gen.components_direct, gen.components, gen.lead
        pts = _as_points(points, gen.dim)
        out = np.empty(lead + (len(pts),)) if out is None else out
        # the preimage coordinates the components read are a prefix of it
        read = max(comp.reads for comp in comps)
        step = _block(lead)
        size = min(len(pts), step)
        pre = np.empty(lead + (size, gen.dim))   # block preimages
        part = np.empty(lead + (size,))          # partials
        target = np.empty(size)                  # clipped coordinates
        for lo in range(0, len(pts), step):
            block, dens = pts[lo:lo + step], out[..., lo:lo + step]
            k = len(block)
            at, x = (pre[..., :k, :] if direct else block), target[:k]
            for j, comp in enumerate(comps):
                row = part[..., :k] if j else dens
                if direct:
                    np.clip(block[:, j], 0.0, 1.0, out=x)
                if direct and hasattr(comp, "root_partial"):
                    comp.root_partial(at[..., :j], x, out=row,
                                      root=at[..., j] if j < read else None)
                else:
                    if direct:
                        _solve_monotone(comp, at[..., :j], x, out=at[..., j])
                    comp.partial(at[..., :j], at[..., j], out=row)
                if np.any(row < _JAC_FLOOR):
                    raise DegenerateJacobian("diagonal partial below positivity floor")
                if j:
                    dens *= row
            if direct:
                np.divide(1.0, dens, out=dens)
        return out


# ---------------------------------------------------------------------------
# operations


def build_rosenblatt(density: GridDensity) -> TriangularMap:
    """Forward triangular map of the density: component j is the CDF of
    coordinate j given the previous ones."""
    knots = density.knots
    comps = tuple(TableComponent(table=t, knots=knots)
                  for t in prefix_marginal_tables(density))
    return TriangularMap(components=comps)


def sample(generator: TriangularMap, n: int, seed: int,
           stream: int = rng.stream_id(rng.KIND_NOISE)) -> np.ndarray:
    """n points generator.apply(Z_i) for Z_i uniform, Z_i keyed by (seed, stream,
    index): a draw from PushforwardDensity(generator).

    The stream is counter-based, so any partition of the index range
    (and any worker count) yields the same points bitwise.
    """
    if n < 0:
        raise ConfigInvalid("n must be nonnegative")
    out = np.empty((n, generator.dim))
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        z = rng.uniforms(seed, stream, lo, hi - lo, generator.dim)
        generator.apply(z, out=out[lo:hi])
    return out


def target_sampler(target) -> TriangularMap:
    """The map whose pushforward of uniform noise is the target: a
    PushforwardDensity's own map, a grid density's inverse Rosenblatt map."""
    if isinstance(target, PushforwardDensity):
        return target.base_map
    if isinstance(target, GridDensity):
        return build_rosenblatt(target).inverse()
    raise ConfigInvalid(f"cannot sample from {type(target).__name__}")


# ---------------------------------------------------------------------------
# solving and chunking helpers


def _block(lead: tuple) -> int:
    """Points per block, so that a block holds at most _CHUNK map-points."""
    return max(1, _CHUNK // math.prod(lead))


def _as_points(points: np.ndarray, dim: int) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None] if dim == 1 else pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ConfigInvalid(f"points must have shape (N, {dim})")
    require_finite(pts)
    return pts


def _solve_monotone(comp, prefix: np.ndarray, target: np.ndarray, out=None) -> np.ndarray:
    """Invert a monotone component at fixed prefix, at targets in [0, 1].

    Components with a closed-form inverse return it as is. The rest get
    bisection to width ~1e-13, and only that bisection result is polished
    by two Newton steps with the analytic diagonal partial.
    """
    if hasattr(comp, "inverse_exact"):
        return comp.inverse_exact(prefix, target, out=out)
    lo = np.zeros(prefix.shape[:-1])   # lead + (N,): one root per map and point
    hi = np.ones_like(lo)
    flo = comp.value(prefix, lo) - target
    fhi = comp.value(prefix, hi) - target
    if np.any(flo > 1e-9) or np.any(fhi < -1e-9):
        raise RootNotBracketed("component does not bracket its target on [0, 1]")
    for _ in range(44):
        mid = 0.5 * (lo + hi)
        fmid = comp.value(prefix, mid) - target
        take_hi = fmid >= 0.0
        hi = np.where(take_hi, mid, hi)
        lo = np.where(take_hi, lo, mid)
    t = 0.5 * (lo + hi)
    for newton in range(2):
        f = comp.value(prefix, t) - target
        dp = comp.partial(prefix, t)
        step = np.where(dp > _JAC_FLOOR, f / np.where(dp > _JAC_FLOOR, dp, 1.0), 0.0)
        t = np.clip(t - step, 0.0, 1.0, out=out if newton else None)
    return t
