"""Positive densities on the unit cube stored on uniform tensor grids.

A density is represented by its values at the nodes of a uniform grid with
``resolution`` points per axis (endpoints included) and is interpreted as the
multilinear interpolant of those values. Normalization, the prefix-marginal
tables and mollification all operate on that interpolant:

* the prefix-marginal tables are the one quadrature: they integrate out
  trailing axes with trapezoid weights, which integrate the interpolant
  exactly, so storage and integration agree; normalize takes its mass from
  them, and the triangular maps of the rosenblatt module turn them into
  piecewise-quadratic conditional CDFs, whose values are the integrals of
  the interpolant over partial boxes,
* mollification is a per-axis circular (mod 1) convolution with a wrapped
  Gaussian, truncated at eight standard deviations.

A GridDensity is an immutable tuple, checked when it is built and safe
to share across workers; every operation is a pure function.
"""

from __future__ import annotations

import json
import math
import os
from typing import NamedTuple

import numpy as np

from .errors import ConfigInvalid, NonPositiveDensity

# default dimension of each named family
_FAMILY_DIM = {"uniform": 1, "tilted": 1, "product": 2, "coupled": 2,
               "bimodal-mollified": 1}
# size limits of a named family's grid: every map layer works on 2^d
# interpolation corners, and 2^22 nodes are 32 MB per array of floats
_MAX_DIM = 8
_MAX_GRID_NODES = 1 << 22
# largest mollifier scale; see mollify
_MAX_SIGMA = 1.0
# points per GridDensity.evaluate block: for d <= 3 its temporaries stay
# below glibc's 128 KB mmap threshold, so they are not page-faulted afresh
# on every call; on the 129^2 grid, 2048-point blocks were slower
_EVAL_BLOCK = 4096


# default points per axis for freshly built named families
def default_resolution(dim: int) -> int:
    return 129 if dim <= 2 else 33


class GridDensity(NamedTuple("_GridFields", [
        ("dim", int), ("resolution", int), ("values", np.ndarray)])):
    """Strictly positive density sampled on a uniform tensor grid.

    values is a read-only copy of shape (resolution,) * dim; kappa is the
    minimum node value (the lower density bound). The density between nodes
    is the multilinear interpolant of the node values.
    """

    __slots__ = ()

    def __new__(cls, dim: int, resolution: int, values):
        if dim < 1:
            raise ConfigInvalid(f"dim must be >= 1, got {dim}")
        if resolution < 2:
            raise ConfigInvalid("resolution must be >= 2")
        vals = np.asarray(values, dtype=np.float64)
        if vals.shape != (resolution,) * dim:
            raise ConfigInvalid(f"values shape {vals.shape} does not match (resolution,)*dim")
        if not np.all(np.isfinite(vals)):
            raise NonPositiveDensity("density values must be finite")
        if np.any(vals <= 0.0):
            raise NonPositiveDensity("density values must be strictly positive")
        vals = vals.copy()
        vals.flags.writeable = False
        return super().__new__(cls, dim, resolution, vals)

    @property
    def kappa(self) -> float:
        return float(self.values.min())

    @property
    def knots(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.resolution)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Multilinear interpolant at an (N, dim) array of finite points, in
        _EVAL_BLOCK-point blocks, so its corner temporaries stay in cache."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if pts.shape[1] != self.dim:
            raise ConfigInvalid(f"points have dim {pts.shape[1]}, "
                                f"density has dim {self.dim}")
        require_finite(pts)
        flat, out = self.values.ravel(), np.empty(len(pts))
        for lo in range(0, len(pts), _EVAL_BLOCK):
            block = pts[lo:lo + _EVAL_BLOCK]
            out[lo:lo + len(block)] = _corner_sum(*_corners(block, self.resolution))(flat, 0)
        return out


# ---------------------------------------------------------------------------
# quadrature weights


def axis_weights(m: int, rule: str) -> np.ndarray:
    """Per-node weights integrating a function over [0, 1] from m samples."""
    h = 1.0 / (m - 1)
    if rule == "trapezoid":
        w = np.full(m, h)
        w[0] = w[-1] = h / 2.0
        return w
    if rule == "simpson":
        if m % 2 == 0:
            raise ConfigInvalid("simpson rule needs an odd node count")
        w = np.full(m, 2.0 * h / 3.0)
        w[1::2] = 4.0 * h / 3.0
        w[0] = w[-1] = h / 3.0
        return w
    raise ConfigInvalid(f"unknown quadrature rule {rule!r}")


# ---------------------------------------------------------------------------
# interpolation


def require_finite(points: np.ndarray) -> None:
    """Refuse points with a NaN or infinite coordinate, which the corner
    index cast would turn into an out-of-range or silently wrong cell."""
    if not np.all(np.isfinite(points)):
        raise ConfigInvalid("points must be finite")


def _corners(points: np.ndarray, m: int):
    """The 2^k multilinear corners of (N, k) points on m nodes per axis:
    flat row-major offsets into an (m,)*k array, and their weights."""
    pos = np.clip(points, 0.0, 1.0) * (m - 1)
    i0 = np.minimum(pos.astype(np.int64), m - 2)
    frac = pos - i0
    n, k = points.shape
    offsets, weights = [], []
    for corner in range(1 << k):
        weight = np.ones(n)
        flat = np.zeros(n, dtype=np.int64)
        for ax in range(k):
            bit = (corner >> ax) & 1
            weight *= frac[:, ax] if bit else (1.0 - frac[:, ax])
            flat = flat * m + i0[:, ax] + bit
        offsets.append(flat)
        weights.append(weight)
    return offsets, weights


def _corner_sum(offsets, weights):
    """at(flat, k) = sum_c weights[c] * flat[offsets[c] + k]: with the corners
    of _corners, the multilinear interpolant of a flat (raveled) table, read
    k entries past each corner."""
    def at(flat: np.ndarray, k) -> np.ndarray:
        out = weights[0] * flat[offsets[0] + k]
        for off, w in zip(offsets[1:], weights[1:]):
            out += w * flat[off + k]
        return out
    return at


def grid_points(dim: int, m: int, trim: int = 0) -> np.ndarray:
    """(N, dim) nodes of the uniform grid with m points per axis, row-major
    (last axis fastest), without the first and last trim nodes of each axis."""
    axis = np.linspace(0.0, 1.0, m)[trim:m - trim]
    mesh = np.meshgrid(*[axis] * dim, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


# ---------------------------------------------------------------------------
# operations


def normalize(density: GridDensity) -> GridDensity:
    """Rescale by one constant so the quadrature integral over the cube is 1."""
    w = axis_weights(density.resolution, "trapezoid")
    mass = float(prefix_marginal_tables(density)[0] @ w)
    return GridDensity(density.dim, density.resolution, density.values / mass)


def prefix_marginal_tables(density: GridDensity) -> list[np.ndarray]:
    """Trapezoid marginal value tables [V_1, ..., V_d], V_j of rank j.

    V_d is the stored values array and V_{j-1} is V_j with its last axis
    integrated out by trapezoid weights, the rule that commutes with the
    multilinear storage model; the conditional-density machinery built on
    these tables then reproduces the stored interpolant exactly.
    """
    w = axis_weights(density.resolution, "trapezoid")
    tables = [density.values]
    for _ in range(density.dim - 1):
        tables.append(tables[-1] @ w)
    return tables[::-1]


def mollify(density: GridDensity, sigma: float) -> GridDensity:
    """Per-axis circular convolution with a wrapped Gaussian of scale sigma.

    Grid endpoints are the same point mod 1, so the convolution runs on the
    resolution-1 distinct nodes and the final node is re-pinned to the first;
    the output is 1-periodic per axis, strictly positive, and normalized.
    The kernel is truncated at 8 sigma (tail mass below 1e-15) and rescaled
    to sum exactly 1, so the uniform density is a fixed point.

    sigma must lie in (0, 1]. The kernel wraps mod 1, so at sigma = 1 it is
    already within 2 exp(-2 pi^2) (about 5e-9) of uniform, while its
    truncated support grows as sigma / h.
    """
    if not 0.0 < sigma <= _MAX_SIGMA:
        raise ConfigInvalid(f"sigma must lie in (0, {_MAX_SIGMA}], got {sigma!r}")
    m = density.resolution
    length = m - 1
    h = 1.0 / length
    # below h/40 every neighbour's weight exp(-(h/sigma)^2/2) is 0.0 in
    # float64, and h/sigma may overflow, so the kernel is the identity
    reach = int(math.ceil(8.0 * sigma / h)) if sigma >= h / 40.0 else 0
    offsets = np.arange(-reach, reach + 1)
    weights = np.exp(-0.5 * (offsets * h / sigma) ** 2)
    kernel = np.zeros(length)
    np.add.at(kernel, offsets % length, weights)
    kernel /= kernel.sum()

    core = density.values[(slice(0, length),) * density.dim].copy()
    nz = np.nonzero(kernel)[0]
    for ax in range(density.dim):
        out = np.zeros_like(core)
        for o in nz:
            out += kernel[o] * np.roll(core, o, axis=ax)
        core = out
    full = np.pad(core, [(0, 1)] * density.dim, mode="wrap")
    return normalize(GridDensity(density.dim, m, full))


# ---------------------------------------------------------------------------
# named analytic families


def _mesh(dim: int, m: int) -> np.ndarray:
    """Per-axis coordinate arrays of the grid, each of shape (m,) * dim."""
    return grid_points(dim, m).T.reshape((dim,) + (m,) * dim)


def make_density(name: str, dim: int | None = None, resolution: int | None = None,
                 params: dict | None = None) -> GridDensity:
    """Build one of the named analytic families, normalized.

    Families: "uniform" (any dim), "tilted" ((2/3)(1+y), 1D), "product"
    (coordinatewise tilted), "coupled" ((1 + a*y1*y2)/(1 + a/4), 2D),
    "bimodal-mollified" (two-bump profile per axis, wrapped-Gaussian smoothed).
    The grid has at most 8 axes and 2^22 nodes.
    """
    if not isinstance(name, str) or name not in _FAMILY_DIM:
        raise ConfigInvalid(f"unknown density family {name!r}")
    d = _FAMILY_DIM[name] if dim is None else dim
    if not 1 <= d <= _MAX_DIM:
        raise ConfigInvalid(f"dim must lie in [1, {_MAX_DIM}], got {d}")
    m = resolution or default_resolution(d)
    if m ** d > _MAX_GRID_NODES:
        raise ConfigInvalid(f"a grid of {m}^{d} nodes exceeds the cap of "
                            f"{_MAX_GRID_NODES}")
    params = dict(params or {})
    if name == "uniform":
        _reject_unknown(params, name)
        return GridDensity(d, m, np.ones((m,) * d))
    if name == "tilted":
        if d != 1:
            raise ConfigInvalid("tilted family is one-dimensional")
        _reject_unknown(params, name)
        y = np.linspace(0.0, 1.0, m)
        return normalize(GridDensity(1, m, (2.0 / 3.0) * (1.0 + y)))
    if name == "product":
        if d < 2:
            raise ConfigInvalid("product family needs dim >= 2")
        _reject_unknown(params, name)
        grids = _mesh(d, m)
        vals = np.ones((m,) * d)
        for g in grids:
            vals = vals * (2.0 / 3.0) * (1.0 + g)
        return normalize(GridDensity(d, m, vals))
    if name == "coupled":
        if d != 2:
            raise ConfigInvalid("coupled family is two-dimensional")
        a = float(params.pop("a", 0.8))
        _reject_unknown(params, name)
        if a <= -1.0:
            raise NonPositiveDensity("coupled family needs a > -1 for positivity")
        y1, y2 = _mesh(2, m)
        vals = (1.0 + a * y1 * y2) / (1.0 + a / 4.0)
        return normalize(GridDensity(2, m, vals))
    # bimodal-mollified
    sigma = float(params.pop("sigma", 0.05))
    floor = float(params.pop("floor", 0.1))
    _reject_unknown(params, name)
    profile = lambda t: (floor + np.exp(-0.5 * ((t - 0.3) / 0.08) ** 2)
                         + 0.75 * np.exp(-0.5 * ((t - 0.72) / 0.09) ** 2))
    grids = _mesh(d, m)
    vals = np.ones((m,) * d)
    for g in grids:
        vals = vals * profile(g)
    return mollify(normalize(GridDensity(d, m, vals)), sigma)


def _reject_unknown(params: dict, name: str) -> None:
    if params:
        raise ConfigInvalid(f"unknown parameters {sorted(params)} for family {name!r}")


# ---------------------------------------------------------------------------
# JSON interface


def density_to_dict(density: GridDensity) -> dict:
    return {
        "dim": density.dim,
        "resolution": density.resolution,
        "values": density.values.ravel().tolist(),
        # integrals over the stored grid use trapezoid weights
        "quad_rule": "trapezoid",
    }


def density_from_dict(payload) -> GridDensity:
    if not isinstance(payload, dict):
        raise ConfigInvalid("a density must be a JSON object")
    required = {"dim", "resolution", "values", "quad_rule"}
    unknown = set(payload) - required
    if unknown:
        raise ConfigInvalid(f"unknown density fields {sorted(unknown)}")
    missing = required - set(payload)
    if missing:
        raise ConfigInvalid(f"missing density fields {sorted(missing)}")
    for key in ("dim", "resolution"):
        if isinstance(payload[key], bool) or not isinstance(payload[key], int):
            raise ConfigInvalid(f"density {key} must be an integer")
    d, m = payload["dim"], payload["resolution"]
    if not 1 <= d <= _MAX_DIM or m < 2:
        raise ConfigInvalid(f"density dim must lie in [1, {_MAX_DIM}] and resolution "
                            f"be >= 2, got {d} and {m}")
    if payload["quad_rule"] != "trapezoid":
        raise ConfigInvalid("density quad_rule must be 'trapezoid'")
    return GridDensity(d, m, positive_table(payload["values"], m, d, "density values"))


def positive_table(vals, m: int, rank: int, what: str) -> np.ndarray:
    """The (m,)*rank array of a flat JSON list of m^rank numbers; ConfigInvalid
    for any other list, NonPositiveDensity unless every value is finite and
    positive."""
    if not isinstance(vals, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in vals):
        raise ConfigInvalid(f"{what} must be a flat list of numbers")
    if len(vals) != m**rank:
        raise ConfigInvalid(f"{what} length {len(vals)} != resolution^{rank} {m**rank}")
    try:
        arr = np.asarray(vals, dtype=np.float64)
    except OverflowError:
        raise NonPositiveDensity(f"{what} must be finite") from None
    if not np.all(np.isfinite(arr)):
        raise NonPositiveDensity(f"{what} must be finite")
    if np.any(arr <= 0.0):
        raise NonPositiveDensity(f"{what} must be strictly positive")
    return arr.reshape((m,) * rank)


def save_density(density: GridDensity, path: str) -> None:
    write_json_atomic(density_to_dict(density), path)


def load_density(path: str) -> GridDensity:
    return density_from_dict(read_json(path))


def _reject_constant(name: str):
    raise ConfigInvalid(f"JSON holds the non-finite number {name}")


def read_json(path: str):
    """Parse a strict UTF-8 JSON file: one that does not decode, or that
    holds NaN or an infinity, is ConfigInvalid."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:
        # bad syntax, bytes that are not UTF-8, an integer past Python's
        # 4300-digit limit, or nesting deeper than the recursion limit
        raise ConfigInvalid(f"{path} is not valid JSON: {exc}") from None


def _null_nonfinite(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _null_nonfinite(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_null_nonfinite(val) for val in obj]
    return obj


# start of the encoder's refusal of NaN and infinities, Python 3.10 to 3.13
_NONFINITE = "Out of range float values are not JSON compliant"


def _json_chunks(payload):
    # with an indent, json.dumps joins this same pure-Python token stream
    yield from json.JSONEncoder(sort_keys=True, indent=2,
                                allow_nan=False).iterencode(payload)
    yield "\n"


def write_json_atomic(payload, path: str) -> None:
    """Stream strict JSON into place; sorted keys, stable floats.

    The bytes are those of `json.dumps(payload, sort_keys=True, indent=2)`
    plus a newline. NaN and infinities are not JSON, so a non-finite float
    is written as null.
    """
    try:
        write_chunks_atomic(_json_chunks(payload), path)
    except ValueError as exc:
        if not str(exc).startswith(_NONFINITE):
            raise
        # walked only on failure: a density's values list holds up to 2^22 floats
        write_chunks_atomic(_json_chunks(_null_nonfinite(payload)), path)


def write_text_atomic(text: str, path: str) -> None:
    write_chunks_atomic((text,), path)


def write_chunks_atomic(chunks, path: str) -> None:
    """Write each string of `chunks` as it arrives to a temporary file, then
    rename it into place; memory stays that of one chunk.

    If `chunks` raises, the temporary file is removed and a file already at
    `path` keeps its bytes. The file gets the mode `open(path, "w")` would
    give it, 0o666 less the umask.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
