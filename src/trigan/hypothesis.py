"""Certified finite-parameter families of monotone triangular maps.

Generators are triangular maps whose component j is a monotone Bernstein
polynomial in coordinate j, with weights that depend affinely on the
earlier coordinates (the coupling). Writing S_i for the upper Bernstein
sums (each increasing from 0 to 1, with sum_i S_i(t) = p t), component j is

    psi_j(y_1..y_j) = sum_i w_i(y_1..y_{j-1}) S_i(y_j),
    w_i = 1/p + (theta_i - mean theta) + sum_l (c_il - mean_i c_il)(2 y_l - 1).

Mean-centering forces sum_i w_i = 1, so components fix the endpoints 0 and 1
for every parameter choice, and the all-zero parameter vector is the
identity map. The diagonal partial is p * sum_i w_i B_{i-1,p-1}, a convex
combination of the p w_i scaled by p, so jacobian_range bounds the Jacobian
by the weights' ranges; every other derivative is a Bernstein polynomial
bounded by its coefficients (holder_bound). Both bound every member within
a sup-norm radius of a vector, so the box back-solved from K is certified
by the two at the origin: inside it the Jacobian range lies in [1/K, K] and
the C^{k,alpha} norm is at most K, with a safety margin. The estimate
estimate_holder_norm in tests/holder.py is the tests' oracle for the bound.

A member is its parameter vector, and a net the (c, n_params) array of
them. make_generator of such an array stacks its members into one map
whose blocks carry a leading member axis; distinct_maps centres a whole net
at once and stacks the first member of each distinct map; sup_distances
maps a stack once for its (c, c) sup distances on a probe grid, and the
diameter family_delta1 is one such call on the stacked box corners.

The discriminators are the ratios f_a / (f_a + f_b) of two members'
pushforwards; they live as the (a, b) axes of the loss cubes
(divergence.pair_losses), and their range constants
bounds.discriminator_constants depend only on (d, K).
"""

from __future__ import annotations

import math
from functools import lru_cache
from math import comb, perm
from typing import NamedTuple

import numpy as np

from . import bounds
from .density import _MAX_DIM, _MAX_GRID_NODES, grid_points
from .errors import ConfigInvalid, NetTooLarge, ParamsOutOfBox, _finite_number
from .rosenblatt import TriangularMap

_SAFETY = 0.95          # certification margin for the box back-solve
_BOX_TOL = 1e-9
_NET_CAP = 1_000_000
# pairwise gap values per sup_distances block: 8 MiB of scratch at any d
_GAP_CHUNK = 1 << 20
# highest Bernstein degree: every evaluation builds p + 1 basis columns per
# point, and a net has q^p members per component block
_MAX_DEGREE = 16
# k enters float formulas (the bound exponents), so it stays exact as a float
_MAX_K = 2**53
_KNOWN_FAMILIES = ("bernstein_triangular",)


# ---------------------------------------------------------------------------
# Bernstein basis machinery


@lru_cache(maxsize=16)
def _binoms(p: int) -> tuple:
    return tuple(comb(p, l) for l in range(p + 1))


def _bernstein_rows(p: int, t: np.ndarray) -> np.ndarray:
    """Basis values B_{l,p}(t), columns l = 0..p."""
    t = np.asarray(t, dtype=np.float64)
    one = 1.0 - t
    cols = [_binoms(p)[l] * t**l * one ** (p - l) for l in range(p + 1)]
    return np.stack(cols, axis=-1)


def _upper_sums(p: int, t: np.ndarray) -> np.ndarray:
    """S_i(t) = sum_{l >= i} B_{l,p}(t) for i = 1..p; S_i(0)=0, S_i(1)=1."""
    b = _bernstein_rows(p, t)
    rev = np.cumsum(b[..., ::-1], axis=-1)[..., ::-1]
    return rev[..., 1:]


def _upper_sum_derivs(p: int, t: np.ndarray) -> np.ndarray:
    """S_i'(t) = p B_{i-1,p-1}(t); the i-columns partition unity times p."""
    return p * _bernstein_rows(p - 1, t)


@lru_cache(maxsize=16)
def _param_lipschitz(p: int) -> float:
    """sup-norm response of a component to a unit move of one parameter.

    Perturbing one theta (or coupling) entry by delta changes the component
    by delta (S_i(t) - t) times a factor of modulus <= 1, so the shared
    per-parameter constant is max_i sup_t |S_i(t) - t|. Polynomial, so the
    max on a fine grid is exact to grid resolution.
    """
    t = np.linspace(0.0, 1.0, 4097)
    s = _upper_sums(p, t)
    return float(np.abs(s - t[:, None]).max())


# ---------------------------------------------------------------------------
# components


def _centred(degree: int, theta: np.ndarray, coupling: np.ndarray):
    """The mean-centred blocks 1/p + (theta - mean theta) and (c - mean_i c):
    the only parameters evaluation reads, so members with equal ones are the
    same map bit for bit (see distinct_maps)."""
    return (1.0 / degree + (theta - theta.mean(axis=-1, keepdims=True)),
            coupling - coupling.mean(axis=-2, keepdims=True))


class BernsteinComponent(NamedTuple("_BernsteinFields", [
        ("degree", int), ("theta", np.ndarray), ("coupling", np.ndarray),
        ("base", np.ndarray), ("centered", np.ndarray)])):
    """The (*lead, p) raw weight block theta and (*lead, p, r) raw coupling
    block (r = prefix length used), and their mean-centred blocks base and
    centered (_centred), each a read-only copy."""

    __slots__ = ()

    def __new__(cls, degree: int, theta, coupling):
        arrays = [np.array(theta, dtype=np.float64), np.array(coupling, dtype=np.float64)]
        arrays += _centred(degree, *arrays)
        for arr in arrays:
            arr.flags.writeable = False
        return super().__new__(cls, degree, *arrays)

    def __getnewargs__(self):
        return self[:3]     # pickle rebuilds base and centered

    @property
    def lead(self) -> tuple:
        """Member axes: () for one member; kernels return lead + (N,) values."""
        return self.base.shape[:-1]

    @property
    def reads(self) -> int:
        """Leading coordinates the weights read: one per coupling column."""
        return self.centered.shape[-1]

    def weights(self, prefix: np.ndarray) -> np.ndarray:
        """lead + (N, p) per-point weights, or lead + (1, p) when uncoupled."""
        base = self.base[..., None, :]
        if self.centered.size:
            return base + (2.0 * prefix[..., : self.reads] - 1.0) @ np.swapaxes(
                self.centered, -1, -2)
        return base

    def value(self, prefix: np.ndarray, t: np.ndarray, out=None) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        w = self.weights(np.asarray(prefix, dtype=np.float64))
        s = _upper_sums(self.degree, t)
        return np.clip(np.sum(w * s, axis=-1, out=out), 0.0, 1.0, out=out)

    def partial(self, prefix: np.ndarray, t: np.ndarray, out=None) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        w = self.weights(np.asarray(prefix, dtype=np.float64))
        return np.sum(w * _upper_sum_derivs(self.degree, t), axis=-1, out=out)


class _QuadBernstein(BernsteinComponent):
    """Degree-2 component psi(t) = 2 w1 t + a t^2, a = w2 - w1: its inverse
    and its partial at the root are closed forms of one discriminant, since
    psi'(t) = 2 w1 + 2 a t at the root of psi(t) = x is 2 sqrt(w1^2 + a x)."""

    __slots__ = ()

    def value(self, prefix: np.ndarray, t: np.ndarray, out=None) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        w = self.weights(np.asarray(prefix, dtype=np.float64))
        # t + (w1 - w2) t (1 - t): endpoints and the neutral member are exact
        out = np.multiply(w[..., 0] - w[..., 1], t, out=out)
        out *= 1.0 - t
        out += t
        return np.clip(out, 0.0, 1.0, out=out)

    def _root_disc(self, prefix: np.ndarray, x: np.ndarray, out):
        """w1, and s = sqrt(max(w1 w1 + a x, 0)) written into out (which may be x)."""
        w = self.weights(np.asarray(prefix, dtype=np.float64))
        w1 = w[..., 0]
        out = np.multiply(w[..., 1] - w1, x, out=out)
        out += w1 * w1
        np.maximum(out, 0.0, out=out)
        return w1, np.sqrt(out, out=out)

    @staticmethod
    def _root(x: np.ndarray, w1: np.ndarray, s: np.ndarray, out) -> np.ndarray:
        """The root x / (w1 + s) clipped to [0, 1], written into out."""
        out = np.add(s, w1, out=out)
        np.divide(x, out, out=out)
        return np.clip(out, 0.0, 1.0, out=out)

    def root_partial(self, prefix: np.ndarray, x: np.ndarray, out=None,
                     root=None) -> np.ndarray:
        """psi'(psi^{-1}(x)) = 2 sqrt(max(w1 w1 + a x, 0)) for targets x in
        [0, 1]; with root given, psi^{-1}(x) is written into it from the
        same discriminant, and out must not be x."""
        x = np.asarray(x, dtype=np.float64)
        w1, out = self._root_disc(prefix, x, out)
        if root is not None:
            self._root(x, w1, out, root)
        out *= 2.0
        return out

    def inverse_exact(self, prefix: np.ndarray, x: np.ndarray, out=None) -> np.ndarray:
        """Root in [0, 1] of a t^2 + 2 w1 t - x for targets x in [0, 1]:
        x / (w1 + sqrt(max(w1 w1 + a x, 0))), stable for either sign of a."""
        x = np.asarray(x, dtype=np.float64)
        w1, s = self._root_disc(prefix, x, out)
        return self._root(x, w1, s, s)


# ---------------------------------------------------------------------------
# configuration


class HypothesisConfig(NamedTuple("_ConfigFields", [
        ("dim", int), ("k", int), ("alpha", float), ("K", float), ("family", str),
        ("degree", int), ("coupling_degree", int), ("box_half", float)])):
    """Family description plus the derived certified parameter box.

    box_half is the half-width of the symmetric per-parameter interval; it
    is derived from K by make_config, not chosen by callers. A config is an
    immutable, hashable tuple of its fields, checked when it is built.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))   # _replace checks, too

    def __new__(cls, dim: int, k: int, alpha: float, K: float,
                family: str = "bernstein_triangular", degree: int = 2,
                coupling_degree: int = 1, box_half: float = 0.0):
        # family_delta1 evaluates maps on the probe grid; dim is bounded first
        if not 1 <= dim <= _MAX_DIM or _probe_resolution(dim) ** dim > _MAX_GRID_NODES:
            raise ConfigInvalid(f"dim {dim} is outside [1, {_MAX_DIM}] or its probe "
                                f"grid exceeds {_MAX_GRID_NODES} nodes")
        if not 1 <= k <= _MAX_K or int(k) != k:
            raise ConfigInvalid(f"k must be an integer in [1, {_MAX_K}]")
        if not 0.0 < alpha <= 1.0:
            raise ConfigInvalid("alpha must lie in (0, 1]")
        if K <= 1.0:
            raise ConfigInvalid("K must exceed 1")
        if not bound_constants_finite(dim, K):
            raise ConfigInvalid(f"K = {K!r} overflows the bound constants in dimension {dim}")
        if family not in _KNOWN_FAMILIES:
            raise ConfigInvalid(f"unknown family {family!r}")
        if not 2 <= degree <= _MAX_DEGREE:
            raise ConfigInvalid(f"degree must lie in [2, {_MAX_DEGREE}]")
        if coupling_degree not in (0, 1):
            raise ConfigInvalid("coupling_degree must be 0 or 1")
        return super().__new__(cls, dim, k, alpha, K, family, degree, coupling_degree,
                               box_half)

    @property
    def regular(self) -> bool:
        """Smoothness gate k > 1 - alpha + d/2 for the rate machinery."""
        return bounds.regular(self.dim, self.alpha, self.k)

    def blocks(self) -> list[tuple[slice, slice]]:
        """Per-component (theta slice, coupling slice) into the flat vector."""
        p, out, pos = self.degree, [], 0
        for j in range(1, self.dim + 1):
            nc = p * (j - 1) * self.coupling_degree
            out.append((slice(pos, pos + p), slice(pos + p, pos + p + nc)))
            pos += p + nc
        return out

    @property
    def n_params(self) -> int:
        return self.blocks()[-1][1].stop


@lru_cache(maxsize=16)
def _box_operators(p: int, k: int) -> tuple:
    """The radius-independent operators of jacobian_range and holder_bound,
    read-only: the row sums of |centring| (raw block -> mean-centred block),
    and per derivative order m, (m, p!/(p-m)!, op, base part, |op| row sums)."""
    centring = np.eye(p) - 1.0 / p
    orders = []
    for m in range(min(k + 1, p) + 1):
        rows = np.tril(np.ones((p, p))) if m == 0 else np.diff(np.eye(p), m - 1, axis=0)
        op = rows @ centring
        orders.append((m, perm(p, m), op, rows.sum(axis=1) / p, np.abs(op).sum(axis=1)))
    reach = np.abs(centring).sum(axis=1)
    for arr in (reach, *(arr for order in orders for arr in order[2:])):
        arr.flags.writeable = False
    return reach, tuple(orders)


def holder_bound(config: HypothesisConfig, vector, radius: float = 0.0) -> float:
    """Upper bound on the C^{k,alpha} norm, as holder.estimate_holder_norm
    measures it, of every member within radius (sup norm) of vector.

    The m-th y_j-derivative of component j is p!/(p-m)! times a degree-(p-m)
    Bernstein polynomial whose coefficients are the (m-1)-th differences of
    w (cumulative sums for m = 0), so its sup is at most their largest
    modulus (Farouki, CAGD 2012). A y_l-derivative, l < j, has the same form
    with 2 c~_l in place of w; orders above p in y_j, or above 1 in the
    prefix, vanish. As |x_i - y_i| <= min(1, |x - y|), the order-k quotient
    is at most the sum over coordinates of the order-(k+1) sups.
    """
    p, k = config.degree, config.k
    v = np.asarray(vector, dtype=np.float64).ravel()
    ck = semi = 0.0
    for theta_sl, coup_sl in config.blocks():
        theta, coup = v[theta_sl], v[coup_sl].reshape(p, -1)
        quotient = 0.0
        for m, scale, op, base, spread in _box_operators(p, k)[1]:
            reach = radius * spread
            # sups of the coefficients' base part and of each coupling column
            w_sup = np.abs(base + op @ theta) + reach
            c_sup = np.abs(op @ coup) + reach[:, None]
            along = scale * float((w_sup + c_sup.sum(axis=1)).max())
            across = 2.0 * scale * c_sup.max(axis=0)
            # along has order m; across adds one y_l-derivative per column l
            for order, sups in ((m, [along]), (m + 1, list(across))):
                if order <= k:
                    ck = max([ck, *sups])
                elif order == k + 1:
                    quotient += sum(sups)
        semi = max(semi, quotient)
    return float(ck + semi)


def _solve_box_half(config: HypothesisConfig) -> float:
    """Largest half-width, to 60 bisection steps, whose whole box has its
    Jacobian range and Holder bound certified against the safety-scaled K.
    It stops once the ends are adjacent floats, which no later step moves;
    the untested end 1.0 is never one: past 1/(2 (p - 1)) <= 1/2 a weight is 0."""
    origin, cap = np.zeros(config.n_params), _SAFETY * config.K
    lo_b, hi_b = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo_b + hi_b)
        if not lo_b < mid < hi_b:
            break
        lo, hi = jacobian_range(config, origin, mid)
        if lo >= 1.0 / cap and hi <= cap and holder_bound(config, origin, mid) <= cap:
            lo_b = mid
        else:
            hi_b = mid
    return lo_b


def make_config(dim: int, k: int = 3, alpha: float = 0.5, K: float = 3.0,
                family: str = "bernstein_triangular", degree: int = 2,
                coupling_degree: int = 1) -> HypothesisConfig:
    """Build a family config with the certified parameter box derived from K."""
    base = HypothesisConfig(int(dim), int(k), float(alpha), float(K),
                            family, int(degree), int(coupling_degree))
    return base._replace(box_half=_solve_box_half(base))


# ---------------------------------------------------------------------------
# members


def _box_vector(config: HypothesisConfig, vector) -> np.ndarray:
    """vector as a float array, one member (n_params,) or a stack (c >= 1,
    n_params); ParamsOutOfBox unless its rows have the family's length and
    every entry is finite and inside the certified box."""
    v = np.asarray(vector, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[-1] != config.n_params or not len(v):
        raise ParamsOutOfBox(f"expected rows of {config.n_params} parameters, got {v.shape}")
    if not np.all(np.abs(v) <= config.box_half + _BOX_TOL):
        raise ParamsOutOfBox("a parameter is not finite or leaves the certified box")
    return v


def jacobian_range(config: HypothesisConfig, vector,
                   radius: float = 0.0) -> tuple[float, float]:
    """Certified (lo, hi) bounds on the Jacobian over the cube of every
    member within radius (sup norm) of vector: the product over components
    of p times the smallest and largest weight the mean-centred blocks allow
    at any prefix, where a component whose smallest weight reaches 0 makes
    lo 0. ParamsOutOfBox when vector is outside the box."""
    v = _box_vector(config, np.ravel(vector))
    p = config.degree
    # a raw move of radius moves each mean-centred entry by at most reach
    reach = radius * _box_operators(p, config.k)[0]
    lo = hi = 1.0
    for theta_sl, coup_sl in config.blocks():
        base, cc = _centred(p, v[theta_sl], v[coup_sl].reshape(p, -1))
        spread = np.abs(cc).sum(axis=1) + reach * (1 + cc.shape[1])
        lo *= p * max(float((base - spread).min()), 0.0)
        hi *= p * float((base + spread).max())
    return lo, hi


def make_generator(config: HypothesisConfig, params) -> TriangularMap:
    """Member of the family as a map that evaluates its components: noise z
    goes to apply(z), so PushforwardDensity of the member is its law. A
    (c, n_params) params is c members stacked into one map of lead (c,)."""
    v = _box_vector(config, params)
    p, lead = config.degree, v.shape[:-1]
    cls = _QuadBernstein if p == 2 else BernsteinComponent
    comps = tuple(cls(degree=p, theta=v[..., theta_sl],
                      coupling=v[..., coup_sl].reshape(*lead, p, -1))
                  for theta_sl, coup_sl in config.blocks())
    return TriangularMap(components=comps)


def bound_constants_finite(dim: int, K: float) -> bool:
    """Whether every power of K the bound constants raise is a finite float.

    The largest is c3's squared generator factor, at most
    16 d^4 (d!)^8 K^{8(d+1)}; the others (d! K^{d+1}, family_delta1's
    d^2 (d!)^3 K^{3d+2}, Theorem 5.4's K^{8(d+1)}) lie below it for K > 1.
    """
    log_top = (math.log(16.0) + 4.0 * math.log(dim) + 8.0 * math.lgamma(dim + 1.0)
               + 8.0 * (dim + 1) * math.log(K))
    return log_top < math.log(np.finfo(np.float64).max)


# ---------------------------------------------------------------------------
# nets


def build_eps_net(config: HypothesisConfig, epsilon: float) -> np.ndarray:
    """Uniform lattice of cell centers over the parameter box, as the
    read-only (c, n_params) array whose rows are the c member coefficient
    vectors; a member is its row.

    Spacing comes from the family's per-parameter sup-norm Lipschitz
    constant: q cells per axis with q >= n L b / eps puts every box point
    within eps (sup norm on maps) of some member.
    """
    if epsilon <= 0.0:
        raise ConfigInvalid("epsilon must be positive")
    n = config.n_params
    b = config.box_half
    lip = _param_lipschitz(config.degree)
    cells = n * lip * b / epsilon
    if not math.isfinite(cells):
        # a subnormal epsilon overflows the per-axis count before any ceil
        raise NetTooLarge(f"epsilon {epsilon!r} gives {cells!r} cells per axis")
    q = max(1, math.ceil(cells - 1e-12))
    if n * math.log(q) > math.log(_NET_CAP) + 1e-9 or q**n > _NET_CAP:
        raise NetTooLarge(f"lattice has {q:.4g}^{n} members, cap is {_NET_CAP}")
    half_cell = b / q
    axis = -b + half_cell * (2.0 * np.arange(q) + 1.0)
    # row r picks axis entries by r's n base-q digits, most significant
    # first: itertools.product order; an n-dimensional meshgrid would fail
    # past numpy's 64 dimensions, which a one-cell net of a large family has
    digits = np.arange(q**n)[:, None] // q ** np.arange(n - 1, -1, -1)
    digits %= q
    vectors = axis[digits]
    vectors.flags.writeable = False
    return vectors


def distinct_maps(config: HypothesisConfig, vectors) -> tuple[TriangularMap, np.ndarray]:
    """The distinct maps the members (rows of vectors) realize, stacked in
    one map in the order of their first members, and each member's map
    index. Members are one map exactly when every component's mean-centred
    blocks are equal; lattice nets hold many such members, since shifting a
    whole theta block (or coupling column) by a constant leaves the map
    unchanged."""
    v = _box_vector(config, vectors)
    c, p = len(v), config.degree
    keys = np.concatenate([block.reshape(c, -1) for theta_sl, coup_sl in config.blocks()
                           for block in _centred(p, v[:, theta_sl],
                                                 v[:, coup_sl].reshape(c, p, -1))], axis=1)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    # np.unique numbers the maps in key order; renumber them by first member
    order = np.argsort(first)
    return make_generator(config, v[first[order]]), np.argsort(order)[inverse.ravel()]


# ---------------------------------------------------------------------------
# sup distances and the family diameter


def _probe_resolution(dim: int) -> int:
    return {1: 2049, 2: 65}.get(dim, 17)


@lru_cache(maxsize=16)
def _probe_points(dim: int):
    pts = grid_points(dim, _probe_resolution(dim))
    pts.flags.writeable = False
    return pts


def sup_distances(config: HypothesisConfig, vectors) -> np.ndarray:
    """(c, c) sup-norm distances between the members (rows of vectors),
    maximized over the probe grid: one stacked map, applied to blocks of
    probe points whose gaps over the c (c - 1) / 2 pairs a < b hold at most
    _GAP_CHUNK values; |a - b| is exact either way round, so the maxima are
    mirrored, and the diagonal is 0."""
    maps = make_generator(config, vectors)
    (c,), pts = maps.lead, _probe_points(config.dim)
    a, b = np.triu_indices(c, 1)
    step = max(1, _GAP_CHUNK // (max(len(a), 1) * config.dim))
    top = np.zeros(len(a))
    for lo in range(0, len(pts), step):
        vals = maps.apply(pts[lo:lo + step])
        gaps = vals[a] - vals[b]
        np.maximum(top, np.abs(gaps, out=gaps).max(axis=(1, 2)), out=top)
    dist = np.zeros((c, c))
    dist[a, b] = dist[b, a] = top
    return dist


def family_delta1(config: HypothesisConfig) -> float:
    """Family diameter: bounds.rho_metric at n = 1 of the certified range width
    B2 - B1 and the generator spread, the largest sup distance on the probe
    grid between the box corners of signs +-1, +-alternating and
    +-half-and-half."""
    i = np.arange(config.n_params)
    signs = np.where([i >= 0, i % 2 == 0, i < len(i) // 2], 1.0, -1.0)
    corners = config.box_half * np.concatenate([signs, -signs])
    d_phi = float(sup_distances(config, corners).max())
    b1, b2 = bounds.discriminator_constants(config.dim, config.K)
    return bounds.rho_metric(config.dim, config.K, 1, b2 - b1, d_phi)


# ---------------------------------------------------------------------------
# serialization


def config_from_dict(payload: dict) -> HypothesisConfig:
    if not isinstance(payload, dict):
        raise ConfigInvalid("a hypothesis config must be a JSON object")
    required = {"dim", "k", "alpha", "K", "family", "degree", "coupling_degree"}
    unknown = set(payload) - required
    if unknown:
        raise ConfigInvalid(f"unknown config fields {sorted(unknown)}")
    missing = required - set(payload)
    if missing:
        raise ConfigInvalid(f"missing config fields {sorted(missing)}")
    for key in ("dim", "k", "degree", "coupling_degree"):
        if isinstance(payload[key], bool) or not isinstance(payload[key], int):
            raise ConfigInvalid(f"{key} must be an integer")
    return make_config(dim=payload["dim"], k=payload["k"],
                       alpha=_finite_number(payload["alpha"], "alpha"),
                       K=_finite_number(payload["K"], "K"),
                       family=str(payload["family"]), degree=payload["degree"],
                       coupling_degree=payload["coupling_degree"])
