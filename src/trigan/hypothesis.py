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
combination of the p w_i scaled by p, which gives closed-form bounds on the
Jacobian from the parameter ranges alone; every other derivative is a
Bernstein polynomial bounded by its coefficients (holder_bound). The
parameter box is back-solved from the norm bound K: inside it the Jacobian
range lies in [1/K, K] and the C^{k,alpha} norm is at most K, both certified
in closed form with a safety margin. holder.estimate_holder_norm is the
tests' oracle for the norm bound.

Discriminators are the paired-generator ratios f_a / (f_a + f_b); their
range constants depend only on (d, K).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import comb, perm

import numpy as np

from . import rng
from .bounds import RhoMetricParams, discriminator_constants, rho_metric
from .density import _MAX_DIM, _MAX_GRID_NODES, grid_points, write_text_atomic
from .divergence import PairDiscriminator
from .errors import ConfigInvalid, NetTooLarge, ParamsOutOfBox
from .rosenblatt import TriangularMap, pushforward_density

_SAFETY = 0.95          # certification margin for the box back-solve
_BOX_TOL = 1e-9
_NET_CAP = 1_000_000
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


@dataclass(frozen=True)
class BernsteinComponent:
    degree: int
    theta: np.ndarray      # (p,) raw weight block
    coupling: np.ndarray   # (p, r) raw coupling block, r = prefix length used
    # the mean-centred blocks 1/p + (theta - mean theta) and (c - mean_i c):
    # the only parameters evaluation reads, so components with bitwise-equal
    # ones are the same map bit for bit (see distinct_members)
    base: np.ndarray = field(init=False, repr=False, compare=False)
    centered: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        th = np.array(self.theta, dtype=np.float64)
        cp = np.array(self.coupling, dtype=np.float64)
        base = 1.0 / self.degree + (th - th.mean())
        centered = cp - cp.mean(axis=0)
        for name, arr in (("theta", th), ("coupling", cp), ("base", base),
                          ("centered", centered)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def weights(self, prefix: np.ndarray) -> np.ndarray:
        if self.centered.size:
            return self.base[None, :] + (
                2.0 * prefix[:, : self.centered.shape[1]] - 1.0) @ self.centered.T
        return np.broadcast_to(self.base, (prefix.shape[0], self.degree))

    def value(self, prefix: np.ndarray, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        w = self.weights(np.asarray(prefix, dtype=np.float64))
        s = _upper_sums(self.degree, t)
        return np.clip(np.sum(w * s, axis=-1), 0.0, 1.0)

    def partial(self, prefix: np.ndarray, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        w = self.weights(np.asarray(prefix, dtype=np.float64))
        return np.sum(w * _upper_sum_derivs(self.degree, t), axis=-1)


@dataclass(frozen=True)
class _QuadBernstein(BernsteinComponent):
    """Degree-2 component: phi(t) = 2 w1 t + (w2 - w1) t^2 inverts in closed form."""

    def value(self, prefix: np.ndarray, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        w = self.weights(np.asarray(prefix, dtype=np.float64))
        # t + (w1 - w2) t (1 - t): endpoints and the neutral member are exact
        e = w[..., 0] - w[..., 1]
        return np.clip(t + e * t * (1.0 - t), 0.0, 1.0)

    def partial(self, prefix: np.ndarray, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        w = self.weights(np.asarray(prefix, dtype=np.float64))
        # 2 (w1 B_{0,1} + w2 B_{1,1}), with the generic sum's arithmetic
        return w[..., 0] * (2.0 * (1.0 - t)) + w[..., 1] * (2.0 * t)

    def inverse_exact(self, prefix: np.ndarray, x: np.ndarray) -> np.ndarray:
        x = np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)
        w = self.weights(np.asarray(prefix, dtype=np.float64))
        w1 = w[:, 0]
        a = w[:, 1] - w1
        # root of a t^2 + 2 w1 t - x in [0,1]; stable for either sign of a
        disc = np.maximum(w1 * w1 + a * x, 0.0)
        return np.clip(x / (w1 + np.sqrt(disc)), 0.0, 1.0)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class HypothesisConfig:
    """Family description plus the derived certified parameter box.

    box_half is the half-width of the symmetric per-parameter interval; it
    is derived from K by make_config, not chosen by callers.
    """

    dim: int
    k: int
    alpha: float
    K: float
    family: str = "bernstein_triangular"
    degree: int = 2
    coupling_degree: int = 1
    box_half: float = 0.0

    def __post_init__(self):
        # family_delta1 evaluates maps on the probe grid; dim is bounded first
        if (not 1 <= self.dim <= _MAX_DIM
                or _probe_resolution(self.dim) ** self.dim > _MAX_GRID_NODES):
            raise ConfigInvalid(f"dim {self.dim} is outside [1, {_MAX_DIM}] or its probe "
                                f"grid exceeds {_MAX_GRID_NODES} nodes")
        if not 1 <= self.k <= _MAX_K or int(self.k) != self.k:
            raise ConfigInvalid(f"k must be an integer in [1, {_MAX_K}]")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigInvalid("alpha must lie in (0, 1]")
        if self.K <= 1.0:
            raise ConfigInvalid("K must exceed 1")
        if not bound_constants_finite(self.dim, self.K):
            raise ConfigInvalid(f"K = {self.K!r} overflows the bound constants "
                                f"in dimension {self.dim}")
        if self.family not in _KNOWN_FAMILIES:
            raise ConfigInvalid(f"unknown family {self.family!r}")
        if not 2 <= self.degree <= _MAX_DEGREE:
            raise ConfigInvalid(f"degree must lie in [2, {_MAX_DEGREE}]")
        if self.coupling_degree not in (0, 1):
            raise ConfigInvalid("coupling_degree must be 0 or 1")

    @property
    def regular(self) -> bool:
        """Smoothness gate k > 1 - alpha + d/2 for the rate machinery."""
        return self.k > 1.0 - self.alpha + self.dim / 2.0

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
        last = self.blocks()[-1][1]
        return last.stop

    @property
    def param_box(self) -> tuple:
        b = self.box_half
        return tuple((-b, b) for _ in range(self.n_params))


def _analytic_box_ok(config: HypothesisConfig, b: float) -> bool:
    """All-corner Jacobian range inside [1/(sK), sK] for half-width b."""
    p = config.degree
    lo = hi = 1.0
    for j in range(1, config.dim + 1):
        spread = 2.0 * b * (p - 1) * (1 + (j - 1) * config.coupling_degree)
        if spread >= 1.0:
            return False
        lo *= 1.0 - spread
        hi *= 1.0 + spread
    return lo >= 1.0 / (_SAFETY * config.K) and hi <= _SAFETY * config.K


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
    centring = np.eye(p) - 1.0 / p          # raw block -> mean-centred block
    ck = semi = 0.0
    for theta_sl, coup_sl in config.blocks():
        theta, coup = v[theta_sl], v[coup_sl].reshape(p, -1)
        quotient = 0.0
        for m in range(min(k + 1, p) + 1):
            rows = np.tril(np.ones((p, p))) if m == 0 else np.diff(np.eye(p), m - 1, axis=0)
            op = rows @ centring
            reach = radius * np.abs(op).sum(axis=1)
            # sups of the coefficients' base part and of each coupling column
            w_sup = np.abs(rows.sum(axis=1) / p + op @ theta) + reach
            c_sup = np.abs(op @ coup) + reach[:, None]
            along = perm(p, m) * float((w_sup + c_sup.sum(axis=1)).max())
            across = 2.0 * perm(p, m) * c_sup.max(axis=0)
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
    Jacobian range and Holder bound certified against the safety-scaled K."""
    origin = np.zeros(config.n_params)
    lo_b, hi_b = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo_b + hi_b)
        if (_analytic_box_ok(config, mid)
                and holder_bound(config, origin, mid) <= _SAFETY * config.K):
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
    return replace(base, box_half=_solve_box_half(base))


# ---------------------------------------------------------------------------
# members


@dataclass(frozen=True)
class GeneratorParams:
    """One parameter vector with its cached analytic Jacobian range."""

    coefficients: np.ndarray
    jac_lower: float    # certified lower bound on the Jacobian over the cube
    c1_upper: float     # certified upper bound on the diagonal-partial product

    def __post_init__(self):
        v = np.array(self.coefficients, dtype=np.float64).ravel()
        v.flags.writeable = False
        object.__setattr__(self, "coefficients", v)


def member_params(config: HypothesisConfig, vector) -> GeneratorParams:
    v = np.asarray(vector, dtype=np.float64).ravel()
    if v.size != config.n_params:
        raise ParamsOutOfBox(f"expected {config.n_params} parameters, got {v.size}")
    p = config.degree
    lo = hi = 1.0
    for theta_sl, coup_sl in config.blocks():
        theta, cc = v[theta_sl], v[coup_sl].reshape(p, -1)
        dev = theta - theta.mean()
        reach = np.abs(cc - cc.mean(axis=0)).sum(axis=1)
        lo *= p * float((1.0 / p + dev - reach).min())
        hi *= p * float((1.0 / p + dev + reach).max())
    return GeneratorParams(coefficients=v, jac_lower=lo, c1_upper=hi)


def neutral_params(config: HypothesisConfig) -> np.ndarray:
    return np.zeros(config.n_params)


def make_generator(config: HypothesisConfig, params) -> TriangularMap:
    """Member of the family in the generator role (noise -> target).

    params may be a GeneratorParams or a bare coefficient vector.
    """
    if isinstance(params, GeneratorParams):
        params = params.coefficients
    v = np.asarray(params, dtype=np.float64).ravel()
    if v.size != config.n_params:
        raise ParamsOutOfBox(f"expected {config.n_params} parameters, got {v.size}")
    if np.any(np.abs(v) > config.box_half + _BOX_TOL):
        raise ParamsOutOfBox("a parameter leaves the certified box")
    p = config.degree
    cls = _QuadBernstein if p == 2 else BernsteinComponent
    comps = tuple(cls(degree=p, theta=v[theta_sl], coupling=v[coup_sl].reshape(p, -1))
                  for theta_sl, coup_sl in config.blocks())
    payload = json.dumps({"kind": "bernstein", "config": config_to_dict(config),
                          "params": v.tolist()}, sort_keys=True)
    return TriangularMap(dim=config.dim, components=comps,
                         direction="inverse", components_direct=True,
                         norm_bound_K=config.K, meta=("bernstein", payload))


@dataclass(frozen=True)
class Certification:
    jac_lower: float
    holder_total: float
    certified: bool


def certify_member(config: HypothesisConfig, params) -> Certification:
    """Closed-form Jacobian and Holder-norm bounds of one member against K."""
    gp = params if isinstance(params, GeneratorParams) else member_params(config, params)
    holder = holder_bound(config, gp.coefficients)
    ok = gp.jac_lower >= 1.0 / config.K and holder <= config.K
    return Certification(jac_lower=gp.jac_lower, holder_total=holder, certified=ok)


def bound_constants_finite(dim: int, K: float) -> bool:
    """Whether every power of K the bound constants raise is a finite float.

    The largest is c3's squared generator factor, at most
    16 d^4 (d!)^8 K^{8(d+1)}; the others (d! K^{d+1}, family_delta1's
    d^2 (d!)^3 K^{3d+2}, Theorem 5.4's K^{8(d+1)}) lie below it for K > 1.
    """
    log_top = (math.log(16.0) + 4.0 * math.log(dim) + 8.0 * math.lgamma(dim + 1.0)
               + 8.0 * (dim + 1) * math.log(K))
    return log_top < math.log(np.finfo(np.float64).max)


def make_discriminator(config: HypothesisConfig, params_a, params_b) -> PairDiscriminator:
    """Ratio discriminator f_a / (f_a + f_b) of two member pushforwards.

    Two members that realize the same map give the constant-1/2
    discriminator bitwise, since x/(x + x) rounds to exactly 0.5 for every
    positive float x; it keeps one pushforward.
    """
    gens = [make_generator(config, params_a), make_generator(config, params_b)]
    keep, _ = distinct_members(gens)
    b1, b2 = discriminator_constants(config.dim, config.K)
    return PairDiscriminator(pushforwards=tuple(pushforward_density(gens[i]) for i in keep),
                             lower=b1, upper=b2)


# ---------------------------------------------------------------------------
# nets


@dataclass(frozen=True)
class EpsNet:
    epsilon: float
    members: tuple

    @property
    def cardinality(self) -> int:
        return len(self.members)

    @property
    def vectors(self) -> tuple:
        return tuple(m.coefficients for m in self.members)


def build_eps_net(config: HypothesisConfig, epsilon: float) -> EpsNet:
    """Uniform lattice of cell centers over the parameter box.

    Spacing comes from the family's per-parameter sup-norm Lipschitz
    constant: q cells per axis with q >= n L b / eps puts every box point
    within eps (sup norm on maps) of some member.
    """
    if epsilon <= 0.0:
        raise ConfigInvalid("epsilon must be positive")
    n = config.n_params
    b = config.box_half
    lip = _param_lipschitz(config.degree)
    q = max(1, math.ceil(n * lip * b / epsilon - 1e-12))
    if n * math.log(q) > math.log(_NET_CAP) + 1e-9 or q**n > _NET_CAP:
        raise NetTooLarge(f"lattice has {q}^{n} members, cap is {_NET_CAP}")
    half_cell = b / q
    axis = -b + half_cell * (2.0 * np.arange(q) + 1.0)
    members = tuple(member_params(config, np.array(combo))
                    for combo in itertools.product(axis, repeat=n))
    return EpsNet(epsilon=float(epsilon), members=members)


def distinct_members(maps) -> tuple[np.ndarray, np.ndarray]:
    """Group family members by the map they realize.

    Returns the index of the first member of each distinct map and, per
    member, the position of its map in that list. Members are one map
    exactly when every component's mean-centred blocks are bitwise equal;
    lattice nets hold many such members, since shifting a whole theta block
    (or coupling column) by a constant leaves the map unchanged.
    """
    first, keep, group = {}, [], []
    for i, gen in enumerate(maps):
        key = tuple((comp.base.tobytes(), comp.centered.tobytes())
                    for comp in gen.components)
        if key not in first:
            first[key] = len(keep)
            keep.append(i)
        group.append(first[key])
    return np.asarray(keep, dtype=np.intp), np.asarray(group, dtype=np.intp)


def random_box_params(config: HypothesisConfig, count: int, seed: int,
                      trial: int = 0) -> np.ndarray:
    """count uniform parameter vectors in the box, counter-RNG keyed."""
    u = rng.uniforms(seed, rng.stream_id(rng.KIND_MEMBER, trial),
                     0, count, config.n_params)
    return config.box_half * (2.0 * u - 1.0)


# ---------------------------------------------------------------------------
# sup distances and the family diameter


def _probe_resolution(dim: int) -> int:
    return {1: 2049, 2: 65}.get(dim, 17)


@lru_cache(maxsize=16)
def _probe_points(dim: int):
    pts = grid_points(dim, _probe_resolution(dim))
    pts.flags.writeable = False
    return pts


def map_sup_distance(config: HypothesisConfig, params_a, params_b) -> float:
    """sup-norm distance of two members, maximized over a probe grid."""
    pts = _probe_points(config.dim)
    a = make_generator(config, params_a).apply(pts)
    b = make_generator(config, params_b).apply(pts)
    return float(np.abs(a - b).max())


def _corner_signs(n: int) -> list[np.ndarray]:
    """The distinct patterns among +-1, +-alternating and +-half-and-half."""
    alt = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    half = np.where(np.arange(n) < n // 2, 1.0, -1.0)
    signs = {tuple(s): s for r in (np.ones(n), alt, half) for s in (r, -r)}
    return list(signs.values())


def family_delta1(config: HypothesisConfig) -> float:
    """Family diameter: bounds.rho_metric at n = 1 of the certified range width
    B2 - B1 and the generator spread over box corner pairs on a probe grid."""
    b = config.box_half
    corners = [b * s for s in _corner_signs(config.n_params)]
    d_phi = 0.0
    for pa, pb in itertools.combinations(corners, 2):
        d_phi = max(d_phi, map_sup_distance(config, pa, pb))
    b1, b2 = discriminator_constants(config.dim, config.K)
    return rho_metric(RhoMetricParams(config.dim, config.K, 1), b2 - b1, d_phi)


# ---------------------------------------------------------------------------
# serialization


def config_to_dict(config: HypothesisConfig) -> dict:
    return {
        "dim": config.dim,
        "k": config.k,
        "alpha": config.alpha,
        "K": config.K,
        "family": config.family,
        "degree": config.degree,
        "coupling_degree": config.coupling_degree,
    }


def config_from_dict(payload: dict) -> HypothesisConfig:
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


def _finite_number(raw, key: str) -> float:
    """raw as a float; ConfigInvalid unless it is a finite number (not a bool)."""
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        try:
            val = float(raw)
        except OverflowError:
            val = math.inf
        if math.isfinite(val):
            return val
    raise ConfigInvalid(f"{key} must be a finite number")


def save_config(config: HypothesisConfig, path: str) -> None:
    write_text_atomic(json.dumps(config_to_dict(config), sort_keys=True) + "\n", path)


def load_config(path: str) -> HypothesisConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


def save_net(net: EpsNet, path: str) -> None:
    write_text_atomic(json.dumps([v.tolist() for v in net.vectors]) + "\n", path)


def map_from_bernstein_payload(payload: dict) -> TriangularMap:
    required = {"kind", "config", "params", "direction", "components_direct"}
    unknown = set(payload) - required
    if unknown:
        raise ConfigInvalid(f"unknown map fields {sorted(unknown)}")
    missing = required - set(payload)
    if missing:
        raise ConfigInvalid(f"missing map fields {sorted(missing)}")
    config = config_from_dict(payload["config"])
    gen = make_generator(config, np.asarray(payload["params"], dtype=np.float64))
    return replace(gen, direction=str(payload["direction"]),
                   components_direct=bool(payload["components_direct"]))
