"""Closed-form constants: covering numbers, chaining, and concentration.

Everything here is plain arithmetic on the inputs (d, alpha, k, K, n,
delta, delta1); no arrays, no randomness. The covering prefactor inherited
from the classical entropy theorem is not pinned down numerically by the
theory, so it enters as c1_star with default 1 and every downstream
constant is "up to c1_star".

Exponent conventions used throughout:
    a = d / (2 (alpha + k))        generator entropy exponent
    b = d / (2 (alpha + k - 1))    discriminator entropy exponent
The entropy integral converges iff b < 1, equivalently k > 1 - alpha + d/2.
"""

from __future__ import annotations

import math
from math import factorial
from typing import NamedTuple

from .errors import ConfigInvalid, IntegralDivergent


# ---------------------------------------------------------------------------
# covering numbers


def _c1(d1: int, d2: int, smooth: float, c1_star: float) -> float:
    """Covering prefactor C1 = c1_star d2^{1 + d1/(2 smooth)}, maps R^d1 -> R^d2."""
    if smooth <= 0.0:
        raise ConfigInvalid(f"smoothness alpha + k must be positive, got {smooth!r}")
    return c1_star * d2 ** (1.0 + d1 / (2.0 * smooth))


def _exponents(d: int, alpha: float, k: int) -> tuple[float, float]:
    return d / (2.0 * (alpha + k)), d / (2.0 * (alpha + k - 1.0))


def regular(d: int, alpha: float, k: int) -> bool:
    """The smoothness gate k > 1 - alpha + d/2, under which the entropy
    integral converges; stated without a division, so alpha + k = 1 is
    simply irregular."""
    return k > 1.0 - alpha + d / 2.0


def _require_convergent(d: int, alpha: float, k: int) -> None:
    if not regular(d, alpha, k):
        raise IntegralDivergent(
            f"entropy integral diverges: k = {k} <= 1 - alpha + d/2 = {1 - alpha + d / 2}")


def _ratio_factor(d: int, K: float) -> float:
    """d! K^{d+1}, the range factor of the paired-generator ratios."""
    return factorial(d) * K ** (d + 1)


def _delta1_bracket(d: int, alpha: float, k: int, delta1: float,
                    exact_integral: bool = False) -> float:
    """The chaining bracket delta1^{1-a} + delta1^{1-b}, with the
    antiderivative denominators 1/(1-a), 1/(1-b) when exact_integral;
    refuses an irregular (d, alpha, k) and a nonpositive delta1."""
    _require_convergent(d, alpha, k)
    if delta1 <= 0.0:
        raise ConfigInvalid("delta1 must be positive")
    a, b = _exponents(d, alpha, k)
    if exact_integral:
        return delta1 ** (1.0 - a) / (1.0 - a) + delta1 ** (1.0 - b) / (1.0 - b)
    return delta1 ** (1.0 - a) + delta1 ** (1.0 - b)


def c2_constant(d: int, alpha: float, k: int, c1_star: float = 1.0) -> float:
    """Combined entropy prefactor: the larger of the generator constant
    (maps into d dimensions, smoothness alpha+k) and the discriminator
    constant (scalar ratios, smoothness alpha+k-1)."""
    return max(_c1(d, d, alpha + k, c1_star), c1_star)


def c3_constant(d: int, alpha: float, k: int, K: float,
                c1_star: float = 1.0) -> float:
    """Entropy-to-metric conversion constant.

    The sup-to-rho_1 change of variables rescales the covering radius by
    A for generators and B for discriminators; C3 carries those factors
    into the integrand exponents.
    """
    _require_convergent(d, alpha, k)
    big = 1.0 + _ratio_factor(d, K)
    a_fac = 2.0 * d**2 * factorial(d) ** 3 * K ** (3 * d + 3) * big
    b_fac = 2.0 * K * big
    c2 = c2_constant(d, alpha, k, c1_star)
    return math.sqrt(c2 * max(a_fac ** (d / (alpha + k)),
                              b_fac ** (d / (alpha + k - 1.0))))


# ---------------------------------------------------------------------------
# subgaussian metric


def discriminator_constants(dim: int, K: float) -> tuple[float, float]:
    """Range constants of paired-generator ratios: B1 = 1/(1 + d! K^{d+1})."""
    b1 = 1.0 / (1.0 + _ratio_factor(dim, K))
    return b1, 1.0 - b1


def rho_metric(d: int, K: float, n: int, d_disc: float, d_gen: float) -> float:
    """Subgaussian pseudometric of the empirical loss process, for
    discriminator distance d_disc and generator distance d_gen.

    rho_n = (1 + d! K^{d+1}) [dD + d^2 (d!)^3 K^{3d+2} dPhi] / sqrt(n);
    dividing the fixed n=1 value by sqrt(n) keeps the scaling law exact.
    """
    if d < 1 or n < 1 or K <= 0.0:
        raise ConfigInvalid("need d >= 1, n >= 1, K > 0")
    if d_disc < 0.0 or d_gen < 0.0:
        raise ConfigInvalid("distances must be nonnegative")
    gen_factor = d**2 * factorial(d) ** 3 * K ** (3 * d + 2)
    rho_1 = (1.0 + _ratio_factor(d, K)) * (d_disc + gen_factor * d_gen)
    return rho_1 / math.sqrt(n)


# ---------------------------------------------------------------------------
# chaining


def _dudley_base(d: int, alpha: float, k: int, K: float, delta1: float,
                 exact_integral: bool, c1_star: float) -> float:
    bracket = _delta1_bracket(d, alpha, k, delta1, exact_integral)
    return 12.0 * c3_constant(d, alpha, k, K, c1_star) * bracket


def dudley_bound(d: int, alpha: float, k: int, K: float, n: int, delta1: float,
                 exact_integral: bool = False, c1_star: float = 1.0) -> float:
    """Entropy-integral bound on the expected sup, scaled by n^{-1/2}.

    exact_integral=False reproduces the stated closed form without the
    antiderivative denominators; True includes 1/(1-a) and 1/(1-b).
    """
    if n < 1:
        raise ConfigInvalid("n must be >= 1")
    return _dudley_base(d, alpha, k, K, delta1, exact_integral, c1_star) / math.sqrt(n)


def gamma_constant(d: int, alpha: float, k: int, delta1: float,
                   c1_star: float = 1.0) -> float:
    """K-free expectation-bound constant 48 d^2 (d!)^4 sqrt(C2) [delta1 bracket]."""
    bracket = _delta1_bracket(d, alpha, k, delta1)
    c2 = c2_constant(d, alpha, k, c1_star)
    return 48.0 * d**2 * factorial(d) ** 4 * math.sqrt(c2) * bracket


def full_C(d: int, alpha: float, k: int, K: float, delta1: float,
           c1_star: float = 1.0) -> float:
    """Expectation-bound constant with K kept explicit: E sup <= full_C n^{-1/2}.

    Satisfies full_C <= gamma_constant * K^{4(d+1)} for K > 1.
    """
    return _dudley_base(d, alpha, k, K, delta1, exact_integral=False,
                        c1_star=c1_star)


# ---------------------------------------------------------------------------
# concentration


def mcdiarmid_tail(b1: float, n: int, t: float) -> float:
    """exp(-n t^2 / log^2 B1): bounded-differences tail with per-coordinate
    oscillation -log(B1)/n over the 2n sample coordinates."""
    if not 0.0 < b1 < 1.0:
        raise ConfigInvalid("B1 must lie in (0, 1)")
    if t < 0.0 or n < 1:
        raise ConfigInvalid("need t >= 0 and n >= 1")
    return math.exp(-(n * t * t) / math.log(b1) ** 2)


def thm54_threshold_and_prob(d: int, alpha: float, k: int, K: float, n: int,
                             delta: float, delta1: float = 1.0,
                             c1_star: float = 1.0) -> tuple[float, float]:
    """Concentration threshold 2 gamma K^{4(d+1)} n^{delta-1/2} and the
    matching tail exp(-gamma^2 K^{8(d+1)} n^{2 delta} / log^2(1 + d! K^{d+1})).

    The tail can underflow to exactly 0.0 for large arguments; that is the
    honest float64 value of a positive but astronomically small bound.
    """
    if K <= 1.0:
        raise ConfigInvalid("K must exceed 1")
    if delta <= 0.0:
        raise ConfigInvalid("delta must be positive")
    if n < 1:
        raise ConfigInvalid("n must be >= 1")
    gamma = gamma_constant(d, alpha, k, delta1, c1_star)
    threshold = 2.0 * gamma * K ** (4 * (d + 1)) * _pow(n, delta - 0.5)
    log_sq = math.log1p(_ratio_factor(d, K)) ** 2
    exponent = gamma * gamma * K ** (8 * (d + 1)) * _pow(n, 2.0 * delta) / log_sq
    return threshold, math.exp(-exponent)


def _pow(base: float, exponent: float) -> float:
    """base ** exponent, inf where the float result overflows."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def k_schedule(n: float, beta: float) -> float:
    """Norm-bound growth schedule (log n)^beta, defined for n > 1."""
    if n <= 1.0:
        raise ConfigInvalid("schedule needs n > 1")
    if beta <= 0.0:
        raise ConfigInvalid("beta must be positive")
    try:
        return math.log(n) ** beta
    except OverflowError:
        raise ConfigInvalid(f"(log n)^beta overflows at n {n!r}, beta {beta!r}") from None


# ---------------------------------------------------------------------------
# report


class BoundReport(NamedTuple):
    d: int
    alpha: float
    k: int
    K: float
    n: int
    delta: float
    delta1: float
    exact_integral: bool
    c1_star: float
    regularity_ok: bool
    B1: float
    B2: float
    C1: float
    C2: float
    C3: float
    gamma: float
    C: float
    dudley_value: float
    mcdiarmid_tail: float
    thm54_threshold: float
    thm54_probability: float


def bound_report(d: int, alpha: float, k: int, K: float, n: int,
                 delta: float = 0.1, delta1: float = 1.0,
                 exact_integral: bool = False, c1_star: float = 1.0) -> BoundReport:
    """Evaluate every constant at one parameter point.

    When the regularity condition fails the integral-backed fields are NaN
    and regularity_ok is False; the algebraic constants are still reported.
    """
    b1, b2 = discriminator_constants(d, K)
    c1 = _c1(d, d, alpha + k, c1_star)
    c2 = c2_constant(d, alpha, k, c1_star)
    ok = regular(d, alpha, k)
    if ok:
        c3 = c3_constant(d, alpha, k, K, c1_star)
        gamma = gamma_constant(d, alpha, k, delta1, c1_star)
        big_c = full_C(d, alpha, k, K, delta1, c1_star)
        dudley = dudley_bound(d, alpha, k, K, n, delta1, exact_integral, c1_star)
        threshold, prob = thm54_threshold_and_prob(d, alpha, k, K, n, delta,
                                                   delta1, c1_star)
        # McDiarmid at half the threshold: the oscillation gamma K^{4(d+1)} n^{delta-1/2}
        tail = mcdiarmid_tail(b1, n, threshold / 2.0)
    else:
        c3 = gamma = big_c = dudley = float("nan")
        threshold = prob = tail = float("nan")
    return BoundReport(d=d, alpha=float(alpha), k=k, K=float(K), n=n,
                       delta=float(delta), delta1=float(delta1),
                       exact_integral=bool(exact_integral), c1_star=float(c1_star),
                       regularity_ok=ok, B1=b1, B2=b2, C1=c1, C2=c2, C3=c3,
                       gamma=gamma, C=big_c, dudley_value=dudley,
                       mcdiarmid_tail=tail, thm54_threshold=threshold,
                       thm54_probability=prob)


def report_to_dict(report: BoundReport) -> dict:
    return report._asdict()


def report_table(report: BoundReport) -> str:
    width = max(map(len, report._fields))
    return "\n".join(f"{f.ljust(width)}  {v!r}" for f, v in zip(report._fields, report))
