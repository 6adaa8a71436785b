"""Constants, entropy integrals, concentration tails, and the bound report."""

import math

import numpy as np
import pytest
from scipy.special import gammaincc

import trigan.bounds as bd
import trigan.hypothesis as hyp
from trigan.errors import ConfigInvalid, IntegralDivergent

from oracles import covering_bound


def test_covering_bound_plugin():
    # d1 = d2 = 1, alpha + k = 2, K/eps = 16 -> sqrt(16)
    assert covering_bound(1, 1, 1, 1.0, 16.0, 1.0) == 4.0


def test_covering_bound_ratio_one():
    for k, alpha in ((1, 1.0), (3, 0.5)):
        c1 = 2.0 ** (1.0 + 1.0 / (2.0 * (alpha + k)))
        assert covering_bound(1, 2, k, alpha, 3.0, 3.0) == pytest.approx(c1)


def test_covering_bound_smoothness_monotone():
    lo = covering_bound(2, 2, 1, 0.5, 8.0, 1.0)
    hi = covering_bound(2, 2, 3, 0.5, 8.0, 1.0)
    assert hi < lo


def test_covering_bound_rejects():
    with pytest.raises(ConfigInvalid):
        covering_bound(1, 1, 3, 0.5, 2.0, 0.0)
    with pytest.raises(ConfigInvalid):
        covering_bound(1, 1, 3, 0.5, -1.0, 0.1)


@pytest.mark.parametrize("k,alpha", [(0, 0.0), (0, -0.5), (-1, 0.5)])
def test_covering_bound_rejects_nonpositive_smoothness(k, alpha):
    # alpha + k <= 0 is refused before the 1/(alpha + k) exponents
    with pytest.raises(ConfigInvalid, match="alpha \\+ k"):
        covering_bound(1, 1, k, alpha, 2.0, 0.1)
    with pytest.raises(ConfigInvalid, match="alpha \\+ k"):
        bd.c2_constant(1, alpha, k)


# ---------------------------------------------------------------------------
# rho metric


def test_rho_metric_plugin():
    assert bd.rho_metric(1, 1.0, 1, 0.1, 0.2) == pytest.approx(0.6, rel=1e-15)
    assert bd.rho_metric(1, 1.0, 1, 0.0, 0.0) == 0.0


def test_rho_metric_root_n_scaling():
    """rho_n = rho_1 / sqrt(n), exact when sqrt(n) is exact."""
    assert bd.rho_metric(2, 3.0, 4, 0.3, 0.05) == bd.rho_metric(2, 3.0, 1, 0.3, 0.05) / 2.0


def test_rho_metric_factors():
    # the discriminator factor alone at dD = 1, dPhi = 0; times the
    # generator factor at dD = 0, dPhi = 1
    assert bd.rho_metric(2, 2.0, 1, 1.0, 0.0) == 1.0 + 2.0 * 2.0 ** 3
    assert bd.rho_metric(2, 2.0, 1, 0.0, 1.0) == (1.0 + 2.0 * 2.0 ** 3) * (4.0 * 8.0 * 2.0 ** 8)
    with pytest.raises(ConfigInvalid):
        bd.rho_metric(0, 2.0, 1, 0.0, 0.0)
    with pytest.raises(ConfigInvalid):
        bd.rho_metric(2, 2.0, 1, -0.1, 0.0)


# ---------------------------------------------------------------------------
# entropy integral


def test_dudley_root_n_scaling():
    base = bd.dudley_bound(1, 0.5, 3, 2.0, 1, 1.0)
    assert bd.dudley_bound(1, 0.5, 3, 2.0, 4, 1.0) == base / 2.0
    assert bd.dudley_bound(1, 0.5, 3, 2.0, 1024, 1.0) == base / 32.0


def test_dudley_divergence_gate():
    with pytest.raises(IntegralDivergent):
        bd.dudley_bound(4, 0.5, 1, 2.0, 100, 1.0)
    bd.dudley_bound(1, 0.5, 3, 2.0, 100, 1.0)          # regular: fine
    # boundary: d/(2(alpha+k-1)) == 1 diverges
    with pytest.raises(IntegralDivergent):
        bd.dudley_bound(1, 0.5, 1, 2.0, 100, 1.0)


def test_alpha_plus_k_one_is_irregular():
    # alpha + k - 1 = 0: the gate does not divide by it, so every
    # integral-backed constant refuses instead of dividing by zero
    assert not bd.regular(1, 0.0, 1)
    calls = (lambda: bd.c3_constant(1, 0.0, 1, 2.0),
             lambda: bd.dudley_bound(1, 0.0, 1, 2.0, 10, 1.0),
             lambda: bd.gamma_constant(1, 0.0, 1, 1.0),
             lambda: bd.full_C(1, 0.0, 1, 2.0, 1.0),
             lambda: bd.thm54_threshold_and_prob(1, 0.0, 1, 2.0, 10, 0.1))
    for call in calls:
        with pytest.raises(IntegralDivergent):
            call()
    assert bd.bound_report(1, 0.0, 1, 2.0, 10).regularity_ok is False


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_one_regularity_gate(dim):
    # the family's gate and the report's flag are bounds.regular
    for k in range(1, 5):
        for alpha in (0.25, 0.5, 1.0):
            ok = bd.regular(dim, alpha, k)
            assert hyp.HypothesisConfig(dim, k, alpha, 2.0).regular is ok
            assert bd.bound_report(dim, alpha, k, 2.0, 16).regularity_ok is ok


def test_dudley_exact_integral_ratio():
    """Antiderivative form vs plain power-sum form at delta1 = 1.

    The exact integral multiplies each power by its 1/(1-exponent) factor,
    so the ratio is the weighted mean of 7/6 and 5/4 for d=1, k=3, a=0.5.
    """
    plain = bd.dudley_bound(1, 0.5, 3, 2.0, 1, 1.0)
    exact = bd.dudley_bound(1, 0.5, 3, 2.0, 1, 1.0, exact_integral=True)
    assert exact / plain == pytest.approx(1.2083333333333333, rel=1e-14)
    assert exact > plain


def test_dudley_rejects_bad_inputs():
    with pytest.raises(ConfigInvalid):
        bd.dudley_bound(1, 0.5, 3, 2.0, 0, 1.0)
    with pytest.raises(ConfigInvalid):
        bd.dudley_bound(1, 0.5, 3, 2.0, 10, 0.0)


# ---------------------------------------------------------------------------
# gamma and full_C


def test_gamma_independent_of_K():
    rep2 = bd.bound_report(1, 0.5, 3, 2.0, 100)
    rep5 = bd.bound_report(1, 0.5, 3, 5.0, 100)
    rep7 = bd.bound_report(1, 0.5, 3, 7.0, 100)
    assert rep2.gamma == rep5.gamma == rep7.gamma


@pytest.mark.parametrize("d,K", [(1, 1.5), (1, 2.0), (2, 3.0), (2, 10.0)])
def test_full_C_below_gamma_envelope(d, K):
    gamma = bd.gamma_constant(d, 0.5, 3, 1.0)
    c = bd.full_C(d, 0.5, 3, K, 1.0)
    assert 0.0 < c <= gamma * K ** (4 * (d + 1))


def test_bracket_factor_two_at_unit_delta1():
    c3 = bd.c3_constant(1, 0.5, 3, 2.0)
    assert bd.full_C(1, 0.5, 3, 2.0, 1.0) == (12.0 * c3) * 2.0


def test_constants_monotone_in_K_and_n():
    ks = [1.5, 2.0, 4.0, 8.0]
    dud = [bd.dudley_bound(1, 0.5, 3, K, 64, 1.0) for K in ks]
    assert all(a < b for a, b in zip(dud, dud[1:]))
    thr = [bd.thm54_threshold_and_prob(1, 0.5, 3, K, 64, 0.25)[0] for K in ks]
    assert all(a < b for a, b in zip(thr, thr[1:]))
    ns = [16, 64, 256, 1024]
    dn = [bd.dudley_bound(1, 0.5, 3, 2.0, n, 1.0) for n in ns]
    assert all(a > b for a, b in zip(dn, dn[1:]))


# ---------------------------------------------------------------------------
# concentration


def test_mcdiarmid_frozen_value():
    assert bd.mcdiarmid_tail(0.2, 100, 0.2) == \
        pytest.approx(0.21347652540636403, rel=1e-15)


def test_mcdiarmid_edges():
    assert bd.mcdiarmid_tail(0.3, 50, 0.0) == 1.0
    assert bd.mcdiarmid_tail(0.2, 200, 0.2) < bd.mcdiarmid_tail(0.2, 100, 0.2)
    assert bd.mcdiarmid_tail(0.2, 100, 0.4) < bd.mcdiarmid_tail(0.2, 100, 0.2)
    with pytest.raises(ConfigInvalid):
        bd.mcdiarmid_tail(1.0, 10, 0.1)
    with pytest.raises(ConfigInvalid):
        bd.mcdiarmid_tail(0.2, 10, -0.1)


def test_thm54_threshold_shape():
    t16 = bd.thm54_threshold_and_prob(1, 0.5, 3, 2.0, 16, 0.5)
    t4096 = bd.thm54_threshold_and_prob(1, 0.5, 3, 2.0, 4096, 0.5)
    assert t16[0] == t4096[0]                  # delta = 1/2: n-independent
    p_small = bd.thm54_threshold_and_prob(1, 0.5, 3, 2.0, 4, 0.1, 1.0, 1e-8)[1]
    p_large = bd.thm54_threshold_and_prob(1, 0.5, 3, 2.0, 4096, 0.1, 1.0, 1e-8)[1]
    assert 0.0 < p_large < p_small < 1.0
    with pytest.raises(ConfigInvalid):
        bd.thm54_threshold_and_prob(1, 0.5, 3, 1.0, 16, 0.1)
    with pytest.raises(ConfigInvalid):
        bd.thm54_threshold_and_prob(1, 0.5, 3, 2.0, 16, 0.0)


def test_thm54_overflow_is_infinite():
    # n^(delta - 1/2) and n^(2 delta) overflow a float: threshold inf, tail 0
    threshold, prob = bd.thm54_threshold_and_prob(1, 0.5, 3, 2.0, 1024, 1e10)
    assert threshold == math.inf and prob == 0.0
    rep = bd.bound_report(1, 0.5, 3, 2.0, 1024, delta=1e10)
    assert rep.thm54_threshold == math.inf and rep.mcdiarmid_tail == 0.0


def test_thm54_probabilities_summable():
    """Partial sum to 1e6 plus an analytic integral-test tail is finite.

    With c1_star shrunk so the tail is resolvable in float64, the bound is
    exp(-c n^{2 delta}); substituting u = c x^{1/5} turns the tail integral
    into (5/c^5) Gamma(5, c N^{1/5}), evaluated by the regularized upper
    incomplete gamma.
    """
    d, alpha, k, K, delta, c1s = 1, 0.5, 3, 2.0, 0.1, 1e-8
    g = bd.gamma_constant(d, alpha, k, 1.0, c1s)
    c = g * g * K ** (8 * (d + 1)) / math.log1p(math.factorial(d) * K ** (d + 1)) ** 2
    n = np.arange(1, 10**6 + 1, dtype=np.float64)
    probs = np.exp(-c * n ** (2.0 * delta))
    spot = bd.thm54_threshold_and_prob(d, alpha, k, K, 10**3, delta, 1.0, c1s)[1]
    assert probs[999] == pytest.approx(spot, rel=1e-12)
    partial = float(np.sum(probs))
    tail = (5.0 / c**5) * math.gamma(5) * float(gammaincc(5, c * 10.0 ** 1.2))
    assert math.isfinite(partial) and partial > 0.0
    assert 0.0 <= tail < 1e-6 * partial


# ---------------------------------------------------------------------------
# schedule


def test_k_schedule_values():
    assert bd.k_schedule(math.e, 1.0) == 1.0
    assert bd.k_schedule(math.e**4, 0.5) == 2.0
    with pytest.raises(ConfigInvalid):
        bd.k_schedule(1, 0.5)
    with pytest.raises(ConfigInvalid):
        bd.k_schedule(100, 0.0)


def test_k_schedule_feeds_thm54():
    n = 10**4
    K = bd.k_schedule(n, 0.25)
    assert K > 1.0
    threshold, prob = bd.thm54_threshold_and_prob(1, 0.5, 3, K, n, 0.1)
    assert threshold > 0.0 and 0.0 <= prob <= 1.0


# ---------------------------------------------------------------------------
# report


def test_bound_report_regular():
    rep = bd.bound_report(2, 0.5, 3, 2.0, 1000)
    assert rep.regularity_ok
    assert rep.B1 + rep.B2 == 1.0
    for f in ("C1", "C2", "C3", "gamma", "C", "dudley_value", "thm54_threshold"):
        assert getattr(rep, f) > 0.0
    assert 0.0 <= rep.thm54_probability <= 1.0
    assert 0.0 <= rep.mcdiarmid_tail <= 1.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_largest_accepted_K_keeps_bounds_finite(d):
    """Every reported constant stays finite up to the largest K a config takes."""
    lo, hi = 2.0, 1e308
    for _ in range(100):
        mid = math.sqrt(lo) * math.sqrt(hi)
        lo, hi = (mid, hi) if hyp.bound_constants_finite(d, mid) else (lo, mid)
    assert hi < lo * (1.0 + 1e-12) and lo > 1e9
    delta1 = bd.rho_metric(d, lo, 1, 1.0, 1.0)    # family_delta1 at dPhi = 1
    for n, delta, exact in ((2, 0.01, False), (2**62, 0.49, True)):
        rep = bd.bound_report(d, 0.5, 3, lo, n, delta=delta, delta1=delta1,
                              exact_integral=exact)
        assert all(math.isfinite(v) for v in bd.report_to_dict(rep).values())


def test_bound_report_irregular_nans():
    rep = bd.bound_report(4, 0.5, 1, 2.0, 1000)
    assert not rep.regularity_ok
    for f in ("C3", "gamma", "C", "dudley_value", "thm54_threshold",
              "thm54_probability", "mcdiarmid_tail"):
        assert math.isnan(getattr(rep, f))
    # algebraic constants survive
    assert rep.B1 + rep.B2 == 1.0 and rep.C1 > 0.0 and rep.C2 > 0.0


def test_bound_report_bit_stable():
    a = bd.bound_report(1, 0.5, 3, 2.0, 1024, delta=0.25, delta1=40.0)
    b = bd.bound_report(1, 0.5, 3, 2.0, 1024, delta=0.25, delta1=40.0)
    assert a == b


def test_report_serialization():
    rep = bd.bound_report(1, 0.5, 3, 2.0, 64)
    payload = bd.report_to_dict(rep)
    assert list(payload) == list(rep._fields)
    assert payload["gamma"] == rep.gamma
    table = bd.report_table(rep)
    assert "gamma" in table and "thm54_threshold" in table
    assert len(table.splitlines()) == len(payload)
