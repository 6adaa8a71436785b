"""Generator family: configs, certified boxes, members, discriminators, nets."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trigan.hypothesis as hyp
import trigan.rosenblatt as ros
from trigan.errors import ConfigInvalid, NetTooLarge, ParamsOutOfBox
from trigan.holder import estimate_holder_norm

EPS = np.finfo(np.float64).eps


# ---------------------------------------------------------------------------
# config validation and derived quantities


@pytest.mark.parametrize("kwargs", [
    {"dim": 0},
    {"dim": 1, "K": 1.0},
    {"dim": 1, "K": 0.5},
    {"dim": 1, "k": 0},
    {"dim": 1, "alpha": 0.0},
    {"dim": 1, "alpha": 1.5},
    {"dim": 1, "family": "fourier_triangular"},
    {"dim": 1, "degree": 1},
    {"dim": 1, "coupling_degree": 2},
    {"dim": 1, "family": "spline_triangular"},
    {"dim": 1, "degree": 17},
    {"dim": 1, "K": 2e19},
    {"dim": 3, "K": 3e9},
    # past 2**53, k would not stay exact in the bound arithmetic
    {"dim": 1, "k": 2**53 + 1},
    {"dim": 2, "k": 10**400},
    {"dim": 3, "k": 2**60},
    # family_delta1's probe grids of 17^7 and 17^6 nodes exceed the 2^22 cap
    {"dim": 7},
    {"dim": 6},
    # refused before any power of dim is formed
    {"dim": 2**63},
    {"dim": 10**400},
])
def test_config_rejections(kwargs):
    with pytest.raises(ConfigInvalid):
        hyp.make_config(**kwargs)


def test_highest_admitted_k_keeps_the_box(cfg1, cfg2):
    """Degree-2 members have no derivatives past order 2, so any k >= 3 gives
    the box of k 3 (the old finite-difference check shrank it on rounding)."""
    assert hyp.make_config(1, k=6, K=2.0).box_half == cfg1.box_half
    assert hyp.make_config(2, k=10, K=3.0).box_half == cfg2.box_half


def test_regular_flag():
    """k > 1 - alpha + d/2 gates the rate machinery."""
    # raw configs: the flag is pure arithmetic, no box solve needed
    assert hyp.HypothesisConfig(1, 3, 0.5, 2.0).regular
    assert not hyp.HypothesisConfig(4, 1, 0.5, 2.0).regular
    assert hyp.HypothesisConfig(2, 2, 0.5, 2.0).regular
    assert not hyp.HypothesisConfig(2, 1, 0.5, 2.0).regular


def test_box_half_frozen_values(cfg1, cfg2):
    assert cfg1.box_half == pytest.approx(0.2368421052631579, rel=1e-12)
    assert cfg2.box_half == pytest.approx(0.13110524990724579, rel=1e-12)
    deg3 = hyp.make_config(1, K=6.0, degree=3)
    assert deg3.box_half == pytest.approx(0.20614035087719296, rel=1e-12)
    uncoupled = hyp.make_config(2, K=3.0, coupling_degree=0)
    assert uncoupled.box_half == pytest.approx(0.20382556112045383, rel=1e-12)
    assert uncoupled.n_params == 4 and cfg2.n_params == 6


@pytest.mark.parametrize("kwargs,half", [
    # hand-derived: the Holder bound binds before the Jacobian range, and it
    # is affine in b; e.g. 1D, k 1: (1 + 2b) + 4b <= 0.95 K
    ({"dim": 1, "k": 1, "K": 2.0}, (1.9 - 1.0) / 6),
    # 2D coupled, k 1: (1 + 4b) + (8b + 4b) <= 0.95 K, the 4b from y1 in psi_2
    ({"dim": 2, "k": 1, "K": 3.0}, (2.85 - 1.0) / 16),
    # degree 3, k 3: the third derivative 24b
    ({"dim": 1, "K": 2.0, "degree": 3}, 1.9 / 24),
    # degree 4, k 2: (1 + 6b) + 96b
    ({"dim": 1, "k": 2, "K": 3.0, "degree": 4}, (2.85 - 1.0) / 102),
    # degree 4, k 3: 96b + 192b
    ({"dim": 1, "K": 6.0, "degree": 4}, 5.7 / 288),
    # 2D coupled degree 3, k 3: 48b + (0 + 48b)
    ({"dim": 2, "K": 3.0, "degree": 3}, 2.85 / 96),
])
def test_closed_form_box(kwargs, half):
    cfg = hyp.make_config(**kwargs)
    assert cfg.box_half == pytest.approx(half, rel=1e-12)
    box = hyp.holder_bound(cfg, np.zeros(cfg.n_params), cfg.box_half)
    assert box == pytest.approx(0.95 * cfg.K, rel=1e-12)
    for vec in hyp.random_box_params(cfg, 8, seed=2):
        assert hyp.holder_bound(cfg, vec) <= box


@settings(max_examples=30)
@given(dim=st.integers(1, 2), degree=st.integers(2, 4), k=st.integers(1, 3),
       coupling=st.integers(0, 1),
       unit=st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12))
def test_holder_bound_dominates_estimate(dim, degree, k, coupling, unit):
    """The closed-form bound is at least the finite-difference estimate of
    any box member, up to the estimate's own errors, stated here.

    Rounding: values err by about eps; k nested differences (one-sided edge
    stencils weigh 4) and the quotient's division by |x - y|^alpha >= h
    amplify that by at most 8 h^-(k+1). Truncation, past degree 2 only:
    central differences of a polynomial of degree <= 4 err by (m/6) h^2
    D^(m+2) f at order m, edge stencils by h^2/3 D^3 f + h^3/4 D^4 f, and
    the quotient turns h^2 into h^(2-alpha); all of it is at most
    2 h^(2-alpha) times the bound on the derivatives up to order k + 3."""
    cfg = hyp.make_config(dim, k=k, K=2.0 if dim == 1 else 3.0, degree=degree,
                          coupling_degree=coupling)
    vec = cfg.box_half * np.asarray(unit[:cfg.n_params])
    res = 257 if dim == 1 else 33
    h = 1.0 / (res - 1)
    est = estimate_holder_norm(hyp.make_generator(cfg, vec).apply, k, cfg.alpha,
                               dim=dim, resolution=res)
    slack = 8.0 * EPS * h ** -(k + 1)
    if degree > 2:
        slack += 2.0 * h ** (2.0 - cfg.alpha) * hyp.holder_bound(replace(cfg, k=k + 2), vec)
    assert est.total <= hyp.holder_bound(cfg, vec) + slack


def test_holder_bound_attained_at_degree_two(cfg1, cfg2):
    """At degree 2 and k 3 every derivative past order 2 vanishes, so the
    bound is the first-derivative sup 1 + 2 d b of the last component, which
    the estimate recovers at the alternating box corner."""
    for cfg, res, value in ((cfg1, 257, 1.4736842105263157),
                            (cfg2, 33, 1.5244209996289833)):
        assert value == pytest.approx(1.0 + 2.0 * cfg.dim * cfg.box_half, rel=1e-15)
        corner = cfg.box_half * np.where(np.arange(cfg.n_params) % 2 == 0, 1.0, -1.0)
        bound = hyp.holder_bound(cfg, corner)
        assert bound == pytest.approx(value, rel=1e-15)
        box = hyp.holder_bound(cfg, np.zeros(cfg.n_params), cfg.box_half)
        assert box == pytest.approx(value, rel=1e-15)
        est = estimate_holder_norm(hyp.make_generator(cfg, corner).apply, cfg.k,
                                   cfg.alpha, dim=cfg.dim, resolution=res)
        assert est.ck_norm == pytest.approx(bound, rel=1e-14)
        # the third derivatives' quotient reads rounding only
        assert est.total == pytest.approx(bound, abs=8.0 * EPS * (res - 1.0) ** 4)


def test_box_collapses_near_k_one():
    assert hyp.make_config(1, K=1.04).box_half == 0.0


def test_param_box_shape(cfg1):
    box = cfg1.param_box
    assert len(box) == cfg1.n_params
    assert all(lo == -hi for lo, hi in box)


# ---------------------------------------------------------------------------
# members


def test_neutral_params_give_identity(cfg1, cfg2):
    for cfg in (cfg1, cfg2):
        v = hyp.neutral_params(cfg)
        assert np.all(v == 0.0) and v.size == cfg.n_params
        gen = hyp.make_generator(cfg, v)
        pts = np.random.default_rng(7).random((64, cfg.dim))
        assert np.array_equal(gen.apply(pts), pts)


def test_degree3_increment_example():
    # palindromic increments (0.4, 0.2, 0.4); stored as centered deviations
    cfg = hyp.make_config(1, K=6.0, degree=3)
    theta = np.array([0.4, 0.2, 0.4]) - 1.0 / 3.0
    assert np.max(np.abs(theta)) <= cfg.box_half
    gen = hyp.make_generator(cfg, theta)
    pts = np.array([[0.25], [0.5]])
    vals = gen.apply(pts).ravel()
    assert vals[0] == pytest.approx(0.26875, abs=5e-15)
    assert vals[1] == pytest.approx(0.5, abs=5e-15)
    gp = hyp.member_params(cfg, theta)
    assert gp.jac_lower == pytest.approx(0.6, abs=1e-12)
    assert gp.c1_upper == pytest.approx(1.2, abs=1e-12)
    assert hyp.certify_member(cfg, gp).certified


def test_params_out_of_box(cfg1):
    with pytest.raises(ParamsOutOfBox):
        hyp.make_generator(cfg1, np.zeros(3))        # wrong length
    with pytest.raises(ParamsOutOfBox):
        hyp.make_generator(cfg1, np.array([cfg1.box_half * 1.5, 0.0]))
    hyp.make_generator(cfg1, np.array([cfg1.box_half, -cfg1.box_half]))


def test_member_params_wraps_vector(cfg1):
    gp = hyp.member_params(cfg1, [0.1, -0.1])
    assert not gp.coefficients.flags.writeable
    assert 0.0 < gp.jac_lower <= 1.0 <= gp.c1_upper
    # make_generator accepts the wrapper and the bare vector identically
    pts = np.linspace(0.0, 1.0, 33)[:, None]
    a = hyp.make_generator(cfg1, gp).apply(pts)
    b = hyp.make_generator(cfg1, np.array([0.1, -0.1])).apply(pts)
    assert np.array_equal(a, b)


def test_quadratic_closed_form_and_inverse(cfg1, rng):
    """Degree-2 components: phi(t) = 2 w1 t + (w2 - w1) t^2, stable inverse."""
    for vec in hyp.random_box_params(cfg1, 5, seed=11):
        gen = hyp.make_generator(cfg1, vec)
        e = (vec[0] - vec[1]) / 2.0
        w1, w2 = 0.5 + e, 0.5 - e
        t = rng.random((257, 1))
        x = gen.apply(t)
        assert np.abs(x - (2 * w1 * t + (w2 - w1) * t * t)).max() < 1e-15
        back = gen.invert(x)
        assert np.abs(back - t).max() < 1e-14
        ends = gen.apply(np.array([[0.0], [1.0]]))
        assert ends[0, 0] == 0.0 and ends[1, 0] == 1.0


def test_certification(cfg1, cfg2):
    for cfg in (cfg1, cfg2):
        cert = hyp.certify_member(cfg, hyp.neutral_params(cfg))
        assert cert.certified and cert.jac_lower >= 1.0 / cfg.K
        for vec in hyp.random_box_params(cfg, 3, seed=5):
            assert hyp.certify_member(cfg, vec).certified


@given(prefix_dim=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_quad_partial_matches_generic(prefix_dim, seed):
    """The degree-2 closed-form partial is the generic Bernstein sum, bitwise."""
    gen = np.random.default_rng(seed)
    theta, coupling = gen.uniform(-1.0, 1.0, 2), gen.uniform(-1.0, 1.0, (2, prefix_dim))
    prefix = gen.random((257, prefix_dim))
    t = np.concatenate([[0.0, 1.0, 0.5], gen.random(254)])
    quad = hyp._QuadBernstein(degree=2, theta=theta, coupling=coupling)
    generic = hyp.BernsteinComponent(degree=2, theta=theta, coupling=coupling)
    assert np.array_equal(quad.partial(prefix, t), generic.partial(prefix, t))


# ---------------------------------------------------------------------------
# discriminators


def test_discriminator_constants_plugin():
    b1, b2 = hyp.discriminator_constants(1, 2.0)
    assert b1 == 0.2 and b2 == 0.8


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("K", [2.0, 3.0, 7.5])
def test_discriminator_constants_sum_exact(dim, K):
    b1, b2 = hyp.discriminator_constants(dim, K)
    assert b1 + b2 == 1.0
    assert 0.0 < b1 < 0.5 < b2 < 1.0


def test_discriminator_equal_params_is_half(cfg1, rng):
    v = hyp.random_box_params(cfg1, 1, seed=3)[0]
    disc = hyp.make_discriminator(cfg1, v, v)
    pts = rng.random((200, 1))
    assert np.all(disc(pts) == 0.5)


def test_discriminator_range(cfg1, cfg2, rng):
    for cfg in (cfg1, cfg2):
        b1, b2 = hyp.discriminator_constants(cfg.dim, cfg.K)
        pa, pb = hyp.random_box_params(cfg, 2, seed=9)
        disc = hyp.make_discriminator(cfg, pa, pb)
        vals = disc(rng.random((1000, cfg.dim)))
        assert vals.min() >= b1 - 1e-12 and vals.max() <= b2 + 1e-12
        assert (disc.lower, disc.upper) == (b1, b2)


# ---------------------------------------------------------------------------
# nets


def test_net_cardinalities(cfg1):
    assert hyp.build_eps_net(cfg1, 0.25).cardinality == 1
    assert hyp.build_eps_net(cfg1, 0.1).cardinality == 4
    assert hyp.build_eps_net(cfg1, 0.05).cardinality == 9
    assert hyp.build_eps_net(cfg1, 0.03).cardinality == 16


def test_net_halving_growth(cfg1):
    # lattice geometry: halving eps at most doubles cells per axis
    grow = 2 ** cfg1.n_params
    for eps in (0.25, 0.1, 0.05):
        big = hyp.build_eps_net(cfg1, eps).cardinality
        small = hyp.build_eps_net(cfg1, eps / 2.0).cardinality
        assert small <= grow * big


def test_net_cap(cfg1):
    # about 1250^2 lattice members: refused before any member is built
    with pytest.raises(NetTooLarge, match="cap is 1000000"):
        hyp.build_eps_net(cfg1, 1e-4)


def test_net_member_invariants(cfg1):
    net = hyp.build_eps_net(cfg1, 0.1)
    assert net.cardinality == len(net.members)
    seen = {tuple(m.coefficients) for m in net.members}
    assert len(seen) == net.cardinality          # pairwise distinct vectors
    b = cfg1.box_half
    for m in net.members:
        assert np.all(np.abs(m.coefficients) <= b)
    assert hyp.certify_member(cfg1, net.members[0]).certified
    assert hyp.certify_member(cfg1, net.members[-1]).certified


@pytest.mark.parametrize("dim,coupling,eps,members,maps", [
    (1, 1, 0.03, 16, 7),
    (1, 1, 0.05, 9, 5),
    (2, 0, 0.07, 81, 25),
    (2, 1, 0.1, 64, 27),
])
def test_distinct_members(dim, coupling, eps, members, maps):
    """Lattice members that shift a whole centred block by a constant are
    one map: they apply and push forward bitwise equally, the kept maps
    all differ, and the first member of each group is kept."""
    K = 2.0 if dim == 1 else 3.0
    cfg = hyp.make_config(dim, K=K, coupling_degree=coupling)
    net = hyp.build_eps_net(cfg, eps)
    gens = [hyp.make_generator(cfg, m) for m in net.members]
    keep, group = hyp.distinct_members(gens)
    assert (net.cardinality, len(keep)) == (members, maps)
    assert np.array_equal(keep, [np.flatnonzero(group == h)[0] for h in range(maps)])
    pts = np.random.default_rng(31).random((257, dim))
    kept_apply = [gens[i].apply(pts) for i in keep]
    kept_dens = [ros.pushforward_density(gens[i]).evaluate(pts) for i in keep]
    for m, gen in enumerate(gens):
        assert np.array_equal(gen.apply(pts), kept_apply[group[m]])
        assert np.array_equal(ros.pushforward_density(gen).evaluate(pts),
                              kept_dens[group[m]])
    for i in range(maps):
        for j in range(i):
            assert not np.array_equal(kept_apply[i], kept_apply[j])


def test_net_covers_box(cfg1):
    """Every box point sits within eps (map sup-norm) of some member."""
    eps = 0.1
    net = hyp.build_eps_net(cfg1, eps)
    for vec in hyp.random_box_params(cfg1, 40, seed=21):
        d = min(hyp.map_sup_distance(cfg1, vec, m) for m in net.members)
        assert d <= eps + 1e-12


def test_net_vs_greedy_cover(cfg1):
    """Lattice cardinality within factor 4 of a brute-force greedy cover.

    For the 2-parameter quadratic family the sup distance has the closed
    form |du| / 2 with u = (t1 - t2) / 2, so the greedy oracle runs on the
    exact metric without touching the implementation under test.
    """
    eps = 0.1
    b = cfg1.box_half
    ax = np.linspace(-b, b, 32)
    pts = np.array([(x, y) for x in ax for y in ax])     # ~10^3 lattice
    u = (pts[:, 0] - pts[:, 1]) / 2.0
    covered = np.zeros(len(u), dtype=bool)
    greedy = 0
    for i in np.argsort(u, kind="stable"):
        if not covered[i]:
            greedy += 1
            covered |= np.abs(u - u[i]) * 0.5 <= eps
    card = hyp.build_eps_net(cfg1, eps).cardinality
    assert card <= 4 * greedy
    assert greedy <= 4 * card


def test_map_sup_distance_closed_form(cfg1):
    a = np.array([0.1, -0.15])
    b = np.array([-0.05, 0.1])
    e = ((a[0] - b[0]) - (a[1] - b[1])) / 2.0
    d = hyp.map_sup_distance(cfg1, a, b)
    assert d == pytest.approx(abs(e) * 0.5, rel=1e-12)
    assert hyp.map_sup_distance(cfg1, b, a) == d


def test_family_delta1_frozen(cfg1):
    d1 = hyp.family_delta1(cfg1)
    assert d1 == pytest.approx(40.89473684210526, rel=1e-12)
    assert d1 > 0.0


def test_realizability_improves_with_degree():
    """Min net distance to a non-polynomial target map shrinks with degree."""
    t = np.linspace(0.0, 1.0, 513)[:, None]
    phi_mu = -1.0 + np.sqrt(1.0 + 3.0 * t)    # inverse of the tilted CDF
    best = {}
    for deg in (2, 3):
        cfg = hyp.make_config(1, K=6.0, degree=deg)
        net = hyp.build_eps_net(cfg, 0.02)
        best[deg] = min(
            float(np.abs(hyp.make_generator(cfg, m).apply(t) - phi_mu).max())
            for m in net.members)
    assert best[3] < best[2] < 0.05


# ---------------------------------------------------------------------------
# serialization and RNG helpers


def test_config_roundtrip(tmp_path, cfg2):
    payload = hyp.config_to_dict(cfg2)
    again = hyp.config_from_dict(payload)
    assert again == cfg2 and again.box_half == cfg2.box_half
    path = tmp_path / "config.json"
    hyp.save_config(cfg2, str(path))
    assert hyp.load_config(str(path)) == cfg2
    with pytest.raises(ConfigInvalid, match="unknown"):
        hyp.config_from_dict({**payload, "extra": 1})
    bad = dict(payload)
    del bad["degree"]
    with pytest.raises(ConfigInvalid, match="missing"):
        hyp.config_from_dict(bad)


def test_save_net(tmp_path, cfg1):
    net = hyp.build_eps_net(cfg1, 0.1)
    path = tmp_path / "net.json"
    hyp.save_net(net, str(path))
    rows = json.loads(path.read_text())
    assert len(rows) == net.cardinality
    assert rows[0] == net.members[0].coefficients.tolist()


def test_random_box_params_deterministic(cfg2):
    a = hyp.random_box_params(cfg2, 6, seed=17)
    b = hyp.random_box_params(cfg2, 6, seed=17)
    assert a.shape == (6, cfg2.n_params)
    assert np.array_equal(a, b)
    assert np.all(np.abs(a) <= cfg2.box_half)
    c = hyp.random_box_params(cfg2, 6, seed=17, trial=1)
    assert not np.array_equal(a, c)
