"""Generator family: configs, certified boxes, members, discriminators, nets."""

import itertools
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from box_params import random_box_params, unstack
from holder import estimate_holder_norm
import trigan.bounds as bd
import trigan.hypothesis as hyp
import trigan.learning as lr
import trigan.rosenblatt as ros
from trigan.density import grid_points, read_json
from trigan.errors import ConfigInvalid, NetTooLarge, ParamsOutOfBox

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
    assert cfg1.box_half == 0.2368421052631579
    assert cfg2.box_half == 0.13110524990724579
    deg3 = hyp.make_config(1, K=6.0, degree=3)
    assert deg3.box_half == 0.2061403508771929
    uncoupled = hyp.make_config(2, K=3.0, coupling_degree=0)
    assert uncoupled.box_half == 0.20382556112045383
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
    for vec in random_box_params(cfg, 8, seed=2):
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
        slack += 2.0 * h ** (2.0 - cfg.alpha) * hyp.holder_bound(cfg._replace(k=k + 2), vec)
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


@pytest.mark.parametrize("dim,degree", itertools.product((1, 2, 3), (2, 3, 4)))
def test_box_half_matches_the_unhoisted_solve(dim, degree):
    """make_config's box, from cached operators and a bisection that stops at
    adjacent ends, is bit for bit the box of the un-hoisted kernels' full 60
    steps (tests/oracles.py) at every admitted coupling, k and K."""
    for coupling, k, K in itertools.product((0, 1), (1, 3, 6), (1.5, 2.0, 3.0, 5.0)):
        try:
            cfg = hyp.make_config(dim, k=k, K=K, degree=degree, coupling_degree=coupling)
        except ConfigInvalid:
            continue
        assert cfg.box_half.hex() == oracles.solve_box_half(cfg).hex(), (coupling, k, K)


@settings(max_examples=60)
@given(dim=st.integers(1, 3), degree=st.integers(2, 4), coupling=st.integers(0, 1),
       k=st.sampled_from([1, 3, 6]), frac=st.floats(0.0, 2.0), seed=st.integers(0, 2**32 - 1))
def test_box_kernels_match_the_unhoisted_oracle(dim, degree, coupling, k, frac, seed):
    """holder_bound and jacobian_range with cached operators return the
    oracle's bits on an in-box vector at any radius, past the box too."""
    cfg = hyp.make_config(dim, k=k, K=3.0, degree=degree, coupling_degree=coupling)
    v = cfg.box_half * np.random.default_rng(seed).uniform(-1.0, 1.0, cfg.n_params)
    radius = frac * cfg.box_half
    assert hyp.holder_bound(cfg, v, radius) == oracles.holder_bound(cfg, v, radius)
    assert hyp.jacobian_range(cfg, v, radius) == oracles.jacobian_range(cfg, v, radius)
    ops = hyp._box_operators(degree, k)
    arrays = [ops[0], *(arr for order in ops[1] for arr in order[2:])]
    assert not any(arr.flags.writeable for arr in arrays)


# ---------------------------------------------------------------------------
# members


def _certified(cfg, vec) -> bool:
    """The member's closed-form Jacobian floor and Holder-norm bound meet K."""
    return (hyp.jacobian_range(cfg, vec)[0] >= 1.0 / cfg.K
            and hyp.holder_bound(cfg, vec) <= cfg.K)


def test_neutral_params_give_identity(cfg1, cfg2):
    for cfg in (cfg1, cfg2):
        gen = hyp.make_generator(cfg, np.zeros(cfg.n_params))
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
    lo, hi = hyp.jacobian_range(cfg, theta)
    assert lo == pytest.approx(0.6, abs=1e-12)
    assert hi == pytest.approx(1.2, abs=1e-12)
    assert _certified(cfg, theta)


def test_params_out_of_box(cfg1):
    with pytest.raises(ParamsOutOfBox):
        hyp.make_generator(cfg1, np.zeros(3))        # wrong length
    for shape in ((0, 2), (2, 2, 2), ()):
        with pytest.raises(ParamsOutOfBox):
            hyp.make_generator(cfg1, np.zeros(shape))   # no member, or not a stack
    with pytest.raises(ParamsOutOfBox):
        hyp.make_generator(cfg1, np.array([cfg1.box_half * 1.5, 0.0]))
    hyp.make_generator(cfg1, np.array([cfg1.box_half, -cfg1.box_half]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2.0])
def test_non_finite_or_out_of_box_params_refused(cfg1, bad):
    # abs(nan) > b is False: the box check must be stated as a membership test
    vec = np.array([bad, 0.0])
    with pytest.raises(ParamsOutOfBox):
        hyp.make_generator(cfg1, vec)
    with pytest.raises(ParamsOutOfBox):
        hyp.jacobian_range(cfg1, vec)
    with pytest.raises(ParamsOutOfBox):
        hyp.jacobian_range(cfg1, vec[::-1])


@settings(max_examples=40)
@given(dim=st.integers(1, 3), degree=st.integers(2, 4), coupling=st.integers(0, 1),
       frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_jacobian_range_covers_the_radius(dim, degree, coupling, frac, seed):
    """Every box member within r of v has its own Jacobian range, and the
    product of its diagonal partials on a probe grid, inside
    jacobian_range(config, v, r); up to 1e-12 relative rounding, since a
    member on the ball's corner can meet the bound exactly."""
    cfg = hyp.make_config(dim, K=3.0, degree=degree, coupling_degree=coupling)
    g, b = np.random.default_rng(seed), cfg.box_half
    v = b * g.uniform(-1.0, 1.0, cfg.n_params)
    lo, hi = hyp.jacobian_range(cfg, v, frac * b)
    assert 0.0 <= lo <= hi
    steps = g.uniform(-1.0, 1.0, (8, cfg.n_params))
    steps[:4] = np.sign(steps[:4])            # corners of the ball
    pts = grid_points(dim, 9)
    for m in np.clip(v + frac * b * steps, -b, b):
        jac = np.ones(len(pts))
        for j, comp in enumerate(hyp.make_generator(cfg, m).components):
            jac *= comp.partial(pts[:, :j], pts[:, j])
        for m_lo, m_hi in (hyp.jacobian_range(cfg, m), (jac.min(), jac.max())):
            assert lo * (1.0 - 1e-12) <= m_lo and m_hi <= hi * (1.0 + 1e-12)


def test_jacobian_range_floor_is_zero(cfg2):
    """A radius past the box makes both components' smallest weights
    negative; lo is 0 then, not their positive product."""
    lo, hi = hyp.jacobian_range(cfg2, np.zeros(cfg2.n_params), 1.0)
    assert (lo, hi) == (0.0, 2.0 * 1.5 * 2.0 * 2.5)


def test_jacobian_range(cfg1):
    lo, hi = hyp.jacobian_range(cfg1, [0.1, -0.1])
    assert 0.0 < lo <= 1.0 <= hi
    # the range is certified: the member's Jacobian stays inside it
    pts = np.linspace(0.0, 1.0, 33)[:, None]
    jac = hyp.make_generator(cfg1, [0.1, -0.1]).components[0].partial(pts[:, :0], pts[:, 0])
    assert lo <= jac.min() and jac.max() <= hi


def test_quadratic_closed_form_and_inverse(cfg1, rng):
    """Degree-2 components: phi(t) = 2 w1 t + (w2 - w1) t^2, stable inverse."""
    for vec in random_box_params(cfg1, 5, seed=11):
        gen = hyp.make_generator(cfg1, vec)
        e = (vec[0] - vec[1]) / 2.0
        w1, w2 = 0.5 + e, 0.5 - e
        t = rng.random((257, 1))
        x = gen.apply(t)
        assert np.abs(x - (2 * w1 * t + (w2 - w1) * t * t)).max() < 1e-15
        back = gen.inverse().apply(x)
        assert np.abs(back - t).max() < 1e-14
        ends = gen.apply(np.array([[0.0], [1.0]]))
        assert ends[0, 0] == 0.0 and ends[1, 0] == 1.0


def test_certification(cfg1, cfg2):
    for cfg in (cfg1, cfg2):
        assert _certified(cfg, np.zeros(cfg.n_params))
        for vec in random_box_params(cfg, 3, seed=5):
            assert _certified(cfg, vec)


@given(prefix_dim=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_quad_kernels_match_formulas(prefix_dim, seed):
    """The in-place degree-2 kernels give the bits of their formulas, into a
    given row or a fresh one."""
    gen = np.random.default_rng(seed)
    theta, coupling = gen.uniform(-0.2, 0.2, 2), gen.uniform(-0.1, 0.1, (2, prefix_dim))
    prefix = gen.random((257, prefix_dim))
    t = np.concatenate([[0.0, 1.0, 0.5], gen.random(254)])
    quad = hyp._QuadBernstein(degree=2, theta=theta, coupling=coupling)
    w = np.broadcast_to(quad.weights(prefix), (257, 2))
    w1, w2 = w[:, 0], w[:, 1]
    want = {
        "value": np.clip(t + (w1 - w2) * t * (1.0 - t), 0.0, 1.0),
        "partial": w1 * (2.0 * (1.0 - t)) + w2 * (2.0 * t),
        "inverse_exact": np.clip(
            t / (w1 + np.sqrt(np.maximum(w1 * w1 + (w2 - w1) * t, 0.0))), 0.0, 1.0),
    }
    for name, ref in want.items():
        kernel = getattr(quad, name)
        out = np.empty(257)
        assert kernel(prefix, t, out=out) is out
        assert np.array_equal(out, ref) and np.array_equal(kernel(prefix, t), ref)


# ---------------------------------------------------------------------------
# discriminators


def test_discriminator_constants_plugin():
    b1, b2 = bd.discriminator_constants(1, 2.0)
    assert b1 == 0.2 and b2 == 0.8


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("K", [2.0, 3.0, 7.5])
def test_discriminator_constants_sum_exact(dim, K):
    b1, b2 = bd.discriminator_constants(dim, K)
    assert b1 + b2 == 1.0
    assert 0.0 < b1 < 0.5 < b2 < 1.0


def test_discriminator_equal_params_is_half(cfg1, uniform1, rng):
    def half(points):
        return np.full(len(points), 0.5)

    v = random_box_params(cfg1, 1, seed=3)[0]
    maps, at = hyp.distinct_maps(cfg1, [v, v, v])
    assert maps.lead == (1,)
    f = ros.PushforwardDensity(maps).evaluate(rng.random((200, 1)))[0]
    assert np.all(f / (f + f) == 0.5)
    # D_vv's cube entries are the loss of the constant 1/2: -log 2
    s = lr.make_training_sample(uniform1, 64, seed=3)
    (gen,) = unstack(maps)
    entry = lr.empirical_pair_matrix(maps, s)[tuple(at)]
    assert entry == -math.log(2.0) == oracles.empirical_loss(half, gen, s)
    # the theoretical entry is log(1/2) exactly; the quadrature of the
    # constant 1/2 under renormalized weights rounds to within 1 ulp of it
    theo = lr.pair_loss_matrix(uniform1, maps)[tuple(at)]
    assert theo == -math.log(2.0)
    assert theo == pytest.approx(
        oracles.theoretical_loss(uniform1, ros.PushforwardDensity(gen), half), rel=1e-15)


def test_discriminator_range(cfg1, cfg2, rng):
    for cfg in (cfg1, cfg2):
        b1, b2 = bd.discriminator_constants(cfg.dim, cfg.K)
        pa, pb = random_box_params(cfg, 2, seed=9)
        f = ros.PushforwardDensity(hyp.make_generator(cfg, [pa, pb])).evaluate(
            rng.random((1000, cfg.dim)))
        vals = f[0] / (f[0] + f[1])
        assert vals.min() >= b1 - 1e-12 and vals.max() <= b2 + 1e-12


# ---------------------------------------------------------------------------
# nets


def test_net_cardinalities(cfg1):
    assert len(hyp.build_eps_net(cfg1, 0.25)) == 1
    assert len(hyp.build_eps_net(cfg1, 0.1)) == 4
    assert len(hyp.build_eps_net(cfg1, 0.05)) == 9
    assert len(hyp.build_eps_net(cfg1, 0.03)) == 16


def test_net_halving_growth(cfg1):
    # lattice geometry: halving eps at most doubles cells per axis
    grow = 2 ** cfg1.n_params
    for eps in (0.25, 0.1, 0.05):
        big = len(hyp.build_eps_net(cfg1, eps))
        small = len(hyp.build_eps_net(cfg1, eps / 2.0))
        assert small <= grow * big


def test_net_cap(cfg1):
    # about 1250^2 lattice members: refused before any member is built
    with pytest.raises(NetTooLarge, match="cap is 1000000"):
        hyp.build_eps_net(cfg1, 1e-4)


@pytest.mark.parametrize("dim,coupling,eps", [(1, 1, 0.03), (2, 0, 0.07), (2, 1, 0.1)])
def test_net_rows_are_the_product_lattice(dim, coupling, eps):
    """The rows are the itertools.product of the lattice axis, in its order
    and bit for bit, and the array is read-only."""
    cfg = hyp.make_config(dim, K=2.0 if dim == 1 else 3.0, coupling_degree=coupling)
    net = hyp.build_eps_net(cfg, eps)
    q = round(len(net) ** (1.0 / cfg.n_params))
    b = cfg.box_half
    axis = -b + (b / q) * (2.0 * np.arange(q) + 1.0)
    want = np.array(list(itertools.product(axis, repeat=cfg.n_params)))
    assert net.tobytes() == want.tobytes() and net.shape == want.shape
    assert not net.flags.writeable
    with pytest.raises(ValueError):
        net[0, 0] = 0.0


def test_net_with_more_parameters_than_array_dims():
    # 96 parameters, more than an ndarray has dimensions: one cell per axis
    cfg = hyp.make_config(3, K=3.0, degree=16)
    net = hyp.build_eps_net(cfg, 0.5)
    assert net.shape == (1, 96)
    assert np.all(net == 0.0)  # the one cell's center


def test_cap_sized_net_memory(cfg1):
    # 1000^2 members, exactly at the cap: the lattice costs about its own array
    tracemalloc.start()
    try:
        net = hyp.build_eps_net(cfg1, 0.0001185)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert net.shape == (1000**2, 2)
    assert peak <= 3 * net.nbytes


def test_net_member_invariants(cfg1):
    net = hyp.build_eps_net(cfg1, 0.1)
    assert net.shape == (len(net), cfg1.n_params)
    seen = {tuple(v) for v in net}
    assert len(seen) == len(net)  # pairwise distinct vectors
    assert np.all(np.abs(net) <= cfg1.box_half)
    assert _certified(cfg1, net[0])
    assert _certified(cfg1, net[-1])


@pytest.mark.parametrize("dim,coupling,eps,members,maps", [
    (1, 1, 0.03, 16, 7),
    (1, 1, 0.05, 9, 5),
    (2, 0, 0.07, 81, 25),
    (2, 1, 0.1, 64, 27),
])
def test_distinct_members(monkeypatch, dim, coupling, eps, members, maps):
    """Lattice members that shift a whole centred block by a constant are
    one map: they apply and push forward bitwise equally, the kept maps
    all differ, and the first member of each group is kept, in member
    order, as one stacked map from one make_generator call."""
    K = 2.0 if dim == 1 else 3.0
    cfg = hyp.make_config(dim, K=K, coupling_degree=coupling)
    net = hyp.build_eps_net(cfg, eps)
    gens = [hyp.make_generator(cfg, v) for v in net]
    built, make = [], hyp.make_generator
    monkeypatch.setattr(hyp, "make_generator", lambda *a: built.append(a) or make(*a))
    kept, group = hyp.distinct_maps(cfg, net)
    assert len(built) == 1
    assert (len(net), kept.lead) == (members, (maps,))
    keep = [np.flatnonzero(group == h)[0] for h in range(maps)]
    assert keep == sorted(keep)

    def raw(gen):
        # the raw parameter blocks identify the member a map was built from
        return [(c.theta.tobytes(), c.coupling.tobytes()) for c in gen.components]

    assert [raw(gen) for gen in unstack(kept)] == [raw(gens[i]) for i in keep]
    pts = np.random.default_rng(31).random((257, dim))
    kept_apply = kept.apply(pts)
    kept_dens = ros.PushforwardDensity(kept).evaluate(pts)
    for m, gen in enumerate(gens):
        assert np.array_equal(gen.apply(pts), kept_apply[group[m]])
        assert np.array_equal(ros.PushforwardDensity(gen).evaluate(pts),
                              kept_dens[group[m]])
    for i in range(maps):
        for j in range(i):
            assert not np.array_equal(kept_apply[i], kept_apply[j])


def test_net_covers_box(cfg1):
    """Every box point sits within eps (map sup-norm) of some member."""
    eps = 0.1
    net = hyp.build_eps_net(cfg1, eps)
    for vec in random_box_params(cfg1, 40, seed=21):
        d = hyp.sup_distances(cfg1, np.vstack([vec, net]))[0, 1:].min()
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
    card = len(hyp.build_eps_net(cfg1, eps))
    assert card <= 4 * greedy
    assert greedy <= 4 * card


def test_map_sup_distance_closed_form(cfg1):
    a = np.array([0.1, -0.15])
    b = np.array([-0.05, 0.1])
    e = ((a[0] - b[0]) - (a[1] - b[1])) / 2.0
    d = hyp.sup_distances(cfg1, [a, b])
    assert d[0, 1] == pytest.approx(abs(e) * 0.5, rel=1e-12)
    assert d[1, 0] == d[0, 1] and d[0, 0] == d[1, 1] == 0.0


@settings(max_examples=30)
@given(dim=st.integers(1, 3), degree=st.integers(2, 3), coupling=st.integers(0, 1),
       count=st.integers(1, 8), block=st.integers(1, 3000), seed=st.integers(0, 999))
@example(dim=2, degree=2, coupling=1, count=1, block=7, seed=0)     # no pairs
@example(dim=2, degree=2, coupling=1, count=2, block=7, seed=0)     # one pair
def test_sup_distances_match_whole_arrays(dim, degree, coupling, count, block, seed):
    """Each entry of the stacked, point-blocked kernel is, bitwise, the
    whole-array maximum of |apply_a - apply_b| of two single members; the
    drawn block size (probe points per block) puts block boundaries
    anywhere in the probe grid."""
    cfg = hyp.make_config(dim, K=3.0, degree=degree, coupling_degree=coupling)
    vecs = random_box_params(cfg, count, seed=seed)
    pairs = max(count * (count - 1) // 2, 1)
    with mock.patch.object(hyp, "_GAP_CHUNK", block * pairs * dim):
        dist = hyp.sup_distances(cfg, vecs)
    vals = [hyp.make_generator(cfg, v).apply(hyp._probe_points(dim)) for v in vecs]
    assert dist.shape == (count, count)
    for a, b in itertools.product(range(count), repeat=2):
        assert dist[a, b] == np.abs(vals[a] - vals[b]).max()


def test_family_delta1_frozen(cfg1):
    assert hyp.family_delta1(cfg1) == 40.894736842105274
    assert hyp.family_delta1(hyp.make_config(2, K=3.0)) == 3027892.0371378683
    assert hyp.family_delta1(hyp.make_config(3, K=3.0)) == 23905413738.61583


def test_realizability_improves_with_degree():
    """Min net distance to a non-polynomial target map shrinks with degree."""
    t = np.linspace(0.0, 1.0, 513)[:, None]
    phi_mu = -1.0 + np.sqrt(1.0 + 3.0 * t)    # inverse of the tilted CDF
    best = {}
    for deg in (2, 3):
        cfg = hyp.make_config(1, K=6.0, degree=deg)
        net = hyp.build_eps_net(cfg, 0.02)
        best[deg] = min(
            float(np.abs(hyp.make_generator(cfg, v).apply(t) - phi_mu).max())
            for v in net)
    assert best[3] < best[2] < 0.05


# ---------------------------------------------------------------------------
# serialization and RNG helpers


def test_config_roundtrip(cfg2):
    payload = {"dim": 2, "k": 3, "alpha": 0.5, "K": 3.0,
               "family": "bernstein_triangular", "degree": 2, "coupling_degree": 1}
    again = hyp.config_from_dict(payload)
    assert again == cfg2 and again.box_half == cfg2.box_half
    # a run config carries the hypothesis as this JSON object
    assert hyp.config_from_dict(json.loads(json.dumps(payload))) == cfg2
    with pytest.raises(ConfigInvalid, match="unknown"):
        hyp.config_from_dict({**payload, "extra": 1})
    bad = dict(payload)
    del bad["degree"]
    with pytest.raises(ConfigInvalid, match="missing"):
        hyp.config_from_dict(bad)


@pytest.mark.parametrize("raw", [
    b'{"dim": 1, "k": 3, "alpha": NaN, "K": 2.0, "family": "bernstein_triangular", '
    b'"degree": 2, "coupling_degree": 1}',
    b'{"dim": 1, "k": 3, "alpha": 0.5, "K": Infinity, "family": "bernstein_triangular", '
    b'"degree": 2, "coupling_degree": 1}',
    b'{"dim": 1, "family": "\xff\xfe"}',
    b'[1, 2]',
], ids=["nan", "infinity", "not-utf8", "not-object"])
def test_load_config_refuses_bad_json(tmp_path, raw):
    # read as the CLI reads a config file and its hypothesis object
    path = tmp_path / "config.json"
    path.write_bytes(raw)
    with pytest.raises(ConfigInvalid):
        hyp.config_from_dict(read_json(str(path)))


def test_random_box_params_deterministic(cfg2):
    a = random_box_params(cfg2, 6, seed=17)
    b = random_box_params(cfg2, 6, seed=17)
    assert a.shape == (6, cfg2.n_params)
    assert np.array_equal(a, b)
    assert np.all(np.abs(a) <= cfg2.box_half)
    c = random_box_params(cfg2, 6, seed=17, trial=1)
    assert not np.array_equal(a, c)
