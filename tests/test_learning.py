"""Empirical losses, minimax fitting, sampling error, rate experiment."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import trigan.divergence as dv
import trigan.hypothesis as hyp
import trigan.learning as lr
import trigan.rosenblatt as ros
from trigan.density import make_density
from trigan.errors import ConfigInvalid
from trigan.rng import KIND_NOISE, KIND_REAL, stream_id, uniforms

import oracles
import two_pass_cube
from box_params import random_box_params, unstack


@pytest.fixture(scope="module")
def net(cfg1):
    return hyp.build_eps_net(cfg1, 0.1)


@pytest.fixture(scope="module")
def realizable_target(cfg1, net):
    # pushforward of a fixed net member: phi_mu lies inside the family
    vec = net[1]
    return ros.PushforwardDensity(hyp.make_generator(cfg1, vec))


# ---------------------------------------------------------------------------
# training samples


def test_training_sample_deterministic(uniform1):
    a = lr.make_training_sample(uniform1, 50, seed=12)
    b = lr.make_training_sample(uniform1, 50, seed=12)
    assert np.array_equal(a.real_points, b.real_points)
    assert np.array_equal(a.noise_points, b.noise_points)
    c = lr.make_training_sample(uniform1, 50, seed=12, trial=1)
    assert not np.array_equal(a.noise_points, c.noise_points)
    assert not np.array_equal(a.real_points, a.noise_points)


@pytest.mark.parametrize("family", ["tilted", "product", "coupled"])
@pytest.mark.parametrize("n", [5, 40000])
def test_real_points_are_the_one_shot_draw(request, family, n):
    # rosenblatt.sample draws the real points in 16384-point chunks; they
    # equal the target sampler applied to all n REAL-stream uniforms at once
    target = request.getfixturevalue({"product": "product2"}.get(family, family))
    s = lr.make_training_sample(target, n, seed=3, trial=2)
    z = uniforms(3, stream_id(KIND_REAL, 2), 0, n, target.dim)
    assert np.array_equal(s.real_points, ros.build_rosenblatt(target).inverse().apply(z))


@pytest.mark.parametrize("kind", ["tilted", "tilted-inverse", "member", "member-inverse",
                                  "coupled"])
def test_pushforward_target_draws_its_own_law(tilted, coupled, cfg1, kind):
    """A PushforwardDensity(m) target is sampled by m.apply, whichever way m
    reads its components: its real points are m of the REAL-stream uniforms
    bitwise, and their mean lies within 5 standard errors of the density's
    quadrature mean on every axis."""
    name, _, flip = kind.partition("-")
    corner = np.array([cfg1.box_half, -cfg1.box_half])   # the box's steepest member
    m = {"tilted": ros.build_rosenblatt(tilted), "coupled": ros.build_rosenblatt(coupled),
         "member": hyp.make_generator(cfg1, corner)}[name]
    m = m.inverse() if flip else m
    target, n = ros.PushforwardDensity(m), 40000
    s = lr.make_training_sample(target, n, seed=3, trial=2)
    z = uniforms(3, stream_id(KIND_REAL, 2), 0, n, m.dim)
    assert np.array_equal(s.real_points, m.apply(z))
    pts, w = dv.eval_grid(m.dim)
    f = w * target.evaluate(pts)
    quad_mean = f @ pts / f.sum()
    stderr = s.real_points.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(s.real_points.mean(axis=0) - quad_mean) < 5.0 * stderr)


def test_trial_size_cap_boundary():
    # 2^23 points in 2D with a 2-member net hold 2^23 (4 + 4) = 2^26 floats
    lr.check_trial_size(2**23, 2, 2)
    with pytest.raises(ConfigInvalid, match="cap is 67108864"):
        lr.check_trial_size(2**23 + 1, 2, 2)
    # the README rate run and the bench fit2d_net run sit well below it
    lr.check_trial_size(16384, 1, 16)
    lr.check_trial_size(256, 2, 81)


def test_training_sample_size_is_its_row_count(tilted):
    """n is len(real_points); arrays that are not (n, d) of one shape with
    n >= 1 are refused, and n cannot be passed apart from them."""
    s = lr.make_training_sample(tilted, 8, seed=4)
    assert lr.TrainingSample(real_points=s.real_points, noise_points=s.noise_points).n == 8
    with pytest.raises(TypeError):
        lr.TrainingSample(n=5, real_points=s.real_points, noise_points=s.noise_points)
    bad = [(s.real_points[:3], s.noise_points), (s.real_points[:0], s.noise_points[:0]),
           (s.real_points.ravel(), s.noise_points.ravel()),
           (s.real_points, np.hstack([s.noise_points, s.noise_points]))]
    for real, noise in bad:
        with pytest.raises(ConfigInvalid, match="one shape"):
            lr.TrainingSample(real_points=real, noise_points=noise)


def test_training_sample_read_only(tilted):
    s = lr.make_training_sample(tilted, 8, seed=1)
    assert s.real_points.shape == (8, 1)
    with pytest.raises(ValueError):
        s.real_points[0, 0] = 0.5
    with pytest.raises(ConfigInvalid):
        lr.make_training_sample(tilted, 0, seed=1)


def test_training_sample_leaves_caller_arrays_writeable():
    # the sample freezes its own views, not the arrays it was given
    a, b = np.full((4, 1), 0.25), np.full((4, 1), 0.75)
    s = lr.TrainingSample(real_points=a, noise_points=b)
    assert a.flags.writeable and b.flags.writeable
    assert s.real_points is not a and s.noise_points is not b
    assert not s.real_points.flags.writeable and not s.noise_points.flags.writeable
    assert np.array_equal(s.real_points, a) and np.array_equal(s.noise_points, b)


# ---------------------------------------------------------------------------
# empirical loss


def _half(points):
    return np.full(len(points), 0.5)


def test_loss_at_constant_half_is_exact(cfg1, uniform1):
    """D == 1/2 collapses both sums to -log 2, with no rounding residue."""
    v = random_box_params(cfg1, 1, seed=3)[0]
    assert hyp.distinct_maps(cfg1, [v, v])[0].lead == (1,)
    # the identity map against D_vv, in the cube over the triple's maps
    maps, at = hyp.distinct_maps(cfg1, [np.zeros(cfg1.n_params), v, v])
    for n in (64, 100, 257):
        s = lr.make_training_sample(uniform1, n, seed=2)
        entry = lr.empirical_pair_matrix(maps, s)[tuple(at)]
        assert entry == -math.log(2.0)
        assert entry == oracles.empirical_loss(_half, unstack(maps)[0], s)


def test_loss_hand_value_n1(cfg1):
    # D(Y1) = 0.2 and D(phi(Z1)) = 0.8 give (log 0.2 + log 0.2) / 2
    s = lr.TrainingSample(real_points=np.array([[0.3]]), noise_points=np.array([[0.7]]))
    ident = hyp.make_generator(cfg1, np.zeros(cfg1.n_params))
    val = oracles.empirical_loss(lambda p: np.where(p[:, 0] < 0.5, 0.2, 0.8), ident, s)
    assert val == pytest.approx(-1.6094379124341003, abs=5e-16)


def test_loss_rejects_degenerate_discriminator(cfg1, uniform1):
    def bad(points):
        return np.ones(len(points))

    ident = hyp.make_generator(cfg1, np.zeros(cfg1.n_params))
    s = lr.make_training_sample(uniform1, 4, seed=1)
    with pytest.raises(oracles.DiscriminatorOutOfRange):
        oracles.empirical_loss(bad, ident, s)


# ---------------------------------------------------------------------------
# pair matrices


def _triple_entries(cfg, V, group, cube_of, triples=None):
    """{(g, a, b): member g's loss against D_ab, read off cube_of(maps) over
    the distinct maps of members g, a and b}, for every triple or the given
    ones. Members in one net group realize one map bit for bit, so triples
    with equal groups share one cube."""
    cubes, out = {}, {}
    for gab in np.ndindex(len(V), len(V), len(V)) if triples is None else triples:
        maps, at = hyp.distinct_maps(cfg, [V[i] for i in gab])
        key = tuple(group[list(gab)])
        if key not in cubes:
            cubes[key] = cube_of(maps)
        out[gab] = cubes[key][tuple(at)]
    return out


@pytest.mark.parametrize("eps,n", [
    *(pytest.param(0.1, n, id=str(n)) for n in (100, 128, 257)),
    # 16 members, 7 distinct maps: duplicates in every row and column
    *(pytest.param(0.03, n, id=f"eps0.03-{n}") for n in (100, 128, 257)),
])
def test_pair_matrices_match_single_evaluations(cfg1, uniform1, eps, n):
    # every entry, bitwise, also where 1/(2n) is not a power of two
    V = hyp.build_eps_net(cfg1, eps)
    maps, group = hyp.distinct_maps(cfg1, V)
    nominal = np.ix_(group, group, group)
    L = lr.pair_loss_matrix(uniform1, maps)[nominal]
    s = lr.make_training_sample(uniform1, n, seed=8)
    E = lr.empirical_pair_matrix(maps, s)[nominal]
    c = len(V)
    assert L.shape == E.shape == (c, c, c)
    theo = _triple_entries(cfg1, V, group, lambda m: lr.pair_loss_matrix(uniform1, m))
    emp = _triple_entries(cfg1, V, group, lambda m: lr.empirical_pair_matrix(m, s))
    for gab in np.ndindex(c, c, c):
        assert L[gab] == theo[gab]
        assert E[gab] == emp[gab]


@settings(max_examples=16)
@given(dim=st.integers(1, 2), degree=st.integers(2, 3), coupling=st.integers(0, 1),
       members=st.integers(1, 3), n=st.sampled_from([1, 3, 17, 101]),
       seed=st.integers(0, 2**16))
def test_cubes_match_single_losses(tilted, coupled, dim, degree, coupling, members, n,
                                   seed):
    """Every net-cube entry equals, bitwise, the entry of the cube over the
    distinct maps of its (g, a, b) triple, across families, small nets and
    odd n. A 2D degree-3 member solves its grid by bisection (about 0.3 s a
    map), so there one drawn theoretical entry is checked."""
    cfg = hyp.make_config(dim, K=2.0 if dim == 1 else 3.0, degree=degree,
                          coupling_degree=coupling)
    target = tilted if dim == 1 else coupled
    V = list(random_box_params(cfg, members, seed=seed))
    # a copy of the first member with its first theta block recentred: the
    # same map up to the rounding of the centring
    theta = cfg.blocks()[0][0]
    V.append(V[0].copy())
    V[-1][theta] -= 0.5 * (V[0][theta].max() + V[0][theta].min())
    maps, group = hyp.distinct_maps(cfg, V)
    nominal = np.ix_(group, group, group)
    L = lr.pair_loss_matrix(target, maps)[nominal]
    s = lr.make_training_sample(target, n, seed=seed)
    E = lr.empirical_pair_matrix(maps, s)[nominal]
    c = len(V)
    assert L.shape == E.shape == (c, c, c)
    emp = _triple_entries(cfg, V, group, lambda m: lr.empirical_pair_matrix(m, s))
    for gab in np.ndindex(c, c, c):
        assert E[gab] == emp[gab]
    entries = (None if dim == 1 or degree == 2
               else [tuple(np.random.default_rng(seed).integers(c, size=3))])
    theo = _triple_entries(cfg, V, group, lambda m: lr.pair_loss_matrix(target, m), entries)
    for gab, entry in theo.items():
        assert L[gab] == entry


@pytest.mark.parametrize("dim,coupling,eps", [
    (1, 0, None), (1, 1, None), (2, 0, None), (2, 1, None),
    # the README rate net: 16 members, 7 distinct maps
    (1, 1, 0.03),
])
def test_one_pass_cube_matches_two_pass(tilted, coupled, dim, coupling, eps):
    """The merged density pass gives the two-pass cube bit for bit, also at
    the n of one block of the stacked density, whose merged points cross h
    block boundaries."""
    cfg = hyp.make_config(dim, K=2.0 if dim == 1 else 3.0, coupling_degree=coupling)
    V = (hyp.build_eps_net(cfg, eps) if eps
         else random_box_params(cfg, 5, seed=dim + 2 * coupling))
    maps, _ = hyp.distinct_maps(cfg, V)
    (h,) = maps.lead
    target = tilted if dim == 1 else coupled
    for n in (1, 37, ros._CHUNK // h):
        s = lr.make_training_sample(target, n, seed=n)
        one = lr.empirical_pair_matrix(maps, s)
        assert one.shape == (h, h, h)
        assert np.all(one == two_pass_cube.empirical_pair_matrix(maps, s))


@settings(max_examples=20)
@given(dim=st.integers(1, 2), coupling=st.integers(0, 1), seed=st.integers(0, 2**32 - 1))
def test_same_map_pair_is_constant_half(uniform1, product2, dim, coupling, seed):
    """Two different vectors that realize one map give exactly the
    constant-1/2 discriminator, and its cube entries are exactly the losses
    of the constant 1/2."""
    cfg = hyp.make_config(dim, K=2.0 if dim == 1 else 3.0, coupling_degree=coupling)
    gen = np.random.default_rng(seed)
    # dyadic entries, so centring a degree-2 block is exact before and after
    # a shift of a whole theta block or coupling column
    step = 2.0 ** -12
    k = int(0.5 * cfg.box_half / step)
    v = step * gen.integers(-k, k + 1, cfg.n_params)
    w = v.copy()
    for theta, coup in cfg.blocks():
        w[theta] += step * gen.integers(-k, k + 1)
        cols = w[coup].reshape(2, -1)
        w[coup] = (cols + step * gen.integers(-k, k + 1, cols.shape[1])).ravel()
    assume(not np.array_equal(v, w))
    pair, _ = hyp.distinct_maps(cfg, [v, w])
    assert pair.lead == (1,)
    target = uniform1 if dim == 1 else product2
    s = lr.make_training_sample(target, 33, seed=seed % 1000)
    f = ros.PushforwardDensity(pair).evaluate(s.real_points)[0]
    assert np.all(f / (f + f) == 0.5)
    maps, at = hyp.distinct_maps(cfg, [gen.permutation([v, w])[0], v, w])
    entry = lr.empirical_pair_matrix(maps, s)[tuple(at)]
    assert entry == -math.log(2.0)
    assert entry == oracles.empirical_loss(_half, unstack(maps)[0], s)
    theo = lr.pair_loss_matrix(target, maps)[tuple(at)]
    assert theo == -math.log(2.0)
    assert theo == pytest.approx(oracles.theoretical_loss(
        target, ros.PushforwardDensity(unstack(maps)[0]), _half), rel=1e-15)


def test_each_cube_makes_one_density_call(monkeypatch, cfg1, uniform1, net):
    """A cube evaluates all of the net's maps with one density call, which
    checks its points once; the empirical cube writes every map's fakes
    with one apply."""
    maps, _ = hyp.distinct_maps(cfg1, net)
    s = lr.make_training_sample(uniform1, 100, seed=2)
    calls = []
    for cls, name in ((ros.PushforwardDensity, "evaluate"), (ros.TriangularMap, "apply")):
        monkeypatch.setattr(cls, name, lambda self, *a, _f=getattr(cls, name), _n=name, **k:
                            calls.append(_n) or _f(self, *a, **k))
    check = ros.require_finite
    monkeypatch.setattr(ros, "require_finite", lambda pts: calls.append("finite") or check(pts))
    lr.pair_loss_matrix(uniform1, maps)
    assert calls == ["evaluate", "finite"]
    calls.clear()
    lr.empirical_pair_matrix(maps, s)
    assert calls == ["apply", "finite", "evaluate", "finite"]


def test_net_pair_at_matrix_cap(cfg1, uniform1):
    # the (c, c, c) cubes of 100 members hold exactly 10^6 entries;
    # test_fit_net_over_matrix_cap refuses the next lattice, 121 members
    at_cap = hyp.build_eps_net(cfg1, 0.0125)
    assert len(at_cap) == 100
    maps, group = lr._net_maps(cfg1, at_cap)
    assert lr.pair_loss_matrix(uniform1, maps)[np.ix_(group, group, group)].size == 10**6


def test_diagonal_pairs_floor(cfg1, uniform1, net):
    # D_aa is constant 1/2: its empirical entries are exactly -log 2
    s = lr.make_training_sample(uniform1, 64, seed=5)
    maps, group = hyp.distinct_maps(cfg1, net)
    E = lr.empirical_pair_matrix(maps, s)[np.ix_(group, group, group)]
    diag = np.arange(len(net))
    assert np.all(E[:, diag, diag] == -math.log(2.0))


# ---------------------------------------------------------------------------
# minimax


def test_minimax_uniform_picks_identity_member(cfg1, uniform1):
    s = lr.make_training_sample(uniform1, 2**10, seed=1)
    res = lr.minimax_fit(cfg1, uniform1, s, net=hyp.build_eps_net(cfg1, 0.1))
    coeff = res.best_params
    assert coeff[0] == coeff[1]              # centered: an identity copy
    assert res.js_to_target < 1e-8


def test_minimax_singleton_net_any_n(cfg1, uniform1):
    for seed, n in ((1, 16), (2, 3), (7, 101)):
        s = lr.make_training_sample(uniform1, n, seed=seed)
        res = lr.minimax_fit(cfg1, uniform1, s, net=hyp.build_eps_net(cfg1, 0.25))
        assert np.all(res.best_params == 0.0)
        assert res.js_to_target == 0.0


def test_minimax_realizable_target(cfg1, realizable_target):
    s = lr.make_training_sample(realizable_target, 10**4, seed=6)
    res = lr.minimax_fit(cfg1, realizable_target, s, net=hyp.build_eps_net(cfg1, 0.1))
    assert res.js_to_target < 0.01


def test_minimax_achieved_value_reevaluates(cfg1, uniform1):
    s = lr.make_training_sample(uniform1, 2**9, seed=13)
    net = hyp.build_eps_net(cfg1, 0.1)
    res = lr.minimax_fit(cfg1, uniform1, s, net=net)
    # the inner maximizer (a, b) of the winner, read off the nominal cube
    kept, group = hyp.distinct_maps(cfg1, net)
    emp = lr.empirical_pair_matrix(kept, s)[np.ix_(group, group, group)]
    best = next(i for i, v in enumerate(net) if np.array_equal(v, res.best_params))
    a, b = np.unravel_index(np.argmax(emp[best]), emp[best].shape)
    maps, at = hyp.distinct_maps(cfg1, [res.best_params, net[a], net[b]])
    assert abs(lr.empirical_pair_matrix(maps, s)[tuple(at)] - res.achieved_value) < 1e-12
    assert res.inner_values[int(np.argmin(list(res.inner_values.values())))] \
        == pytest.approx(res.achieved_value, abs=0)
    assert len(res.inner_values) == len(hyp.build_eps_net(cfg1, 0.1))
    assert all(type(v) is float for v in res.inner_values.values())


def test_minimax_value_invariant_under_reordering(cfg1, uniform1, net):
    s = lr.make_training_sample(uniform1, 200, seed=4)
    base = lr.minimax_fit(cfg1, uniform1, s, net=net)
    again = lr.minimax_fit(cfg1, uniform1, s, net=net[::-1])
    assert again.achieved_value == base.achieved_value


@pytest.mark.parametrize("dim,coupling,eps,members,maps", [
    (1, 1, 0.03, 16, 7),
    (2, 0, 0.07, 81, 25),
])
def test_minimax_net_matches_nominal_cube(uniform1, product2, dim, coupling, eps, members,
                                          maps):
    """The per-member values read from the cube over distinct maps through
    group equal those read from the cube expanded to every member."""
    cfg = hyp.make_config(dim, K=2.0 if dim == 1 else 3.0, coupling_degree=coupling)
    target = uniform1 if dim == 1 else product2
    net = hyp.build_eps_net(cfg, eps)
    kept, group = hyp.distinct_maps(cfg, net)
    assert (len(net), *kept.lead) == (members, maps)
    nominal = np.ix_(group, group, group)
    s = lr.make_training_sample(target, 64, seed=12)
    emp = lr.empirical_pair_matrix(kept, s)[nominal]
    inner = emp.max(axis=(1, 2))
    best = int(np.argmin(inner))
    a, b = np.unravel_index(np.argmax(emp[best]), emp[best].shape)
    res = lr.minimax_fit(cfg, target, s, net=net)
    assert res.inner_values == {g: float(v) for g, v in enumerate(inner)}
    assert np.array_equal(res.best_params, net[best])
    assert res.achieved_value == emp[best, a, b]
    losses = lr.pair_loss_matrix(target, kept)
    errors = [float(np.abs(lr.empirical_pair_matrix(
        kept, lr.make_training_sample(target, 64, seed=12, trial=t))[nominal]
        - losses[nominal]).max()) for t in range(3)]
    assert lr.sampling_error_grid(target, kept, losses, [64], 3, seed=12)[0].tolist() == errors


def test_minimax_error_decomposition_chain(cfg1, realizable_target, net):
    """0 <= L(phi_hat) - L(phi*) <= 2 sup |L_hat - L| over the same nets."""
    maps, group = hyp.distinct_maps(cfg1, net)
    nominal = np.ix_(group, group, group)
    losses = lr.pair_loss_matrix(realizable_target, maps)[nominal]
    inner_theo = losses.max(axis=(1, 2))
    star = inner_theo.min()
    for seed in (9, 10, 11):
        s = lr.make_training_sample(realizable_target, 2**8, seed=seed)
        emp = lr.empirical_pair_matrix(maps, s)[nominal]
        eps_hat = float(np.abs(emp - losses).max())
        best = int(np.argmin(emp.max(axis=(1, 2))))
        gap = inner_theo[best] - star
        assert 0.0 <= gap <= 2.0 * eps_hat + 1e-13


# ---------------------------------------------------------------------------
# sampling error


@pytest.fixture(scope="module")
def net_cube(cfg1, uniform1, net):
    # the net's distinct maps and their theoretical loss cube against uniform1
    maps, _ = hyp.distinct_maps(cfg1, net)
    return maps, lr.pair_loss_matrix(uniform1, maps)


def test_sampling_error_single_trial_bitwise(uniform1, net_cube):
    maps, losses = net_cube
    a = lr.sampling_error_grid(uniform1, maps, losses, [200], 1, seed=5)
    b = lr.sampling_error_grid(uniform1, maps, losses, [200], 1, seed=5)
    assert a.shape == (1, 1) and np.array_equal(a, b)
    assert lr._summarize(a[0]) == dict(mean=a[0, 0], std=0.0, q05=a[0, 0], q50=a[0, 0],
                                       q95=a[0, 0])


def test_sampling_error_decreases_over_decade(uniform1, net_cube):
    maps, losses = net_cube
    lo, hi = lr.sampling_error_grid(uniform1, maps, losses, [100, 10**4], 12, seed=5)
    assert hi.mean() < lo.mean()
    summ = lr._summarize(lo)
    assert summ["q05"] <= summ["q50"] <= summ["q95"]
    assert np.all(lo >= 0.0)


@settings(max_examples=100)
@given(size=st.one_of(st.integers(1, 60), st.just(4096)), distinct=st.integers(1, 60),
       low=st.integers(-300, 300), spread=st.sampled_from([0, 1, 3, 600]),
       signed=st.booleans(), seed=st.integers(0, 2**32 - 1), q=st.floats(0.0, 1.0))
def test_quantile_matches_numpy(size, distinct, low, spread, signed, seed, q):
    """The summary's quantile is numpy's default method bit for bit, over
    repeated values and magnitudes from 1e-300 to 1e300, spread over a few
    decades (where the two interpolation forms round differently) or all
    of them. No zeros: the two sorts may order -0.0 and 0.0 differently."""
    gen = np.random.default_rng(seed)
    decades = np.minimum(low + gen.integers(0, spread + 1, distinct), 300)
    pool = gen.uniform(1.0, 10.0, distinct) * 10.0 ** decades
    if signed:
        pool *= gen.choice([-1.0, 1.0], distinct)
    # each pool value size / distinct times, rounded
    values = gen.permutation(np.resize(pool, size))
    ordered = np.sort(values).tolist()
    for p in (0.05, 0.5, 0.95, q):
        assert lr._quantile(ordered, p) == float(np.quantile(values, p))


def test_worker_count_bounded(monkeypatch):
    # the count handed to the process pool; no pool is started here
    monkeypatch.setattr(lr.os, "cpu_count", lambda: 4)
    assert lr._worker_count(1000, 12) == 4
    assert lr._worker_count(2, 12) == 2
    assert lr._worker_count(8, 3) == 3
    monkeypatch.setattr(lr.os, "cpu_count", lambda: None)
    assert lr._worker_count(8, 3) == 1


def test_trials_fit_the_stream_key(uniform1, net_cube):
    # trial t keys its streams kind + (t << 8), which must stay below 2**64
    last = stream_id(KIND_NOISE, 2**56 - 1)
    assert last < 2**64 and uniforms(0, last, 0, 1, 1).shape == (1, 1)
    with pytest.raises(ValueError):
        stream_id(KIND_NOISE, 2**56)
    # rejected before any task is built or any pool is started
    maps, losses = net_cube
    with pytest.raises(ConfigInvalid, match=r"2\*\*56"):
        lr.sampling_error_grid(uniform1, maps, losses, [16], 2**56 + 1, seed=0)


def test_sampling_error_thread_count_invariant(uniform1, net_cube):
    maps, losses = net_cube
    one = lr.sampling_error_grid(uniform1, maps, losses, [100], 12, seed=5)
    two = lr.sampling_error_grid(uniform1, maps, losses, [100], 12, seed=5, threads=2)
    assert np.array_equal(one, two)


def _check_prefixes(target, maps, n_grid, trials, seed, threads=1):
    """sampling_error_grid row i is the one-size grid at n_grid[i], and
    each prefix cube of a trial drawn at max(n_grid) is the cube of that
    trial freshly drawn at its size, bitwise."""
    losses = lr.pair_loss_matrix(target, maps)
    grid = lr.sampling_error_grid(target, maps, losses, n_grid, trials, seed, threads)
    assert grid.shape == (len(n_grid), trials)
    for n, row in zip(n_grid, grid):
        assert np.array_equal(row, lr.sampling_error_grid(target, maps, losses, [n],
                                                          trials, seed)[0])
    last = trials - 1
    cubes = lr.empirical_pair_matrix(
        maps, lr.make_training_sample(target, max(n_grid), seed, last), n_grid)
    assert cubes.shape == (len(n_grid),) + maps.lead * 3
    for n, cube, err in zip(n_grid, cubes, grid[:, last]):
        fresh = lr.empirical_pair_matrix(maps, lr.make_training_sample(target, n, seed, last))
        assert np.array_equal(cube, fresh)
        assert float(np.abs(fresh - losses).max()) == err


@settings(max_examples=12)
@given(dim=st.integers(1, 2), coupling=st.integers(0, 1),
       n_grid=st.lists(st.integers(1, 80), min_size=1, max_size=4),
       trials=st.integers(1, 3), seed=st.integers(0, 2**16))
@example(dim=1, coupling=1, n_grid=[32, 16, 32], trials=2, seed=3)
@example(dim=2, coupling=1, n_grid=[32, 16, 32], trials=2, seed=3)
def test_grid_trials_are_prefixes(tilted, coupled, dim, coupling, n_grid, trials, seed):
    """One pass per trial at max(n_grid) gives every size's numbers, for
    unsorted and repeated sizes, across 1D and 2D families."""
    cfg = hyp.make_config(dim, K=2.0 if dim == 1 else 3.0, coupling_degree=coupling)
    maps, _ = hyp.distinct_maps(cfg, list(random_box_params(cfg, 3, seed=seed)))
    _check_prefixes(tilted if dim == 1 else coupled, maps, n_grid, trials, seed)


def test_grid_prefixes_past_numpy_buffer(cfg1, uniform1, net):
    # sums longer than numpy's 8192-element buffer, through the process pool
    maps, _ = hyp.distinct_maps(cfg1, net)
    _check_prefixes(uniform1, maps, [9000, 8193, 20000], 2, seed=4, threads=2)


# ---------------------------------------------------------------------------
# rate experiment


def test_rate_singleton_grid(cfg1, uniform1, net, net_cube):
    rep = lr.rate_experiment(cfg1, uniform1, [256], 6, seed=3, net=net)
    assert math.isnan(rep.slope)
    assert "single n: slope undefined" in rep.warnings
    vals = lr.sampling_error_grid(uniform1, *net_cube, [256], 6, seed=3)[0]
    r = rep.rows[0]
    assert (r.mean, r.std, r.q05, r.q50, r.q95) == (
        float(np.mean(vals)), float(np.std(vals, ddof=1)),
        *(float(np.quantile(vals, q)) for q in (0.05, 0.5, 0.95)))
    assert r.exceed_frac == 0.0 and r.thm54_threshold > r.mean


def test_rate_irregular_config_warns():
    icfg = hyp.make_config(2, k=1, K=3.0)
    assert not icfg.regular
    u2 = make_density("uniform", 2, 65)
    rep = lr.rate_experiment(icfg, u2, [64, 128], 2, seed=3,
                             net=hyp.build_eps_net(icfg, 0.3))
    assert any("regularity" in w for w in rep.warnings)
    assert math.isnan(rep.delta1)
    assert math.isnan(rep.rows[0].thm54_threshold)
    assert math.isnan(rep.rows[0].bound_C_over_sqrt_n)


def test_rate_csv_shape(cfg1, uniform1):
    rep = lr.rate_experiment(cfg1, uniform1, [128, 256], 3, seed=3,
                             net=hyp.build_eps_net(cfg1, 0.25))
    # the singleton net hits the loss exactly, so the log fit is suppressed
    assert math.isnan(rep.slope)
    assert any("zero mean" in w for w in rep.warnings)
    csv = lr.rate_report_csv(rep)
    lines = csv.splitlines()
    assert lines[0] == ("n,trials,mean,std,q05,q50,q95,"
                        "bound_C_over_sqrt_n,thm54_threshold,exceed_frac")
    assert len(lines) == 3
    cells = lines[1].split(",")
    assert int(cells[0]) == 128 and int(cells[1]) == 3
    assert float(cells[2]) == rep.rows[0].mean     # repr round-trips


@pytest.mark.parametrize("coupling", [0, 1])
def test_rate_one_map_2d_net_is_exact(product2, coupling):
    """A one-map 2D net's cubes are only the same-map diagonal, log(1/2) in
    both: every sup error is exactly 0.0, so the log fit is suppressed."""
    cfg = hyp.make_config(2, K=3.0, coupling_degree=coupling)
    net = hyp.build_eps_net(cfg, 1.0)
    assert hyp.distinct_maps(cfg, net)[0].lead == (1,)
    rep = lr.rate_experiment(cfg, product2, [64, 128], 3, seed=3, net=net)
    assert [(r.mean, r.q95) for r in rep.rows] == [(0.0, 0.0)] * 2
    assert math.isnan(rep.slope)
    assert "zero mean sampling error: slope undefined" in rep.warnings


def test_rate_rejects_bad_grid(cfg1, uniform1, net):
    with pytest.raises(ConfigInvalid):
        lr.rate_experiment(cfg1, uniform1, [], 3, seed=1, net=net)
    with pytest.raises(ConfigInvalid):
        lr.rate_experiment(cfg1, uniform1, [0, 64], 3, seed=1, net=net)
