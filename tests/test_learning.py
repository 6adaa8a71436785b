"""Empirical losses, minimax fitting, sampling error, rate experiment."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import trigan.divergence as dv
import trigan.hypothesis as hyp
import trigan.learning as lr
import trigan.rosenblatt as ros
from trigan.density import make_density
from trigan.errors import ConfigInvalid, NonConvergence
from trigan.rng import KIND_NOISE, stream_id, uniforms


@pytest.fixture(scope="module")
def net(cfg1):
    return hyp.build_eps_net(cfg1, 0.1)


@pytest.fixture(scope="module")
def realizable_target(cfg1, net):
    # pushforward of a fixed net member: phi_mu lies inside the family
    vec = net.members[1].coefficients
    return ros.pushforward_density(hyp.make_generator(cfg1, vec))


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


def test_trial_size_cap_boundary():
    # 2^23 points in 2D with a 2-member net hold 2^23 (4 + 4) = 2^26 floats
    lr.check_trial_size(2**23, 2, 2)
    with pytest.raises(ConfigInvalid, match="cap is 67108864"):
        lr.check_trial_size(2**23 + 1, 2, 2)
    # the README rate run and the bench fit2d_net run sit well below it
    lr.check_trial_size(16384, 1, 16)
    lr.check_trial_size(256, 2, 81)


def test_training_sample_read_only(tilted):
    s = lr.make_training_sample(tilted, 8, seed=1)
    assert s.real_points.shape == (8, 1)
    with pytest.raises(ValueError):
        s.real_points[0, 0] = 0.5
    with pytest.raises(ConfigInvalid):
        lr.make_training_sample(tilted, 0, seed=1)


# ---------------------------------------------------------------------------
# empirical loss


def test_loss_at_constant_half_is_exact(cfg1, uniform1):
    """D == 1/2 collapses both sums to -log 2, with no rounding residue."""
    v = hyp.random_box_params(cfg1, 1, seed=3)[0]
    half = hyp.make_discriminator(cfg1, v, v)
    ident = hyp.make_generator(cfg1, hyp.neutral_params(cfg1))
    for n in (64, 100, 257):
        s = lr.make_training_sample(uniform1, n, seed=2)
        assert lr.empirical_loss(half, ident, s) == -math.log(2.0)


def test_loss_hand_value_n1(cfg1):
    # D(Y1) = 0.2 and D(phi(Z1)) = 0.8 give (log 0.2 + log 0.2) / 2
    s = lr.TrainingSample(n=1, real_points=np.array([[0.3]]),
                          noise_points=np.array([[0.7]]), seed=0)
    ident = hyp.make_generator(cfg1, hyp.neutral_params(cfg1))
    step = dv.DiscriminatorFn(
        evaluator=lambda p: np.where(p[:, 0] < 0.5, 0.2, 0.8),
        lower=0.2, upper=0.8)
    val = lr.empirical_loss(step, ident, s)
    assert val == pytest.approx(-1.6094379124341003, abs=5e-16)


def test_loss_rejects_degenerate_discriminator(cfg1, uniform1):
    bad = dv.DiscriminatorFn(evaluator=lambda p: np.ones(len(p)), lower=0.0,
                             upper=1.0)
    ident = hyp.make_generator(cfg1, hyp.neutral_params(cfg1))
    s = lr.make_training_sample(uniform1, 4, seed=1)
    with pytest.raises(dv.DiscriminatorOutOfRange
                       if hasattr(dv, "DiscriminatorOutOfRange") else Exception):
        lr.empirical_loss(bad, ident, s)


# ---------------------------------------------------------------------------
# pair matrices


@pytest.mark.parametrize("eps,n", [
    *(pytest.param(0.1, n, id=str(n)) for n in (100, 128, 257)),
    # 16 members, 7 distinct maps: duplicates in every row and column
    *(pytest.param(0.03, n, id=f"eps0.03-{n}") for n in (100, 128, 257)),
])
def test_pair_matrices_match_single_evaluations(cfg1, uniform1, eps, n):
    # every entry, bitwise, also where 1/(2n) is not a power of two
    V = hyp.build_eps_net(cfg1, eps).vectors
    L = lr.pair_loss_matrix(cfg1, uniform1, V)
    s = lr.make_training_sample(uniform1, n, seed=8)
    E = lr.empirical_pair_matrix(cfg1, V, s)
    c = len(V)
    assert L.shape == E.shape == (c, c, c)
    gens = [hyp.make_generator(cfg1, v) for v in V]
    for a in range(c):
        for b in range(c):
            disc = hyp.make_discriminator(cfg1, V[a], V[b])
            for g, gen in enumerate(gens):
                pf = ros.pushforward_density(gen)
                assert L[g, a, b] == dv.theoretical_loss(uniform1, pf, disc)
                assert E[g, a, b] == lr.empirical_loss(disc, gen, s)


@settings(max_examples=16)
@given(dim=st.integers(1, 2), degree=st.integers(2, 3), coupling=st.integers(0, 1),
       members=st.integers(1, 3), n=st.sampled_from([1, 3, 17, 101]),
       seed=st.integers(0, 2**16))
def test_cubes_match_single_losses(tilted, coupled, dim, degree, coupling, members, n,
                                   seed):
    """Every cube entry equals its single theoretical_loss/empirical_loss,
    bitwise, across families, small nets and odd n. A 2D degree-3 member
    solves its grid by bisection (about 0.3 s a map), so there one drawn
    theoretical entry is checked."""
    cfg = hyp.make_config(dim, K=2.0 if dim == 1 else 3.0, degree=degree,
                          coupling_degree=coupling)
    target = tilted if dim == 1 else coupled
    V = list(hyp.random_box_params(cfg, members, seed=seed))
    # a copy of the first member with its first theta block recentred: the
    # same map up to the rounding of the centring
    theta = cfg.blocks()[0][0]
    V.append(V[0].copy())
    V[-1][theta] -= 0.5 * (V[0][theta].max() + V[0][theta].min())
    L = lr.pair_loss_matrix(cfg, target, V)
    s = lr.make_training_sample(target, n, seed=seed)
    E = lr.empirical_pair_matrix(cfg, V, s)
    c = len(V)
    assert L.shape == E.shape == (c, c, c)
    gens = [hyp.make_generator(cfg, v) for v in V]
    for a in range(c):
        for b in range(c):
            disc = hyp.make_discriminator(cfg, V[a], V[b])
            for g in range(c):
                assert E[g, a, b] == lr.empirical_loss(disc, gens[g], s)
    entries = (list(np.ndindex(c, c, c)) if dim == 1 or degree == 2
               else [tuple(np.random.default_rng(seed).integers(c, size=3))])
    for g, a, b in entries:
        disc = hyp.make_discriminator(cfg, V[a], V[b])
        pf = ros.pushforward_density(gens[g])
        assert L[g, a, b] == dv.theoretical_loss(target, pf, disc)


@settings(max_examples=20)
@given(dim=st.integers(1, 2), coupling=st.integers(0, 1), seed=st.integers(0, 2**32 - 1))
def test_same_map_pair_is_constant_half(uniform1, product2, dim, coupling, seed):
    """Two different vectors that realize one map give exactly the
    constant-1/2 discriminator, and exactly its losses."""
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
    disc = hyp.make_discriminator(cfg, v, w)
    assert len(disc.pushforwards) == 1
    target = uniform1 if dim == 1 else product2
    s = lr.make_training_sample(target, 33, seed=seed % 1000)
    assert np.all(disc(s.real_points) == 0.5)
    half = dv.DiscriminatorFn(evaluator=lambda p: np.full(len(p), 0.5), lower=0.5,
                              upper=0.5)
    g = hyp.make_generator(cfg, gen.permutation([v, w])[0])
    pf = ros.pushforward_density(g)
    assert lr.empirical_loss(disc, g, s) == lr.empirical_loss(half, g, s)
    assert dv.theoretical_loss(target, pf, disc) == dv.theoretical_loss(target, pf, half)


def test_net_pair_at_matrix_cap(cfg1, uniform1):
    # the (c, c, c) cubes of 100 members hold exactly 10^6 entries;
    # test_fit_net_over_matrix_cap refuses the next lattice, 121 members
    at_cap = hyp.build_eps_net(cfg1, 0.0125)
    assert at_cap.cardinality == 100
    assert lr.pair_loss_matrix(cfg1, uniform1, at_cap.vectors).size == 10**6


def test_diagonal_pairs_floor(cfg1, uniform1, net):
    # D_aa is constant 1/2: its empirical entries are exactly -log 2
    s = lr.make_training_sample(uniform1, 64, seed=5)
    E = lr.empirical_pair_matrix(cfg1, net.vectors, s)
    diag = np.arange(net.cardinality)
    assert np.all(E[:, diag, diag] == -math.log(2.0))


# ---------------------------------------------------------------------------
# minimax


def test_minimax_uniform_picks_identity_member(cfg1, uniform1):
    s = lr.make_training_sample(uniform1, 2**10, seed=1)
    res = lr.minimax_fit(cfg1, uniform1, s, net=hyp.build_eps_net(cfg1, 0.1))
    coeff = res.best_generator.coefficients
    assert coeff[0] == coeff[1]              # centered: an identity copy
    assert res.js_to_target < 1e-8
    assert res.converged and res.strategy == "net_exhaustive"


def test_minimax_singleton_net_any_n(cfg1, uniform1):
    for seed, n in ((1, 16), (2, 3), (7, 101)):
        s = lr.make_training_sample(uniform1, n, seed=seed)
        res = lr.minimax_fit(cfg1, uniform1, s, net=hyp.build_eps_net(cfg1, 0.25))
        assert np.all(res.best_generator.coefficients == 0.0)
        assert res.js_to_target == 0.0


def test_minimax_realizable_target(cfg1, realizable_target):
    s = lr.make_training_sample(realizable_target, 10**4, seed=6)
    res = lr.minimax_fit(cfg1, realizable_target, s, net=hyp.build_eps_net(cfg1, 0.1))
    assert res.js_to_target < 0.01


def test_minimax_achieved_value_reevaluates(cfg1, uniform1):
    s = lr.make_training_sample(uniform1, 2**9, seed=13)
    res = lr.minimax_fit(cfg1, uniform1, s, net=hyp.build_eps_net(cfg1, 0.1))
    disc = hyp.make_discriminator(cfg1, *res.inner_pair)
    gen = hyp.make_generator(cfg1, res.best_generator)
    assert abs(lr.empirical_loss(disc, gen, s) - res.achieved_value) < 1e-12
    assert res.inner_values[int(np.argmin(list(res.inner_values.values())))] \
        == pytest.approx(res.achieved_value, abs=0)
    assert len(res.trace) == len(res.inner_values)


def test_minimax_value_invariant_under_reordering(cfg1, uniform1, net):
    s = lr.make_training_sample(uniform1, 200, seed=4)
    base = lr.minimax_fit(cfg1, uniform1, s, net=net)
    flipped = hyp.EpsNet(epsilon=net.epsilon, members=tuple(reversed(net.members)))
    again = lr.minimax_fit(cfg1, uniform1, s, net=flipped)
    assert again.achieved_value == base.achieved_value


def test_minimax_error_decomposition_chain(cfg1, realizable_target, net):
    """0 <= L(phi_hat) - L(phi*) <= 2 sup |L_hat - L| over the same nets."""
    V = net.vectors
    losses = lr.pair_loss_matrix(cfg1, realizable_target, V)
    inner_theo = losses.max(axis=(1, 2))
    star = inner_theo.min()
    for seed in (9, 10, 11):
        s = lr.make_training_sample(realizable_target, 2**8, seed=seed)
        emp = lr.empirical_pair_matrix(cfg1, V, s)
        eps_hat = float(np.abs(emp - losses).max())
        best = int(np.argmin(emp.max(axis=(1, 2))))
        gap = inner_theo[best] - star
        assert 0.0 <= gap <= 2.0 * eps_hat + 1e-13


def test_gradient_strategy_converges(cfg1, uniform1):
    s = lr.make_training_sample(uniform1, 64, seed=4)
    res = lr.minimax_fit(cfg1, uniform1, s, strategy="alternating_gradient",
                         max_iter=500)
    assert res.converged and res.strategy == "alternating_gradient"
    assert res.js_to_target < 1e-4
    disc = hyp.make_discriminator(cfg1, *res.inner_pair)
    gen = hyp.make_generator(cfg1, res.best_generator)
    assert abs(lr.empirical_loss(disc, gen, s) - res.achieved_value) < 1e-12


def test_gradient_nonconvergence_flagged(cfg1, uniform1):
    s = lr.make_training_sample(uniform1, 64, seed=4)
    soft = lr.minimax_fit(cfg1, uniform1, s, strategy="alternating_gradient",
                          max_iter=2)
    assert not soft.converged                 # flagged, still returned
    with pytest.raises(NonConvergence) as exc:
        lr.minimax_fit(cfg1, uniform1, s, strategy="alternating_gradient",
                       max_iter=2, raise_on_nonconvergence=True)
    assert exc.value.result.converged is False


def test_minimax_unknown_strategy(cfg1, uniform1):
    s = lr.make_training_sample(uniform1, 8, seed=1)
    with pytest.raises(ConfigInvalid):
        lr.minimax_fit(cfg1, uniform1, s, strategy="newton")


def test_minimax_net_strategy_needs_net(cfg1, uniform1):
    s = lr.make_training_sample(uniform1, 8, seed=1)
    with pytest.raises(ConfigInvalid):
        lr.minimax_fit(cfg1, uniform1, s)


# ---------------------------------------------------------------------------
# sampling error


def test_sampling_error_single_trial_bitwise(cfg1, uniform1, net):
    a = lr.estimate_sampling_error(cfg1, uniform1, net, 200, 1, seed=5)
    b = lr.estimate_sampling_error(cfg1, uniform1, net, 200, 1, seed=5)
    assert a == b
    assert a.trials == 1 and a.std == 0.0 and a.mean == a.values[0]


def test_sampling_error_decreases_over_decade(cfg1, uniform1, net):
    lo = lr.estimate_sampling_error(cfg1, uniform1, net, 100, 12, seed=5)
    hi = lr.estimate_sampling_error(cfg1, uniform1, net, 10**4, 12, seed=5)
    assert hi.mean < lo.mean
    assert lo.q05 <= lo.q50 <= lo.q95
    assert all(v >= 0.0 for v in lo.values)


def test_worker_count_bounded(monkeypatch):
    # the count handed to the process pool; no pool is started here
    monkeypatch.setattr(lr.os, "cpu_count", lambda: 4)
    assert lr._worker_count(1000, 12) == 4
    assert lr._worker_count(2, 12) == 2
    assert lr._worker_count(8, 3) == 3
    monkeypatch.setattr(lr.os, "cpu_count", lambda: None)
    assert lr._worker_count(8, 3) == 1


def test_trials_fit_the_stream_key(cfg1, uniform1, net):
    # trial t keys its streams kind + (t << 8), which must stay below 2**64
    last = stream_id(KIND_NOISE, 2**56 - 1)
    assert last < 2**64 and uniforms(0, last, 0, 1, 1).shape == (1, 1)
    with pytest.raises(ValueError):
        stream_id(KIND_NOISE, 2**56)
    # rejected before any task is built or any pool is started
    with pytest.raises(ConfigInvalid, match=r"2\*\*56"):
        lr.sampling_error_values(cfg1, uniform1, net, 16, 2**56 + 1, seed=0)


def test_sampling_error_thread_count_invariant(cfg1, uniform1, net):
    one = lr.sampling_error_values(cfg1, uniform1, net, 100, 12, seed=5)
    two = lr.sampling_error_values(cfg1, uniform1, net, 100, 12, seed=5,
                                   threads=2)
    assert np.array_equal(one, two)


# ---------------------------------------------------------------------------
# rate experiment


def test_rate_singleton_grid(cfg1, uniform1, net):
    rep = lr.rate_experiment(cfg1, uniform1, [256], 6, seed=3,
                             net=hyp.build_eps_net(cfg1, 0.1))
    assert not rep.slope_defined and math.isnan(rep.slope)
    assert "single n: slope undefined" in rep.warnings
    summ = lr.estimate_sampling_error(cfg1, uniform1, net, 256, 6, seed=3)
    r = rep.rows[0]
    assert (r.mean, r.std, r.q05, r.q50, r.q95) == \
        (summ.mean, summ.std, summ.q05, summ.q50, summ.q95)
    assert r.exceed_frac == 0.0 and r.thm54_threshold > r.mean


def test_rate_irregular_config_warns():
    icfg = hyp.make_config(2, k=1, K=3.0)
    assert not icfg.regular
    u2 = make_density("uniform", 2, 65)
    rep = lr.rate_experiment(icfg, u2, [64, 128], 2, seed=3,
                             net=hyp.build_eps_net(icfg, 0.3))
    assert any("regularity" in w for w in rep.warnings)
    assert math.isnan(rep.full_C)
    assert math.isnan(rep.rows[0].thm54_threshold)
    assert math.isnan(rep.rows[0].bound_C_over_sqrt_n)


def test_rate_csv_shape(cfg1, uniform1):
    rep = lr.rate_experiment(cfg1, uniform1, [128, 256], 3, seed=3,
                             net=hyp.build_eps_net(cfg1, 0.25))
    # the singleton net hits the loss exactly, so the log fit is suppressed
    assert not rep.slope_defined
    assert any("zero mean" in w for w in rep.warnings)
    csv = lr.rate_report_csv(rep)
    lines = csv.splitlines()
    assert lines[0] == ("n,trials,mean,std,q05,q50,q95,"
                        "bound_C_over_sqrt_n,thm54_threshold,exceed_frac")
    assert len(lines) == 3
    cells = lines[1].split(",")
    assert int(cells[0]) == 128 and int(cells[1]) == 3
    assert float(cells[2]) == rep.rows[0].mean     # repr round-trips


def test_rate_rejects_bad_grid(cfg1, uniform1, net):
    with pytest.raises(ConfigInvalid):
        lr.rate_experiment(cfg1, uniform1, [], 3, seed=1, net=net)
    with pytest.raises(ConfigInvalid):
        lr.rate_experiment(cfg1, uniform1, [0, 64], 3, seed=1, net=net)
