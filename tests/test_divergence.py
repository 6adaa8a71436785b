"""Divergences, ratio discriminators, and the adversarial loss identity.

Every density entering a divergence is renormalized by its own quadrature
mass on the shared evaluation grid, which makes the algebraic identities
(JS identity, discriminator optimality) hold to rounding error
instead of to quadrature error.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigan import density as dn
from trigan import divergence as dv
from trigan import hypothesis as hyp
from trigan import learning as lr
from trigan import rosenblatt as rb
from trigan.errors import ConfigInvalid, NonPositiveDensity

import oracles
from box_params import random_box_params, unstack
from pair_loop_cube import pair_losses as pair_loop_losses

# mpmath oracle, 30 digits, frozen
JS_UNIFORM_TILTED = 0.0047229733448595749
LOSS_UNIFORM_TILTED = -0.68842420721508571


def test_js_against_oracle(uniform1, tilted):
    assert dv.js_divergence(uniform1, tilted) == pytest.approx(JS_UNIFORM_TILTED, abs=1e-9)


def test_js_symmetric(uniform1, tilted):
    a = dv.js_divergence(uniform1, tilted)
    b = dv.js_divergence(tilted, uniform1)
    assert a == pytest.approx(b, abs=1e-14)


def test_self_divergence_zero(coupled):
    assert dv.js_divergence(coupled, coupled) == 0.0


def test_kl_nonnegative_on_family_pairs(tilted, uniform1, coupled, product2):
    pairs = [(uniform1, tilted), (tilted, uniform1), (coupled, product2),
             (product2, coupled)]
    for f, g in pairs:
        assert dv.js_divergence(f, g) >= 0.0


def test_js_bounded_by_log2(tilted, uniform1):
    assert dv.js_divergence(uniform1, tilted) <= math.log(2.0)


def test_optimal_discriminator_values(uniform1, tilted):
    disc = oracles.optimal_discriminator(uniform1, tilted)
    # frozen: D(0) = 1/(1 + 2/3) for uniform vs tilted
    val = disc(np.array([[0.0]]))
    assert val[0] == pytest.approx(0.6, abs=1e-9)


def test_optimal_discriminator_evaluates_each_density_once(monkeypatch, uniform1, tilted):
    calls = []
    evaluate = dn.GridDensity.evaluate

    def counted(self, x):
        calls.append(len(x))
        return evaluate(self, x)

    monkeypatch.setattr(dn.GridDensity, "evaluate", counted)
    disc = oracles.optimal_discriminator(uniform1, tilted)
    assert len(calls) == 2
    # the masses are the grid quadratures of that one evaluation
    pts, w = dv.eval_grid(1)
    mass_f = np.sum(w * evaluate(uniform1, pts))
    mass_g = np.sum(w * evaluate(tilted, pts))
    x = np.linspace(0.0, 1.0, 17)[:, None]
    fv, gv = evaluate(uniform1, x) / mass_f, evaluate(tilted, x) / mass_g
    assert np.array_equal(disc(x), fv / (fv + gv))


def test_loss_identity_with_js(uniform1, tilted):
    disc = oracles.optimal_discriminator(uniform1, tilted)
    loss = oracles.theoretical_loss(uniform1, tilted, disc)
    assert loss == pytest.approx(LOSS_UNIFORM_TILTED, abs=1e-9)
    js = dv.js_divergence(uniform1, tilted)
    assert abs(js - (loss + math.log(2.0))) < 1e-12


def test_loss_identity_for_pushforward(coupled, rng):
    gen = rb.build_rosenblatt(coupled).inverse()
    push = rb.PushforwardDensity(gen)
    disc = oracles.optimal_discriminator(coupled, push)
    loss = oracles.theoretical_loss(coupled, push, disc)
    js = dv.js_divergence(coupled, push)
    assert abs(js - (loss + math.log(2.0))) < 1e-12
    # pushforward reproduces the target, so both sides are ~0 and -log 2
    assert js < 1e-12
    assert loss == pytest.approx(-math.log(2.0), abs=1e-12)


def test_optimal_discriminator_dominates(uniform1, tilted, rng):
    # any measurable perturbation of D_phi can only lower the loss
    disc = oracles.optimal_discriminator(uniform1, tilted)
    base = oracles.theoretical_loss(uniform1, tilted, disc)
    for amp in (1e-4, 1e-3, 1e-2, 0.1):
        shift = amp * np.sin(7.0 * math.pi * rng.random())

        def bent(points, d0=disc, s=shift):
            raw = d0(points) + s * np.sin(math.pi * points[:, 0])
            return np.clip(raw, 1e-9, 1.0 - 1e-9)

        worse = oracles.theoretical_loss(uniform1, tilted, bent)
        assert worse <= base + 1e-15


@settings(max_examples=24)
@given(dim_degree=st.sampled_from([(1, 2), (2, 2), (3, 2), (1, 3), (1, 4)]),
       coupling=st.sampled_from([0, 1]), members=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_js_identities_on_box_members_property(dim_degree, coupling, members, seed):
    """On random box members, JS = L(D_opt) + log 2, and with member a as the
    target every map's inner maximum over the ratio class is JS - log 2: the
    optimal discriminator f_a / (f_a + f_g) is the class member D_ag."""
    dim, degree = dim_degree
    cfg = hyp.make_config(dim, K=3.0, degree=degree, coupling_degree=coupling)
    maps, _ = hyp.distinct_maps(cfg, random_box_params(cfg, members, seed=seed))
    dens = [rb.PushforwardDensity(gen) for gen in unstack(maps)]
    target = dens[seed % len(dens)]
    inner = lr.pair_loss_matrix(target, maps).max(axis=(1, 2))
    for f_g, top in zip(dens, inner):
        js = dv.js_divergence(target, f_g)
        loss = oracles.theoretical_loss(target, f_g, oracles.optimal_discriminator(target, f_g))
        assert abs(js - (loss + math.log(2.0))) < 1e-12
        assert abs(top - (js - math.log(2.0))) < 1e-12


def test_loss_rejects_out_of_range(uniform1, tilted):
    with pytest.raises(oracles.DiscriminatorOutOfRange):
        oracles.theoretical_loss(uniform1, tilted, lambda p: np.full(p.shape[0], 1.5))


def test_dim_mismatch_rejected(uniform1, coupled):
    with pytest.raises(ConfigInvalid):
        dv.js_divergence(uniform1, coupled)


def test_eval_grid_weights_sum_to_one():
    for d in (1, 2):
        pts, w = dv.eval_grid(d)
        assert pts.shape[1] == d
        assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-13)
    pts3, w3 = dv.eval_grid(3)
    assert pts3.shape == (33**3, 3)


def _random_pair_inputs(gen, h, count, n, shared):
    """pair_losses' f and w over h maps and count generators, and the
    two-sided pair loop's (fy, wy, fx, wx) of the same data: the last row
    group is the real side. Shared points are read by both sides (fy is
    fx), the only shared layout a cube is built from."""
    if shared:
        f, w = gen.uniform(0.2, 3.0, (h, n)), gen.random((count + 1, n))
        return f, w, (f, w[-1], f, w[:-1])
    f = gen.uniform(0.2, 3.0, (h, count + 1, n))
    return f, None, (f[:, -1], 1.0, f[:, :-1], 1.0)


@pytest.mark.parametrize("shared", [False, True])
def test_pair_losses_match_ratio_formula(shared):
    """The log-domain cube is loss_terms at D_ab = f_a / (f_a + f_b), to
    rounding, and exactly log(1/2), the loss of the constant 1/2, on the
    diagonal."""
    gen = np.random.default_rng(71)
    h, count, n = 4, 3, 257
    f, w, (fy, wy, fx, wx) = _random_pair_inputs(gen, h, count, n, shared)
    cube = dv.pair_losses(0.25, f, w)
    assert cube.shape == (count, h, h)
    for a in range(h):
        for b in range(h):
            direct = oracles.loss_terms(0.25, wy, fy[a] / (fy[a] + fy[b]),
                                        wx, fx[a] / (fx[a] + fx[b]))
            if a == b:
                assert np.all(cube[:, a, b] == math.log(0.5))
            else:
                assert np.allclose(cube[:, a, b], direct, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("shared", [False, True])
def test_pair_losses_prefix_cubes_are_truncated_cubes(shared):
    """Cube p over prefix ends[p] is bitwise the cube of the truncated
    inputs, for unsorted, repeated and past-buffer (> 8192) ends."""
    gen = np.random.default_rng(73)
    f, w, _ = _random_pair_inputs(gen, 4, 3, 9001, shared)
    ends = [9001, 17, 8193, 17]
    cubes = dv.pair_losses([0.5 / m for m in ends], f, w, ends)
    assert cubes.shape == (4, 3, 4, 4)
    for cube, m in zip(cubes, ends):
        assert np.array_equal(cube, dv.pair_losses(0.5 / m, f[..., :m],
                                                   None if w is None else w[:, :m]))


@pytest.mark.parametrize("prefixes", [False, True])
@pytest.mark.parametrize("per_block", [1, 2, "h-1"])
@pytest.mark.parametrize("h", [2, 5, 6])
@pytest.mark.parametrize("shared", [False, True])
def test_blocked_pair_losses_match_pair_loop(monkeypatch, shared, h, per_block, prefixes):
    """The blocked one-sided kernel is the two-sided one-pair-at-a-time loop
    bit for bit, with blocks of 1, 2 and h - 1 partners (h = 5 and 6 leave a
    short last block), on both layouts, with and without prefix ends past
    numpy's 8192-float reduction buffer."""
    gen = np.random.default_rng(74 + h)
    count, n = 3, 9001
    f, w, two_sided = _random_pair_inputs(gen, h, count, n, shared)
    # scratch floats per partner: its row groups' log rows (own points), or
    # its log row, then that row under each weight row (shared points)
    width = (count + 2) * n if shared else (count + 1) * n
    monkeypatch.setattr(dv, "_SCRATCH_FLOATS", (h - 1 if per_block == "h-1" else per_block) * width)
    ends = [9001, 17, 8193, 17] if prefixes else None
    scale = [0.5 / m for m in ends] if prefixes else 0.25
    assert np.array_equal(dv.pair_losses(scale, f, w, ends),
                          pair_loop_losses(scale, *two_sided, ends))


def test_pair_losses_allocate_output_plus_budget():
    """On a rate1d trial's shapes (7 maps, 4096 samples, 4 prefixes) one call
    allocates at most its output, the scratch budget and one numpy iterator
    buffer; a log of the whole (h, h + 1, n) input at once would be 1.8 MB more."""
    gen = np.random.default_rng(75)
    f, w, _ = _random_pair_inputs(gen, 7, 7, 4096, False)
    ends = [64, 256, 1024, 4096]
    scale = [0.5 / m for m in ends]
    dv.pair_losses(scale, f, w, ends)
    tracemalloc.start()
    try:
        out = dv.pair_losses(scale, f, w, ends)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 8 * (dv._SCRATCH_FLOATS + np.getbufsize())


@pytest.mark.parametrize("bad", [0.0, np.nan, -1.0, np.inf])
@pytest.mark.parametrize("side", ["real", "fake"])
@pytest.mark.parametrize("shared", [False, True])
def test_pair_losses_reject_bad_density(bad, side, shared):
    """A bad density is refused on either side: in the real points' row group
    or a generator's (own points), or at a shared point that only the
    target's weight row or only the generators' rows weight (shared points)."""
    gen = np.random.default_rng(72)
    f, w, _ = _random_pair_inputs(gen, 3, 2, 9, shared)
    if shared:
        f[1, 4] = bad
        w[:-1 if side == "real" else -1, 4] = 0.0
    else:
        f[1, -1 if side == "real" else 0, 4] = bad
    # with prefix ends, the bad point lies past the first end only
    for scale, ends in ((0.5, None), ([0.5, 0.25, 0.5], [3, 9, 3])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonPositiveDensity):
                dv.pair_losses(scale, f, w, ends)
