"""Divergences, ratio discriminators, and the adversarial loss identity.

Every density entering a divergence is renormalized by its own quadrature
mass on the shared evaluation grid, which makes the algebraic identities
(KL >= 0, JS identity, discriminator optimality) hold to rounding error
instead of to quadrature error.
"""

import math

import numpy as np
import pytest

from trigan import divergence as dv
from trigan import rosenblatt as rb
from trigan.errors import ConfigInvalid, DiscriminatorOutOfRange

# mpmath oracle, 30 digits, frozen
KL_UNIFORM_TILTED = 0.019170746988273763
KL_TILTED_UNIFORM = 0.018731132638429307
JS_UNIFORM_TILTED = 0.0047229733448595749
LOSS_UNIFORM_TILTED = -0.68842420721508571


def test_kl_against_oracle(uniform1, tilted):
    assert dv.kl_divergence(uniform1, tilted) == pytest.approx(KL_UNIFORM_TILTED, abs=1e-9)
    assert dv.kl_divergence(tilted, uniform1) == pytest.approx(KL_TILTED_UNIFORM, abs=1e-9)


def test_js_against_oracle(uniform1, tilted):
    assert dv.js_divergence(uniform1, tilted) == pytest.approx(JS_UNIFORM_TILTED, abs=1e-9)


def test_js_symmetric(uniform1, tilted):
    a = dv.js_divergence(uniform1, tilted)
    b = dv.js_divergence(tilted, uniform1)
    assert a == pytest.approx(b, abs=1e-14)


def test_self_divergence_zero(tilted, coupled):
    assert dv.kl_divergence(tilted, tilted) == 0.0
    assert dv.js_divergence(coupled, coupled) == 0.0


def test_kl_nonnegative_on_family_pairs(tilted, uniform1, coupled, product2):
    pairs = [(uniform1, tilted), (tilted, uniform1), (coupled, product2),
             (product2, coupled)]
    for f, g in pairs:
        assert dv.kl_divergence(f, g) >= 0.0
        assert dv.js_divergence(f, g) >= 0.0


def test_js_bounded_by_log2(tilted, uniform1):
    assert dv.js_divergence(uniform1, tilted) <= math.log(2.0)


def test_optimal_discriminator_values(uniform1, tilted):
    disc = dv.optimal_discriminator(uniform1, tilted)
    # frozen: D(0) = 1/(1 + 2/3) for uniform vs tilted
    val = disc(np.array([[0.0]]))
    assert val[0] == pytest.approx(0.6, abs=1e-9)
    assert disc.lower > 0.0 and disc.upper < 1.0


def test_loss_identity_with_js(uniform1, tilted):
    disc = dv.optimal_discriminator(uniform1, tilted)
    loss = dv.theoretical_loss(uniform1, tilted, disc)
    assert loss == pytest.approx(LOSS_UNIFORM_TILTED, abs=1e-9)
    js = dv.js_divergence(uniform1, tilted)
    assert abs(js - (loss + math.log(2.0))) < 1e-12


def test_loss_identity_for_pushforward(coupled, rng):
    gen = rb.build_rosenblatt(coupled).inverse()
    push = rb.pushforward_density(gen)
    disc = dv.optimal_discriminator(coupled, push)
    loss = dv.theoretical_loss(coupled, push, disc)
    js = dv.js_divergence(coupled, push)
    assert abs(js - (loss + math.log(2.0))) < 1e-12
    # pushforward reproduces the target, so both sides are ~0 and -log 2
    assert js < 1e-12
    assert loss == pytest.approx(-math.log(2.0), abs=1e-12)


def test_optimal_discriminator_dominates(uniform1, tilted, rng):
    # any measurable perturbation of D_phi can only lower the loss
    disc = dv.optimal_discriminator(uniform1, tilted)
    base = dv.theoretical_loss(uniform1, tilted, disc)
    for amp in (1e-4, 1e-3, 1e-2, 0.1):
        shift = amp * np.sin(7.0 * math.pi * rng.random())

        def bent(points, d0=disc, s=shift):
            raw = d0(points) + s * np.sin(math.pi * points[:, 0])
            return np.clip(raw, 1e-9, 1.0 - 1e-9)

        worse = dv.theoretical_loss(
            uniform1, tilted,
            dv.DiscriminatorFn(evaluator=bent, lower=1e-9, upper=1.0 - 1e-9))
        assert worse <= base + 1e-15


def test_loss_rejects_out_of_range(uniform1, tilted):
    bad = dv.DiscriminatorFn(evaluator=lambda p: np.full(p.shape[0], 1.5),
                             lower=0.0, upper=2.0)
    with pytest.raises(DiscriminatorOutOfRange):
        dv.theoretical_loss(uniform1, tilted, bad)


def test_dim_mismatch_rejected(uniform1, coupled):
    with pytest.raises(ConfigInvalid):
        dv.kl_divergence(uniform1, coupled)


def test_eval_grid_weights_sum_to_one():
    for d in (1, 2):
        pts, w = dv.eval_grid(d)
        assert pts.shape[1] == d
        assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-13)
    pts3, w3 = dv.eval_grid(3)
    assert pts3.shape == (33**3, 3)
