"""Triangular transport maps built from grid densities."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from row_cdf import conditional_cdf
from trigan import density as dn
from trigan import divergence as dv
from trigan import rosenblatt as rb
from trigan.errors import ConfigInvalid
from trigan import hypothesis as hyp


def test_forward_component_is_cdf(tilted):
    # psi_1 is the CDF (2t + t^2)/3 of the tilted density; 0.5 is a knot
    psi = rb.build_rosenblatt(tilted)
    assert psi.direction == "forward"
    out = psi.apply(np.array([[0.0], [0.5], [1.0]]))
    assert out[0, 0] == 0.0
    assert out[2, 0] == pytest.approx(1.0, abs=1e-12)
    assert out[1, 0] == pytest.approx(0.4166666666666667, abs=1e-12)


def test_coupled_first_component_marginal_cdf(coupled):
    psi = rb.build_rosenblatt(coupled)
    out = psi.apply(np.array([[0.5, 0.25]]))
    # frozen: marginal CDF (y1 + 0.2 y1^2)/1.2 at 0.5
    assert out[0, 0] == pytest.approx(0.45833333333333337, abs=1e-12)


def test_monotone_in_each_coordinate(coupled):
    psi = rb.build_rosenblatt(coupled)
    t = np.linspace(0.0, 1.0, 33)
    line = np.stack([np.full_like(t, 0.3), t], axis=1)
    v = psi.apply(line)[:, 1]
    assert np.all(np.diff(v) > 0.0)


def test_roundtrip_both_directions(tilted, coupled, rough3, rng):
    for f in (tilted, coupled, rough3):
        psi = rb.build_rosenblatt(f)
        pts = rng.random((200, f.dim))
        u = psi.apply(pts)
        assert np.abs(psi.invert(u) - pts).max() < 1e-10
        v = psi.invert(pts)
        assert np.abs(psi.apply(v) - pts).max() < 1e-10


def test_jacobian_matches_density(tilted, coupled, rough3, rng):
    # telescoping product of conditional densities recovers the interpolant
    for f in (tilted, coupled, rough3):
        psi = rb.build_rosenblatt(f)
        pts = rng.random((300, f.dim))
        assert np.abs(psi.jacobian(pts) - f.evaluate(pts)).max() < 1e-10


def test_pushforward_reproduces_density(coupled, rng):
    gen = rb.build_rosenblatt(coupled).inverse()
    push = rb.pushforward_density(gen)
    pts = rng.random((100, 2))
    assert np.abs(push.evaluate(pts) - coupled.evaluate(pts)).max() < 1e-8
    # trapezoid quadrature integrates the multilinear interpolant exactly
    pts, _ = dv.eval_grid(2)
    w1 = dn.axis_weights(129, "trapezoid")
    mass = float(np.sum(np.multiply.outer(w1, w1).ravel() * push.evaluate(pts)))
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_inverse_flips_roles(tilted):
    psi = rb.build_rosenblatt(tilted)
    phi = psi.inverse()
    assert phi.direction == "inverse"
    pts = np.linspace(0.05, 0.95, 7).reshape(-1, 1)
    assert np.allclose(phi.apply(psi.apply(pts)), pts, atol=1e-10)
    assert phi.inverse().direction == "forward"


def test_sampling_deterministic(tilted):
    gen = rb.build_rosenblatt(tilted).inverse()
    a = rb.sample(gen, 257, seed=11)
    b = rb.sample(gen, 257, seed=11)
    assert np.array_equal(a, b)
    c = rb.sample(gen, 257, seed=12)
    assert not np.array_equal(a, c)
    d = rb.sample(gen, 257, seed=11, trial=1)
    assert not np.array_equal(a, d)
    assert a.min() >= 0.0 and a.max() <= 1.0


def test_sampling_prefix_stable(tilted):
    # first k points do not depend on n: counter-based indexing
    gen = rb.build_rosenblatt(tilted).inverse()
    small = rb.sample(gen, 50, seed=5)
    big = rb.sample(gen, 200, seed=5)
    assert np.array_equal(big[:50], small)


def test_sampling_requires_generator_role(tilted):
    psi = rb.build_rosenblatt(tilted)
    with pytest.raises(ConfigInvalid):
        rb.sample(psi, 10, seed=0)


def test_chunked_apply_matches_split(coupled, rng):
    # both the forward evaluation and the generator's inverse kernel
    psi = rb.build_rosenblatt(coupled)
    pts = rng.random((16384 + 37, 2))
    for tri in (psi, psi.inverse()):
        whole = tri.apply(pts)
        split = np.concatenate([tri.apply(pts[:9000]), tri.apply(pts[9000:])])
        assert np.array_equal(whole, split)


def _check_against_row_cdf(dens, gen):
    # reference: conditional_cdf interpolates a whole row, then sums it;
    # the rank-1 component (empty prefix) runs through the same kernel
    t = np.concatenate([[0.0, 1.0], gen.random(62)])
    comp = rb.build_rosenblatt(dens).components[-1]
    for context in gen.random((5 if dens.dim > 1 else 1, dens.dim - 1)):
        ref = conditional_cdf(dens, dens.dim, context)
        prefix = np.tile(context, (t.size, 1))
        assert np.abs(comp.value(prefix, t) - ref.value(t)).max() < 1e-13
        assert np.abs(comp.partial(prefix, t) - ref.derivative(t)).max() < 1e-12
        assert np.abs(comp.inverse_exact(prefix, t) - ref.inverse(t)).max() < 1e-13


def test_table_component_matches_row_cdf(tilted, coupled, rough3):
    gen = np.random.default_rng(47)
    bimodal = dn.make_density("bimodal-mollified", dim=1)
    for dens in (tilted, bimodal, coupled, rough3):
        _check_against_row_cdf(dens, gen)


def test_solve_monotone_returns_closed_form(coupled, cfg2):
    # a closed-form inverse is returned as is: no Newton polish follows it
    table = rb.build_rosenblatt(coupled).components[1]
    params = hyp.random_box_params(cfg2, 1, seed=5)[0]
    quad = hyp.make_generator(cfg2, params).components[1]
    assert isinstance(quad, hyp._QuadBernstein)
    gen = np.random.default_rng(41)
    prefix = gen.random((2000, 1))
    target = np.concatenate([[0.0, 1.0], gen.random(1998)])
    for comp in (table, quad):
        assert np.array_equal(rb._solve_monotone(comp, prefix, target),
                              comp.inverse_exact(prefix, target))


@st.composite
def grid_densities(draw):
    d = draw(st.integers(1, 3))
    m = draw(st.integers(3, 9))
    vals = draw(arrays(np.float64, (m,) * d, elements=st.floats(0.05, 20.0)))
    return dn.normalize(dn.GridDensity(d, m, vals))


@given(dens=grid_densities(), seed=st.integers(0, 2**32 - 1))
def test_roundtrip_and_telescoping_property(dens, seed):
    psi = rb.build_rosenblatt(dens)
    pts = np.random.default_rng(seed).random((64, dens.dim))
    assert np.abs(psi.invert(psi.apply(pts)) - pts).max() < 1e-10
    assert np.abs(psi.apply(psi.invert(pts)) - pts).max() < 1e-10
    jac = psi.jacobian(pts)
    assert np.abs(jac - dens.evaluate(pts)).max() < 1e-10
    # the generator's pushforward density is the same Jacobian, bit for bit
    assert np.array_equal(rb.pushforward_density(psi.inverse()).evaluate(pts), jac)


@given(dens=grid_densities(), seed=st.integers(0, 2**32 - 1))
def test_table_component_matches_row_cdf_property(dens, seed):
    _check_against_row_cdf(dens, np.random.default_rng(seed))


def test_one_dim_point_convenience(tilted):
    psi = rb.build_rosenblatt(tilted)
    flat = psi.apply(np.array([0.25, 0.5]))
    assert flat.shape == (2, 1)


def test_table_map_serialization(tmp_path, coupled, rng):
    psi = rb.build_rosenblatt(coupled)
    path = str(tmp_path / "map.json")
    rb.save_map(psi, path)
    back = rb.load_map(path)
    pts = rng.random((64, 2))
    assert np.array_equal(back.apply(pts), psi.apply(pts))
    assert "order" not in json.loads(open(path).read())


def test_table_map_legacy_order(coupled, rng):
    # older files carry the coordinate order; only the identity is a valid map
    payload = rb.map_to_dict(rb.build_rosenblatt(coupled))
    pts = rng.random((16, 2))
    back = rb.map_from_dict({**payload, "order": [0, 1]})
    assert np.array_equal(back.apply(pts), rb.map_from_dict(payload).apply(pts))
    with pytest.raises(ConfigInvalid, match="order"):
        rb.map_from_dict({**payload, "order": [1, 0]})


def test_bernstein_map_serialization(tmp_path, cfg1, rng):
    params = hyp.random_box_params(cfg1, 1, seed=3)[0]
    gen = hyp.make_generator(cfg1, params)
    path = str(tmp_path / "gen.json")
    rb.save_map(gen, path)
    back = rb.load_map(path)
    pts = rng.random((64, 1))
    assert np.array_equal(back.apply(pts), gen.apply(pts))
    assert back.direction == gen.direction


def test_invert_wrapper_checks_residual(tilted, rng):
    psi = rb.build_rosenblatt(tilted)
    pts = rng.random((40, 1))
    y = rb.invert(psi, psi.apply(pts))
    assert np.abs(y - pts).max() < 1e-10
