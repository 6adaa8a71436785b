"""Triangular transport maps built from grid densities."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from box_params import random_box_params
from row_cdf import conditional_cdf
from trigan import density as dn
from trigan import divergence as dv
from trigan import rosenblatt as rb
from trigan.errors import ConfigInvalid, DegenerateJacobian, NonPositiveDensity
from trigan.rng import KIND_NOISE, stream_id
from trigan import hypothesis as hyp


def test_forward_component_is_cdf(tilted):
    # psi_1 is the CDF (2t + t^2)/3 of the tilted density; 0.5 is a knot
    psi = rb.build_rosenblatt(tilted)
    assert psi.components_direct
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
        assert np.abs(psi.inverse().apply(u) - pts).max() < 1e-10
        v = psi.inverse().apply(pts)
        assert np.abs(psi.apply(v) - pts).max() < 1e-10


def test_jacobian_matches_density(tilted, coupled, rough3, rng):
    # telescoping product of conditional densities recovers the interpolant
    for f in (tilted, coupled, rough3):
        psi = rb.build_rosenblatt(f)
        pts = rng.random((300, f.dim))
        jac = rb.PushforwardDensity(psi.inverse()).evaluate(pts)
        assert np.abs(jac - f.evaluate(pts)).max() < 1e-10


def test_pushforward_reproduces_density(coupled, rng):
    gen = rb.build_rosenblatt(coupled).inverse()
    push = rb.PushforwardDensity(gen)
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
    assert not phi.components_direct
    pts = np.linspace(0.05, 0.95, 7).reshape(-1, 1)
    assert np.allclose(phi.apply(psi.apply(pts)), pts, atol=1e-10)
    assert phi.inverse().components_direct


def test_sampling_deterministic(tilted):
    gen = rb.build_rosenblatt(tilted).inverse()
    a = rb.sample(gen, 257, seed=11)
    b = rb.sample(gen, 257, seed=11)
    assert np.array_equal(a, b)
    c = rb.sample(gen, 257, seed=12)
    assert not np.array_equal(a, c)
    d = rb.sample(gen, 257, seed=11, stream=stream_id(KIND_NOISE, 1))
    assert not np.array_equal(a, d)
    assert a.min() >= 0.0 and a.max() <= 1.0


def test_sampling_prefix_stable(tilted):
    # first k points do not depend on n: counter-based indexing
    gen = rb.build_rosenblatt(tilted).inverse()
    small = rb.sample(gen, 50, seed=5)
    big = rb.sample(gen, 200, seed=5)
    assert np.array_equal(big[:50], small)


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
    params = random_box_params(cfg2, 1, seed=5)[0]
    quad = hyp.make_generator(cfg2, params).components[1]
    assert isinstance(quad, hyp._QuadBernstein)
    gen = np.random.default_rng(41)
    prefix = gen.random((2000, 1))
    target = np.concatenate([[0.0, 1.0], gen.random(1998)])
    for comp in (table, quad):
        assert np.array_equal(rb._solve_monotone(comp, prefix, target),
                              comp.inverse_exact(prefix, target))


def _reference_transport(tri, pts, direct):
    """apply (direct) or invert by the definition: whole arrays at once and
    the allocating forms of the component kernels."""
    out = np.empty_like(pts)
    for j, comp in enumerate(tri.components):
        out[:, j] = (comp.value(pts[:, :j], pts[:, j]) if direct else
                     rb._solve_monotone(comp, out[:, :j], np.clip(pts[:, j], 0.0, 1.0)))
    return out


def _reference_density(gen, pts):
    """A generator's pushforward density by the definition: the Jacobian of
    its inverse, as a product started from ones over whole arrays. A
    component with a closed-form partial at the root (root_partial) reads
    it off the clipped target; the rest read the partial at the preimage."""
    direct = gen.components_direct
    at = _reference_transport(gen, pts, False) if direct else pts
    jac = np.ones(len(pts))
    for j, comp in enumerate(gen.components):
        if direct and hasattr(comp, "root_partial"):
            jac = jac * comp.root_partial(at[:, :j], np.clip(pts[:, j], 0.0, 1.0))
        else:
            jac = jac * comp.partial(at[:, :j], at[:, j])
    return 1.0 / jac if direct else jac


def _generators(family, dim: int, count: int, seed: int) -> tuple:
    """count generators of a family, as (stack, singles): "table" maps of
    random grid densities, which stack nothing (stack is the first one),
    or Bernstein members (degree, coupling_degree) drawn from the box, as
    one stacked map and each member alone."""
    gen = np.random.default_rng(seed)
    if family == "table":
        m = int(gen.integers(3, 10))
        grids = [dn.GridDensity(dim, m, 0.2 + gen.random((m,) * dim)) for _ in range(count)]
        maps = [rb.build_rosenblatt(dn.normalize(g)).inverse() for g in grids]
        return maps[0], maps
    degree, coupling = family
    cfg = hyp.make_config(dim, K=3.0, degree=degree, coupling_degree=coupling)
    vectors = random_box_params(cfg, count, seed=seed)
    return hyp.make_generator(cfg, vectors), [hyp.make_generator(cfg, v) for v in vectors]


# every family in every dimension, on both sides of each block boundary;
# bisection makes degree 3 slow, so it crosses a boundary in 1D only
@pytest.mark.parametrize("family,dim,n", [
    ("table", 1, 16383), ("table", 2, 16384), ("table", 3, 16385),
    ((2, 0), 1, 32769), ((2, 0), 2, 16385), ((2, 0), 3, 1),
    ((2, 1), 1, 1), ((2, 1), 2, 32769), ((2, 1), 3, 16384),
    ((3, 0), 1, 16385), ((3, 0), 2, 1), ((3, 0), 3, 1),
    ((3, 1), 1, 16383), ((3, 1), 2, 1), ((3, 1), 3, 1),
])
@settings(max_examples=3)
@given(count=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_batched_kernels_match_reference(family, dim, n, count, seed):
    """A batch equals its batch of one, bitwise: each row of a stack of
    count box members, applied and pushed forward (direct and inverse,
    across the stack's blocks of _CHUNK // count points and into
    caller-owned arrays), is the member's own result and the whole-array
    reference. A table map stacks nothing and matches the references."""
    assert rb._CHUNK == 16384
    stack, singles = _generators(family, dim, 1 if family == "table" else count, seed)
    pts = np.random.default_rng(seed).random((n, dim))
    pts[-1], pts[0] = 1.0, 0.0
    for tri, ones in ((stack, singles), (stack.inverse(), [m.inverse() for m in singles])):
        buf = np.full(tri.lead + pts.shape, np.nan)
        assert tri.apply(pts, out=buf) is buf
        dens = rb.PushforwardDensity(tri).evaluate(pts)
        assert dens.shape == tri.lead + (n,)
        for g, one in enumerate(ones):
            row = (g,) if tri.lead else ()
            assert np.array_equal(buf[row], one.apply(pts))
            assert np.array_equal(buf[row], _reference_transport(one, pts, one.components_direct))
            assert np.array_equal(dens[row], rb.PushforwardDensity(one).evaluate(pts))
            assert np.array_equal(dens[row], _reference_density(one, pts))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("kernel", ["table-apply", "table-inverse-apply", "table-density",
                                    "bernstein-apply", "bernstein-density", "densities"])
def test_kernels_refuse_nonfinite_points(coupled, cfg2, kernel, axis, bad):
    # a NaN in the first coordinate used to raise IndexError from the corner
    # index cast, and one in the last to come back as a NaN value
    table = rb.build_rosenblatt(coupled)
    bern = hyp.make_generator(cfg2, np.zeros(cfg2.n_params))
    stack = hyp.make_generator(cfg2, random_box_params(cfg2, 3, seed=1))
    run = {"table-apply": table.apply, "table-inverse-apply": table.inverse().apply,
           "table-density": rb.PushforwardDensity(table).evaluate,
           "bernstein-apply": bern.apply,
           "bernstein-density": rb.PushforwardDensity(bern).evaluate,
           "densities": rb.PushforwardDensity(stack).evaluate}[kernel]
    pts = np.full((5, 2), 0.5)
    pts[3, axis] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigInvalid, match="finite"):
            run(pts)


def _count_solves(monkeypatch) -> list:
    """Record the component of every preimage solve: every _solve_monotone
    call, every inverse_exact call of a table or degree-2 component, and
    every root_partial call that writes the root; and of every discriminant
    a degree-2 component takes (_root_disc)."""
    calls = []
    solve = rb._solve_monotone
    monkeypatch.setattr(rb, "_solve_monotone",
                        lambda comp, *a, **k: calls.append(("solve", comp)) or solve(comp, *a, **k))
    for cls in (rb.TableComponent, hyp._QuadBernstein):
        exact = cls.inverse_exact
        monkeypatch.setattr(cls, "inverse_exact", lambda self, *a, _f=exact, **k:
                            calls.append(("exact", self)) or _f(self, *a, **k))
    disc, partial = hyp._QuadBernstein._root_disc, hyp._QuadBernstein.root_partial

    def root_partial(self, *args, root=None, **kwargs):
        if root is not None:
            calls.append(("root", self))
        return partial(self, *args, root=root, **kwargs)

    monkeypatch.setattr(hyp._QuadBernstein, "_root_disc", lambda self, *a, **k:
                        calls.append(("disc", self)) or disc(self, *a, **k))
    monkeypatch.setattr(hyp._QuadBernstein, "root_partial", root_partial)
    return calls


# solves per block: a coordinate is solved when a later component reads it
# (a Bernstein component its coupling columns, a table component every
# earlier coordinate) or when its own component has no closed-form partial
@pytest.mark.parametrize("family,dim,per_block", [
    ((2, 0), 1, 0), ((2, 0), 2, 0), ((2, 0), 3, 0), ((2, 1), 1, 0),
    ((2, 1), 2, 1), ((2, 1), 3, 2), ((3, 0), 2, 2), ((3, 1), 2, 2),
    ("table", 1, 1), ("table", 2, 2), ("table", 3, 3),
])
def test_density_solves_only_read_coordinates(monkeypatch, family, dim, per_block):
    # two stacked members, or the forward table map, whose density reads
    # its partials at the preimage
    stack, _ = _generators(family, dim, 2, dim)
    tri = stack.inverse() if family == "table" else stack
    n = 3 if family in ((3, 0), (3, 1)) else rb._CHUNK + 1
    pts = np.random.default_rng(dim).random((n, dim))
    want = rb.PushforwardDensity(tri).evaluate(pts)
    calls = _count_solves(monkeypatch)
    assert np.array_equal(rb.PushforwardDensity(tri).evaluate(pts), want)
    blocks = -(-n // rb._block(tri.lead))
    solves = [c for kind, c in calls if kind in ("solve", "root")]
    assert len(solves) == per_block * blocks
    if family == "table" or family[0] == 2:
        # every solve is the closed form, once per solved coordinate
        assert solves == [comp for _ in range(blocks)
                          for comp in tri.components[:per_block]]
    if family == "table":
        assert [c for kind, c in calls if kind == "exact"] == solves
    elif family[0] == 2:
        # one discriminant per component per block gives the partial and,
        # when a later component reads it, the preimage coordinate
        assert [c for kind, c in calls if kind == "disc"] == [
            comp for _ in range(blocks) for comp in tri.components]
        assert not [c for kind, c in calls if kind in ("solve", "exact")]


def _thin_quad(reads: int):
    # base weights (1e-13, 1 - 1e-13): the partial at the root of psi(t) = x
    # is 2 sqrt(1e-26 + a x), below the floor only at x = 0
    return hyp._QuadBernstein(degree=2, theta=np.array([1e-13 - 0.5, 0.5 - 1e-13]),
                              coupling=np.zeros((2, reads)))


def test_degenerate_partial_raises_in_batch():
    # the identity member stacked with the thin one, whose partial fails at
    # the last point, in the last block
    thin = _thin_quad(0)
    bad = rb.TriangularMap(components=(thin,))
    stack = rb.TriangularMap(components=(hyp._QuadBernstein(
        degree=2, theta=np.stack([np.zeros(2), thin.theta]), coupling=np.zeros((2, 2, 0))),))
    pts = np.full((rb._CHUNK + 1, 1), 0.5)
    assert np.all(np.isfinite(rb.PushforwardDensity(stack).evaluate(pts)))
    pts[-1] = 0.0
    with pytest.raises(DegenerateJacobian):
        rb.PushforwardDensity(stack).evaluate(pts)
    with pytest.raises(DegenerateJacobian):
        rb.PushforwardDensity(bad).evaluate(pts)


@pytest.mark.parametrize("dim", [1, 2])
def test_degenerate_root_partial_raises(monkeypatch, cfg2, dim):
    # through the closed path alone: no partial at a solved preimage is taken
    lead = hyp.make_generator(cfg2, np.zeros(cfg2.n_params)).components[:dim - 1]
    bad = rb.TriangularMap(components=(*lead, _thin_quad(dim - 1)))

    def no_partial(*args, **kwargs):
        raise AssertionError("partial at a solved preimage")
    monkeypatch.setattr(hyp._QuadBernstein, "partial", no_partial)
    pts = np.full((rb._CHUNK + 1, dim), 0.5)
    assert np.all(np.isfinite(rb.PushforwardDensity(bad).evaluate(pts)))
    pts[-1, -1] = 0.0
    with pytest.raises(DegenerateJacobian):
        rb.PushforwardDensity(bad).evaluate(pts)


@given(dim=st.integers(1, 3), coupling=st.sampled_from([0, 1]),
       seed=st.integers(0, 2**32 - 1))
def test_quad_density_matches_definition_property(dim, coupling, seed):
    # the closed-form partials against 1 / prod partial(solved preimage), at
    # random box members and at points with coordinates 0 and 1
    cfg = hyp.make_config(dim, K=3.0, degree=2, coupling_degree=coupling)
    phi = hyp.make_generator(cfg, random_box_params(cfg, 1, seed=seed)[0])
    gen = np.random.default_rng(seed)
    pts = gen.random((64, dim))
    pts[:16] = gen.integers(0, 2, (16, dim))
    pts[16:32, gen.integers(dim)] = gen.integers(0, 2, 16)
    pre = phi.inverse().apply(pts)
    jac = np.ones(len(pts))
    for j, comp in enumerate(phi.components):
        jac *= comp.partial(pre[:, :j], pre[:, j])
    assert np.abs(rb.PushforwardDensity(phi).evaluate(pts) * jac - 1.0).max() <= 1e-14


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
    assert np.abs(psi.inverse().apply(psi.apply(pts)) - pts).max() < 1e-10
    assert np.abs(psi.apply(psi.inverse().apply(pts)) - pts).max() < 1e-10
    jac = rb.PushforwardDensity(psi.inverse()).evaluate(pts)
    assert np.abs(jac - dens.evaluate(pts)).max() < 1e-10


@given(dim=st.integers(1, 3), degree=st.sampled_from([2, 3]),
       coupling=st.sampled_from([0, 1]), seed=st.integers(0, 2**32 - 1))
def test_bernstein_roundtrip_and_telescoping_property(dim, degree, coupling, seed):
    # a random member of the certified box: apply and invert are inverses,
    # the diagonal partials are the derivatives of the components, and their
    # product telescopes against the pushforward density at the image
    cfg = hyp.make_config(dim, K=3.0, degree=degree, coupling_degree=coupling)
    phi = hyp.make_generator(cfg, random_box_params(cfg, 1, seed=seed)[0])
    z = 0.05 + 0.9 * np.random.default_rng(seed).random((16, dim))
    x = phi.apply(z)
    assert np.abs(phi.inverse().apply(x) - z).max() < 1e-10
    assert np.abs(phi.apply(phi.inverse().apply(z)) - z).max() < 1e-10
    jac = rb.PushforwardDensity(phi.inverse()).evaluate(z)
    h = 1e-6
    fd = np.ones(len(z))
    for j in range(dim):
        step = np.zeros(dim)
        step[j] = h
        fd *= (phi.apply(z + step)[:, j] - phi.apply(z - step)[:, j]) / (2.0 * h)
    assert np.abs(jac / fd - 1.0).max() < 1e-6
    push = rb.PushforwardDensity(phi).evaluate(x)
    assert np.abs(push * jac - 1.0).max() < 1e-10


@given(dens=grid_densities(), seed=st.integers(0, 2**32 - 1))
def test_table_component_matches_row_cdf_property(dens, seed):
    _check_against_row_cdf(dens, np.random.default_rng(seed))


@pytest.mark.parametrize("m", [2, 3, 100, 129])
@pytest.mark.parametrize("rank", [1, 2, 3])
@settings(max_examples=5)
@given(seed=st.integers(0, 2**32 - 1))
def test_cell_search_matches_searchsorted_property(rank, m, seed):
    # the inverse's cell is the last k in [0, m-2] whose interpolated
    # cumulative is <= the target, bitwise; a run of zero density makes equal
    # cumulatives, where only the last one counts
    gen = np.random.default_rng(seed)
    table = gen.random((m,) * rank)
    run = np.sort(gen.integers(0, m, size=2))
    table[..., run[0]:run[1] + 1] = 0.0
    comp = rb.TableComponent(table, np.linspace(0.0, 1.0, m))
    prefix = gen.random((64, rank - 1))
    prefix[:8] = gen.integers(0, m, size=(8, rank - 1)) / (m - 1)   # on knots
    at, cum = comp._corner_rows(prefix), comp.cumulative.ravel()
    rows = np.stack([at(cum, k) for k in range(m)], axis=1)
    assert np.all(np.diff(rows, axis=1) >= 0.0)
    u = gen.random(64)
    u[:16], u[16:32] = 0.0, 1.0
    hits = rows[np.arange(64), gen.integers(0, m, size=64)]   # a knot's cumulative
    for target in (u * rows[:, -1], hits):
        want = [np.searchsorted(row, t, side="right") - 1 for row, t in zip(rows, target)]
        assert np.array_equal(comp._cell_below(at, target), np.clip(want, 0, m - 2))


def test_one_dim_point_convenience(tilted):
    psi = rb.build_rosenblatt(tilted)
    flat = psi.apply(np.array([0.25, 0.5]))
    assert flat.shape == (2, 1)


def test_table_map_serialization(tmp_path, coupled, rng):
    # a table map is stored as its density.json: the map rebuilt from the
    # file is the map of the density, bit for bit
    psi = rb.build_rosenblatt(coupled)
    path = str(tmp_path / "density.json")
    dn.save_density(coupled, path)
    back = rb.build_rosenblatt(dn.load_density(path))
    pts = rng.random((64, 2))
    assert np.array_equal(back.apply(pts), psi.apply(pts))
    assert np.array_equal(back.inverse().apply(pts), psi.inverse().apply(pts))


def _table_payload():
    # the density.json of a 2D table map on 3 knots: 9 values
    return {"dim": 2, "resolution": 3, "quad_rule": "trapezoid", "values": [1.0] * 9}


@pytest.mark.parametrize("patch,error", [
    ({"values": [1.0] * 8}, ConfigInvalid),
    ({"values": [1.0, 1.0, 1.0]}, ConfigInvalid),
    ({"values": [[1.0] * 3] * 3}, ConfigInvalid),
    ({"values": [1.0, True] + [1.0] * 7}, ConfigInvalid),
    ({"values": [1.0, 0.0] + [1.0] * 7}, NonPositiveDensity),
    ({"values": [1.0] * 8 + [-2.0]}, NonPositiveDensity),
    ({"values": [1.0, 1e400] + [1.0] * 7}, NonPositiveDensity),
    ({"values": [1.0, 10**400] + [1.0] * 7}, NonPositiveDensity),
    ({"dim": 1.5}, ConfigInvalid),
    ({"resolution": 1}, ConfigInvalid),
    ({"resolution": True}, ConfigInvalid),
    ({"values": None}, ConfigInvalid),
], ids=["short-rank2", "missing-table", "nested", "bool", "zero", "negative", "overflow",
        "int-overflow", "dim-float", "resolution-1", "resolution-bool", "tables-null"])
def test_table_map_payload_checked(patch, error):
    assert rb.build_rosenblatt(dn.density_from_dict(_table_payload())).dim == 2
    with pytest.raises(error):
        dn.density_from_dict({**_table_payload(), **patch})


@pytest.mark.parametrize("raw", [
    b'{"dim": 1, "resolution": 3, "quad_rule": "trapezoid", "values": [1.0, NaN, 1.0]}',
    b'{"dim": 1, "resolution": 3, "quad_rule": "\xff"}',
    b'{"dim": 1, "resolution": 3}',
    b'[]',
], ids=["nan", "not-utf8", "missing-fields", "not-object"])
def test_load_map_refuses_bad_json(tmp_path, raw):
    # a table map is loaded from its density.json
    path = tmp_path / "density.json"
    path.write_bytes(raw)
    with pytest.raises(ConfigInvalid):
        dn.load_density(str(path))


def test_bernstein_map_serialization(cfg1, rng):
    # a fitted map is stored as the run's hypothesis object and fit.json's
    # best_params: the map rebuilt from their JSON is the member, bit for bit
    params = random_box_params(cfg1, 1, seed=3)[0]
    gen = hyp.make_generator(cfg1, params)
    hypothesis = {"dim": 1, "k": 3, "alpha": 0.5, "K": 2.0,
                  "family": "bernstein_triangular", "degree": 2, "coupling_degree": 1}
    stored = json.loads(json.dumps({"hypothesis": hypothesis,
                                    "best_params": [float(v) for v in params]}))
    back = hyp.make_generator(hyp.config_from_dict(stored["hypothesis"]),
                              stored["best_params"])
    pts = rng.random((64, 1))
    assert np.array_equal(back.apply(pts), gen.apply(pts))
    assert back.components_direct == gen.components_direct
