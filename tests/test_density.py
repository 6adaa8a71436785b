"""Grid densities: families, quadrature, marginals, conditionals, IO."""

import hashlib
import json
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigan import density as dn
from trigan.errors import ConfigInvalid, NonPositiveDensity
from trigan.rosenblatt import build_rosenblatt


def _mass(f):
    # the trapezoid integral over the cube, the mass normalize divides by
    w = dn.axis_weights(f.resolution, "trapezoid")
    return float(dn.prefix_marginal_tables(f)[0] @ w)


def test_default_resolution():
    assert dn.default_resolution(1) == 129
    assert dn.default_resolution(2) == 129
    assert dn.default_resolution(3) == 33


def test_uniform_mass_and_kappa():
    f = dn.make_density("uniform", dim=2)
    assert _mass(f) == pytest.approx(1.0, abs=1e-14)
    assert f.kappa == 1.0


def test_tilted_values_and_mass(tilted):
    # f(y) = (2/3)(1+y); trapezoid-normalized mass is exactly 1
    assert tilted.dim == 1
    assert float(tilted.evaluate(np.array([[0.0]]))[0]) == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert _mass(tilted) == pytest.approx(1.0, abs=1e-13)
    # half-box mass, the CDF's frozen closed form (2t + t^2)/3 at t = 0.5
    half = build_rosenblatt(tilted).apply([[0.5]])
    assert float(half[0, 0]) == pytest.approx(0.4166666666666667, abs=1e-12)


def test_product_factorizes(product2):
    pt = np.array([[0.25, 0.75]])
    one_d = (2.0 / 3.0) * (1.0 + 0.25) * (2.0 / 3.0) * (1.0 + 0.75)
    assert float(product2.evaluate(pt)[0]) == pytest.approx(one_d, rel=1e-10)


def test_coupled_corner_value(coupled):
    # (1 + a y1 y2)/(1 + a/4) with default a = 0.8
    assert float(coupled.evaluate(np.array([[0.0, 0.0]]))[0]) == pytest.approx(
        0.8333333333333334, rel=1e-12)


def test_coupled_rejects_bad_param():
    with pytest.raises(NonPositiveDensity):
        dn.make_density("coupled", params={"a": -1.5})
    with pytest.raises(ConfigInvalid):
        dn.make_density("coupled", params={"a": 0.5, "typo": 1})


def test_unknown_family():
    with pytest.raises(ConfigInvalid):
        dn.make_density("cauchy")


def test_bimodal_mollified_positive_and_smooth():
    f = dn.make_density("bimodal-mollified", dim=1)
    assert f.kappa > 0.0
    assert _mass(f) == pytest.approx(1.0, abs=1e-12)


def test_evaluate_multilinear_interpolation(tilted):
    # linear density is reproduced exactly between knots
    y = np.array([[0.123456], [0.77]])
    expect = (2.0 / 3.0) * (1.0 + y[:, 0])
    got = tilted.evaluate(y)
    assert np.allclose(got, expect, rtol=1e-12)


def test_evaluate_blocks_match_one_shot(coupled):
    # values across _EVAL_BLOCK boundaries are the unblocked interpolant's
    pts = np.random.default_rng(5).random((2 * dn._EVAL_BLOCK + 3, 2))
    one_shot = dn._corner_sum(*dn._corners(pts, coupled.resolution))(coupled.values.ravel(), 0)
    assert np.array_equal(coupled.evaluate(pts), one_shot)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("axis", [0, 1])
def test_evaluate_refuses_nonfinite_points(coupled, axis, bad):
    # a NaN coordinate used to reach the corner index cast: IndexError
    pts = np.full((5, 2), 0.5)
    pts[3, axis] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigInvalid, match="finite"):
            coupled.evaluate(pts)


def test_nonpositive_rejected():
    vals = np.ones((9, 9))
    vals[3, 4] = 0.0
    with pytest.raises(NonPositiveDensity):
        dn.GridDensity(2, 9, vals)


def test_resolution_floor():
    with pytest.raises(ConfigInvalid):
        dn.GridDensity(1, 1, np.ones(1))


def test_simpson_needs_odd_resolution():
    with pytest.raises(ConfigInvalid):
        dn.axis_weights(8, "simpson")
    w = dn.axis_weights(9, "simpson")
    assert w.sum() == pytest.approx(1.0, abs=1e-14)


def test_marginal_of_product_is_tilted(product2, tilted):
    # node values of the first marginal: its interpolant is tilted's
    marginal = dn.prefix_marginal_tables(product2)[0]
    assert np.allclose(marginal, tilted.values, atol=1e-10)


def test_conditional_cdf_monotone_and_endpoints(coupled):
    # the second map component is the CDF of y2 given y1
    cdf = build_rosenblatt(coupled).components[1]
    t = np.linspace(0.0, 1.0, 65)
    v = cdf.value(np.full((t.size, 1), 0.5), t)
    assert v[0] == 0.0 and abs(v[-1] - 1.0) < 1e-12
    assert np.all(np.diff(v) > 0.0)
    # frozen oracle: F(y2 <= 0.5 | y1 = 0.5) = (0.5 + 0.2*0.25)/(1 + 0.2)
    at_half = cdf.value(np.array([[0.5]]), np.array([0.5]))[0]
    assert at_half == pytest.approx(0.45833333333333337, rel=1e-9)


def test_conditional_cdf_inverse_roundtrip(coupled):
    cdf = build_rosenblatt(coupled).components[1]
    u = np.linspace(0.01, 0.99, 41)
    prefix = np.full((u.size, 1), 0.3)
    t = cdf.inverse_exact(prefix, u)
    assert np.abs(cdf.value(prefix, t) - u).max() < 1e-12


def test_mollify_preserves_mass_and_positivity():
    f = dn.make_density("tilted")
    g = dn.mollify(f, sigma=0.05)
    assert _mass(g) == pytest.approx(1.0, abs=1e-12)
    assert g.kappa > 0.0


@pytest.mark.parametrize("dim,digest", [
    (1, "00c8c1d0b495c8ea038d07e392a8fb94a103aa86ac617e1d761e2af8ff9e4dbd"),
    (2, "3bfe0dc34fd42b9c33ea05dcc006d877f80acde7d038ef463193209fdc89cc2b"),
])
def test_default_mollified_values_pinned(dim, digest):
    f = dn.make_density("bimodal-mollified", dim=dim)
    assert hashlib.sha256(f.values.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("sigma", [1e300, 1e6, 1.0000000000000002, 0.0, -1.0])
def test_mollify_refuses_sigma_outside_range(sigma):
    with pytest.raises(ConfigInvalid, match="sigma"):
        dn.mollify(dn.make_density("tilted"), sigma)


def test_mollify_at_sigma_cap_is_near_uniform():
    g = dn.mollify(dn.make_density("tilted"), 1.0)
    assert np.abs(g.values - 1.0).max() < 5.4e-9


@pytest.mark.parametrize("sigma", [1.0 / 128 / 50, 1e-300, 5e-324])
def test_mollify_below_a_fortieth_cell_is_identity(sigma):
    # every neighbour weight is 0.0 in float64 and h / sigma may overflow;
    # the suite turns an overflow warning into an error
    f = dn.make_density("tilted")
    pinned = np.append(f.values[:-1], f.values[0])
    expect = dn.normalize(dn.GridDensity(1, f.resolution, pinned))
    assert np.array_equal(dn.mollify(f, sigma).values, expect.values)


def test_save_load_roundtrip(tmp_path, coupled):
    path = str(tmp_path / "density.json")
    dn.save_density(coupled, path)
    back = dn.load_density(path)
    assert back.dim == coupled.dim
    assert back.resolution == coupled.resolution
    assert np.array_equal(back.values, coupled.values)
    # file is strict JSON with sorted keys
    payload = json.loads(open(path).read())
    assert list(payload) == sorted(payload)


# ---------------------------------------------------------------------------
# streamed atomic writers

_LEAVES = (st.none() | st.booleans() | st.integers() | st.text(max_size=6) | st.floats()
           | st.sampled_from([math.nan, math.inf, -math.inf]))
_TREES = st.recursive(_LEAVES, lambda kids: st.lists(kids, max_size=4)
                      | st.dictionaries(st.text(max_size=6), kids, max_size=4),
                      max_leaves=24)


@settings(max_examples=150)
@given(payload=_TREES)
def test_write_json_atomic_matches_dumps(tmp_path_factory, payload):
    # one-shot oracle: json.dumps, or its null form when a float is not finite
    try:
        want = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        want = json.dumps(dn._null_nonfinite(payload), sort_keys=True, indent=2,
                          allow_nan=False)
    directory = tmp_path_factory.mktemp("json")
    dn.write_json_atomic(payload, str(directory / "a.json"))
    # the file is in place and no temporary file is left beside it
    assert os.listdir(directory) == ["a.json"]
    with open(directory / "a.json", encoding="utf-8", newline="") as fh:
        assert fh.read() == want + "\n"


def test_write_json_atomic_retries_only_nonfinite(tmp_path, monkeypatch):
    # a circular payload is refused as it is, not re-walked
    payload = {"a": []}
    payload["a"].append(payload)
    walked = []
    monkeypatch.setattr(dn, "_null_nonfinite", walked.append)
    with pytest.raises(ValueError, match="Circular reference"):
        dn.write_json_atomic(payload, str(tmp_path / "c.json"))
    assert walked == [] and os.listdir(tmp_path) == []


def _two_chunks_then_fail():
    yield "first\n"
    yield "second\n"
    raise RuntimeError("source failed")


@pytest.mark.parametrize("old", [None, b"old bytes\n"], ids=["new", "existing"])
def test_write_chunks_atomic_failure_leaves_no_trace(tmp_path, old):
    path = tmp_path / "out.csv"
    if old is not None:
        path.write_bytes(old)
    with pytest.raises(RuntimeError, match="source failed"):
        dn.write_chunks_atomic(_two_chunks_then_fail(), str(path))
    assert os.listdir(tmp_path) == ([] if old is None else ["out.csv"])
    if old is not None:
        assert path.read_bytes() == old


def test_write_json_atomic_streams(tmp_path):
    # 2^18 density values: the traced peak is the encoder's, not the file's text
    payload = dn.density_to_dict(dn.make_density("coupled", dim=2, resolution=512))
    path = tmp_path / "density.json"
    tracemalloc.start()
    try:
        dn.write_json_atomic(payload, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4


def test_load_rejects_unknown_keys(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump({"dim": 1, "resolution": 3, "quad_rule": "trapezoid",
                   "values": [1.0, 1.0, 1.0], "extra": 1}, fh)
    with pytest.raises(ConfigInvalid):
        dn.load_density(path)
