"""Tests of the benchmark's own machinery: tracer, span table and configs."""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
for path in (HERE, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

from layers import layer_metrics, unit_of  # noqa: E402
from tracer import SpanTable, Tracer, package_modules  # noqa: E402
from workloads import HYP_1D, WORKLOADS, chi2_threshold, coupled_fit_problems  # noqa: E402

TINY_RATE = {"target": {"family": "uniform", "dim": 1}, "hypothesis": HYP_1D,
             "n_grid": [16, 32], "trials": 1, "seed": 5, "epsilon": 0.2,
             "threads": 1}


def _traced_run(tmp_path, tag: str) -> SpanTable:
    """One traced `trigan rate` invocation of a tiny config, in its own process."""
    work = tmp_path / tag
    work.mkdir()
    cfg = dict(TINY_RATE, out=str(work / "art"))
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([HERE, SRC]))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), str(work / "result.json"), "-",
         str(work / "spans.json"), "--", "rate", "--config", str(cfg_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return SpanTable.load(str(work / "spans.json"))


@pytest.fixture(scope="module")
def two_traces(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traces")
    return _traced_run(tmp, "a"), _traced_run(tmp, "b")


def test_span_nesting_holds(two_traces):
    spans = two_traces[0]
    assert len(spans) > 100
    # self time >= 0 (children sum to at most the parent), children inside parent
    assert spans.nesting_errors() == []
    roots = [i for i, p in enumerate(spans.parent) if p < 0]
    assert [spans.names[spans.name[i]] for i in roots] == ["cli.main"]


def test_counts_repeat_across_traced_runs(two_traces):
    first, second = (layer_metrics(t) for t in two_traces)
    assert set(first) == set(second)
    counts = {k for k in first if unit_of(k) not in ("s", "us")}
    assert "rosenblatt.PushforwardDensity.evaluate.calls" in counts
    assert first["rosenblatt.PushforwardDensity.evaluate.calls"] > 0
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def _namespace_snapshot() -> dict:
    import trigan.cli  # noqa: F401  (the CLI and _svg are outside trigan/__init__)

    snap = {}
    for mod in package_modules():
        for attr, obj in vars(mod).items():
            snap[(mod.__name__, attr)] = obj
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for name, member in vars(obj).items():
                    snap[(mod.__name__, attr, name)] = member
    return snap


def test_patched_attributes_are_restored():
    from trigan import hypothesis, learning, rosenblatt

    before = _namespace_snapshot()
    original = hypothesis.make_generator
    tracer = Tracer()
    with tracer:
        # the function is replaced in the importing namespace too
        assert learning.make_generator is not original
        assert learning.make_generator is hypothesis.make_generator
        assert rosenblatt.TriangularMap.apply.__wrapped__ is not None
    after = _namespace_snapshot()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []
    assert learning.make_generator is original


def test_seed_reaches_every_config(tmp_path):
    from run import Operation

    for wl in WORKLOADS.values():
        for seed in (0, 7, 2 ** 40 + 3):
            cfg = wl.make_config(seed, str(tmp_path))
            assert cfg["seed"] == seed
            assert cfg["threads"] == 1
            assert json.loads(json.dumps(cfg))["seed"] == seed
            # the CLI gets the seed from the config alone
            argv = Operation(wl, cfg, "config.json", str(tmp_path), traced=False).argv
            assert "--seed" not in argv


def test_times_scale_with_the_kernel_around_each_invocation():
    import hostspeed
    from run import END_TO_END, Run

    class Op:
        wall_s, setup_s, units_per_s, peak_rss_mb, problems = 6.0, 1.0, 2.0, 30.0, []

    run = Run.__new__(Run)
    run.ops = [Op(), Op()]
    # the host runs at the reference speed, then at half of it
    run.kernel_s = [hostspeed.REF_S, hostspeed.REF_S, 3.0 * hostspeed.REF_S]
    values = run.end_to_end()
    assert set(values) == set(END_TO_END)
    assert values["wall_s"] == pytest.approx([6.0, 3.0])
    assert values["setup_s"] == pytest.approx([1.0, 0.5])
    assert values["units_per_s"] == pytest.approx([2.0, 4.0])
    assert values["peak_rss_mb"] == [30.0, 30.0]


def test_chi2_threshold_is_conservative():
    stats = pytest.importorskip("scipy.stats")
    # the marginal (31) and joint (15) tests each fail a correct sampler
    # with probability below 5e-5
    for df in (15, 31):
        assert stats.chi2.sf(chi2_threshold(df), df) < 5e-5


def _quadratic_root(u, quad):
    """The root in [0, 1] of y + quad * y^2 = u, for quad >= 0."""
    return 2 * u / (1 + np.sqrt(1 + 4 * quad * u))


def test_coupled_fit_detects_lost_coupling():
    a, n = 0.8, 2 ** 16
    u = np.random.default_rng(11).random((n, 2))
    # marginal CDF (y + a y^2 / 4) / (1 + a / 4), shared by both coordinates
    y1 = _quadratic_root(u[:, 0] * (1 + a / 4), a / 4)
    independent = np.column_stack(
        [y1, _quadratic_root(u[:, 1] * (1 + a / 4), a / 4)])
    # conditional CDF of y2 given y1: (y + a y1 y^2 / 2) / (1 + a y1 / 2)
    coupled = np.column_stack(
        [y1, _quadratic_root(u[:, 1] * (1 + a * y1 / 2), a * y1 / 2)])
    assert coupled_fit_problems(coupled, a) == []
    problems = coupled_fit_problems(independent, a)
    assert len(problems) == 1 and problems[0].startswith("joint chi-square")


def test_benchmark_spec_matches_code(two_traces):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    produced = set(layer_metrics(two_traces[0])) | {"trace.overhead_s"}
    for metric in spec["per_layer"]:
        assert metric["name"] in produced
        assert metric["unit"] == unit_of(metric["name"])
