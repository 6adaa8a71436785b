"""End-to-end runs of the console entry point against temp directories."""

import contextlib
import copy
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import trigan
import trigan.bounds as bd
import trigan.cli
import trigan.hypothesis as hyp
import trigan.learning as lr
from trigan import rng
from trigan.cli import _CSV_BLOCK, RunConfig, _samples_csv, build_run_config, main
from trigan.density import load_density, write_chunks_atomic
from trigan.errors import ConfigInvalid

HYP = {"dim": 1, "k": 3, "alpha": 0.5, "K": 2.0,
       "family": "bernstein_triangular", "degree": 2, "coupling_degree": 1}


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# config assembly


def test_build_run_config_defaults():
    rc = build_run_config("bounds", {"hypothesis": HYP, "n": 10}, {})
    assert rc == RunConfig(command="bounds", hypothesis=HYP, n=10)
    assert rc.delta == 0.1 and rc.epsilon == 0.25 and rc.threads == 1


def test_unknown_config_key():
    with pytest.raises(ConfigInvalid, match="bogus"):
        build_run_config("bounds", {"hypothesis": HYP, "n": 10, "bogus": 1}, {})


def test_missing_required_key():
    with pytest.raises(ConfigInvalid, match="hypothesis"):
        build_run_config("bounds", {"n": 10}, {})


def test_seed_mandatory_for_stochastic():
    with pytest.raises(ConfigInvalid, match="seed"):
        build_run_config("sample", {"target": {"family": "uniform"}, "n": 4}, {})


def test_flag_not_valid_for_command():
    with pytest.raises(ConfigInvalid, match="--seed"):
        build_run_config("bounds", {"hypothesis": HYP, "n": 10}, {"seed": 3})


def test_override_merges_over_file():
    rc = build_run_config("sample",
                          {"target": {"family": "uniform"}, "n": 4, "seed": 1},
                          {"seed": 7, "threads": 2})
    assert rc.seed == 7 and rc.threads == 2


@pytest.mark.parametrize("patch,msg", [
    ({"n": 0}, "n must be"),
    ({"n": True}, "integer"),
    ({"seed": 1.5}, "seed"),
    ({"epsilon": 0.0}, "epsilon"),
    ({"resolution": 1}, "resolution"),
    ({"out": 3}, "out"),
    ({"epsilon": float("inf")}, "epsilon"),
    ({"delta": float("nan")}, "delta must be a number"),
    ({"epsilon": "x"}, "epsilon must be a number"),
    ({"epsilon": True}, "epsilon must be a number"),
    ({"epsilon": "2"}, "epsilon must be a number"),
])
def test_scalar_validation(patch, msg):
    # fit takes no delta and would refuse it as an unknown key, so a delta
    # case runs on a bounds config, where it reaches the number check
    if "delta" in patch:
        command, base = "bounds", {"hypothesis": HYP, "n": 4}
    else:
        command, base = "fit", {"target": {"family": "uniform"}, "hypothesis": HYP,
                                "n": 4, "seed": 1}
    base.update(patch)
    with pytest.raises(ConfigInvalid, match=msg):
        build_run_config(command, base, {})


@pytest.mark.parametrize("key", ["delta", "delta1", "beta"])
@pytest.mark.parametrize("raw", [True, "2"])
def test_bounds_scalars_refuse_booleans_and_strings(key, raw):
    with pytest.raises(ConfigInvalid, match=f"{key} must be a number"):
        build_run_config("bounds", {"hypothesis": HYP, "n": 4, key: raw}, {})


def test_n_grid_validation():
    base = {"target": {"family": "uniform"}, "hypothesis": HYP,
            "trials": 2, "seed": 1}
    with pytest.raises(ConfigInvalid, match="n_grid"):
        build_run_config("rate", dict(base, n_grid=[]), {})
    with pytest.raises(ConfigInvalid, match="n_grid"):
        build_run_config("rate", dict(base, n_grid=[64, 0]), {})


def test_unknown_command():
    with pytest.raises(ConfigInvalid, match="command"):
        build_run_config("train", {}, {})


# ---------------------------------------------------------------------------
# sample / density


def test_sample_artifact(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, "s.json",
                    {"target": {"family": "tilted"}, "n": 8, "seed": 11,
                     "out": "a"})
    assert main(["sample", "--config", cfg]) == 0
    lines = (tmp_path / "a" / "samples.csv").read_text().splitlines()
    assert lines[0] == "y1"
    assert len(lines) == 9
    vals = [float(v) for v in lines[1:]]
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_sample_rerun_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, "s.json",
                    {"target": {"family": "tilted"}, "n": 16, "seed": 11,
                     "out": "a"})
    assert main(["sample", "--config", cfg]) == 0
    assert main(["sample", "--config", cfg, "--out", "b", "--threads", "2"]) == 0
    assert (tmp_path / "a" / "samples.csv").read_bytes() == \
        (tmp_path / "b" / "samples.csv").read_bytes()


def _samples_csv_oracle(points):
    """The per-value formatter: one repr(float(v)) for each coordinate."""
    d = points.shape[1]
    lines = [",".join(f"y{i + 1}" for i in range(d))]
    lines += [",".join(repr(float(v)) for v in row) for row in points]
    return "\n".join(lines) + "\n"


# the fast domain is 0 and 1e-4 <= |v| < 1e16; the edges on both sides of it
_CSV_VALUES = [0.0, -0.0, 1.0, 5e-324, 1 - 2**-53, 0.1 + 0.2, 1e-17,
               1e-4, float(np.nextafter(1e-4, 0)), float(np.nextafter(1.0, 2)), -1e-4, 1e16,
               float(np.nextafter(1e16, 0)), -2.5]
# values that orjson writes in another notation than repr
_FALLBACK = [1e-5, float("nan"), float("inf"), 1e16]


def _off_domain_rows(points) -> int:
    mag = np.abs(points)
    return int((~((points == 0) | ((mag >= 1e-4) & (mag < 1e16))).all(axis=1)).sum())


@settings(max_examples=60, deadline=None)
@given(rows=st.sampled_from([1, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1, 3000]),
       dim=st.integers(1, 4),
       values=st.lists(st.sampled_from(_CSV_VALUES)
                       | st.floats(allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=64))
@example(rows=3000, dim=4, values=_CSV_VALUES)
@example(rows=_CSV_BLOCK + 1, dim=3, values=_CSV_VALUES)
# one sub-1e-4 value in the middle of a block: its row alone takes repr
@example(rows=_CSV_BLOCK, dim=2, values=[0.5] * _CSV_BLOCK + [1e-5] + [0.5] * (_CSV_BLOCK - 1))
# d = 1: every comma ends a row
@example(rows=_CSV_BLOCK + 1, dim=1, values=_CSV_VALUES + _FALLBACK)
# a fallback row first and last in a block, and alone in the last block
@example(rows=_CSV_BLOCK + 1, dim=2,
         values=_FALLBACK[:2] + [0.5] * (2 * _CSV_BLOCK - 4) + _FALLBACK[2:] + _FALLBACK[1:3])
@example(rows=1, dim=4, values=_FALLBACK)
# blocks made only of fallback rows
@example(rows=_CSV_BLOCK + 3, dim=3, values=_FALLBACK + [-1e-300, float("-inf")])
def test_samples_csv_matches_per_value_repr(rows, dim, values):
    points = np.resize(np.asarray(values, dtype=np.float64), (rows, dim))
    reprs = []

    def counted_repr(v):
        reprs.append(v)
        return repr(v)

    with mock.patch.object(trigan.cli, "repr", counted_repr, create=True):
        chunks = list(_samples_csv(points))
    # only rows with a value off the fast domain are rebuilt from repr
    assert len(reprs) <= dim * _off_domain_rows(points)
    # the writer streams one block of rows at a time
    assert max(chunk.count("\n") for chunk in chunks) <= _CSV_BLOCK
    got, want = "".join(chunks), _samples_csv_oracle(points)
    # a plain bool keeps pytest from diffing megabyte strings on failure
    same = got == want
    assert same, next((g, w) for g, w in zip(got.split("\n"), want.split("\n")) if g != w)


def test_samples_csv_matches_repr_in_bulk():
    # 2^17 random bit patterns with 1e-4 <= |v| <= 1, and 2^17 uniforms
    gen = np.random.default_rng(17)
    lo, hi = np.array([1e-4, 1.0]).view(np.int64)
    bits = gen.integers(lo, hi, size=1 << 17, endpoint=True)
    signs = gen.integers(0, 2, size=1 << 17) << 63
    patterns = (bits | signs).view(np.float64).reshape(-1, 2)
    uniforms = gen.random((1 << 16, 2))
    for points in (patterns, uniforms):
        same = "".join(_samples_csv(points)) == _samples_csv_oracle(points)
        assert same


def test_samples_csv_streams_in_blocks(tmp_path):
    # 2^16 2D points: the traced peak is a few blocks, not the file's text
    points = np.random.default_rng(3).random((1 << 16, 2))
    path = tmp_path / "samples.csv"
    tracemalloc.start()
    try:
        write_chunks_atomic(_samples_csv(points), str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4


# SHA-256 of samples.csv; its bytes stay fixed across versions
@pytest.mark.parametrize("cfg,digest", [
    ({"target": {"family": "coupled", "dim": 2, "resolution": 33, "params": {"a": 0.8}},
      "n": 3000, "seed": 7},
     "ed6d12ec2231d03b6accd5d85059799f8f0affff7b62e38bab6a89124de43663"),
    ({"target": {"family": "tilted"}, "n": 2049, "seed": 11},
     "b435ac2e7f76d413a62098349e53606ac84231ec5df6f3f24e3bb2dec32bfe20"),
    ({"target": {"family": "product", "dim": 3}, "n": 1025, "seed": 5},
     "fd25b43a99e1db405526356a4bdc418cbec52e98b06af289236a748220fa2411"),
    # the bench's sample2d invocation
    ({"target": {"family": "coupled", "params": {"a": 0.8}}, "resolution": 129,
      "n": 65536, "seed": 7},
     "7109abbe831f55ef2824c0e237427626c9edb65181ae252ba34b68739b2fcc3f"),
], ids=["coupled2d", "tilted", "product3d", "sample2d"])
def test_samples_csv_bytes_pinned(tmp_path, cfg, digest):
    path = write_cfg(tmp_path, "s.json", cfg)
    assert main(["sample", "--config", path, "--out", str(tmp_path / "o")]) == 0
    data = (tmp_path / "o" / "samples.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


# SHA-256 of every artifact and of stdout of the bench's rate1d and fit2d_net
# invocations at seed 7, and of a 2D rate whose theoretical cube (25 maps on
# the 129^2 grid) fills one partner per block; the out directory is
# relative, so stdout is fixed too
_RATE1D = {"target": {"family": "uniform", "dim": 1}, "hypothesis": HYP,
           "n_grid": [64, 256, 1024, 4096], "trials": 3, "seed": 7, "epsilon": 0.03,
           "threads": 1}
_FIT2D_NET = {"target": {"family": "coupled", "dim": 2, "params": {"a": 0.8}},
              "resolution": 129, "n": 256, "seed": 7, "epsilon": 0.07, "strategy": "net",
              "threads": 1,
              "hypothesis": {**HYP, "dim": 2, "K": 3.0, "coupling_degree": 0}}
_RATE2D = {"target": {"family": "uniform", "dim": 2}, "hypothesis": _FIT2D_NET["hypothesis"],
           "n_grid": [64, 256], "trials": 2, "seed": 7, "epsilon": 0.07, "threads": 1}


@pytest.mark.parametrize("command,cfg,digests", [
    ("rate", _RATE1D, {
        "stdout": "559864c76c7bb4416aa2cb93407dab8c3a6c29c94211668ce3905ec426307173",
        "rate.csv": "b5b5259f5b90a2a6aef626d78c4f8758f61df4a13edb4d7b73a915acc5d5504c",
        "rate.svg": "f4e13711c294cc272f0099b0ab79ad64513322eee1b252d5c882e148198da54b",
        "bounds.json": "2c0b86a58621c847cafc50a8c3be774821341a3fcd36a2ba2ac3e17ac8ba5003"}),
    ("fit", _FIT2D_NET, {
        "stdout": "68b2ef9bdda10781f93eca193440894ea07ea43dcd531f6b0e8ef3f32b1fcecd",
        "fit.json": "5bf44f7c6c2ec65bb985a7ca9eadbafe441d3678d4b26e52c8c1b1d26b30bb50"}),
    ("rate", _RATE2D, {
        "stdout": "aa7b9112b2ccbcd5cde1545eb8406f0af50f65eb37a6cf49d0edfea0d58d45ea",
        "rate.csv": "42f4d96f43e2a3de8d112eace93fcf998ab6013d41142ded84846f73edc39b64",
        "rate.svg": "906e165a29aaa5743621ce843a50327c8c81ccb0796938d6c5add92eb0ce4dae",
        "bounds.json": "a58f02b3a800a0a4bc7de7a4c750acd0e127e39e65ee5ac699dd9b636443cdb8"}),
], ids=["rate1d", "fit2d_net", "rate2d"])
def test_bench_artifact_bytes_pinned(tmp_path, monkeypatch, capsys, command, cfg, digests):
    monkeypatch.chdir(tmp_path)
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main([command, "--config", path, "--out", "o"]) == 0
    got = {"stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    got.update({name: hashlib.sha256((tmp_path / "o" / name).read_bytes()).hexdigest()
                for name in os.listdir(tmp_path / "o")})
    assert got == digests


def _env_importing_trigan() -> dict:
    # a child interpreter imports the same trigan as this test process
    src = os.path.dirname(os.path.dirname(trigan.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


_TINY = {
    "sample": {"target": {"family": "uniform"}, "n": 4, "seed": 1},
    "density": {"target": {"family": "uniform"}},
    "fit": {"target": {"family": "tilted"}, "hypothesis": HYP, "n": 16, "seed": 1,
            "epsilon": 0.05},
    "rate": {"target": {"family": "uniform", "dim": 1}, "hypothesis": HYP,
             "n_grid": [8, 16], "trials": 2, "seed": 3, "epsilon": 0.05},
}
# the modules that hold the generator family, the losses, the bounds and the plot
_LEARNING_LAYER = ["trigan._svg", "trigan.bounds", "trigan.divergence",
                   "trigan.hypothesis", "trigan.learning"]
# a child's last stdout line: the trigan submodules whose body has not run yet
_UNRUN = ("print(sorted(m for m in sys.modules if m.startswith('trigan.') "
          "and type(sys.modules[m]) is not types.ModuleType))")


def _child_stdout(code: str) -> str:
    out = subprocess.run([sys.executable, "-c", code], env=_env_importing_trigan(),
                         capture_output=True, text=True, check=True, timeout=60)
    return out.stdout


def test_cli_import_loads_no_process_pool(tmp_path):
    # single-worker runs never pay for the pool's modules; the CSV encoder
    # loads only when sample writes
    for command in (None, "sample", "rate"):
        run = ""
        if command is not None:
            cfg = write_cfg(tmp_path, f"{command}.json", _TINY[command])
            argv = [command, "--config", cfg, "--out", str(tmp_path / command),
                    "--threads", "1"]
            run = f"assert main({argv!r}) == 0; "
        code = (f"import sys; from trigan.cli import main; {run}print("
                "[m for m in sys.modules if m.startswith(('concurrent', 'multiprocessing'))], "
                "'orjson' in sys.modules)")
        want = f"[] {command == 'sample'}"
        assert _child_stdout(code).splitlines()[-1] == want, command


@pytest.mark.parametrize("command,unrun", [
    ("sample", _LEARNING_LAYER),
    ("density", sorted(_LEARNING_LAYER + ["trigan.rng", "trigan.rosenblatt"])),
])
def test_command_runs_only_its_modules(tmp_path, command, unrun):
    # every submodule but cli is lazy: sample and density never run the learning layer
    cfg = write_cfg(tmp_path, "c.json", _TINY[command])
    argv = [command, "--config", cfg, "--out", str(tmp_path)]
    code = f"import sys, types; from trigan.cli import main; assert main({argv!r}) == 0; "
    assert _child_stdout(code + _UNRUN).splitlines()[-1] == repr(unrun)


@pytest.mark.parametrize("command,marker,unrun", [
    ("rate", "rate_experiment", []),
    ("fit", "empirical_pair_matrix", ["trigan._svg", "trigan.bounds"]),
])
def test_command_runs_its_modules_before_its_first_trial(tmp_path, command, marker, unrun):
    # as the bench's set-up marker sees it: a module that first runs inside the
    # trials would move its compile time out of set-up and into the trials
    cfg = write_cfg(tmp_path, "c.json", _TINY[command])
    argv = [command, "--config", cfg, "--out", str(tmp_path), "--threads", "1"]
    code = textwrap.dedent(f"""\
        import sys, types
        import trigan.learning as lr
        from trigan.cli import main
        original = lr.{marker}
        def first_call(*args, **kwargs):
            lr.{marker} = original
            {_UNRUN}
            return original(*args, **kwargs)
        lr.{marker} = first_call
        assert main({argv!r}) == 0
        {_UNRUN}
        """)
    lines = _child_stdout(code).splitlines()
    assert lines[0] == lines[-1] == repr(unrun)


def test_commands_never_import_dataclasses(tmp_path):
    # a dataclass writes its methods with exec when its module runs; trigan's
    # records are NamedTuples, so no command pays for that or for the import
    runs = []
    for command in ("sample", "rate", "fit"):
        cfg = write_cfg(tmp_path, f"{command}.json", _TINY[command])
        argv = [command, "--config", cfg, "--out", str(tmp_path / command), "--threads", "1"]
        runs.append(f"assert main({argv!r}) == 0; ")
    code = ("import sys; from trigan.cli import main; " + "".join(runs)
            + "print('dataclasses' in sys.modules)")
    assert _child_stdout(code).splitlines()[-1] == "False"


# flag -> (its dest on the parsed namespace, its argv value, the parsed value)
_FLAGS = {"--config": ("config", ["c.json"], "c.json"), "--seed": ("seed", ["3"], 3),
          "--threads": ("threads", ["2"], 2), "--out": ("out", ["o"], "o"),
          "--exact-integral": ("exact_integral", [], True),
          "--delta": ("delta", ["0.2"], 0.2), "--beta": ("beta", ["0.5"], 0.5)}


@pytest.mark.parametrize("command", trigan.cli._COMMANDS)
def test_one_parser_takes_every_flag(capsys, command):
    """The one parser reads each of the seven flags after any command and
    leaves the others None; a flag the command does not take is refused by
    build_run_config, with exit 2 and one JSON object on stderr."""
    parser = trigan.cli._make_parser()
    for flag, (dest, raw, want) in _FLAGS.items():
        args = vars(parser.parse_args([command, flag, *raw]))
        assert args.pop("command") == command and args.pop(dest) == want
        assert set(args.values()) == {None}, flag
    refused = [flag for flag, (dest, _, _) in _FLAGS.items()
               if dest not in trigan.cli._ALLOWED[command] and dest != "config"]
    assert refused, command
    for flag in refused:
        assert main([command, flag, *_FLAGS[flag][1]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [json.loads(line) for line in captured.err.splitlines()] == [
            {"error": "ConfigInvalid", "message": f"flag {flag} not valid for {command}"}]


def test_help_exits_zero():
    out = subprocess.run([sys.executable, "-m", "trigan.cli", "--help"],
                         env=_env_importing_trigan(), capture_output=True, text=True,
                         timeout=60)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.startswith("usage: trigan ")
    assert all(name in out.stdout for name in trigan.cli._COMMANDS)


def test_public_surface():
    names = ["BoundReport", "ConfigInvalid", "DegenerateJacobian", "GridDensity",
             "HypothesisConfig", "IntegralDivergent", "MinimaxResult", "NetTooLarge",
             "NonPositiveDensity", "ParamsOutOfBox", "PushforwardDensity", "RateReport",
             "RootNotBracketed", "TrainingSample", "TriangularMap", "TriganError",
             "bound_report", "build_eps_net", "build_rosenblatt", "dudley_bound", "full_C",
             "gamma_constant", "js_divergence", "k_schedule", "load_density",
             "make_config", "make_density", "make_generator", "make_training_sample",
             "mcdiarmid_tail", "minimax_fit", "rate_experiment", "rho_metric", "sample",
             "save_density", "thm54_threshold_and_prob"]
    assert trigan.__all__ == names
    for name in names:
        obj = getattr(trigan, name)
        assert obj.__module__.startswith("trigan.") and name in dir(trigan)
        assert getattr(sys.modules[obj.__module__], name) is obj
    star: dict = {}
    exec("from trigan import *", star)
    assert sorted(set(star) - {"__builtins__"}) == names
    with pytest.raises(AttributeError, match="no_such_name"):
        trigan.no_such_name


def test_module_entry_point_runs_warning_free(tmp_path):
    # runpy warns about a module that is in sys.modules before it runs as __main__
    cfg = write_cfg(tmp_path, "s.json", _TINY["sample"])
    out = subprocess.run([sys.executable, "-W", "error", "-m", "trigan.cli", "sample",
                          "--config", cfg, "--out", str(tmp_path / "m")],
                         env=_env_importing_trigan(), capture_output=True, text=True,
                         timeout=60)
    assert (out.returncode, out.stderr) == (0, "")
    assert main(["sample", "--config", cfg, "--out", str(tmp_path / "f")]) == 0
    assert ((tmp_path / "m" / "samples.csv").read_bytes()
            == (tmp_path / "f" / "samples.csv").read_bytes())


def test_trial_path_imports_no_masked_arrays(tmp_path):
    # the rate rows take their quantiles without numpy.ma
    env = _env_importing_trigan()
    cfg = write_cfg(tmp_path, "rate.json",
                    {"target": {"family": "uniform", "dim": 1}, "hypothesis": HYP,
                     "n_grid": [8, 16], "trials": 2, "seed": 3, "epsilon": 0.05})
    argv = ["rate", "--config", cfg, "--out", str(tmp_path)]
    code = (f"import sys; from trigan.cli import main; assert main({argv!r}) == 0; "
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.splitlines()[-1] == "False"


def test_cli_process_freezes_start_up_heap(tmp_path):
    # the collector stays on; the import-time heap is frozen out of its scans
    env = _env_importing_trigan()
    cfg = write_cfg(tmp_path, "s.json", {"target": {"family": "uniform"}, "n": 4, "seed": 1})
    argv = ["sample", "--config", cfg, "--out", str(tmp_path)]
    code = (f"import gc; from trigan.cli import main; assert main({argv!r}) == 0; "
            "print(gc.isenabled(), gc.get_freeze_count() > 0)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.splitlines()[-1] == "True True"


def test_main_freezes_once_per_process(tmp_path):
    cfg = write_cfg(tmp_path, "s.json", {"target": {"family": "uniform"}, "n": 4, "seed": 1})
    assert main(["sample", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    frozen = gc.get_freeze_count()
    assert frozen > 0
    assert main(["sample", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_artifact_mode_follows_umask(tmp_path, umask, mode):
    cfg = write_cfg(tmp_path, "s.json", {"target": {"family": "uniform"}, "n": 4, "seed": 1})
    old = os.umask(umask)
    try:
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    finally:
        os.umask(old)
    assert os.stat(tmp_path / "a" / "samples.csv").st_mode & 0o777 == mode
    assert sorted(os.listdir(tmp_path / "a")) == ["samples.csv"]


def test_density_roundtrip(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, "d.json",
                    {"target": {"family": "coupled", "dim": 2, "resolution": 33,
                                "params": {"a": 1.0}},
                     "out": "dens"})
    assert main(["density", "--config", cfg]) == 0
    dd = load_density(str(tmp_path / "dens" / "density.json"))
    assert dd.dim == 2 and dd.resolution == 33


def test_target_path_xor_family(tmp_path):
    with pytest.raises(ConfigInvalid, match="target"):
        from trigan.cli import _build_target
        _build_target({"path": "x.json", "family": "uniform"}, None)
    with pytest.raises(ConfigInvalid, match="family"):
        from trigan.cli import _build_target
        _build_target({}, None)


_GOOD_DENSITY = {"dim": 1, "resolution": 3, "quad_rule": "trapezoid", "values": [1, 1, 1]}


@pytest.mark.parametrize("payload", [
    5,
    {**_GOOD_DENSITY, "dim": "x"},
    {**_GOOD_DENSITY, "values": ["a", 1, 1]},
    {**_GOOD_DENSITY, "values": [[1, 1], [1]]},
    {**_GOOD_DENSITY, "dim": 1.7},
    {**_GOOD_DENSITY, "dim": True},
    {**_GOOD_DENSITY, "quad_rule": "simpson"},
], ids=["not-object", "dim-text", "value-text", "ragged", "dim-float", "dim-bool",
        "simpson"])
def test_malformed_density_file_refused(tmp_path, capsys, payload):
    path = tmp_path / "target.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    cfg = write_cfg(tmp_path, "d.json", {"target": {"path": str(path)}})
    assert main(["density", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "ConfigInvalid"
    assert not (tmp_path / "o").exists()


_DEEP = b"[" * 100_000 + b"]" * 100_000


@pytest.mark.parametrize("where,raw", [
    ("config", b'{"hypothesis": "\xff\xfe", "n": 10}'),
    ("config", _DEEP),
    ("target", b'{"dim": 1, "quad_rule": "\xff\xfe"}'),
    ("target", _DEEP),
    ("config", b'{"n": ' + b"1" * 5000 + b"}"),
    ("config", b'{"n": 10,}'),
], ids=["config-not-utf8", "config-too-deep", "target-not-utf8", "target-too-deep",
        "config-int-too-long", "config-syntax"])
def test_undecodable_json_refused(tmp_path, capsys, where, raw):
    path = tmp_path / "raw.json"
    path.write_bytes(raw)
    if where == "config":
        argv = ["bounds", "--config", str(path)]
    else:
        argv = ["density", "--config", write_cfg(tmp_path, "d.json",
                                                 {"target": {"path": str(path)}})]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "ConfigInvalid"
    assert not (tmp_path / "o").exists()


def test_density_file_value_past_float_range_refused(tmp_path, capsys):
    path = tmp_path / "target.json"
    path.write_text(json.dumps({**_GOOD_DENSITY, "values": [10**400, 1, 1]}),
                    encoding="utf-8")
    cfg = write_cfg(tmp_path, "d.json", {"target": {"path": str(path)}})
    assert main(["density", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "NonPositiveDensity"


@pytest.mark.parametrize("sigma", [1e300, 1e6])
def test_mollifier_scale_past_cap_refused(tmp_path, capsys, sigma):
    # the kernel's support grows as sigma / h: 1e300 asked numpy for an
    # impossible array, 1e6 for 15 GiB
    cfg = write_cfg(tmp_path, "d.json", {"target": {"family": "bimodal-mollified",
                                                    "params": {"sigma": sigma}}})
    assert main(["density", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "ConfigInvalid"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("sigma", [1e-300, 5e-324])
def test_tiny_mollifier_scale_runs(tmp_path, sigma):
    # h / sigma overflows here; the suite turns that warning into an error
    cfg = write_cfg(tmp_path, "d.json", {"target": {"family": "bimodal-mollified", "dim": 2,
                                                    "params": {"sigma": sigma}}})
    assert main(["density", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert load_density(str(tmp_path / "o" / "density.json")).dim == 2


# ---------------------------------------------------------------------------
# fit


def test_fit_artifact(tmp_path, monkeypatch):
    """Quarter-sup net over this box is the single neutral member, so the
    fitted map is the target itself and the inner maximum is exactly -log 2."""
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, "f.json",
                    {"target": {"family": "uniform", "dim": 1},
                     "hypothesis": HYP, "n": 64, "seed": 1, "out": "fit"})
    assert main(["fit", "--config", cfg]) == 0
    fit = json.loads((tmp_path / "fit" / "fit.json").read_text())
    assert set(fit) == {"strategy", "achieved_value", "js_to_target", "best_params",
                        "jac_lower", "c1_upper", "inner_values"}
    assert fit["strategy"] == "net_exhaustive"
    assert fit["achieved_value"] == -math.log(2.0)
    assert fit["js_to_target"] == 0.0
    assert fit["best_params"] == [0.0, 0.0]
    assert fit["jac_lower"] == 1.0 and fit["c1_upper"] == 1.0
    assert fit["inner_values"] == {"0": -math.log(2.0)}
    assert "np.float64" not in (tmp_path / "fit" / "fit.json").read_text()


_FIT_TILTED = {"target": {"family": "tilted"}, "hypothesis": HYP, "n": 64, "seed": 1,
               "epsilon": 0.05}


def test_fit_strategy_net_key_changes_no_byte(tmp_path, monkeypatch, capsys):
    """The one strategy value a config accepts is "net", the default."""
    monkeypatch.chdir(tmp_path)
    runs = []
    for name, cfg in (("plain", _FIT_TILTED), ("net", {**_FIT_TILTED, "strategy": "net"})):
        path = write_cfg(tmp_path, name + ".json", cfg)
        assert main(["fit", "--config", path, "--out", "o"]) == 0
        runs.append((capsys.readouterr().out, (tmp_path / "o" / "fit.json").read_bytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("cfg,flags", [
    ({**_FIT_TILTED, "strategy": "grad"}, []),
    (_FIT_TILTED, ["--strategy", "net"]),
], ids=["grad_key", "strategy_flag"])
def test_fit_strategy_choices_refused(tmp_path, monkeypatch, capsys, cfg, flags):
    def no_draw(*args, **kwargs):
        raise AssertionError("points drawn")
    monkeypatch.setattr(rng, "uniforms", no_draw)
    path = write_cfg(tmp_path, "f.json", cfg)
    assert main(["fit", "--config", path, "--out", str(tmp_path / "o"), *flags]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "ConfigInvalid"
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# rate


def test_sampling_error_command_is_gone(tmp_path):
    # the one-size sampling error is a rate with n_grid [n]; the old
    # subcommand is an unknown command: exit 2, one JSON line, no out dir
    cfg = write_cfg(tmp_path, "se.json",
                    {"target": {"family": "tilted"}, "hypothesis": HYP, "n": 512,
                     "trials": 7, "seed": 11, "epsilon": 0.05, "out": "o"})
    proc = subprocess.run([sys.executable, "-m", "trigan.cli", "sampling-error",
                           "--config", cfg], cwd=tmp_path, env=_env_importing_trigan(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    err = proc.stderr.splitlines()
    assert len(err) == 1
    blob = json.loads(err[0])
    assert blob["error"] == "ConfigInvalid" and "invalid choice" in blob["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_one_size_rate_row_pinned(tmp_path, monkeypatch, threads):
    """The rate.csv row of a one-size grid: tilted target, README 1D
    hypothesis, epsilon 0.05, n 512, 7 trials, seed 11."""
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, "r.json",
                    {"target": {"family": "tilted"}, "hypothesis": HYP, "n_grid": [512],
                     "trials": 7, "seed": 11, "epsilon": 0.05})
    assert main(["rate", "--config", cfg, "--threads", threads, "--out", "r"]) == 0
    row = (tmp_path / "r" / "rate.csv").read_text().splitlines()[1].split(",")
    assert row[:7] == ["512", "7", "0.0027275045272530584", "0.0017691451302753842",
                       "0.0006739821748227515", "0.003000316732006292",
                       "0.0051386633019795385"]


@pytest.mark.parametrize("command,size", [("rate", {"n_grid": [32, 64]}),
                                          ("rate", {"n_grid": [64]})])
def test_trials_past_stream_key(tmp_path, monkeypatch, capsys, command, size):
    # refused with the config, before the loss cube is built or a point drawn
    def refuse(*args, **kwargs):
        raise AssertionError("work started")
    monkeypatch.setattr(lr, "pair_loss_matrix", refuse)
    monkeypatch.setattr(rng, "uniforms", refuse)
    monkeypatch.chdir(tmp_path)
    spec = {"target": {"family": "uniform", "dim": 1}, "hypothesis": HYP,
            "trials": 2**56 + 1, "seed": 9, "out": "o", **size}
    cfg = write_cfg(tmp_path, "t.json", spec)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    blob = json.loads(err[0])
    assert blob["error"] == "ConfigInvalid" and "2**56" in blob["message"]
    assert not (tmp_path / "o").exists()
    assert build_run_config(command, {**spec, "trials": 2**56}, {}).trials == 2**56


def test_rate_artifacts(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, "r.json",
                    {"target": {"family": "uniform", "dim": 1},
                     "hypothesis": HYP, "n_grid": [64], "trials": 3, "seed": 5,
                     "out": "rate"})
    assert main(["rate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "single n: slope undefined" in out
    lines = (tmp_path / "rate" / "rate.csv").read_text().splitlines()
    assert lines[0] == ("n,trials,mean,std,q05,q50,q95,"
                        "bound_C_over_sqrt_n,thm54_threshold,exceed_frac")
    assert len(lines) == 2 and lines[1].startswith("64,3,0.0,")
    svg = (tmp_path / "rate" / "rate.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    bj = json.loads((tmp_path / "rate" / "bounds.json").read_text())
    assert bj["regularity_ok"] is True
    assert bj["delta1"] == hyp.family_delta1(hyp.config_from_dict(HYP))


@pytest.mark.parametrize("extra", [
    {}, {"delta1": 0.5},
    {"target": {"family": "uniform", "dim": 2}, "hypothesis": dict(HYP, dim=2, k=1)},
    {"exact_integral": True},
])
def test_rate_csv_and_bounds_json_share_delta1(tmp_path, monkeypatch, capsys, extra):
    """Every rate.csv row's bound columns are bounds.bound_report's at that
    row's n, under the exact_integral flag and the delta1 of bounds.json:
    the config key's value, else the family diameter; nan in rate.csv and
    null in bounds.json when the hypothesis is irregular."""
    monkeypatch.chdir(tmp_path)
    spec = {"target": {"family": "uniform", "dim": 1}, "hypothesis": HYP,
            "n_grid": [64, 256], "trials": 2, "seed": 1, "epsilon": 0.1,
            "out": "rate", **extra}
    cfg = write_cfg(tmp_path, "r.json", spec)
    assert main(["rate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    config = hyp.config_from_dict(spec["hypothesis"])
    lines = (tmp_path / "rate" / "rate.csv").read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), map(float, line.split(",")))) for line in lines[1:]]
    bj = json.loads((tmp_path / "rate" / "bounds.json").read_text(),
                    parse_constant=_refuse_constant)
    assert [row["n"] for row in rows] == [64, 256] and bj["n"] == 256
    delta1 = extra.get("delta1", hyp.family_delta1(config) if config.regular else None)
    assert bj["delta1"] == delta1
    columns = {"bound_C_over_sqrt_n": "dudley_value", "thm54_threshold": "thm54_threshold"}
    for row in rows:
        rep = bd.bound_report(config.dim, config.alpha, config.k, config.K, int(row["n"]),
                              delta1=math.nan if delta1 is None else delta1,
                              exact_integral=extra.get("exact_integral", False))
        for column, field in columns.items():
            assert math.isnan(row[column]) is not config.regular
            assert row[column] == getattr(rep, field) or not config.regular
    for column, field in columns.items():
        assert bj[field] == (rows[-1][column] if config.regular else None)
    assert (bj["C"] is None) is not config.regular
    assert ("regularity k > 1 - alpha + d/2 fails" in out) is not config.regular


# ---------------------------------------------------------------------------
# bounds


def test_bounds_artifact_matches_library(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    payload = dict(HYP, dim=2, K=3.0)
    cfg = write_cfg(tmp_path, "b.json", {"hypothesis": payload, "n": 1000})
    assert main(["bounds", "--config", cfg, "--out", "bd"]) == 0
    out = capsys.readouterr().out
    assert "regularity_ok" in out and "gamma" in out
    got = json.loads((tmp_path / "bd" / "bounds.json").read_text())
    config = hyp.config_from_dict(payload)
    want = bd.report_to_dict(bd.bound_report(
        config.dim, config.alpha, config.k, config.K, 1000,
        delta1=hyp.family_delta1(config)))
    assert got == want and got["regularity_ok"] is True


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("patch,null_field", [
    ({"hypothesis": dict(HYP, dim=2, k=1), "n": 1000}, "C"),
    ({"hypothesis": dict(HYP, dim=3), "n": 2**53, "delta": 100.0}, "thm54_threshold"),
], ids=["irregular", "threshold-overflow"])
def test_bounds_json_is_strict(tmp_path, patch, null_field):
    cfg = write_cfg(tmp_path, "b.json", patch)
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "bd")]) == 0
    text = (tmp_path / "bd" / "bounds.json").read_text()
    got = json.loads(text, parse_constant=_refuse_constant)
    assert got[null_field] is None


def test_bounds_beta_schedule(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, "b.json", {"hypothesis": HYP, "n": 1000})
    assert main(["bounds", "--config", cfg, "--beta", "0.1", "--out", "bd"]) == 0
    got = json.loads((tmp_path / "bd" / "bounds.json").read_text())
    assert got["K"] == math.log(1000.0) ** 0.1


def test_bounds_beta_too_small(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, "b.json", {"hypothesis": HYP, "n": 2})
    assert main(["bounds", "--config", cfg, "--beta", "0.1"]) == 2
    blob = json.loads(capsys.readouterr().err)
    assert blob["error"] == "ConfigInvalid" and "K <= 1" in blob["message"]


@pytest.mark.parametrize("beta", ["30", "1000"])
def test_bounds_beta_overflow(tmp_path, monkeypatch, capsys, beta):
    # (log 1024)^30 is finite but overflows K^16; (log 1024)^1000 overflows itself
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, "b.json", {"hypothesis": HYP, "n": 1024})
    assert main(["bounds", "--config", cfg, "--beta", beta, "--out", "bd"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "ConfigInvalid"
    assert not (tmp_path / "bd").exists()


@pytest.mark.parametrize("command,size", [
    ("fit", {"n": 10**8}),
    ("rate", {"n_grid": [10**8], "trials": 1}),
    ("rate", {"n_grid": [64, 10**8], "trials": 1}),
])
def test_trial_size_cap(tmp_path, monkeypatch, capsys, command, size):
    """n 10^8 with the 9-member README net needs 10^8 (2 + 81) floats per
    trial: refused before any point is drawn."""
    def no_draw(*args, **kwargs):
        raise AssertionError("points drawn")
    monkeypatch.setattr(rng, "uniforms", no_draw)
    cfg = write_cfg(tmp_path, "n.json", {"target": {"family": "tilted"}, "hypothesis": HYP,
                                         "seed": 1, "epsilon": 0.05, **size})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "ConfigInvalid"
    assert "8300000000 floats" in json.loads(err[0])["message"]
    assert not (tmp_path / "o").exists()


def test_fit_net_over_matrix_cap(tmp_path, capsys):
    # epsilon 0.0115 gives 11^2 = 121 members, 121^3 > 10^6 loss-matrix entries
    cfg = write_cfg(tmp_path, "f.json",
                    {"target": {"family": "uniform", "dim": 1}, "hypothesis": HYP,
                     "n": 64, "seed": 1, "epsilon": 0.0115})
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "fit")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "NetTooLarge"
    assert "1771561" in json.loads(err[0])["message"]
    assert not (tmp_path / "fit").exists()


@pytest.mark.parametrize("epsilon", [1e-310, 5e-324])
@pytest.mark.parametrize("command,extra", [
    ("fit", {"n": 16}),
    ("rate", {"n_grid": [16], "trials": 2}),
    ("rate", {"n_grid": [16, 32], "trials": 2}),
])
def test_subnormal_epsilon_net_too_large(tmp_path, monkeypatch, capsys, command, extra,
                                         epsilon):
    # n L b / epsilon overflows to inf: refused before any ceil or draw
    def no_draw(*args, **kwargs):
        raise AssertionError("points drawn")
    monkeypatch.setattr(rng, "uniforms", no_draw)
    cfg = write_cfg(tmp_path, "e.json", {"target": {"family": "tilted"}, "hypothesis": HYP,
                                         "seed": 1, "epsilon": epsilon, **extra})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "NetTooLarge"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,extra", [
    ("fit", {"n": 16}),
    ("rate", {"n_grid": [16], "trials": 2}),
    ("rate", {"n_grid": [16, 32], "trials": 2}),
])
def test_cap_sized_net_refused_by_trial_size(tmp_path, monkeypatch, capsys, command, extra):
    # 1000^2 members, exactly at the lattice cap: the net is built as one
    # array, and the trial-size check refuses it before any point is drawn
    def no_draw(*args, **kwargs):
        raise AssertionError("points drawn")
    monkeypatch.setattr(rng, "uniforms", no_draw)
    cfg = write_cfg(tmp_path, "e.json", {"target": {"family": "tilted"}, "hypothesis": HYP,
                                         "seed": 1, "epsilon": 0.0001185, **extra})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    blob = json.loads(err[0])
    assert blob["error"] == "ConfigInvalid"
    assert "with 1000000 net members" in blob["message"] and "per trial" in blob["message"]
    assert not (tmp_path / "o").exists()


def test_net_too_large_message_is_short(tmp_path, capsys):
    # epsilon 1e-300 gives a lattice side of about 1e302: printed rounded
    cfg = write_cfg(tmp_path, "e.json", {"target": {"family": "tilted"}, "hypothesis": HYP,
                                         "n": 16, "seed": 1, "epsilon": 1e-300})
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    blob = json.loads(err[0])
    assert blob["error"] == "NetTooLarge" and "cap is 1000000" in blob["message"]
    assert len(blob["message"]) < 200
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# failure surface


def test_error_is_json_on_stderr(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "bad.json",
                    {"hypothesis": HYP, "n": 10, "bogus": 1})
    assert main(["bounds", "--config", cfg]) == 2
    captured = capsys.readouterr()
    blob = json.loads(captured.err)
    assert set(blob) == {"error", "message"}
    assert blob["error"] == "ConfigInvalid" and "bogus" in blob["message"]


def test_missing_config_file(capsys):
    assert main(["sample", "--config", "/no/such/file.json"]) == 2
    blob = json.loads(capsys.readouterr().err)
    assert blob["error"] == "FileNotFoundError"


def test_config_must_be_object(tmp_path, capsys):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2]", encoding="utf-8")
    assert main(["bounds", "--config", str(path)]) == 2
    blob = json.loads(capsys.readouterr().err)
    assert "JSON object" in blob["message"]


@pytest.mark.parametrize("patch,argv", [
    ({"seed": -1}, []),
    ({"seed": 2**64}, []),
    ({}, ["--seed", "-3"]),
])
def test_seed_out_of_range(tmp_path, capsys, patch, argv):
    cfg = write_cfg(tmp_path, "s.json",
                    {"target": {"family": "uniform"}, "n": 4, "seed": 1, **patch})
    assert main(["sample", "--config", cfg, "--out", str(tmp_path / "s"), *argv]) == 2
    blob = json.loads(capsys.readouterr().err)
    assert blob["error"] == "ConfigInvalid" and "seed" in blob["message"]
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("raw", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_config_number(tmp_path, capsys, raw):
    path = tmp_path / "nan.json"
    path.write_text(f'{{"hypothesis": {json.dumps(HYP)}, "n": 10, "delta": {raw}}}',
                    encoding="utf-8")
    assert main(["bounds", "--config", str(path), "--out", str(tmp_path / "bd")]) == 2
    blob = json.loads(capsys.readouterr().err)
    assert blob["error"] == "ConfigInvalid" and raw in blob["message"]
    assert not (tmp_path / "bd").exists()


@pytest.mark.parametrize("command,patch", [
    ("sample", {"target": {"family": "uniform", "dim": "2"}}),
    ("sample", {"target": {"family": "uniform", "dim": 0}}),
    ("sample", {"target": {"family": "product", "dim": 0}}),
    ("sample", {"target": {"family": "bimodal-mollified", "dim": 0}}),
    ("sample", {"target": {"family": "uniform", "dim": True}}),
    ("sample", {"target": {"family": "uniform", "resolution": 2.5}}),
    ("sample", {"target": {"family": "coupled", "params": [1]}}),
    ("sample", {"target": {"family": "coupled", "params": {"a": "z"}}}),
    ("sample", {"target": {"family": "coupled", "params": {"a": True}}}),
    ("sample", {"target": {"family": "coupled", "params": {"a": 10**400}}}),
    ("sample", {"target": {"path": 0}}),
    ("bounds", {"hypothesis": {**HYP, "dim": "x"}}),
    ("bounds", {"hypothesis": {**HYP, "dim": 1.7}}),
    ("bounds", {"hypothesis": {**HYP, "coupling_degree": True}}),
    ("bounds", {"hypothesis": {**HYP, "K": "2"}}),
    ("bounds", {"hypothesis": {**HYP, "alpha": True}}),
    ("bounds", {"hypothesis": {**HYP, "K": 10**400}}),
    ("sample", {"target": {"family": "uniform", "dim": 100}}),
    ("sample", {"target": {"family": "coupled", "resolution": 100000000}}),
    ("bounds", {"hypothesis": {**HYP, "K": 1e308}}),
    ("bounds", {"hypothesis": {**HYP, "degree": 100000}}),
    # 17^7 and 17^8 probe-grid nodes exceed the 2^22 grid cap
    ("bounds", {"hypothesis": {**HYP, "dim": 7}}),
    ("bounds", {"hypothesis": {**HYP, "dim": 8}}),
    ("bounds", {"hypothesis": {**HYP, "k": 10**400}}),
    ("bounds", {"n": 2**53 + 1}),
    ("sample", {"n": 2**20 + 1}),
    ("sample", {"target": {"path": "a\x00b"}}),
    ("sample", {"target": {"family": []}}),
    ("bounds", {"hypothesis": {**HYP, "dim": 2**63}}),
    ("bounds", {"hypothesis": {**HYP, "dim": 10**400}}),
    ("bounds", {"hypothesis": {**HYP, "k": 2**53 + 1}}),
    # refused for a 17^6 probe grid, and the 5-D fit for its 33^5 evaluation grid
    # before any point is drawn
    ("bounds", {"hypothesis": {**HYP, "dim": 6}}),
    ("fit", {"target": {"family": "uniform", "dim": 5, "resolution": 9},
             "hypothesis": {**HYP, "dim": 5}, "n": 16, "seed": 1}),
])
def test_nested_spec_rejected(tmp_path, monkeypatch, capsys, command, patch):
    def no_draw(*args, **kwargs):
        raise AssertionError("points drawn")
    monkeypatch.setattr(rng, "uniforms", no_draw)
    base = {"target": {"family": "uniform"}, "n": 4, "seed": 1} if command == "sample" \
        else {"hypothesis": HYP, "n": 10}
    cfg = write_cfg(tmp_path, "c.json", {**base, **patch})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "ConfigInvalid"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,extra", [
    ("fit", {"n": 16}),
    ("rate", {"n_grid": [16], "trials": 2}),
    ("rate", {"n_grid": [16, 32], "trials": 2}),
])
def test_hypothesis_dim_must_match_target(tmp_path, capsys, monkeypatch, command, extra):
    # refused before make_config solves the box of the 2D family
    def no_solve(*args, **kwargs):
        raise AssertionError("box solved")
    monkeypatch.setattr(hyp, "make_config", no_solve)
    cfg = write_cfg(tmp_path, "m.json",
                    {"target": {"family": "uniform", "dim": 1},
                     "hypothesis": {**HYP, "dim": 2}, "seed": 1, **extra})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    blob = json.loads(err[0])
    assert blob["error"] == "ConfigInvalid" and "target dim 1" in blob["message"]
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# the CLI contract under arbitrary config JSON

_FUZZ_BASES = {
    "bounds": {"hypothesis": HYP, "n": 1024, "delta": 0.1},
    "density": {"target": {"family": "coupled", "dim": 2, "resolution": 17,
                           "params": {"a": 0.8}}},
    "sample": {"target": {"family": "tilted", "resolution": 33}, "n": 64, "seed": 3},
}
_FUZZ_KEYS = sorted({"target", "hypothesis", "n", "n_grid", "trials", "seed", "delta",
                     "delta1", "beta", "epsilon", "out", "threads", "resolution",
                     "exact_integral", "strategy", "family", "dim", "params", "path",
                     "k", "alpha", "K", "degree", "coupling_degree", "a"})
# no "/" in strings: every path the CLI writes stays under the example's directory
_TEXT = st.text(alphabet=st.characters(blacklist_characters="/"), max_size=6)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT
    | st.sampled_from([2**63, 2**64, 10**400, -10**400, float("nan")]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=6)


def _nested_dicts(cfg):
    """Every dict in the config, the config itself first."""
    out, todo = [], [cfg]
    while todo:
        node = todo.pop()
        out.append(node)
        todo.extend(v for v in node.values() if isinstance(v, dict))
    return out


@st.composite
def _mutated_configs(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_BASES)))
    cfg = copy.deepcopy(_FUZZ_BASES[command])
    for _ in range(draw(st.integers(1, 3))):
        node = draw(st.sampled_from(_nested_dicts(cfg)))
        op = draw(st.sampled_from(["set", "drop", "add"]))
        if op in ("set", "drop") and node:
            key = draw(st.sampled_from(sorted(node)))
        else:
            key = draw(st.sampled_from(_FUZZ_KEYS) | _TEXT)
        if op == "drop" and key in node:
            del node[key]
        else:
            node[key] = draw(_JSON_VALUES)
    return command, cfg


def _probe_grid_costs_seconds(cfg) -> bool:
    # family_delta1 maps the box corners on 17^4 and 17^5 probe points
    hyp_cfg = cfg.get("hypothesis")
    return (isinstance(hyp_cfg, dict) and type(hyp_cfg.get("dim")) is int
            and 4 <= hyp_cfg["dim"] <= 5)


@settings(max_examples=200)
@given(_mutated_configs())
def test_cli_contract_fuzz(case):
    """Exit 0 or 2, never a traceback; on 2, stderr is one JSON object."""
    command, cfg = case
    assume(not _probe_grid_costs_seconds(cfg))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # runs two levels down, so an "out" of ".." stays inside tmp
        work = os.path.join(tmp, "a", "b")
        os.makedirs(work)
        with open(os.path.join(tmp, "cfg.json"), "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        err, out = io.StringIO(), io.StringIO()
        os.chdir(work)
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
                code = main([command, "--config", os.path.join(tmp, "cfg.json")])
        finally:
            os.chdir(cwd)
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().count("\n") == 1
        blob = json.loads(err.getvalue())
        assert isinstance(blob, dict) and set(blob) == {"error", "message"}
