"""Command-line front end: config parsing, orchestration, artifact output.

One JSON config file plus flag overrides fully determines a run; artifacts
are written atomically and are byte-identical across reruns and across
worker counts. Errors leave a single machine-readable JSON object on
stderr and a nonzero exit status.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import NamedTuple

import numpy as np

from . import bounds as bounds_mod
from . import density as density_mod
from . import divergence
from . import hypothesis as hyp_mod
from . import learning
from . import rosenblatt
from .errors import ConfigInvalid, TriganError, _finite_number

_COMMANDS = ("sample", "density", "fit", "rate", "bounds")

_ALLOWED = {
    "sample": {"target", "n", "seed", "out", "threads", "resolution"},
    "density": {"target", "out", "resolution"},
    "fit": {"target", "hypothesis", "n", "seed", "strategy", "epsilon", "out",
            "threads", "resolution"},
    "rate": {"target", "hypothesis", "n_grid", "trials", "seed", "delta", "delta1",
             "epsilon", "threads", "out", "exact_integral", "resolution"},
    "bounds": {"hypothesis", "n", "delta", "delta1", "beta", "exact_integral", "out"},
}
# sizes enter float formulas, so they stay exact as floats
_MAX_N = 2**53
# samples.csv holds at most 2^20 points: its file stays within about 20 MB per axis
_MAX_SAMPLE = 1 << 20
# rows per orjson call and per chunk streamed to samples.csv; the writer's peak
# memory grows with it (at 8192 rows, 0.9x the size of a 2^16-point 2D file)
_CSV_BLOCK = 1024
_REQUIRED = {
    "sample": {"target", "n", "seed"},
    "density": {"target"},
    "fit": {"target", "hypothesis", "n", "seed"},
    "rate": {"target", "hypothesis", "n_grid", "trials", "seed"},
    "bounds": {"hypothesis", "n"},
}


class RunConfig(NamedTuple):
    command: str
    target: dict | None = None
    hypothesis: dict | None = None
    n: int | None = None
    n_grid: tuple | None = None
    trials: int | None = None
    seed: int | None = None
    delta: float = 0.1
    delta1: float | None = None
    beta: float | None = None
    epsilon: float = 0.25
    out: str = "."
    threads: int = 1
    exact_integral: bool = False
    resolution: int | None = None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigInvalid(message)


def _positive_int(raw, key: str, minimum: int = 1) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigInvalid(f"{key} must be an integer")
    if raw < minimum:
        raise ConfigInvalid(f"{key} must be >= {minimum}")
    return raw


def _positive_float(raw, key: str) -> float:
    val = _finite_number(raw, key)
    if not val > 0.0:
        raise ConfigInvalid(f"{key} must be positive")
    return val


def _path(raw, key: str) -> str:
    if not isinstance(raw, str) or "\x00" in raw:
        raise ConfigInvalid(f"{key} must be a path without NUL bytes")
    return raw


def build_run_config(command: str, file_cfg: dict, overrides: dict) -> RunConfig:
    if command not in _COMMANDS:
        raise ConfigInvalid(f"unknown command {command!r}")
    allowed = _ALLOWED[command]
    unknown = set(file_cfg) - allowed
    if unknown:
        raise ConfigInvalid(f"unknown config keys for {command}: {sorted(unknown)}")
    merged = dict(file_cfg)
    for key, val in overrides.items():
        if val is None:
            continue
        if key not in allowed:
            raise ConfigInvalid(f"flag --{key.replace('_', '-')} not valid for {command}")
        merged[key] = val
    missing = _REQUIRED[command] - set(merged)
    if missing:
        raise ConfigInvalid(f"{command} requires config keys {sorted(missing)}")

    kw: dict = {"command": command}
    if "target" in merged:
        kw["target"] = merged["target"]
    if "hypothesis" in merged:
        kw["hypothesis"] = merged["hypothesis"]
    if "n" in merged:
        kw["n"] = _positive_int(merged["n"], "n")
    if "n_grid" in merged:
        grid = merged["n_grid"]
        if not isinstance(grid, (list, tuple)) or not grid:
            raise ConfigInvalid("n_grid must be a nonempty list")
        kw["n_grid"] = tuple(_positive_int(v, "n_grid entry") for v in grid)
    if max((kw.get("n", 1), *kw.get("n_grid", ()))) > _MAX_N:
        raise ConfigInvalid("sample sizes must be at most 2**53")
    if command == "sample" and kw["n"] > _MAX_SAMPLE:
        raise ConfigInvalid(f"sample writes at most {_MAX_SAMPLE} points")
    if "trials" in merged:
        kw["trials"] = _positive_int(merged["trials"], "trials")
        if kw["trials"] > 1 << 56:
            # trial indices past 2**56 overflow the RNG stream key; refused
            # here, before the net and its loss cube are built
            raise ConfigInvalid("trials must be in [1, 2**56]")
    if "seed" in merged:
        if isinstance(merged["seed"], bool) or not isinstance(merged["seed"], int):
            raise ConfigInvalid("seed must be an integer")
        if not 0 <= merged["seed"] < 2**64:
            raise ConfigInvalid("seed must lie in [0, 2**64)")
        kw["seed"] = merged["seed"]
    for key in ("delta", "delta1", "beta", "epsilon"):
        if key in merged:
            kw[key] = _positive_float(merged[key], key)
    if "out" in merged:
        kw["out"] = _path(merged["out"], "out")
    if "threads" in merged:
        kw["threads"] = _positive_int(merged["threads"], "threads")
    if "exact_integral" in merged:
        if not isinstance(merged["exact_integral"], bool):
            raise ConfigInvalid("exact_integral must be a boolean")
        kw["exact_integral"] = merged["exact_integral"]
    # kept so configs that name the exhaustive net search still run
    if merged.get("strategy", "net") != "net":
        raise ConfigInvalid("strategy must be 'net'")
    if "resolution" in merged:
        kw["resolution"] = _positive_int(merged["resolution"], "resolution", minimum=2)
    return RunConfig(**kw)


# ---------------------------------------------------------------------------
# pieces


def _build_target(spec, resolution: int | None) -> density_mod.GridDensity:
    if not isinstance(spec, dict):
        raise ConfigInvalid("target must be an object")
    if "path" in spec:
        unknown = set(spec) - {"path"}
        if unknown:
            raise ConfigInvalid(f"unknown target keys {sorted(unknown)}")
        return density_mod.load_density(_path(spec["path"], "target path"))
    unknown = set(spec) - {"family", "dim", "resolution", "params"}
    if unknown:
        raise ConfigInvalid(f"unknown target keys {sorted(unknown)}")
    if "family" not in spec:
        raise ConfigInvalid("target needs a 'family' or a 'path'")
    dim = _positive_int(spec["dim"], "target dim") if "dim" in spec else None
    if "resolution" in spec:
        resolution = _positive_int(spec["resolution"], "target resolution", minimum=2)
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ConfigInvalid("target params must be an object")
    for key, val in params.items():
        _finite_number(val, f"target param {key!r}")
    return density_mod.make_density(spec["family"], dim=dim, resolution=resolution,
                                    params=params)


def _build_model(rc: RunConfig) -> tuple:
    """Target, hypothesis config and net; bad dims, grids and trial sizes fail first."""
    target = _build_target(rc.target, rc.resolution)
    if isinstance(rc.hypothesis, dict) and rc.hypothesis.get("dim", target.dim) != target.dim:
        raise ConfigInvalid(f"hypothesis dim {rc.hypothesis['dim']!r} differs from "
                            f"target dim {target.dim}")
    config = hyp_mod.config_from_dict(rc.hypothesis)
    divergence.eval_resolution(config.dim)
    net = hyp_mod.build_eps_net(config, rc.epsilon)
    learning.check_trial_size(max(rc.n_grid or (rc.n,)), config.dim, len(net))
    return target, config, net


def _out_path(rc: RunConfig, name: str) -> str:
    os.makedirs(rc.out, exist_ok=True)
    return os.path.join(rc.out, name)


def _samples_csv(points: np.ndarray):
    # imported here: orjson loads uuid and zoneinfo, which only sample pays for
    import orjson

    d = points.shape[1]
    yield ",".join(f"y{i + 1}" for i in range(d)) + "\n"
    for lo in range(0, len(points), _CSV_BLOCK):
        block = np.ascontiguousarray(points[lo:lo + _CSV_BLOCK], dtype=np.float64)
        # one flat list "[v,v,...]": past the "[", every d-th comma and the
        # closing "]" end a row
        raw = bytearray(orjson.dumps(block.ravel(), option=orjson.OPT_SERIALIZE_NUMPY))
        buf = np.frombuffer(raw, dtype=np.uint8)[1:]
        ends = np.append(np.flatnonzero(buf == ord(","))[d - 1::d], buf.size - 1)
        buf[ends] = ord("\n")
        text = str(buf.data, "ascii")
        # orjson prints repr's shortest digits, but in its own notation below
        # 1e-4 (0.00001 for 1e-05), at 1e16 and above (1e16 for 1e+16), and for
        # NaN and infinities (null): a row holding a value other than 0 or
        # 1e-4 <= |v| < 1e16 is rebuilt from repr and spliced in at its place
        mag = np.abs(block)
        off = ((mag < 1e-4) & (block != 0)) | ~(mag < 1e16)
        bad = sorted(set((np.flatnonzero(off) // d).tolist()))
        if bad:
            cuts = [-1] + ends.tolist()     # row i is text[cuts[i] + 1:cuts[i + 1]]
            pieces, pos = [], 0
            for i in bad:
                pieces += [text[pos:cuts[i] + 1], ",".join(map(repr, block[i].tolist()))]
                pos = cuts[i + 1]
            text = "".join(pieces) + text[pos:]
        yield text


# ---------------------------------------------------------------------------
# commands


def _cmd_sample(rc: RunConfig) -> None:
    target = _build_target(rc.target, rc.resolution)
    gen = rosenblatt.target_sampler(target)
    pts = rosenblatt.sample(gen, rc.n, rc.seed)
    path = _out_path(rc, "samples.csv")
    density_mod.write_chunks_atomic(_samples_csv(pts), path)
    print(f"sample: {rc.n} points, dim {target.dim}, seed {rc.seed} -> {path}")


def _cmd_density(rc: RunConfig) -> None:
    target = _build_target(rc.target, rc.resolution)
    path = _out_path(rc, "density.json")
    density_mod.save_density(target, path)
    print(f"density: dim {target.dim}, resolution {target.resolution}, "
          f"min {target.kappa!r} -> {path}")


def _cmd_fit(rc: RunConfig) -> None:
    target, config, net = _build_model(rc)
    sample = learning.make_training_sample(target, rc.n, rc.seed)
    result = learning.minimax_fit(config, target, sample, net=net)
    jac_lower, c1_upper = hyp_mod.jacobian_range(config, result.best_params)
    payload = {
        "strategy": "net_exhaustive",
        "achieved_value": result.achieved_value,
        "js_to_target": result.js_to_target,
        "best_params": [float(v) for v in result.best_params],
        "jac_lower": jac_lower,
        "c1_upper": c1_upper,
        "inner_values": {str(key): val for key, val in result.inner_values.items()},
    }
    path = _out_path(rc, "fit.json")
    density_mod.write_json_atomic(payload, path)
    print(f"fit: strategy net_exhaustive, value {result.achieved_value!r}, "
          f"js {result.js_to_target!r} -> {path}")


def _cmd_rate(rc: RunConfig) -> None:
    # bound here, so that both modules run before the trials start
    from ._svg import render_rate_plot
    from .bounds import bound_report, report_to_dict

    target, config, net = _build_model(rc)
    report = learning.rate_experiment(config, target, list(rc.n_grid), rc.trials,
                                      rc.seed, delta=rc.delta, delta1=rc.delta1,
                                      threads=rc.threads, net=net,
                                      exact_integral=rc.exact_integral)
    csv_path = _out_path(rc, "rate.csv")
    density_mod.write_text_atomic(learning.rate_report_csv(report), csv_path)
    svg_path = _out_path(rc, "rate.svg")
    density_mod.write_text_atomic(render_rate_plot(report), svg_path)
    n_ref = max(rc.n_grid)
    brep = bound_report(config.dim, config.alpha, config.k, config.K, n_ref,
                        delta=rc.delta, delta1=report.delta1,
                        exact_integral=rc.exact_integral)
    bounds_path = _out_path(rc, "bounds.json")
    density_mod.write_json_atomic(report_to_dict(brep), bounds_path)
    for warning in report.warnings:
        print(f"rate: warning: {warning}")
    print(f"rate: slope {report.slope!r}, net {report.net_size} members "
          f"x {report.net_size ** 2} pairs -> {csv_path} {svg_path} {bounds_path}")


def _cmd_bounds(rc: RunConfig) -> None:
    config = hyp_mod.config_from_dict(rc.hypothesis)
    big_k = config.K
    if rc.beta is not None:
        big_k = bounds_mod.k_schedule(rc.n, rc.beta)
        if big_k <= 1.0:
            raise ConfigInvalid("k_schedule gave K <= 1; raise n or beta")
        if not hyp_mod.bound_constants_finite(config.dim, big_k):
            raise ConfigInvalid(f"k_schedule gave K = {big_k!r}, which overflows "
                                "the bound constants; lower beta")
    delta1 = rc.delta1 if rc.delta1 is not None else hyp_mod.family_delta1(config)
    report = bounds_mod.bound_report(config.dim, config.alpha, config.k, big_k,
                                     rc.n, delta=rc.delta, delta1=delta1,
                                     exact_integral=rc.exact_integral)
    path = _out_path(rc, "bounds.json")
    density_mod.write_json_atomic(bounds_mod.report_to_dict(report), path)
    print(bounds_mod.report_table(report))
    print(f"bounds: regularity_ok {report.regularity_ok} -> {path}")


_DISPATCH = {
    "sample": _cmd_sample,
    "density": _cmd_density,
    "fit": _cmd_fit,
    "rate": _cmd_rate,
    "bounds": _cmd_bounds,
}


# ---------------------------------------------------------------------------
# entry point


def _make_parser() -> _Parser:
    parser = _Parser(prog="trigan",
                     description="Triangular-map generative learning workbench")
    # every command parses every flag; build_run_config refuses those it does not take
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--exact-integral", dest="exact_integral",
                        action="store_true", default=None)
    parser.add_argument("--delta", type=float, default=None)
    parser.add_argument("--beta", type=float, default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = _make_parser().parse_args(argv)
        file_cfg = {}
        if args.config is not None:
            file_cfg = density_mod.read_json(args.config)
            if not isinstance(file_cfg, dict):
                raise ConfigInvalid("config file must hold a JSON object")
        overrides = {key: val for key, val in vars(args).items()
                     if key not in ("command", "config")}
        rc = build_run_config(args.command, file_cfg, overrides)
        if gc.get_freeze_count() == 0:
            # frozen, the import-time heap (~22k containers) is not rescanned at exit
            gc.freeze()
        _DISPATCH[rc.command](rc)
        return 0
    except (TriganError, OSError) as exc:
        blob = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(blob, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
