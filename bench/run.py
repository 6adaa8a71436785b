"""Benchmark of the `trigan` CLI over three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S [--report PATH]

Run from the root of a source checkout; the library is imported from its
`src/` directory. One operation is one CLI invocation in a fresh process
(`--threads 1`), so every run pays the cold `make_config` cache as a CLI
user does. A run repeats the workload's invocation on one seed for about
S seconds, one process at a time, and reports medians over them. The run
and its invocations stay on one CPU, and a reference kernel is timed
before and after each invocation; times are reported at the kernel's
reference speed (see `hostspeed.py`), because the shared host's own speed
drifts by tens of percent from minute to minute.

With `--trace 0` the result holds the end-to-end metrics. With `--trace 1`
the run also makes one traced invocation in its own process and reports
the per-layer metrics from its spans. The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.

`--workload all` runs every workload in turn and prints each metric with
its median, quartiles and sample count; `--report PATH` then also makes a
traced run of each and writes the environment, configs, artifact hashes,
baseline medians and layer map to PATH.

The `--threads > 1` path (ProcessPoolExecutor) is not measured: the host
has two cores and is shared.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
from layers import LAYER_MAP, layer_metrics, unit_of  # noqa: E402
from tracer import SpanTable  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
# metric name -> unit, as BENCHMARK.json defines them
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# a run ends within this many seconds, even if an invocation hangs
RUN_BUDGET_S = 165.0
MIN_REPS = 3
# share of an invocation's wall time spent on the reference kernel before it
KERNEL_SHARE = 0.2
THREADS_NOTE = ("--threads > 1 (the ProcessPoolExecutor path) is not measured: "
                "every workload runs with --threads 1, one process at a time, "
                "on a shared 2-core host")


class BenchError(Exception):
    """The benchmark cannot run here (as opposed to an operation failing)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    # numpy's BLAS pool would compete with the one measured process
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _artifact_hashes(art: str) -> dict:
    return {name: _sha256(os.path.join(art, name)) for name in sorted(os.listdir(art))}


class Operation:
    """One CLI invocation: its timings, outputs and whether it failed."""

    def __init__(self, wl, cfg: dict, cfg_path: str, work: str, traced: bool):
        self.wl, self.cfg = wl, cfg
        self.art = os.path.join(ROOT, cfg["out"])
        self.result_path = os.path.join(work, "result.json")
        self.spans_path = os.path.join(work, "spans.json") if traced else None
        self.argv = [sys.executable, os.path.join(HERE, "child.py"), self.result_path,
                     "-" if traced else ":".join(wl.marker),
                     self.spans_path or "-", "--", wl.command, "--config", cfg_path,
                     "--threads", "1"]
        self.problems: list = []
        self.hashes: dict = {}
        self.wall_s = self.setup_s = self.peak_rss_mb = self.units_per_s = None
        self.stdout = ""

    def run(self, timeout: float) -> "Operation":
        shutil.rmtree(self.art, ignore_errors=True)
        for path in (self.result_path, self.spans_path):
            if path and os.path.exists(path):
                os.unlink(path)
        t0 = time.monotonic()
        try:
            proc = subprocess.run(self.argv, cwd=ROOT, env=_child_env(),
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.problems.append(f"timed out after {timeout:.0f} s")
            return self
        t1 = time.monotonic()
        self.stdout = proc.stdout
        if proc.returncode != 0:
            self.problems.append(f"exit code {proc.returncode}")
        if proc.stderr:
            self.problems.append(f"stderr: {proc.stderr.strip()[-400:]}")
        if self.problems:
            return self
        with open(self.result_path, "r", encoding="utf-8") as fh:
            rec = json.load(fh)
        if not os.path.abspath(rec["trigan_file"]).startswith(SRC + os.sep):
            raise BenchError(f"trigan was imported from {rec['trigan_file']}, not {SRC}")
        self.hashes = _artifact_hashes(self.art)
        self.wall_s = t1 - t0
        self.peak_rss_mb = rec["peak_rss_kb"] / 1024.0
        if self.spans_path is None:
            if rec["t_marker"] is None:
                self.problems.append(f"set-up marker {self.wl.marker} never called")
                return self
            self.setup_s = rec["t_marker"] - t0
            units = self.wl.work_units(self.cfg, self.art)
            self.units_per_s = units / (self.wall_s - self.setup_s)
        return self

    def check(self) -> None:
        """Full artifact check; run once per distinct artifact set."""
        if not self.problems:
            self.problems.extend(self.wl.check(self.cfg, self.art, self.stdout))


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Run:
    """Repeated invocations of one workload on one seed."""

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise BenchError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.work = os.path.join(OUT, name)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.cfg = self.wl.make_config(seed, os.path.relpath(
            os.path.join(self.work, "artifacts"), ROOT))
        self.cfg_path = os.path.join(self.work, "config.json")
        with open(self.cfg_path, "w", encoding="utf-8") as fh:
            json.dump(self.cfg, fh, indent=2, sort_keys=True)
        self.ops: list[Operation] = []
        # reference kernel times, one before each untraced invocation
        self.kernel_s: list = []
        self.reference: dict | None = None
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def _op(self, traced: bool) -> Operation:
        timeout = max(self.deadline - time.monotonic(), 1.0)
        op = Operation(self.wl, self.cfg, self.cfg_path, self.work, traced).run(timeout)
        if not op.problems:
            if self.reference is None:
                op.check()
                if not op.problems:
                    self.reference = op.hashes
            elif op.hashes != self.reference:
                op.problems.append("artifact bytes differ between repetitions of one seed")
        self.ops.append(op)
        return op

    def _kernel(self) -> None:
        walls = [op.wall_s for op in self.ops if op.wall_s is not None]
        wall = statistics.median(walls) if walls else 1.0
        self.kernel_s.append(hostspeed.kernel_seconds(KERNEL_SHARE * wall))

    def measure(self, seconds: float) -> None:
        """Untraced invocations for about `seconds`, each between two kernel samples."""
        start = time.monotonic()
        while True:
            self._kernel()
            self._op(traced=False)
            elapsed = time.monotonic() - start
            walls = [op.wall_s for op in self.ops if op.wall_s is not None]
            step = (1.0 + KERNEL_SHARE) * statistics.median(walls) if walls else \
                elapsed / len(self.ops)
            if time.monotonic() + step > self.deadline:
                break
            # one more invocation if at least half of it fits in `seconds`
            if len(self.ops) >= MIN_REPS and elapsed + step / 2 > seconds:
                break
        self._kernel()

    def untraced(self) -> list:
        return [op for op in self.ops if op.spans_path is None and not op.problems]

    def speeds(self) -> list:
        """Host speed during each measured invocation, relative to `REF_S`:
        the reference time over the mean of the kernel samples around it."""
        k = self.kernel_s
        return [2.0 * hostspeed.REF_S / (k[i] + k[i + 1]) for i in range(len(k) - 1)]

    def end_to_end(self) -> dict:
        """Each metric per correct untraced invocation, times at the reference speed."""
        values: dict = {m: [] for m in END_TO_END}
        for op, speed in zip(self.ops, self.speeds()):
            if op.problems:
                continue
            scale = {"wall_s": speed, "setup_s": speed, "units_per_s": 1.0 / speed}
            for m in END_TO_END:
                values[m].append(getattr(op, m) * scale.get(m, 1.0))
        return values

    def trace(self) -> tuple[dict, dict]:
        """One traced invocation: per-layer metrics and coverage mismatches."""
        op = self._op(traced=True)
        if op.problems:
            return {}, {}
        metrics = layer_metrics(SpanTable.load(op.spans_path))
        walls = [o.wall_s for o in self.untraced()]
        metrics["trace.overhead_s"] = op.wall_s - statistics.median(walls)
        expected = self.wl.expected_counts(self.cfg, op.art)
        coverage = {k: (v, metrics.get(k)) for k, v in expected.items()
                    if metrics.get(k) != v}
        return metrics, coverage

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.problems)


def _print_problems(run: Run) -> None:
    for i, op in enumerate(run.ops):
        for problem in op.problems:
            print(f"{run.wl.name}: operation {i}: FAILED: {problem}")


def _print_table(run: Run) -> dict:
    """Median, quartiles and sample count of each end-to-end metric."""
    summary = {}
    for metric, values in run.end_to_end().items():
        if not values:
            continue
        q1, med, q3 = _quartiles(values)
        unit = END_TO_END[metric]
        label = f"{run.wl.name}.{run.wl.unit}_per_s" if metric == "units_per_s" else \
            f"{run.wl.name}.{metric}"
        print(f"{label:<32} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"n={len(values)} [{unit}]")
        summary[metric] = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                           "unit": unit}
    print(f"{run.wl.name + '.host_speed':<32} median {statistics.median(run.speeds()):.4f} "
          f"(reference kernel pass {hostspeed.REF_S} s)")
    frac = run.failed / len(run.ops)
    print(f"{run.wl.name + '.failed_ops_frac':<32} {frac!r} "
          f"({run.failed} of {len(run.ops)} operations)")
    summary["failed_ops_frac"] = frac
    return summary


def _print_layers(name: str, metrics: dict, coverage: dict) -> None:
    for key in sorted(metrics):
        print(f"{name}: {key} = {metrics[key]!r} [{unit_of(key)}]")
    for key, (want, got) in sorted(coverage.items()):
        print(f"{name}: coverage MISMATCH {key}: expected {want}, traced {got}")
    if not coverage:
        print(f"{name}: coverage ok")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(name, seed)
    run.measure(seconds)
    _print_table(run)
    metrics: dict = {}
    if trace and run.untraced():
        layer, coverage = run.trace()
        _print_layers(name, layer, coverage)
        metrics = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER.items()
                   if k in layer}
    elif not trace:
        e2e = run.end_to_end()
        metrics = {k: {"value": statistics.median(v), "unit": END_TO_END[k]}
                   for k, v in e2e.items() if v}
    _print_problems(run)
    expected = PER_LAYER if trace else END_TO_END
    correct = run.failed == 0 and set(metrics) == set(expected)
    return {"correct": correct, "attempted": len(run.ops), "failed": run.failed,
            "metrics": metrics}


def _environment() -> dict:
    import numpy
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit}


def run_all(seed: int, seconds: float, report: str | None) -> int:
    record = {"seed": seed, "seconds": seconds, "environment": _environment(),
              "threads_note": THREADS_NOTE, "workloads": {}, "layer_map": {
                  k: {"moves": m, "workloads": w} for k, (m, w) in LAYER_MAP.items()}}
    why = {w["name"]: w["why"] for w in SPEC["workloads"]}
    failed = 0
    for name, wl in WORKLOADS.items():
        run = Run(name, seed)
        run.measure(seconds)
        entry = {"why": why[name], "command": wl.command, "unit": wl.unit,
                 "config": run.cfg, "baseline": _print_table(run),
                 "artifact_sha256": run.reference}
        if report is not None and run.untraced():
            layer, coverage = run.trace()
            _print_layers(name, layer, coverage)
            entry["per_layer"] = layer
            entry["coverage_mismatch"] = {k: list(v) for k, v in coverage.items()}
        _print_problems(run)
        failed += run.failed
        record["workloads"][name] = entry
    if report is not None:
        with open(report, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report -> {report}")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {sorted(WORKLOADS)}, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", default=None,
                        help="with --workload all: write the baseline record here")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "trigan", "cli.py")):
        print(f"error: no trigan sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 63:
        print("error: --seed must lie in [0, 2^63)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    hostspeed.pin_to_one_cpu()
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.report)
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
