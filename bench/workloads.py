"""The three benchmark workloads: configs, work units and artifact checks.

Each workload is one `trigan` CLI command on a config file that the
benchmark writes from its seed. Sizes are scaled so that one CLI
invocation takes a few seconds on a 2-core VM, which lets one run of the
benchmark repeat the invocation several times and report medians.

Every check returns a list of problems; an empty list means the artifacts
are correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

LOG2 = math.log(2.0)

# the README hypothesis, for the 1D workload
HYP_1D = {"dim": 1, "k": 3, "alpha": 0.5, "K": 2.0,
          "family": "bernstein_triangular", "degree": 2, "coupling_degree": 1}
# 4 parameters, epsilon 0.07 gives a 3^4 = 81 member net
HYP_2D = {"dim": 2, "k": 3, "alpha": 0.5, "K": 3.0,
          "family": "bernstein_triangular", "degree": 2, "coupling_degree": 0}
COUPLED = {"family": "coupled", "dim": 2, "params": {"a": 0.8}}

SAMPLE_N = 2 ** 16
RATE_GRID = [64, 256, 1024, 4096]
RATE_TRIALS = 3
RATE_NET = 16
FIT2D_NET = 81
FIT2D_N = 256

# chi-square quantile: each of the three tests (two marginals, one joint)
# fails a correct sampler with probability 1e-5 (normal quantile 4.2649)
_Z_CHI2 = 4.2649
_CHI2_BINS = 32
# the coupling is smooth, so coarse cells give the joint test the most power:
# at n = 2^16, independent draws from the true marginals have noncentrality
# 127 against a threshold of 51
_JOINT_BINS = 4
ROUNDTRIP_POINTS = 4096
ROUNDTRIP_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    # (module, attribute) of the first call that does the command's work;
    # everything before its first call is set-up
    marker: tuple
    unit: str
    make_config: Callable[[int, str], dict]
    work_units: Callable[[dict, str], int]
    check: Callable[[dict, str, str], list]
    expected_counts: Callable[[dict, str], dict]


def _read(out: str, name: str) -> str:
    with open(os.path.join(out, name), "r", encoding="utf-8") as fh:
        return fh.read()


def _fit_payload(out: str) -> dict:
    return json.loads(_read(out, "fit.json"))


def _numbers(obj):
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        yield float(obj)
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)


# ---------------------------------------------------------------------------
# sample2d


def _sample_config(seed: int, out: str) -> dict:
    return {"target": COUPLED, "resolution": 129, "n": SAMPLE_N,
            "seed": seed, "out": out, "threads": 1}


def chi2_threshold(df: int) -> float:
    """Upper chi-square quantile by the Wilson-Hilferty cube approximation."""
    c = 2.0 / (9.0 * df)
    return df * (1.0 - c + _Z_CHI2 * math.sqrt(c)) ** 3


def coupled_cell_probs(a: float, bins: int) -> np.ndarray:
    """Masses of the bins x bins grid cells under (1 + a y1 y2) / (1 + a/4)."""
    edges = np.linspace(0.0, 1.0, bins + 1)
    lo, hi = edges[:-1], edges[1:]
    width, moment = hi - lo, (hi * hi - lo * lo) / 2.0
    return (np.outer(width, width) + a * np.outer(moment, moment)) / (1.0 + a / 4.0)


def _chi2_problem(label: str, counts: np.ndarray, probs: np.ndarray) -> list:
    expected = counts.sum() * probs
    stat = float(np.sum((counts - expected) ** 2 / expected))
    limit = chi2_threshold(probs.size - 1)
    return [] if stat <= limit else [f"{label} chi-square {stat:.1f} > {limit:.1f}"]


def coupled_fit_problems(pts: np.ndarray, a: float) -> list:
    """Chi-square tests of both marginals and of the joint law of the points."""
    problems = []
    marginal = coupled_cell_probs(a, _CHI2_BINS).sum(axis=1)
    for axis in range(2):
        counts, _ = np.histogram(pts[:, axis], bins=_CHI2_BINS, range=(0.0, 1.0))
        problems += _chi2_problem(f"marginal {axis + 1}", counts, marginal)
    counts, _, _ = np.histogram2d(pts[:, 0], pts[:, 1], bins=_JOINT_BINS,
                                  range=((0.0, 1.0), (0.0, 1.0)))
    problems += _chi2_problem("joint", counts, coupled_cell_probs(a, _JOINT_BINS))
    return problems


def _check_sample(cfg: dict, out: str, stdout: str) -> list:
    from trigan import density, rng, rosenblatt

    text = _read(out, "samples.csv")
    header, _, body = text.partition("\n")
    if header != "y1,y2":
        return [f"samples.csv header {header!r}"]
    pts = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    n = cfg["n"]
    if pts.shape != (n, 2):
        return [f"samples.csv holds shape {pts.shape}, expected {(n, 2)}"]
    problems = []
    if not np.all(np.isfinite(pts)) or pts.min() < 0.0 or pts.max() > 1.0:
        problems.append("samples leave [0, 1] or are not finite")
    spec = cfg["target"]
    target = density.make_density(spec["family"], dim=spec["dim"],
                                  resolution=cfg["resolution"], params=spec["params"])
    k = min(ROUNDTRIP_POINTS, n)
    z = rng.uniforms(cfg["seed"], rng.stream_id(rng.KIND_NOISE, 0), 0, k, 2)
    err = float(np.abs(rosenblatt.build_rosenblatt(target).apply(pts[:k]) - z).max())
    if not err <= ROUNDTRIP_TOL:
        problems.append(f"forward-map roundtrip error {err:.3e} > {ROUNDTRIP_TOL}")
    return problems + coupled_fit_problems(pts, spec["params"]["a"])


# ---------------------------------------------------------------------------
# rate1d


def _rate_config(seed: int, out: str) -> dict:
    return {"target": {"family": "uniform", "dim": 1}, "hypothesis": HYP_1D,
            "n_grid": RATE_GRID, "trials": RATE_TRIALS, "seed": seed,
            "epsilon": 0.03, "out": out, "threads": 1}


def rate_slope(ns, means) -> float:
    """Least-squares slope of log(mean) against log(n)."""
    x = np.log(np.asarray(ns, dtype=np.float64))
    y = np.log(np.asarray(means, dtype=np.float64))
    xc = x - x.mean()
    return float(np.sum(xc * (y - y.mean())) / np.sum(xc * xc))


def _check_rate(cfg: dict, out: str, stdout: str) -> list:
    rows = list(csv.DictReader(io.StringIO(_read(out, "rate.csv"))))
    if len(rows) != len(cfg["n_grid"]):
        return [f"rate.csv has {len(rows)} rows, expected {len(cfg['n_grid'])}"]
    problems = []
    vals = [{k: float(v) for k, v in row.items()} for row in rows]
    if not all(math.isfinite(v) for row in vals for v in row.values()):
        problems.append("rate.csv holds a non-finite value")
    for row in vals:
        if not row["mean"] <= row["bound_C_over_sqrt_n"]:
            problems.append(f"n={row['n']:.0f}: mean above C/sqrt(n)")
        if row["exceed_frac"] != 0.0:
            problems.append(f"n={row['n']:.0f}: exceed_frac {row['exceed_frac']}")
    slope = rate_slope([r["n"] for r in vals], [r["mean"] for r in vals])
    if not slope < 0.0:
        problems.append(f"log-log slope {slope} is not negative")
    if json.loads(_read(out, "bounds.json")).get("regularity_ok") is not True:
        problems.append("bounds.json: regularity_ok is not true")
    if not _read(out, "rate.svg").startswith("<svg"):
        problems.append("rate.svg is not an svg document")
    if f"net {RATE_NET} members x {RATE_NET ** 2} pairs" not in stdout:
        problems.append(f"stdout does not report a {RATE_NET}-member net")
    return problems


def _rate_counts(cfg: dict, out: str) -> dict:
    trials = len(cfg["n_grid"]) * cfg["trials"]
    c = RATE_NET
    # pair_loss_matrix: c; each trial: c at the real points + c*c at the fakes
    return {"learning.empirical_pair_matrix.calls": trials,
            "rosenblatt.PushforwardDensity.evaluate.calls": c + trials * (c + c * c)}


# ---------------------------------------------------------------------------
# fit2d_net


def _fit2d_config(seed: int, out: str) -> dict:
    return {"target": COUPLED, "resolution": 129, "hypothesis": HYP_2D,
            "n": FIT2D_N, "seed": seed, "epsilon": 0.07, "strategy": "net",
            "out": out, "threads": 1}


def _check_fit2d(cfg: dict, out: str, stdout: str) -> list:
    payload = _fit_payload(out)
    problems = []
    if payload.get("strategy") != "net_exhaustive":
        problems.append(f"strategy {payload.get('strategy')!r}, expected 'net_exhaustive'")
    if not all(math.isfinite(v) for v in _numbers(payload)):
        problems.append("fit.json holds a non-finite value")
    js = payload.get("js_to_target")
    if not (isinstance(js, float) and 0.0 <= js <= LOG2):
        problems.append(f"js_to_target {js!r} outside [0, log 2]")
    if len(payload.get("inner_values", {})) != FIT2D_NET:
        problems.append(f"{len(payload.get('inner_values', {}))} inner values, "
                        f"expected {FIT2D_NET}")
    if not payload["achieved_value"] >= -LOG2 - 1e-12:
        problems.append(f"achieved_value {payload['achieved_value']!r} < -log 2")
    if not payload["jac_lower"] >= 1.0 / cfg["hypothesis"]["K"]:
        problems.append(f"jac_lower {payload['jac_lower']!r} < 1/K")
    return problems


def _fit2d_counts(cfg: dict, out: str) -> dict:
    c = FIT2D_NET
    # real points c, fakes c*c, one js_divergence against the target
    return {"rosenblatt.PushforwardDensity.evaluate.calls": c + c * c + 1}


# ---------------------------------------------------------------------------


WORKLOADS = {
    wl.name: wl for wl in (
        Workload(
            name="sample2d",
            command="sample", marker=("trigan.rosenblatt", "sample"), unit="points",
            make_config=_sample_config,
            work_units=lambda cfg, out: cfg["n"],
            check=_check_sample,
            expected_counts=lambda cfg, out: {}),
        Workload(
            name="rate1d",
            command="rate", marker=("trigan.learning", "rate_experiment"), unit="trials",
            make_config=_rate_config,
            work_units=lambda cfg, out: len(cfg["n_grid"]) * cfg["trials"],
            check=_check_rate,
            expected_counts=_rate_counts),
        Workload(
            name="fit2d_net",
            command="fit", marker=("trigan.learning", "empirical_pair_matrix"),
            unit="losses",
            make_config=_fit2d_config,
            work_units=lambda cfg, out: FIT2D_NET * FIT2D_NET ** 2,
            check=_check_fit2d,
            expected_counts=_fit2d_counts),
    )
}
