"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Each test measures the quantities it needs at the stated tolerance and
prints a single verdict line; the assertion carries the same condition so
the pytest outcome and the printed line always agree.
"""

import json
import math
import time

import numpy as np
import pytest

import trigan.bounds as bd
import trigan.density as dn
import trigan.divergence as dv
import trigan.hypothesis as hyp
import trigan.learning as ln
import trigan.rosenblatt as rb
from trigan.cli import main
from trigan.errors import IntegralDivergent

import oracles
from box_params import random_box_params

LOG2 = math.log(2.0)

# 0.99 quantile of the chi-square law with 31 degrees of freedom
CHI2_CRIT_31 = 52.19139483319193


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def _cube_grid(dim: int, m: int) -> np.ndarray:
    axes = [np.linspace(0.0, 1.0, m)] * dim
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)


# ---------------------------------------------------------------------------


def test_criterion_01_rosenblatt_roundtrip(tilted, product2, coupled):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_rt, worst_jac = 0.0, 0.0
    for dens in (tilted, product2, coupled):
        psi = rb.build_rosenblatt(dens)
        phi = psi.inverse()
        pts = rng.random((1000, dens.dim))
        worst_rt = max(worst_rt,
                       float(np.abs(psi.apply(phi.apply(pts)) - pts).max()),
                       float(np.abs(phi.apply(psi.apply(pts)) - pts).max()))
        grid = _cube_grid(dens.dim, 17)
        worst_jac = max(worst_jac, float(
            np.abs(rb.PushforwardDensity(phi).evaluate(grid) - dens.evaluate(grid)).max()))
    secs = time.perf_counter() - t0
    ok = worst_rt < 1e-8 and worst_jac < 1e-5 and secs < 10.0
    _verdict(1, "rosenblatt-roundtrip", ok,
             f"roundtrip {worst_rt:.2e}, jacobian {worst_jac:.2e}, {secs:.1f}s")


def test_criterion_02_generator_realizes_target(tilted, product2, coupled):
    t0 = time.perf_counter()
    edges = np.linspace(0.0, 1.0, 33)
    lo, up = edges[:-1], edges[1:]
    tilt_p = (2.0 / 3.0) * ((up - lo) + (up * up - lo * lo) / 2.0)
    a = 0.8
    coup_p = ((up - lo) + a * (up * up - lo * lo) / 4.0) / (1.0 + a / 4.0)
    marginals = {id(tilted): [tilt_p], id(product2): [tilt_p, tilt_p],
                 id(coupled): [coup_p, coup_p]}
    worst_chi2, l1 = 0.0, math.inf
    for dens in (tilted, product2, coupled):
        gen = rb.build_rosenblatt(dens).inverse()
        pts = rb.sample(gen, 10**6, seed=20260818)
        for ax, probs in enumerate(marginals[id(dens)]):
            counts, _ = np.histogram(pts[:, ax], bins=edges)
            expect = 10**6 * probs
            worst_chi2 = max(worst_chi2,
                             float(np.sum((counts - expect) ** 2 / expect)))
            if dens.dim == 1:
                l1 = float(np.abs(counts / 10**6 - probs).sum())
    secs = time.perf_counter() - t0
    ok = worst_chi2 < CHI2_CRIT_31 and l1 < 0.01 and secs < 30.0
    _verdict(2, "generator-realizes-target", ok,
             f"worst chi2 {worst_chi2:.1f} < {CHI2_CRIT_31:.1f}, "
             f"L1 {l1:.4f}, {secs:.0f}s")


def test_criterion_03_js_identity(tilted, product2, coupled, cfg1, cfg2):
    worst = 0.0
    for dens, cfg in ((tilted, cfg1), (product2, cfg2), (coupled, cfg2)):
        for row in random_box_params(cfg, 20, seed=303):
            fphi = rb.PushforwardDensity(hyp.make_generator(cfg, row))
            js = dv.js_divergence(dens, fphi)
            loss = oracles.theoretical_loss(dens, fphi,
                                       oracles.optimal_discriminator(dens, fphi))
            worst = max(worst, abs(js - (loss + LOG2)))
    ok = worst < 1e-8
    _verdict(3, "js-identity", ok, f"worst |d_JS - (L + log 2)| = {worst:.2e}")


def test_criterion_04_optimal_discriminator(tilted, product2, coupled,
                                            cfg1, cfg2):
    rng = np.random.default_rng(11)
    ok, strict_cases, min_gap = True, 0, math.inf
    for dens, cfg in ((tilted, cfg1), (product2, cfg2), (coupled, cfg2)):
        pts, _ = dv.eval_grid(cfg.dim)
        for row in random_box_params(cfg, 3, seed=7):
            fphi = rb.PushforwardDensity(hyp.make_generator(cfg, row))
            dopt = oracles.optimal_discriminator(dens, fphi)
            lopt = oracles.theoretical_loss(dens, fphi, dopt)
            base = dopt(pts)
            for i in range(50):
                amp = 10.0 ** rng.uniform(-5, -1)
                k = int(rng.integers(1, 4))
                phase = float(rng.uniform(0.0, 2.0 * np.pi))
                axis = i % cfg.dim

                def pert(x, amp=amp, k=k, phase=phase, axis=axis):
                    wave = amp * np.cos(2.0 * np.pi * k * x[:, axis] + phase)
                    return np.clip(dopt(x) + wave, 1e-9, 1.0 - 1e-9)

                sup = float(np.abs(pert(pts) - base).max())
                gap = lopt - oracles.theoretical_loss(dens, fphi, pert)
                min_gap = min(min_gap, gap)
                ok &= gap >= 0.0
                if sup > 1e-3:
                    strict_cases += 1
                    ok &= gap > 0.0
    ok &= strict_cases >= 50
    _verdict(4, "optimal-discriminator", ok,
             f"min gap {min_gap:.2e}, {strict_cases} strict cases")


def test_criterion_05_discriminator_bounds(cfg1, cfg2):
    rng = np.random.default_rng(5)
    ok = True
    for cfg in (cfg1, cfg2):
        b1 = 1.0 / (1.0 + math.factorial(cfg.dim) * cfg.K ** (cfg.dim + 1))
        vecs = random_box_params(cfg, 12, seed=55)
        pts = rng.random((10**4, cfg.dim))
        # D_ab = f_a / (f_a + f_b) on the 6 pairs (2i, 2i + 1)
        f = rb.PushforwardDensity(hyp.make_generator(cfg, vecs)).evaluate(pts)
        for i in range(6):
            vals = f[2 * i] / (f[2 * i] + f[2 * i + 1])
            ok &= bool((vals >= b1).all() and (vals <= 1.0 - b1).all())
        lower, upper = bd.discriminator_constants(cfg.dim, cfg.K)
        ok &= lower == b1 and lower + upper == 1.0
    _verdict(5, "discriminator-bounds", ok,
             "12 pairs x 1e4 points inside [B1, 1 - B1], B1 + B2 == 1")


def test_criterion_06_empirical_loss_unbiased(tilted, cfg1):
    vecs = random_box_params(cfg1, 15, seed=606)
    combos = [(0, (1, 2)), (3, (4, 5)), (6, (7, 8)), (9, (10, 11)),
              (12, (13, 14))]
    maps, group = hyp.distinct_maps(cfg1, vecs)
    theo = ln.pair_loss_matrix(tilted, maps)[np.ix_(group, group, group)]
    worst = 0.0
    for gi, pair in combos:
        # the loss of gi against D_pair: its entry in the cube over their maps
        triple, at = hyp.distinct_maps(cfg1, [vecs[gi], vecs[pair[0]], vecs[pair[1]]])
        vals = np.array([
            ln.empirical_pair_matrix(
                triple, ln.make_training_sample(tilted, 1000, seed=909, trial=t))[tuple(at)]
            for t in range(200)])
        dev = abs(float(vals.mean()) - float(theo[gi, pair[0], pair[1]]))
        lim = 3.0 * float(vals.std(ddof=1)) / math.sqrt(200.0)
        worst = max(worst, dev / lim)
    ok = worst <= 1.0
    _verdict(6, "empirical-loss-unbiased", ok,
             f"worst |mean - L| at {worst:.2f} of the 3-sigma budget")


def test_criterion_07_error_decomposition(tilted, cfg1):
    """0 <= inner(g_hat) - inner(g_star) <= 2 eps_hat per trial; the 1e-13
    cushion absorbs float roundoff in the two matrix reductions."""
    net = hyp.build_eps_net(cfg1, 0.05)
    maps, group = hyp.distinct_maps(cfg1, net)
    nominal = np.ix_(group, group, group)
    theo = ln.pair_loss_matrix(tilted, maps)[nominal]
    inner_theo = theo.max(axis=(1, 2))
    star = float(inner_theo.min())
    ok, worst = True, -math.inf
    for t in range(100):
        sample = ln.make_training_sample(tilted, 128, seed=777, trial=t)
        emp = ln.empirical_pair_matrix(maps, sample)[nominal]
        ghat = int(np.argmin(emp.max(axis=(1, 2))))
        gap = float(inner_theo[ghat]) - star
        eps_hat = float(np.abs(emp - theo).max())
        ok &= -1e-13 <= gap <= 2.0 * eps_hat + 1e-13
        worst = max(worst, gap - 2.0 * eps_hat)
    ok &= len(net) <= 1000
    _verdict(7, "error-decomposition", ok,
             f"100 trials, net 9, worst gap-over-bound {worst:.2e}")


def test_criterion_08_rate_reproduction(uniform1, cfg1):
    t0 = time.perf_counter()
    net = hyp.build_eps_net(cfg1, 0.03)
    report = ln.rate_experiment(cfg1, uniform1,
                                [2**6, 2**8, 2**10, 2**12, 2**14], 50,
                                seed=20260818, net=net)
    secs = time.perf_counter() - t0
    means = [row.mean for row in report.rows]
    ok = (math.isfinite(report.slope) and -0.6 <= report.slope <= -0.4
          and report.net_size <= 200
          and all(a > b for a, b in zip(means, means[1:]))
          and secs < 300.0)
    _verdict(8, "rate-reproduction", ok,
             f"slope {report.slope:.3f} in [-0.6, -0.4], "
             f"net {report.net_size}, {secs:.0f}s")


def test_criterion_09_concentration_dominance(uniform1, cfg1):
    net = hyp.build_eps_net(cfg1, 0.1)
    maps, _ = hyp.distinct_maps(cfg1, net)
    vals = ln.sampling_error_grid(uniform1, maps, ln.pair_loss_matrix(uniform1, maps),
                                  [1024], 500, seed=4242)[0]
    threshold, prob = bd.thm54_threshold_and_prob(
        cfg1.dim, cfg1.alpha, cfg1.k, cfg1.K, 1024, 0.25,
        hyp.family_delta1(cfg1))
    frac = float((vals > threshold).mean())
    ok = frac <= prob and frac == 0.0 and prob < 1e-12
    _verdict(9, "concentration-dominance", ok,
             f"exceedance {frac} <= bound {prob}, "
             f"max error {vals.max():.3f} vs threshold {threshold:.3g}")


def test_criterion_10_bound_calculator_algebra():
    ok = True
    base_rho = bd.rho_metric(2, 3.0, 1, 0.3, 0.05)
    base_dud = bd.dudley_bound(1, 0.5, 3, 2.0, 1, 1.0)
    for n in (4, 7, 100, 4096):
        ok &= bd.rho_metric(2, 3.0, n, 0.3, 0.05) == base_rho / math.sqrt(n)
        ok &= bd.dudley_bound(1, 0.5, 3, 2.0, n, 1.0) == base_dud / math.sqrt(n)
    for d, k, alpha in ((4, 1, 0.5), (1, 1, 0.5), (2, 2, 0.0)):
        ok &= d / (2.0 * (alpha + k - 1)) >= 1.0
        with pytest.raises(IntegralDivergent):
            bd.dudley_bound(d, alpha, k, 2.0, 16, 1.0)
    for d, k, alpha in ((1, 3, 0.5), (2, 3, 0.5)):
        ok &= d / (2.0 * (alpha + k - 1)) < 1.0
        bd.dudley_bound(d, alpha, k, 2.0, 16, 1.0)
    gammas = {bd.bound_report(1, 0.5, 3, K, 64).gamma for K in (1.5, 2.0, 5.0)}
    ok &= len(gammas) == 1
    ok &= bd.k_schedule(math.e**4, 0.5) == 2.0
    ok &= bd.bound_report(2, 0.5, 3, 3.0, 512) == \
        bd.bound_report(2, 0.5, 3, 3.0, 512)
    _verdict(10, "bound-calculator-algebra", ok,
             "1/sqrt(n) exact, divergence gate, gamma K-free, schedule, "
             "bit-stable")


def test_criterion_11_cli_determinism(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    hyp_payload = {"dim": 1, "k": 3, "alpha": 0.5, "K": 2.0,
                   "family": "bernstein_triangular", "degree": 2,
                   "coupling_degree": 1}
    target = {"family": "coupled", "dim": 2, "resolution": 33}
    runs = {
        "sample": ({"target": target, "n": 64, "seed": 3},
                   ["samples.csv"], True),
        "density": ({"target": target}, ["density.json"], False),
        "fit": ({"target": {"family": "uniform", "dim": 1},
                 "hypothesis": hyp_payload, "n": 32, "seed": 3},
                ["fit.json"], True),
        "rate": ({"target": {"family": "uniform", "dim": 1},
                  "hypothesis": hyp_payload, "n_grid": [16, 32], "trials": 2,
                  "seed": 3, "epsilon": 0.1},
                 ["rate.csv", "rate.svg", "bounds.json"], True),
        "bounds": ({"hypothesis": hyp_payload, "n": 100}, ["bounds.json"],
                   False),
    }
    ok = True
    for command, (payload, artifacts, threaded) in runs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(payload), encoding="utf-8")
        outputs = []
        for run_id, threads in enumerate((1, 2, 4) if threaded else (1, 1)):
            out_dir = tmp_path / f"{command}-{run_id}"
            argv = [command, "--config", str(cfg_path), "--out", str(out_dir)]
            if threaded:
                argv += ["--threads", str(threads)]
            assert main(argv) == 0
            stdout = capsys.readouterr().out.replace(str(out_dir), "OUT")
            blobs = [(out_dir / name).read_bytes() for name in artifacts]
            outputs.append((stdout, blobs))
        ok &= all(run == outputs[0] for run in outputs[1:])
    _verdict(11, "cli-determinism", ok,
             "5 commands byte-identical across reruns and thread counts")
