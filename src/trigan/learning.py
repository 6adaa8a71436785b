"""Empirical loss, minimax learning, and the sampling-error rate experiment.

The population suprema over generator and discriminator spaces are taken
over explicit finite nets here: a lattice net of generator members, and as
discriminators the ratios D_ab = f_a / (f_a + f_b) of every ordered pair
of members. Lattice nets hold many members that realize the same map, so
the net is first reduced to its h distinct maps, stacked into one map of
lead (h,) (hypothesis.distinct_maps), with group[i] the index of member
i's map. Both loss matrices are (h, h, h) cubes L[g, a, b], the loss of
map g against D_ab; member i against the pair of members (j, k) reads
L[group[i], group[j], group[k]]. Every maximum over members is the same
maximum over maps, since each map is some member's. The theoretical cube
is computed once by quadrature and reused across all Monte Carlo trials.
Each cube takes every map's density from one PushforwardDensity.evaluate
call of the stack, and the empirical cube every map's fakes from one apply.

The cubes are filled in the log domain (divergence.pair_losses): with
log D_ab = log f_a - log(f_a + f_b) and log(1 - D_ab) = log f_b -
log(f_a + f_b), the loss is a sum of per-map and per-pair sums of logs,
each computed once over G + 1 row groups, the real points being the
last: the empirical cube's densities at the merged points are that layout
as they stand, and the theoretical cube's grid is one shared group under
G + 1 weight rows, the target's last. Each numpy call sums map a against
a block of its partners b > a, in one scratch array of bounded size. The
ratio discriminators exist only as the cubes' (a, b) axes: one map's loss
against one pair is the entry of the cube over their distinct maps,
bitwise the entry of any cube holding those maps, whatever the block.

Trials are independent by construction: trial t draws its real and noise
points from counter-RNG streams keyed (seed, stream(kind, t)), so any
assignment of trials to workers produces identical numbers. Point i of a
stream depends on its index alone and every kernel is pointwise, so trial
t at size n is the first n points of trial t at any larger size. A rate
trial is therefore one pass at max(n_grid): one draw, one push-forward,
one density evaluation and one log per row, and each n reads its cube off
prefix sums of those rows (pair_losses with ends).
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple

import numpy as np

from . import bounds, rng, rosenblatt
from .divergence import eval_grid, js_divergence, pair_losses
from .errors import ConfigInvalid, NetTooLarge
from .hypothesis import HypothesisConfig, distinct_maps, family_delta1, make_generator
from .rosenblatt import PushforwardDensity, TriangularMap, target_sampler

# entries of a nominal (c, c, c) loss cube over c members, 8 MB of
# floats; admits nets of up to 100 members
_MATRIX_CAP = 1_000_000
# floats of one trial: (n, d) real and noise points and the (c, c, n)
# densities of a c-member net at the fake points; 512 MB
_TRIAL_CAP = 1 << 26


# ---------------------------------------------------------------------------
# samples


class TrainingSample(NamedTuple("_SampleFields", [
        ("real_points", np.ndarray), ("noise_points", np.ndarray)])):
    """(n, d) draws from the target and (n, d) uniform noise, as read-only views."""

    __slots__ = ()

    def __new__(cls, real_points, noise_points):
        # views, so freezing them leaves the caller's arrays writeable
        arrays = [np.asarray(a, dtype=np.float64).view() for a in (real_points, noise_points)]
        for arr in arrays:
            arr.flags.writeable = False
        shape = arrays[0].shape
        if len(shape) != 2 or shape != arrays[1].shape or shape[0] < 1:
            raise ConfigInvalid(f"real and noise points must be (n, d) arrays of one "
                                f"shape, n >= 1: {shape}, {arrays[1].shape}")
        return super().__new__(cls, *arrays)

    @property
    def n(self) -> int:
        return len(self.real_points)


def check_trial_size(n: int, dim: int, members: int) -> None:
    """Refuse a sample size whose trial would hold more than _TRIAL_CAP floats."""
    size = n * (2 * dim + members * members)
    if size > _TRIAL_CAP:
        raise ConfigInvalid(f"n = {n} with {members} net members needs {size} floats "
                            f"per trial, cap is {_TRIAL_CAP}")


def make_training_sample(target, n: int, seed: int, trial: int = 0) -> TrainingSample:
    """Draw Y_i from the target and Z_i uniform, on disjoint RNG streams."""
    if n < 1:
        raise ConfigInvalid("sample size must be >= 1")
    return _draw_sample(target_sampler(target), n, seed, trial)


def _draw_sample(sampler: TriangularMap, n: int, seed: int, trial: int) -> TrainingSample:
    real = rosenblatt.sample(sampler, n, seed, rng.stream_id(rng.KIND_REAL, trial))
    noise = rng.uniforms(seed, rng.stream_id(rng.KIND_NOISE, trial), 0, n, sampler.dim)
    return TrainingSample(real_points=real, noise_points=noise)


# ---------------------------------------------------------------------------
# losses


def _net_maps(config: HypothesisConfig, vectors) -> tuple[TriangularMap, np.ndarray]:
    """The net's distinct maps, stacked, and each member's index into them;
    refuses a net whose nominal (c, c, c) cube would exceed _MATRIX_CAP."""
    c = len(vectors)
    if c ** 3 > _MATRIX_CAP:
        raise NetTooLarge(f"a net of {c} members needs {c ** 3} loss-matrix entries, "
                          f"cap is {_MATRIX_CAP}")
    return distinct_maps(config, vectors)


def pair_loss_matrix(target, maps: TriangularMap) -> np.ndarray:
    """Theoretical loss cube L[g, a, b] of map g of the stack maps against
    D_ab of maps a and b; each density is renormalized by its own
    quadrature mass."""
    pts, w = eval_grid(maps.dim)
    dens = PushforwardDensity(maps).evaluate(pts)
    tgt = np.asarray(target.evaluate(pts), dtype=np.float64)
    if np.any(tgt <= 0.0):
        raise ConfigInvalid("target density must be positive on the grid")
    # row g weights generator g's density, the last row the target's
    weights = np.concatenate([dens, tgt[None]])
    weights /= np.sum(w * weights, axis=-1, keepdims=True)
    weights *= w
    return pair_losses(0.5, dens, weights)


def empirical_pair_matrix(maps: TriangularMap, sample: TrainingSample,
                          ns=None) -> np.ndarray:
    """Empirical loss cube L[g, a, b] of map g of the stack maps against
    D_ab on one sample; with sizes ns, the (len(ns), h, h, h) stack of the
    cubes of the sample's first n points, one per n in ns (each at most
    sample.n).

    One apply writes every map's fakes, and then the real points are
    copied, into one ((h + 1) n, d) array, and one density call evaluates
    every map over it; the kernels are pointwise, so the values do not
    depend on where a point sits in that array.
    """
    (h,), n, d = maps.lead, sample.n, maps.dim
    points = np.empty(((h + 1) * n, d))
    maps.apply(sample.noise_points, out=points[:h * n].reshape(h, n, d))
    points[h * n:] = sample.real_points
    # row group g of map a's densities is generator g's fakes, the last the real points
    dens = PushforwardDensity(maps).evaluate(points).reshape(h, h + 1, n)
    ends = [n] if ns is None else ns
    cubes = pair_losses([1.0 / (2.0 * m) for m in ends], dens, ends=ends)
    return cubes[0] if ns is None else cubes


# ---------------------------------------------------------------------------
# minimax


class MinimaxResult(NamedTuple):
    best_params: np.ndarray    # the winning member's row of the net
    inner_values: dict
    achieved_value: float
    js_to_target: float


def minimax_fit(config: HypothesisConfig, target, sample: TrainingSample, *,
                net: np.ndarray) -> MinimaxResult:
    """The exact empirical minimax over the members of net, the
    (c, n_params) array of build_eps_net."""
    maps, group = _net_maps(config, net)
    emp = empirical_pair_matrix(maps, sample)
    inner = emp.max(axis=(1, 2))[group]
    best = int(np.argmin(inner))
    gen = make_generator(config, net[best])
    js = js_divergence(target, PushforwardDensity(gen))
    return MinimaxResult(best_params=net[best],
                         inner_values={g: float(inner[g]) for g in range(len(net))},
                         achieved_value=float(inner[best]), js_to_target=float(js))


# ---------------------------------------------------------------------------
# sampling error


def _sampling_trial(args) -> list:
    sampler, maps, sizes, seed, trial, losses = args
    cubes = empirical_pair_matrix(maps, _draw_sample(sampler, sizes[-1], seed, trial), sizes)
    return [float(np.abs(emp - losses).max()) for emp in cubes]


def _worker_count(threads: int, trials: int) -> int:
    """Processes worth starting: never more than the trials or the CPUs."""
    return min(threads, trials, os.cpu_count() or 1)


def sampling_error_grid(target, maps, losses: np.ndarray, n_grid, trials: int,
                        seed: int, threads: int = 1) -> np.ndarray:
    """(len(n_grid), trials) array: row i holds the per-trial sup
    |empirical - theoretical| over the maps and their pairs at n_grid[i].

    losses is pair_loss_matrix(target, maps). Each trial is one pass at
    max(n_grid) (_sampling_trial), with every distinct size a prefix of it.
    Results are indexed by trial and independent of the worker count.
    """
    if not 1 <= trials <= 1 << 56:
        # trial indices past 2**56 overflow the 64-bit RNG stream key
        raise ConfigInvalid("trials must be in [1, 2**56]")
    sampler = target_sampler(target)
    sizes = sorted(set(n_grid))
    tasks = [(sampler, maps, sizes, seed, t, losses) for t in range(trials)]
    workers = _worker_count(threads, trials)
    if workers <= 1:
        vals = [_sampling_trial(t) for t in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            vals = list(pool.map(_sampling_trial, tasks, chunksize=8))
    by_size = np.asarray(vals, dtype=np.float64).T
    return np.array([by_size[sizes.index(n)] for n in n_grid])


def _quantile(ordered: list, q: float) -> float:
    """The q-quantile of ascending finite values by numpy's default
    'linear' method, with its arithmetic and so its bits, but without the
    numpy.ma import that numpy's quantile pays for its index bookkeeping."""
    n = len(ordered)
    v = (n - 1) * q
    if v >= n - 1:
        return ordered[-1]
    i = math.floor(v)
    g = v - i
    a, b = ordered[i], ordered[i + 1]
    d = b - a
    return b - d * (1 - g) if g >= 0.5 else a + d * g


def _summarize(values: np.ndarray) -> dict:
    """A rate row's mean, std and q05/q50/q95 of one size's per-trial errors."""
    ordered = np.sort(values).tolist()
    q05, q50, q95 = (_quantile(ordered, q) for q in (0.05, 0.5, 0.95))
    std = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
    return dict(mean=float(np.mean(values)), std=std, q05=q05, q50=q50, q95=q95)


# ---------------------------------------------------------------------------
# rate experiment


class RateRow(NamedTuple):
    n: int
    trials: int
    mean: float
    std: float
    q05: float
    q50: float
    q95: float
    bound_C_over_sqrt_n: float
    thm54_threshold: float
    exceed_frac: float


class RateReport(NamedTuple):
    rows: tuple
    slope: float
    delta1: float
    net_size: int
    warnings: tuple = ()


def rate_experiment(config: HypothesisConfig, target, n_grid, trials: int,
                    seed: int, *, net: np.ndarray, delta: float = 0.1,
                    delta1: float | None = None, threads: int = 1,
                    exact_integral: bool = False) -> RateReport:
    """Mean sampling error across n over the members of net, the (c,
    n_params) array of build_eps_net. Each row's envelope C / sqrt(n) and
    concentration threshold are bounds.bound_report's dudley_value and
    thm54_threshold at that n, for the configured delta, exact_integral and
    delta1 (by default family_delta1, or nan when the config is not
    regular); all three bound columns are nan when the report is not regular."""
    n_grid = [int(n) for n in n_grid]
    if not n_grid or any(n < 1 for n in n_grid):
        raise ConfigInvalid("n_grid must be a nonempty list of positive sizes")
    maps, _ = _net_maps(config, net)
    losses = pair_loss_matrix(target, maps)

    warnings = []
    if delta1 is None:
        delta1 = family_delta1(config) if config.regular else float("nan")
    if not config.regular:
        warnings.append("regularity k > 1 - alpha + d/2 fails; bound columns are nan")

    rows = []
    grid_vals = sampling_error_grid(target, maps, losses, n_grid, trials, seed, threads)
    for n, vals in zip(n_grid, grid_vals):
        rep = bounds.bound_report(config.dim, config.alpha, config.k, config.K, n,
                                  delta=delta, delta1=delta1, exact_integral=exact_integral)
        exceed = (float(np.sum(vals > rep.thm54_threshold)) / vals.size
                  if rep.regularity_ok else float("nan"))
        rows.append(RateRow(n=n, trials=trials, **_summarize(vals),
                            bound_C_over_sqrt_n=rep.dudley_value,
                            thm54_threshold=rep.thm54_threshold, exceed_frac=exceed))

    slope_defined = len(set(n_grid)) >= 2
    means = np.asarray([r.mean for r in rows], dtype=np.float64)
    if slope_defined and not np.all(means > 0.0):
        # degenerate nets can hit the error exactly; log regression is moot
        slope_defined = False
        warnings.append("zero mean sampling error: slope undefined")
    if slope_defined:
        x = np.log(np.asarray(n_grid, dtype=np.float64))
        y = np.log(means)
        xc = x - np.mean(x)
        slope = float(np.sum(xc * (y - np.mean(y))) / np.sum(xc * xc))
    else:
        slope = float("nan")
        if len(set(n_grid)) < 2:
            warnings.append("single n: slope undefined")
    return RateReport(rows=tuple(rows), slope=slope, delta1=delta1,
                      net_size=len(net), warnings=tuple(warnings))


def rate_report_csv(report: RateReport) -> str:
    lines = [",".join(RateRow._fields)]
    for r in report.rows:
        lines.append(",".join([str(r.n), str(r.trials), *(repr(float(v)) for v in r[2:])]))
    return "\n".join(lines) + "\n"
