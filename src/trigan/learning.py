"""Empirical loss, minimax learning, and sampling-error experiments.

The population suprema over generator and discriminator spaces are taken
over explicit finite nets here: a lattice net of generator members, and as
discriminators the ratios D_ab = f_a / (f_a + f_b) of every ordered pair
of members. Both loss matrices are (c, c, c) cubes L[g, a, b], the loss
of member g against D_ab. The theoretical cube is computed once by
quadrature and reused across all Monte Carlo trials; per-trial work is the
empirical cube only.

Lattice nets hold many members that realize the same map (see
distinct_members in the hypothesis module). Both cubes are filled over the
distinct maps once and expanded to the nominal net by index arrays, so the
net, its cardinality and every cube keep all members. The rate experiment
builds the distinct maps once and hands them to every trial.

The cubes are filled in the log domain (divergence.pair_losses): with
log D_ab = log f_a - log(f_a + f_b) and log(1 - D_ab) = log f_b -
log(f_a + f_b), the loss is a sum of per-map and per-pair sums of logs,
each computed once. A single loss against a pair discriminator
(hypothesis.make_discriminator) is the same kernel on a cube of its one or
two maps, so it equals the cube entry bitwise.

Trials are independent by construction: trial t draws its real and noise
points from counter-RNG streams keyed (seed, stream(kind, t)), so any
assignment of trials to workers produces identical numbers.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import bounds, rng
from .density import GridDensity
from .divergence import PairDiscriminator, eval_grid, js_divergence, loss_terms, pair_losses
from .errors import ConfigInvalid, DiscriminatorOutOfRange, NetTooLarge, NonConvergence
from .hypothesis import (EpsNet, GeneratorParams, HypothesisConfig, distinct_members,
                         family_delta1, make_discriminator, make_generator,
                         member_params)
from .rosenblatt import (PushforwardDensity, TriangularMap, build_rosenblatt,
                         pushforward_density)

# entries of one (c, c, c) loss cube, 8 MB of floats; admits nets of up
# to 100 members
_MATRIX_CAP = 1_000_000
# floats of one trial: (n, d) real and noise points and the (c, c, n)
# densities of a c-member net at the fake points; 512 MB
_TRIAL_CAP = 1 << 26


# ---------------------------------------------------------------------------
# samples


@dataclass(frozen=True)
class TrainingSample:
    n: int
    real_points: np.ndarray    # (n, d) draws from the target
    noise_points: np.ndarray   # (n, d) uniform noise
    seed: int
    trial: int = 0

    def __post_init__(self):
        for name in ("real_points", "noise_points"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def target_sampler(target) -> TriangularMap:
    """A generator-role map whose pushforward is the target density."""
    if isinstance(target, PushforwardDensity):
        base = target.base_map
        return base if base.direction == "inverse" else base.inverse()
    if isinstance(target, GridDensity):
        return build_rosenblatt(target).inverse()
    raise ConfigInvalid(f"cannot sample from {type(target).__name__}")


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
    d = sampler.dim
    z_real = rng.uniforms(seed, rng.stream_id(rng.KIND_REAL, trial), 0, n, d)
    noise = rng.uniforms(seed, rng.stream_id(rng.KIND_NOISE, trial), 0, n, d)
    return TrainingSample(n=n, real_points=sampler.apply(z_real),
                          noise_points=noise, seed=seed, trial=trial)


# ---------------------------------------------------------------------------
# losses


def empirical_loss(disc, generator: TriangularMap, sample: TrainingSample) -> float:
    """(1/2n) sum log D(Y_i) + (1/2n) sum log(1 - D(phi(Z_i))); a pair
    discriminator's loss is its pair_losses entry."""
    fake = generator.apply(sample.noise_points)
    if isinstance(disc, PairDiscriminator):
        fy, fx = disc.densities(sample.real_points), disc.densities(fake)[:, None]
        return float(pair_losses(1.0 / (2.0 * sample.n), fy, 1.0, fx, 1.0)[0, 0, -1])
    dy = np.asarray(disc(sample.real_points), dtype=np.float64)
    dx = np.asarray(disc(fake), dtype=np.float64)
    for vals in (dy, dx):
        if np.any(vals <= 0.0) or np.any(vals >= 1.0) or not np.all(np.isfinite(vals)):
            raise DiscriminatorOutOfRange("discriminator left (0, 1) on the sample")
    return float(loss_terms(1.0 / (2.0 * sample.n), 1.0, dy, 1.0, dx))


def _distinct_maps(config: HypothesisConfig, vectors) -> tuple[list, np.ndarray]:
    """The distinct maps among the members, and each member's index into them."""
    c = len(vectors)
    if c ** 3 > _MATRIX_CAP:
        raise NetTooLarge(f"a net of {c} members needs {c ** 3} loss-matrix entries, "
                          f"cap is {_MATRIX_CAP}")
    maps = [make_generator(config, v) for v in vectors]
    keep, group = distinct_members(maps)
    return [maps[i] for i in keep], group


def _densities_at(maps, points: np.ndarray) -> np.ndarray:
    """(c, N) array: row a is the pushforward density of maps[a] at points."""
    out = np.empty((len(maps), points.shape[0]))
    for a, gen in enumerate(maps):
        out[a] = pushforward_density(gen).evaluate(points)
    return out


def pair_loss_matrix(config: HypothesisConfig, target, vectors, *,
                     distinct: tuple | None = None) -> np.ndarray:
    """Theoretical loss cube L[g, a, b] of the members against every D_ab;
    each density is renormalized by its own quadrature mass. distinct, when
    given, is _distinct_maps(config, vectors), built once by the caller."""
    maps, group = distinct or _distinct_maps(config, vectors)
    pts, w = eval_grid(config.dim)
    dens = _densities_at(maps, pts)
    tgt = np.asarray(target.evaluate(pts), dtype=np.float64)
    if np.any(tgt <= 0.0):
        raise ConfigInvalid("target density must be positive on the grid")
    w_gen = dens / np.sum(w * dens, axis=-1, keepdims=True)
    w_gen *= w
    losses = pair_losses(0.5, dens, w * (tgt / np.sum(w * tgt)), dens, w_gen)
    return losses[np.ix_(group, group, group)]


def empirical_pair_matrix(config: HypothesisConfig, vectors, sample: TrainingSample, *,
                          distinct: tuple | None = None) -> np.ndarray:
    """Empirical loss cube L[g, a, b] of the members on one sample.

    Each distinct map's density is evaluated once at the real points and
    once at all distinct maps' fake points, concatenated. distinct, when given,
    is _distinct_maps(config, vectors), built once by the caller.
    """
    maps, group = distinct or _distinct_maps(config, vectors)
    c, n = len(maps), sample.n
    fakes = np.empty((c * n, sample.noise_points.shape[1]))
    for g, gen in enumerate(maps):
        fakes[g * n:(g + 1) * n] = gen.apply(sample.noise_points)
    # fx[a, g] is f_a at generator g's fakes
    fx = _densities_at(maps, fakes).reshape(c, c, n)
    fy = _densities_at(maps, sample.real_points)
    losses = pair_losses(1.0 / (2.0 * n), fy, 1.0, fx, 1.0)
    return losses[np.ix_(group, group, group)]


# ---------------------------------------------------------------------------
# minimax


@dataclass(frozen=True)
class MinimaxResult:
    best_generator: GeneratorParams
    inner_values: dict
    achieved_value: float
    js_to_target: float
    trace: tuple
    converged: bool = True
    strategy: str = "net_exhaustive"
    # the inner maximizer: parameter vectors (a, b) of D_{ab}, so
    # achieved_value can be re-evaluated from the result alone
    inner_pair: tuple = ()


def minimax_fit(config: HypothesisConfig, target, sample: TrainingSample,
                strategy: str = "net_exhaustive", *, net: EpsNet | None = None,
                max_iter: int = 200, tol: float = 1e-6,
                raise_on_nonconvergence: bool = False) -> MinimaxResult:
    if strategy == "net_exhaustive":
        if net is None:
            raise ConfigInvalid("strategy net_exhaustive needs a net")
        return _minimax_net(config, target, sample, net)
    if strategy == "alternating_gradient":
        return _minimax_gradient(config, target, sample, max_iter, tol,
                                 raise_on_nonconvergence)
    raise ConfigInvalid(f"unknown strategy {strategy!r}")


def _minimax_net(config, target, sample, net) -> MinimaxResult:
    vectors = net.vectors
    emp = empirical_pair_matrix(config, vectors, sample)
    inner = emp.max(axis=(1, 2))
    best = int(np.argmin(inner))
    top = np.unravel_index(np.argmax(emp[best]), emp[best].shape)
    gen = make_generator(config, vectors[best])
    js = js_divergence(target, pushforward_density(gen))
    trace = tuple(f"member {g}: inner max {float(inner[g])!r}"
                  for g in range(len(vectors)))
    return MinimaxResult(best_generator=net.members[best],
                         inner_values={g: float(inner[g]) for g in range(len(vectors))},
                         achieved_value=float(inner[best]), js_to_target=float(js),
                         trace=trace, converged=True, strategy="net_exhaustive",
                         inner_pair=(vectors[top[0]], vectors[top[1]]))


def _minimax_gradient(config, target, sample, max_iter, tol, strict) -> MinimaxResult:
    b = config.box_half
    n_par = config.n_params
    gen_v = np.zeros(n_par)
    disc_a = np.full(n_par, 0.5 * b)
    disc_b = np.full(n_par, -0.5 * b)
    h = max(1e-5 * b, 1e-8)
    step = 0.2 * b if b > 0 else 0.0

    def loss(gv, av, bv):
        disc = make_discriminator(config, av, bv)
        return empirical_loss(disc, make_generator(config, gv), sample)

    def grad(fn, x):
        g = np.zeros_like(x)
        for i in range(x.size):
            up = x.copy(); up[i] = min(up[i] + h, b)
            dn = x.copy(); dn[i] = max(dn[i] - h, -b)
            if up[i] == dn[i]:
                continue
            g[i] = (fn(up) - fn(dn)) / (up[i] - dn[i])
        return g

    inner_values, trace = {}, []
    converged = False
    value = loss(gen_v, disc_a, disc_b)
    for it in range(max_iter):
        g_gen = grad(lambda v: loss(v, disc_a, disc_b), gen_v)
        g_da = grad(lambda v: loss(gen_v, v, disc_b), disc_a)
        g_db = grad(lambda v: loss(gen_v, disc_a, v), disc_b)
        new_gen = np.clip(gen_v - step * g_gen, -b, b)
        new_da = np.clip(disc_a + step * g_da, -b, b)
        new_db = np.clip(disc_b + step * g_db, -b, b)
        move = max(np.abs(new_gen - gen_v).max(), np.abs(new_da - disc_a).max(),
                   np.abs(new_db - disc_b).max())
        gen_v, disc_a, disc_b = new_gen, new_da, new_db
        value = loss(gen_v, disc_a, disc_b)
        inner_values[it] = value
        trace.append(f"iter {it}: value {value!r} move {move:.3e}")
        if move < tol:
            converged = True
            break
        step *= 0.98
    gen = make_generator(config, gen_v)
    js = js_divergence(target, pushforward_density(gen))
    result = MinimaxResult(best_generator=member_params(config, gen_v),
                           inner_values=inner_values, achieved_value=float(value),
                           js_to_target=float(js), trace=tuple(trace),
                           converged=converged, strategy="alternating_gradient",
                           inner_pair=(disc_a.copy(), disc_b.copy()))
    if not converged and strict:
        raise NonConvergence(f"no convergence in {max_iter} iterations", result=result)
    return result


# ---------------------------------------------------------------------------
# sampling error


@dataclass(frozen=True)
class SamplingErrorSummary:
    n: int
    trials: int
    mean: float
    std: float
    q05: float
    q50: float
    q95: float
    values: tuple


def _sampling_trial(args) -> float:
    config, sampler, vectors, distinct, n, seed, trial, losses = args
    emp = empirical_pair_matrix(config, vectors, _draw_sample(sampler, n, seed, trial),
                                distinct=distinct)
    return float(np.abs(emp - losses).max())


def _worker_count(threads: int, trials: int) -> int:
    """Processes worth starting: never more than the trials or the CPUs."""
    return min(threads, trials, os.cpu_count() or 1)


def sampling_error_values(config: HypothesisConfig, target, net: EpsNet,
                          n: int, trials: int, seed: int, threads: int = 1,
                          losses: np.ndarray | None = None,
                          distinct: tuple | None = None) -> np.ndarray:
    """Per-trial sup |empirical - theoretical| over the net and its pairs.

    Results are indexed by trial and independent of the worker count.
    losses and distinct, when given, are the net's theoretical cube and
    _distinct_maps, built once by the caller.
    """
    if not 1 <= trials <= 1 << 56:
        # trial indices past 2**56 overflow the 64-bit RNG stream key
        raise ConfigInvalid("trials must be in [1, 2**56]")
    vectors = net.vectors
    distinct = distinct or _distinct_maps(config, vectors)
    if losses is None:
        losses = pair_loss_matrix(config, target, vectors, distinct=distinct)
    sampler = target_sampler(target)
    tasks = [(config, sampler, vectors, distinct, n, seed, t, losses)
             for t in range(trials)]
    workers = _worker_count(threads, trials)
    if workers <= 1:
        vals = [_sampling_trial(t) for t in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            vals = list(pool.map(_sampling_trial, tasks, chunksize=8))
    return np.asarray(vals, dtype=np.float64)


def _summarize(n: int, values: np.ndarray) -> SamplingErrorSummary:
    q05, q50, q95 = (float(np.quantile(values, q)) for q in (0.05, 0.5, 0.95))
    std = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
    return SamplingErrorSummary(n=n, trials=int(values.size),
                                mean=float(np.mean(values)), std=std,
                                q05=q05, q50=q50, q95=q95,
                                values=tuple(float(v) for v in values))


def estimate_sampling_error(config: HypothesisConfig, target, net: EpsNet,
                            n: int, trials: int, seed: int,
                            threads: int = 1) -> SamplingErrorSummary:
    vals = sampling_error_values(config, target, net, n, trials, seed, threads)
    return _summarize(n, vals)


# ---------------------------------------------------------------------------
# rate experiment


@dataclass(frozen=True)
class RateRow:
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


@dataclass(frozen=True)
class RateReport:
    rows: tuple
    slope: float
    slope_defined: bool
    full_C: float
    delta: float
    delta1: float
    regular: bool
    net_size: int
    net_epsilon: float
    pair_count: int
    warnings: tuple = field(default_factory=tuple)


def rate_experiment(config: HypothesisConfig, target, n_grid, trials: int,
                    seed: int, *, net: EpsNet, delta: float = 0.1,
                    threads: int = 1) -> RateReport:
    """Mean sampling error across n, with the theoretical envelope and the
    concentration threshold for the configured delta."""
    n_grid = [int(n) for n in n_grid]
    if not n_grid or any(n < 1 for n in n_grid):
        raise ConfigInvalid("n_grid must be a nonempty list of positive sizes")
    distinct = _distinct_maps(config, net.vectors)
    losses = pair_loss_matrix(config, target, net.vectors, distinct=distinct)

    warnings = []
    if config.regular:
        delta1 = family_delta1(config)
        full_c = bounds.full_C(config.dim, config.alpha, config.k, config.K, delta1)
    else:
        delta1 = float("nan")
        full_c = float("nan")
        warnings.append("regularity k > 1 - alpha + d/2 fails; bound columns are nan")

    rows = []
    for n in n_grid:
        vals = sampling_error_values(config, target, net, n, trials, seed,
                                     threads, losses=losses, distinct=distinct)
        summ = _summarize(n, vals)
        if config.regular:
            bound = full_c / math.sqrt(n)
            threshold, _ = bounds.thm54_threshold_and_prob(
                config.dim, config.alpha, config.k, config.K, n, delta,
                delta1=delta1)
            exceed = float(np.sum(vals > threshold)) / vals.size
        else:
            bound = threshold = exceed = float("nan")
        rows.append(RateRow(n=n, trials=trials, mean=summ.mean, std=summ.std,
                            q05=summ.q05, q50=summ.q50, q95=summ.q95,
                            bound_C_over_sqrt_n=bound, thm54_threshold=threshold,
                            exceed_frac=exceed))

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
    return RateReport(rows=tuple(rows), slope=slope, slope_defined=slope_defined,
                      full_C=full_c, delta=delta, delta1=delta1,
                      regular=config.regular, net_size=net.cardinality,
                      net_epsilon=net.epsilon, pair_count=net.cardinality ** 2,
                      warnings=tuple(warnings))


_RATE_COLUMNS = ("n", "trials", "mean", "std", "q05", "q50", "q95",
                 "bound_C_over_sqrt_n", "thm54_threshold", "exceed_frac")


def rate_report_csv(report: RateReport) -> str:
    lines = [",".join(_RATE_COLUMNS)]
    for r in report.rows:
        cells = [str(r.n), str(r.trials)]
        cells += [repr(float(getattr(r, c))) for c in _RATE_COLUMNS[2:]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
