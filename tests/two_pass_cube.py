"""The empirical loss cube by two density passes: the reference the one-pass
learning.empirical_pair_matrix is tested against.

Each map of the stack is rebuilt as a map of its own, and its density is
evaluated once at all maps' fakes and once, in a separate call, at the real
points. The one-pass kernel evaluates the whole stack in a single call over
the merged points, so the two agree bit for bit exactly when the density
kernels are pointwise, whatever the chunking and however many maps share a
call. The cube itself comes from the two-sided pair loop of pair_loop_cube,
which takes the real points and the fakes as separate arrays, so the
one-sided kernel is checked against that formula on real densities.
"""

from __future__ import annotations

import numpy as np

from trigan.learning import TrainingSample
from trigan.rosenblatt import PushforwardDensity

from box_params import unstack
from pair_loop_cube import pair_losses


def _densities_at(maps, points: np.ndarray) -> np.ndarray:
    return np.stack([PushforwardDensity(gen).evaluate(points) for gen in maps])


def empirical_pair_matrix(stacked, sample: TrainingSample) -> np.ndarray:
    maps = unstack(stacked)
    c, n = len(maps), sample.n
    fakes = np.concatenate([gen.apply(sample.noise_points) for gen in maps])
    # fx[a, g] is f_a at generator g's fakes
    fx = _densities_at(maps, fakes).reshape(c, c, n)
    fy = _densities_at(maps, sample.real_points)
    return pair_losses(1.0 / (2.0 * n), fy, 1.0, fx, 1.0)
