"""Random members of a generator family's certified parameter box."""

from __future__ import annotations

import numpy as np

from trigan import rng
from trigan.hypothesis import HypothesisConfig


def random_box_params(config: HypothesisConfig, count: int, seed: int,
                      trial: int = 0) -> np.ndarray:
    """count uniform parameter vectors in the box, counter-RNG keyed."""
    u = rng.uniforms(seed, rng.stream_id(rng.KIND_MEMBER, trial),
                     0, count, config.n_params)
    return config.box_half * (2.0 * u - 1.0)
