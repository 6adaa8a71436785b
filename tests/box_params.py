"""Random members of a generator family's certified parameter box, and the
single members of a stacked map."""

from __future__ import annotations

import numpy as np

from trigan import rng
from trigan.hypothesis import HypothesisConfig
from trigan.rosenblatt import TriangularMap


def random_box_params(config: HypothesisConfig, count: int, seed: int,
                      trial: int = 0) -> np.ndarray:
    """count uniform parameter vectors in the box, counter-RNG keyed."""
    u = rng.uniforms(seed, rng.stream_id(rng.KIND_MEMBER, trial),
                     0, count, config.n_params)
    return config.box_half * (2.0 * u - 1.0)


def unstack(maps: TriangularMap) -> list:
    """The maps stacked along the lead axis of maps, each as a map of its
    own (lead ()), rebuilt from its raw parameter blocks."""
    (h,) = maps.lead
    return [TriangularMap(tuple(type(c)(c.degree, c.theta[g], c.coupling[g])
                                for c in maps.components), maps.components_direct)
            for g in range(h)]
