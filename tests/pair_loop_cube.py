"""The loss cube by one (a, b) pair at a time: the reference the blocked
divergence.pair_losses is tested against.

Each log row of f_a + f_b is taken and reduced on its own, one pair per
pass; the blocked kernel fills a block of partners b per numpy call. Every
entry of both is np.sum over the same contiguous row prefix, so the two
agree bit for bit whatever the block size.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from trigan.errors import NonPositiveDensity


def pair_losses(scale, fy, wy, fx, wx, ends=None) -> np.ndarray:
    """divergence.pair_losses, with the same arguments and result."""
    single = ends is None
    scales, ends = ([scale], [None]) if single else (scale, ends)
    h, p = fy.shape[0], len(ends)
    ybuf, xbuf = np.empty(fy.shape[1:]), np.empty(fx.shape[1:])
    # shared fake-side points: each log row is weighted by every generator's wx
    wbuf = np.empty((len(wx), fx.shape[-1])) if fx.ndim == 2 else xbuf
    unit_y = np.ndim(wy) == 0 and wy == 1.0
    unit_x = np.ndim(wx) == 0 and wx == 1.0

    def y_sums(logs, out):
        if not unit_y:
            logs *= wy
        for i, end in enumerate(ends):
            out[i] = np.sum(logs[:end])

    def x_sums(logs, out):
        rows = logs if unit_x else np.multiply(logs, wx, out=wbuf)
        for i, end in enumerate(ends):
            np.sum(rows[..., :end], axis=-1, out=out[i])

    g = wbuf.shape[0]
    s_sum, t_sum = np.empty((p, h)), np.zeros((p, h, h))
    u_sum, v_sum = np.empty((p, g, h)), np.zeros((p, g, h, h))
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(h):
            y_sums(np.log(fy[a], out=ybuf), s_sum[:, a])
            x_sums(np.log(fx[a], out=xbuf), u_sum[:, :, a])
    if not (np.all(np.isfinite(s_sum)) and np.all(np.isfinite(u_sum))):
        raise NonPositiveDensity("a density is not positive and finite at a sample point")
    for a, b in itertools.combinations(range(h), 2):
        y_sums(np.log(np.add(fy[a], fy[b], out=ybuf), out=ybuf), t_sum[:, a, b])
        x_sums(np.log(np.add(fx[a], fx[b], out=xbuf), out=xbuf), v_sum[:, :, a, b])
        t_sum[:, b, a], v_sum[:, :, b, a] = t_sum[:, a, b], v_sum[:, :, a, b]
    out = (np.reshape(scales, (p, 1, 1, 1))
           * ((s_sum[:, None, :, None] - t_sum[:, None]) + (u_sum[:, :, None, :] - v_sum)))
    # D_aa is the constant 1/2, whose loss is log(1/2)
    out[..., np.arange(h), np.arange(h)] = math.log(0.5)
    return out[0] if single else out
