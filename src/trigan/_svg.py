"""Hand-rolled SVG log-log plot for rate reports.

Fixed-precision coordinate formatting and a fixed element order keep the
output byte-stable for identical inputs; no plotting library is involved.
"""

from __future__ import annotations

import math

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 24, 36, 54


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _decades(lo: float, hi: float) -> list[int]:
    return list(range(math.floor(lo), math.ceil(hi) + 1))


def render_rate_plot(report) -> str:
    """Mean sampling error vs n with q05-q95 bars and the C n^{-1/2} envelope."""
    rows = report.rows
    # the bound columns are nan exactly when the config is irregular
    envelope = not math.isnan(rows[0].bound_C_over_sqrt_n)
    xs = [math.log10(r.n) for r in rows]
    positives = [v for r in rows for v in (r.mean, r.q05, r.q95) if v > 0.0]
    if envelope:
        positives += [r.bound_C_over_sqrt_n for r in rows if r.bound_C_over_sqrt_n > 0.0]
    floor = min(positives) if positives else 1e-3
    ys = [math.log10(max(v, 0.5 * floor)) for r in rows for v in (r.q05, r.q95)]
    ys += [math.log10(max(r.mean, 0.5 * floor)) for r in rows]
    if envelope:
        ys += [math.log10(r.bound_C_over_sqrt_n) for r in rows]
    x_lo, x_hi = min(xs) - 0.15, max(xs) + 0.15
    y_lo, y_hi = min(ys) - 0.25, max(ys) + 0.25
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y: float) -> float:
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
           f'viewBox="0 0 {_W} {_H}">',
           f'<rect width="{_W}" height="{_H}" fill="#ffffff"/>']

    # grid and ticks at decades
    for dec in _decades(x_lo, x_hi):
        if not x_lo <= dec <= x_hi:
            continue
        x = px(dec)
        out.append(f'<line x1="{_fmt(x)}" y1="{_MT}" x2="{_fmt(x)}" '
                   f'y2="{_H - _MB}" stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(x)}" y="{_H - _MB + 18}" font-size="12" '
                   f'text-anchor="middle" fill="#444444">1e{dec}</text>')
    for dec in _decades(y_lo, y_hi):
        if not y_lo <= dec <= y_hi:
            continue
        y = py(dec)
        out.append(f'<line x1="{_ML}" y1="{_fmt(y)}" x2="{_W - _MR}" '
                   f'y2="{_fmt(y)}" stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{_ML - 8}" y="{_fmt(y + 4)}" font-size="12" '
                   f'text-anchor="end" fill="#444444">1e{dec}</text>')

    out.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
               f'height="{_H - _MT - _MB}" fill="none" stroke="#444444"/>')

    # theoretical envelope
    if envelope:
        pts = " ".join(f"{_fmt(px(math.log10(r.n)))},"
                       f"{_fmt(py(math.log10(r.bound_C_over_sqrt_n)))}" for r in rows)
        out.append(f'<polyline points="{pts}" fill="none" stroke="#d62728" '
                   f'stroke-width="1.5" stroke-dasharray="6,4"/>')

    # measured means with quantile bars
    line_pts = []
    for r in rows:
        x = px(math.log10(r.n))
        y = py(math.log10(max(r.mean, 0.5 * floor)))
        lo = py(math.log10(max(r.q05, 0.5 * floor)))
        hi = py(math.log10(max(r.q95, 0.5 * floor)))
        out.append(f'<line x1="{_fmt(x)}" y1="{_fmt(lo)}" x2="{_fmt(x)}" '
                   f'y2="{_fmt(hi)}" stroke="#1f77b4" stroke-width="1.5"/>')
        line_pts.append(f"{_fmt(x)},{_fmt(y)}")
    out.append(f'<polyline points="{" ".join(line_pts)}" fill="none" '
               f'stroke="#1f77b4" stroke-width="2"/>')
    for p in line_pts:
        cx, cy = p.split(",")
        out.append(f'<circle cx="{cx}" cy="{cy}" r="3.5" fill="#1f77b4"/>')

    slope_txt = f"slope {report.slope:.4f}" if math.isfinite(report.slope) else "slope undefined"
    out.append(f'<text x="{_ML + 10}" y="{_MT + 18}" font-size="13" '
               f'fill="#222222">mean sampling error, {slope_txt}</text>')
    if envelope:
        out.append(f'<text x="{_ML + 10}" y="{_MT + 36}" font-size="13" '
                   f'fill="#d62728">envelope C / sqrt(n)</text>')
    out.append(f'<text x="{(_ML + _W - _MR) // 2}" y="{_H - 12}" font-size="13" '
               f'text-anchor="middle" fill="#222222">n</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
