"""Static SVG rendering of RD curves.

Log bitrate on x, quality (dB) on y.  Each curve is drawn as a smoothed
polyline of exactly 200 in-span samples of its monotone cubic fit (the
measured knots are among the samples), with circle markers at the
measured QPs and a legend keyed by k.  No extrapolation: every sample
lies inside the curve's own quality span.
"""

from __future__ import annotations

from dataclasses import dataclass
from html import escape
from pathlib import Path

from .rd_curve import RDCurve

__all__ = ["emit_plot"]

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#e377c2"]
_SAMPLES_PER_CURVE = 200

# Canvas size and the margins around the plot area, in pixels.
_WIDTH, _HEIGHT = 760, 480
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 64, 170, 28, 48
_PLOT_WIDTH = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
_PLOT_HEIGHT = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM


@dataclass(frozen=True)
class PlotLayout:
    """Data-to-pixel affine transform shared by the renderer and its tests."""

    x_min: float  # log10 bitrate (kbps)
    x_max: float
    y_min: float  # quality, dB
    y_max: float

    def x_px(self, log_rate: float) -> float:
        t = (log_rate - self.x_min) / (self.x_max - self.x_min)
        return _MARGIN_LEFT + t * _PLOT_WIDTH

    def y_px(self, quality_db: float) -> float:
        t = (quality_db - self.y_min) / (self.y_max - self.y_min)
        return _MARGIN_TOP + (1.0 - t) * _PLOT_HEIGHT


def compute_layout(curves: list[RDCurve]) -> PlotLayout:
    """Layout spanning all curves with a 4% pad on each axis."""
    if not curves:
        raise ValueError("need at least one curve to plot")
    xs = [x for c in curves for x in c.log10_rates]
    ys = [y for c in curves for y in c.qualities_db]
    x_pad = 0.04 * (max(xs) - min(xs)) or 0.1
    y_pad = 0.04 * (max(ys) - min(ys)) or 0.1
    return PlotLayout(min(xs) - x_pad, max(xs) + x_pad, min(ys) - y_pad, max(ys) + y_pad)


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """np.linspace(lo, hi, n) for n >= 2, bit for bit: lo + i*step, the last
    value hi, and lo + i/(n-1)*(hi-lo) when the step underflows to 0."""
    step = (hi - lo) / (n - 1)
    if step == 0:
        return [lo + i / (n - 1) * (hi - lo) for i in range(n - 1)] + [hi]
    return [lo + i * step for i in range(n - 1)] + [hi]


def _sample_grid(curve: RDCurve) -> list[float]:
    """Exactly _SAMPLES_PER_CURVE quality positions, knots included."""
    knots = curve.qualities_db
    fill = _linspace(knots[0], knots[-1], _SAMPLES_PER_CURVE - len(knots) + 2)[1:-1]
    return sorted(knots + tuple(fill))


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def render_svg(curves: list[RDCurve], title: str = "") -> str:
    """Render the curves to an SVG document string."""
    layout = compute_layout(curves)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]

    x0, x1 = _MARGIN_LEFT, _MARGIN_LEFT + _PLOT_WIDTH
    y0, y1 = _MARGIN_TOP, _MARGIN_TOP + _PLOT_HEIGHT

    # Axes, ticks, grid.
    for t in _linspace(layout.x_min, layout.x_max, 5):
        px = layout.x_px(t)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(y0)}" x2="{_fmt(px)}" y2="{_fmt(y1)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_fmt(y1 + 18)}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">{10 ** t:,.0f}</text>'
        )
    for t in _linspace(layout.y_min, layout.y_max, 6):
        py = layout.y_px(t)
        parts.append(
            f'<line x1="{_fmt(x0)}" y1="{_fmt(py)}" x2="{_fmt(x1)}" y2="{_fmt(py)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x0 - 6)}" y="{_fmt(py + 4)}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif">{t:.1f}</text>'
        )
    parts.append(
        f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(_PLOT_WIDTH)}" '
        f'height="{_fmt(_PLOT_HEIGHT)}" fill="none" stroke="#333333"/>'
    )
    parts.append(
        f'<text x="{_fmt((x0 + x1) / 2)}" y="{_fmt(_HEIGHT - 10)}" font-size="12" '
        f'text-anchor="middle" font-family="sans-serif">Bitrate (kbps, log scale)</text>'
    )
    parts.append(
        f'<text x="16" y="{_fmt((y0 + y1) / 2)}" font-size="12" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 16 {_fmt((y0 + y1) / 2)})">'
        f'MS-SSIM (dB)</text>'
    )
    if title:
        parts.append(
            f'<text x="{_fmt((x0 + x1) / 2)}" y="18" font-size="13" text-anchor="middle" '
            f'font-family="sans-serif">{escape(title, quote=False)}</text>'
        )

    # Curves: smoothed path + knot markers.
    for i, curve in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        fit = curve.rate_fit
        grid = _sample_grid(curve)
        log_rates = fit(grid)
        coords = [
            f"{_fmt(layout.x_px(lr))},{_fmt(layout.y_px(q))}" for q, lr in zip(grid, log_rates)
        ]
        parts.append(
            f'<path class="curve curve-{i}" d="M {" L ".join(coords)}" fill="none" '
            f'stroke="{color}" stroke-width="1.8"/>'
        )
        for p, log_rate in zip(curve.points, curve.log10_rates):
            parts.append(
                f'<circle class="marker marker-{i}" cx="{_fmt(layout.x_px(log_rate))}" '
                f'cy="{_fmt(layout.y_px(p.msssim_db))}" r="3.2" fill="{color}"/>'
            )

    # Legend keyed by k.
    lx = x1 + 12
    for i, curve in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        ly = y0 + 10 + 18 * i
        label = f"{curve.clip_id} k={curve.k:g}"
        parts.append(
            f'<line x1="{_fmt(lx)}" y1="{_fmt(ly)}" x2="{_fmt(lx + 20)}" y2="{_fmt(ly)}" '
            f'stroke="{color}" stroke-width="2.5"/>'
        )
        parts.append(
            f'<text class="legend-entry" x="{_fmt(lx + 26)}" y="{_fmt(ly + 4)}" '
            f'font-size="11" font-family="sans-serif">{escape(label, quote=False)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_plot(curves: list[RDCurve], output_path: Path | str, title: str = "") -> None:
    """Write the SVG document for the curves to output_path."""
    svg = render_svg(curves, title=title)
    try:
        Path(output_path).write_text(svg)
    except OSError as exc:
        raise OSError(f"cannot write plot to {output_path}: {exc}") from exc
