"""Monotone piecewise cubic Hermite interpolation.

Knot slopes follow the Fritsch-Carlson shape-preserving scheme in its
weighted-harmonic-mean form (the variant used by MATLAB's pchip and
scipy's PchipInterpolator): interior slopes are a weighted harmonic mean
of adjacent secants, zero where the secants change sign, and endpoint
slopes use the non-centered three-point formula with sign/magnitude
clamping.  Monotone data therefore yields a monotone C1 interpolant that
passes through every knot exactly.

An RD curve has a few knots (one per QP of the ladder, 5 by default), so
the math is scalar Python floats rather than numpy arrays, whose per-call
cost would dominate.  Every operation keeps the order of the former numpy
implementation, so slopes and values are bit-identical to it.

Evaluation is strictly in-span; extrapolation raises.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from numbers import Real
from typing import Iterable

from .errors import CurveDataError, ExtrapolationError

__all__ = ["PchipInterpolant", "pchip_fit", "pchip_eval"]


@dataclass(frozen=True)
class PchipInterpolant:
    """Knots plus the per-knot slopes of the fitted Hermite cubic."""

    x: tuple[float, ...]
    y: tuple[float, ...]
    slopes: tuple[float, ...]

    def __call__(self, at, derivative: int = 0):
        return pchip_eval(self, at, derivative=derivative)


def _sign(v: float) -> int:
    return (v > 0.0) - (v < 0.0)


def _monotone_slopes(x: tuple[float, ...], y: tuple[float, ...]) -> tuple[float, ...]:
    n = len(x)
    h = [x[i + 1] - x[i] for i in range(n - 1)]
    delta = [(y[i + 1] - y[i]) / h[i] for i in range(n - 1)]
    if n == 2:
        return delta[0], delta[0]

    d = [0.0] * n

    # Interior: harmonic weighted mean where adjacent secants share a
    # nonzero sign, zero otherwise (local extremum or flat spot).
    for i in range(n - 2):
        if _sign(delta[i]) * _sign(delta[i + 1]) > 0:
            w1 = 2.0 * h[i + 1] + h[i]
            w2 = h[i + 1] + 2.0 * h[i]
            d[i + 1] = (w1 + w2) / (w1 / delta[i] + w2 / delta[i + 1])

    d[0] = _edge_slope(h[0], h[1], delta[0], delta[1])
    d[-1] = _edge_slope(h[-1], h[-2], delta[-1], delta[-2])
    return tuple(d)


def _edge_slope(h0: float, h1: float, d0: float, d1: float) -> float:
    # Non-centered three-point estimate, clamped to preserve shape.
    s = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
    if _sign(s) != _sign(d0):
        return 0.0
    if _sign(d0) != _sign(d1) and abs(s) > 3.0 * abs(d0):
        return 3.0 * d0
    return s


def pchip_fit(points: Iterable[tuple[float, float]]) -> PchipInterpolant:
    """Fit the monotone cubic through (x, y) pairs with strictly increasing x."""
    try:
        pairs = [(float(px), float(py)) for px, py in points]
    except (TypeError, ValueError):
        raise CurveDataError(f"expected (x, y) number pairs, got {points!r:.80}") from None
    if len(pairs) < 2:
        raise CurveDataError(f"need at least 2 points to interpolate, got {len(pairs)}")
    x, y = zip(*pairs)
    if not all(map(math.isfinite, x + y)):
        raise CurveDataError("non-finite coordinates in interpolation input")
    for i in range(len(x) - 1):
        if x[i + 1] <= x[i]:
            raise CurveDataError(
                f"x must be strictly increasing; x[{i}]={x[i]} followed by x[{i + 1}]={x[i + 1]}"
            )
    return PchipInterpolant(x=x, y=y, slopes=_monotone_slopes(x, y))


def _hermite(f: PchipInterpolant, at: list[float], derivative: int) -> list[float]:
    """Values (or first derivatives) of the fit at each point of `at`."""
    x, y, slopes = f.x, f.y, f.slopes
    lo, hi, last = x[0], x[-1], len(x) - 2
    out = []
    for q in at:
        if q < lo or q > hi:
            raise ExtrapolationError(f"x={q} outside the knot span [{lo}, {hi}]")
        # The piece whose left knot is the last one <= q; the top knot (and
        # NaN, which passes the span check) falls in the last piece.
        i = bisect_right(x, q) - 1
        if i > last:
            i = last
        h = x[i + 1] - x[i]
        t = (q - x[i]) / h
        if derivative == 0:
            u = 1.0 - t
            h00 = (1.0 + 2.0 * t) * (u * u)
            h10 = t * (u * u)
            h01 = t * t * (3.0 - 2.0 * t)
            h11 = t * t * (t - 1.0)
            out.append(h00 * y[i] + h * h10 * slopes[i] + h01 * y[i + 1] + h * h11 * slopes[i + 1])
        else:
            dh00 = 6.0 * t * (t - 1.0)
            dh10 = (1.0 - t) * (1.0 - 3.0 * t)
            dh11 = t * (3.0 * t - 2.0)
            out.append((dh00 * y[i] - dh00 * y[i + 1]) / h + dh10 * slopes[i] + dh11 * slopes[i + 1])
    return out


def pchip_eval(f: PchipInterpolant, at, derivative: int = 0):
    """Evaluate the interpolant (or its first derivative) strictly in-span.

    Accepts a number, returning a float, or an iterable of numbers in any
    order, returning a list.
    """
    if derivative not in (0, 1):
        raise ValueError(f"derivative must be 0 or 1, got {derivative}")
    if isinstance(at, Real):
        return _hermite(f, [float(at)], derivative)[0]
    return _hermite(f, [float(q) for q in at], derivative)
