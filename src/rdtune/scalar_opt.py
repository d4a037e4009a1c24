"""Derivative-free scalar minimization: bracketing plus Brent's method.

bracket_minimum steps downhill from two seeds at their own spacing, not by
the textbook step that grows by phi: a caller that knows its scale, as the
k search does with seeds an octave apart, gets a bracket one spacing wide
on each side of its lowest point.  brent_minimize runs the classic
parabolic-interpolation-guarded-by-golden-section iteration and guarantees
that every probe stays strictly inside the initial bracket and that the
returned point is the best one actually evaluated, never an unevaluated
interpolate.  Both guarantees
matter when one evaluation costs a full encode sweep, and so do four
departures from the textbook start and stop: the step history starts at
the bracket width, so the first two steps may both be parabolic, the first
through the bracket's three evaluated points; the stop tolerance
xtol*(|x| + 1/2) keeps an absolute floor of xtol/2 near x = 0; and with
ftol > 0 the search also stops, in f's own units, when an accepted
parabolic step predicts a gain below ftol (without probing it), and after
two probes in a row that each gained less than ftol on the best value so
far, since there f's noise outweighs what is left to gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import BracketError

__all__ = [
    "Bracket",
    "OptimizerConfig",
    "bracket_minimum",
    "brent_minimize",
]

_GOLDEN = 0.3819660112501051  # 2 - phi
_ZEPS = 1e-11
_MAX_EXPANSIONS = 50


@dataclass(frozen=True)
class Bracket:
    """Triple a < b < c with f(b) below one end and not above the other,
    so a minimum lies inside [a, c]."""

    a: float
    b: float
    c: float
    fa: float
    fb: float
    fc: float

    def __post_init__(self) -> None:
        if not (self.a < self.b < self.c):
            raise BracketError(f"bracket abscissae not ordered: {self.a}, {self.b}, {self.c}")
        if not (self.fb <= min(self.fa, self.fc) and self.fb < max(self.fa, self.fc)):
            raise BracketError(
                f"midpoint not below one end and at most the other: "
                f"f={self.fa}, {self.fb}, {self.fc}"
            )


@dataclass(frozen=True)
class OptimizerConfig:
    """brent_minimize's stop rules: xtol on x, relative with a floor; at most
    max_iters evaluations; and ftol, in f's units, on the gain an accepted
    parabolic step predicts and on the gain of two probes in a row (0 turns
    both ftol rules off)."""

    xtol: float = 1e-4
    max_iters: int = 50
    ftol: float = 0.0

    def __post_init__(self) -> None:
        if self.xtol <= 0.0:
            raise ValueError(f"xtol must be positive, got {self.xtol}")
        if not (0.0 <= self.ftol < math.inf):
            raise ValueError(f"ftol must be finite and not negative, got {self.ftol}")
        if self.max_iters < 3:
            raise ValueError(f"max_iters must be at least 3, got {self.max_iters}")


@dataclass
class OptimizerTrace:
    """Evaluations made after bracketing, in order."""

    evaluations: list[tuple[float, float]] = field(default_factory=list)
    converged: bool = False


def bracket_minimum(
    f: Callable[[float], float],
    x0: float,
    x1: float,
    lo: float = -math.inf,
    hi: float = math.inf,
) -> Bracket:
    """Find a minimum bracket by stepping downhill from two seeds at their
    spacing.

    Every probe lies on the grid x1 + j*(x1 - x0), computed as a multiple
    of the spacing from x1, so a spacing that divides the distance from x1
    to lo or hi lands on that edge exactly.  Stepping stops at the first
    probe not below the lowest point so far; a tie there gives a bracket
    that ties at one end.  Steps are clamped to [lo, hi]; a function still
    heading downhill at a clamp (or after _MAX_EXPANSIONS steps) raises
    BracketError.
    """
    if x0 == x1:
        raise BracketError("bracket seeds must differ")
    a, b = x0, x1
    fa, fb = f(a), f(b)
    h, j = x1 - x0, 0  # b is x1 + j*h
    if fb > fa:
        a, b, fa, fb = b, a, fb, fa
        h, j = -h, 1
    # Downhill now runs a -> b.
    for _ in range(_MAX_EXPANSIONS):
        j += 1
        c = min(max(x1 + j * h, lo), hi)
        if c == b:
            raise BracketError(
                f"search hit the domain edge at {b} while still descending"
            )
        fc = f(c)
        if fc >= fb:
            if a > c:
                a, c, fa, fc = c, a, fc, fa
            return Bracket(a=a, b=b, c=c, fa=fa, fb=fb, fc=fc)
        a, b, fa, fb = b, c, fb, fc
    raise BracketError(
        f"no bracket after {_MAX_EXPANSIONS} expansions (function may be monotone)"
    )


def brent_minimize(
    f: Callable[[float], float],
    bracket: Bracket,
    config: OptimizerConfig,
) -> tuple[float, float, OptimizerTrace]:
    """Minimize f inside a bracket; returns (x_best, f_best, trace).

    The step history starts at the bracket width, so the first step tries
    the parabola through the bracket's three points and the second may be
    parabolic too.  Stops when the interval around x is within
    2*xtol*(|x| + 1/2) + tiny; when an accepted parabolic step's parabola,
    convex through (x, w, v), puts its vertex less than ftol below f(x)
    (the vertex is not probed); after two probes in a row whose values are
    each above f(x) - ftol, f(x) being the best value before that probe;
    or after max_iters evaluations (then converged=False).  Both ftol stops
    set converged and need ftol > 0.  The result is the best evaluated
    point over the bracket and all probes.
    """
    trace = OptimizerTrace()
    a, b = bracket.a, bracket.c
    x, fx = bracket.b, bracket.fb
    best = [(bracket.fa, bracket.a), (bracket.fb, bracket.b), (bracket.fc, bracket.c)]
    # The bracket's ends are evaluated points: w the lower, v the other, so
    # the first step can be the parabola through all three.  A step history
    # of the bracket width lets the first two steps both be parabolic.
    (fw, w), (fv, v) = sorted([best[0], best[2]])

    d = e = b - a
    stalls = 0
    for _ in range(config.max_iters):
        m = 0.5 * (a + b)
        # The xtol/2 floor keeps the stop test from vanishing near x = 0.
        tol1 = config.xtol * (abs(x) + 0.5) + _ZEPS
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            trace.converged = True
            break

        use_golden = True
        if abs(e) > tol1:
            # Parabola through (x, w, v); reject degenerate or out-of-range steps.
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x) and q >= 1e-21:
                d = p / q
                # The parabola's curvature f[x, w, v]: its vertex x + d lies
                # c*d**2 below f(x).  A concave one's vertex is a maximum, and
                # c > 0 keeps ftol = 0 from ever stopping the search here.
                c = ((fw - fx) / (w - x) - (fv - fx) / (v - x)) / (w - v)
                if c > 0.0 and c * d * d < config.ftol:
                    trace.converged = True
                    break
                u = x + d
                if (u - a) < tol2 or (b - u) < tol2:
                    d = tol1 if x < m else -tol1
                use_golden = False
        if use_golden:
            e = (b if x < m else a) - x
            d = _GOLDEN * e

        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = f(u)
        trace.evaluations.append((u, fu))
        best.append((fu, u))
        # Probes in a row that gain less than ftol on the best value so far, fx.
        stalls = stalls + 1 if config.ftol > 0.0 and fu > fx - config.ftol else 0

        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, w = w, u
                fv, fw = fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        if stalls == 2:
            trace.converged = True
            break

    f_best, x_best = min(best, key=lambda t: (t[0], t[1]))
    return x_best, f_best, trace
