"""Independent reference implementations used to check the package.

Everything here deliberately avoids importing rdtune: the synthetic-model
surfaces are restated from their closed forms, interpolation goes through
scipy, BD integrals through dense trapezoid sums or scipy's exact
piecewise-polynomial integral, and the scalar minimizer is a plain
golden-section loop.

Frozen constants below were produced by `python tests/oracles.py` and are
asserted against at run time by the test suite.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import PchipInterpolator

# Default synthetic model parameters (restated, not imported).
DEFAULT_MODEL = dict(
    r0=30000.0, b=0.09, beta=0.35, gamma=1.0, s0=26.0, a=0.28, c=0.8, k_star=2.5
)
AV1_LADDER = (27, 39, 49, 59, 63)

GRID_K_MIN, GRID_K_MAX, GRID_POINTS = 1.0 / 16.0, 16.0, 513

# Frozen outputs of grid_argmin() / cost_dense() for DEFAULT_MODEL.
GRID_ARGMIN_K = 3.2915109563079303
GRID_ARGMIN_COST = -37.85575074061541
COST_AT_KSTAR = -36.34017875049692


def synth_arrays(k: float, ladder=AV1_LADDER, **overrides):
    """(quality_db, log10_rate) arrays for the synthetic model, sorted by
    ascending quality; None if any point falls outside the model's valid
    region (non-positive dB)."""
    p = {**DEFAULT_MODEL, **overrides}
    qps = np.asarray(ladder, float)
    rate = p["r0"] * np.exp(-p["b"] * qps) * (
        1.0 - p["beta"] + p["beta"] * k ** -p["gamma"]
    )
    db = p["s0"] - p["a"] * qps - p["c"] * (
        (math.log(k) - math.log(p["k_star"])) ** 2 - math.log(p["k_star"]) ** 2
    )
    if np.any(db <= 0.0):
        return None
    order = np.argsort(db)
    return db[order], np.log10(rate[order])


def bd_rate_dense(ref_quality, ref_log_rate, test_quality, test_log_rate, n=100_000):
    """BD-Rate via scipy PCHIP and a dense trapezoid sum."""
    lo = max(np.min(ref_quality), np.min(test_quality))
    hi = min(np.max(ref_quality), np.max(test_quality))
    if lo >= hi:
        raise ValueError("no overlap")
    xs = np.linspace(lo, hi, n)
    diff = PchipInterpolator(test_quality, test_log_rate)(xs) - PchipInterpolator(
        ref_quality, ref_log_rate
    )(xs)
    delta = np.trapezoid(diff, xs) / (hi - lo)
    return (10.0 ** delta - 1.0) * 100.0


def bd_quality_dense(ref_log_rate, ref_quality, test_log_rate, test_quality, n=100_000):
    """Average quality (dB) difference over the shared log-rate span."""
    lo = max(np.min(ref_log_rate), np.min(test_log_rate))
    hi = min(np.max(ref_log_rate), np.max(test_log_rate))
    if lo >= hi:
        raise ValueError("no overlap")
    xs = np.linspace(lo, hi, n)
    diff = PchipInterpolator(test_log_rate, test_quality)(xs) - PchipInterpolator(
        ref_log_rate, ref_quality
    )(xs)
    return np.trapezoid(diff, xs) / (hi - lo)


def _exact_mean_difference(ref_x, ref_y, test_x, test_y) -> float:
    """Mean of (test - ref) PCHIP fits over the shared x span, integrated
    exactly by scipy's piecewise-polynomial antiderivative."""
    lo = max(np.min(ref_x), np.min(test_x))
    hi = min(np.max(ref_x), np.max(test_x))
    if lo >= hi:
        raise ValueError("no overlap")
    test_area = PchipInterpolator(test_x, test_y).integrate(lo, hi)
    ref_area = PchipInterpolator(ref_x, ref_y).integrate(lo, hi)
    return float(test_area - ref_area) / (hi - lo)


def bd_rate_exact(ref_quality, ref_log_rate, test_quality, test_log_rate):
    """BD-Rate via scipy PCHIP and its exact integral."""
    delta = _exact_mean_difference(ref_quality, ref_log_rate, test_quality, test_log_rate)
    return (10.0 ** delta - 1.0) * 100.0


def bd_quality_exact(ref_log_rate, ref_quality, test_log_rate, test_quality):
    """BD-quality (dB) via scipy PCHIP and its exact integral."""
    return _exact_mean_difference(ref_log_rate, ref_quality, test_log_rate, test_quality)


def cost_dense(k: float, ladder=AV1_LADDER, **overrides) -> float:
    """Synthetic-model cost of scale k against its own k=1 curve."""
    ref = synth_arrays(1.0, ladder, **overrides)
    test = synth_arrays(k, ladder, **overrides)
    if ref is None or test is None:
        return math.inf
    return bd_rate_dense(ref[0], ref[1], test[0], test[1])


def grid_argmin(ladder=AV1_LADDER, **overrides) -> tuple[float, float]:
    """Brute-force argmin of cost_dense over the log-spaced k grid."""
    ks = np.geomspace(GRID_K_MIN, GRID_K_MAX, GRID_POINTS)
    costs = np.array([cost_dense(k, ladder, **overrides) for k in ks])
    i = int(np.argmin(costs))
    return float(ks[i]), float(costs[i])


def golden_min(f, a: float, b: float, tol: float = 1e-10, max_iters: int = 400) -> float:
    """Golden-section minimum of a unimodal f on [a, b]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iters):
        if b - a <= tol:
            break
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


def random_monotone_curve(rng: np.random.Generator, n: int, q_lo=8.0, q_hi=30.0):
    """Random strictly monotone (quality_db, log10_rate) knot arrays."""
    q = np.sort(rng.uniform(q_lo, q_hi, n))
    while np.min(np.diff(q)) < 0.25:
        q = np.sort(rng.uniform(q_lo, q_hi, n))
    steps = rng.uniform(0.15, 0.6, n - 1)
    log_rate = rng.uniform(2.0, 3.0) + np.concatenate([[0.0], np.cumsum(steps)])
    return q, log_rate


if __name__ == "__main__":
    k, cost = grid_argmin()
    print(f"GRID_ARGMIN_K = {k!r}")
    print(f"GRID_ARGMIN_COST = {cost!r}")
    print(f"COST_AT_KSTAR = {cost_dense(DEFAULT_MODEL['k_star'])!r}")
