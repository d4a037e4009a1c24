"""
Bracketing and Brent's method
=============================

Each cost evaluation in this project is expensive (a full QP-ladder
sweep), so the scalar minimizer is built to be frugal and auditable: it
brackets a minimum by stepping downhill at the seeds' own spacing (the k
search's seeds are an octave apart), refines with Brent's parabolic/golden
iteration, never leaves the bracket, and returns only points it actually
evaluated.
"""

import math

import rdtune as rt

################################################################################
# Bracket a parabola from two seeds, stepping 0.5 at a time. The bracket
# triple (a, b, c) has the middle value below both ends, so a minimum is
# pinned inside.

quadratic = lambda x: (x - 2.5) ** 2
bracket = rt.bracket_minimum(quadratic, 0.5, 1.0)
print(f"bracket: a={bracket.a:.4f}  b={bracket.b:.4f}  c={bracket.c:.4f}")
print(f"values : {bracket.fa:.4f} > {bracket.fb:.4f} < {bracket.fc:.4f}")

################################################################################
# Refine with Brent. The trace records every post-bracket evaluation.

config = rt.OptimizerConfig(xtol=1e-4, max_iters=50)
x, fx, trace = rt.brent_minimize(quadratic, bracket, config)
print(f"\nminimum of (x-2.5)^2: x={x:.6f}  f={fx:.2e}"
      f"  ({len(trace.evaluations)} evaluations, converged={trace.converged})")

x, _, _ = rt.brent_minimize(
    math.cos, rt.bracket_minimum(math.cos, 2.0, 2.5), config
)
print(f"minimum of cos(x)    : x={x:.6f}  (pi = {math.pi:.6f})")

################################################################################
# A monotone function has no interior minimum; bracketing reports that
# instead of wandering forever.

try:
    rt.bracket_minimum(lambda x: x, 0.0, 1.0)
except rt.BracketError as exc:
    print("\nmonotone objective:", exc)

################################################################################
# The same machinery over log k is what optimize_clip runs; here the
# objective is the synthetic clip cost, dense enough to see the shape.

backend = rt.SyntheticEncoder({"demo": rt.SyntheticClipModel()})
config_sweep = rt.SweepConfig(codec=rt.CodecId.AV1, group=rt.FrameTypeGroup.KF_GF_ARF)
reference = rt.run_sweep("demo", 1.0, config_sweep, backend)

def cost(log_k):
    return rt.evaluate_cost("demo", math.exp(log_k), reference, config_sweep, backend).cost

bracket = rt.bracket_minimum(cost, math.log(0.5), 0.0,
                             lo=math.log(1 / 16), hi=math.log(16))
x, fx, trace = rt.brent_minimize(cost, bracket, rt.DEFAULT_OPTIMIZER)
print(f"\nsynthetic clip: best k = {math.exp(x):.3f}  cost = {fx:.2f} %"
      f"  in {len(trace.evaluations)} refinement steps")
