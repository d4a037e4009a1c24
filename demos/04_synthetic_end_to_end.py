"""
End-to-end per-clip optimization on the synthetic encoder
=========================================================

The full pipeline on three synthetic clips: reference sweep, bracketed
Brent search over log k with content-addressed caching and a run ledger,
then a summary table and an SVG of the winning clip's RD curves.

Artifacts land in demos/demo_out/.
"""

from collections import Counter
from pathlib import Path

import rdtune as rt

OUT = Path(__file__).parent / "demo_out"
OUT.mkdir(exist_ok=True)

################################################################################
# Three clips with different latent optima. k_star is the quality-optimal
# scale baked into each model; the cost optimum also feels the rate side,
# so the found k usually sits above k_star.

clips = {
    "calm_scene": rt.SyntheticClipModel(k_star=2.5),
    "busy_scene": rt.SyntheticClipModel(k_star=1.4, c=1.5, beta=0.25),
    "flat_scene": rt.SyntheticClipModel(k_star=3.2, c=0.6, r0=18000.0),
}

config = rt.SweepConfig(
    codec=rt.CodecId.AV1,
    group=rt.FrameTypeGroup.KF_GF_ARF,
    scope=rt.LambdaScope.TOP,
    cache_dir=OUT / "cache",
)

# The cache persists across runs of this script, so the encodes of this run
# are counted from the ledger records it appends: a point served from the
# cache is appended with cached=true, a fresh encode with cached=false.
ledger = config.cache_dir / "ledger.jsonl"
before = len(rt.RunLedger.load(ledger)) if ledger.exists() else 0

# One backend serves the three clips, and one call searches them in turn.
backend = rt.SyntheticEncoder(clips)
results = list(rt.optimize_clips(clips, config, backend))
appended = rt.RunLedger.load(ledger)[before:]
encoded = Counter(r.get("clip") for r in appended if r.get("cached") is False)
for result in results:
    rt.save_result(result, OUT / f"{result.clip_id}.json")
    print(
        f"{result.clip_id:11s} k_hat={result.k_hat:6.3f}  bd={result.bd_rate:8.3f}%  "
        f"iters={result.iterations:2d}  encodes={encoded[result.clip_id]}"
    )

################################################################################
# PNM accounting: each optimizer iteration costs one ladder sweep of 5
# points, plus one sweep for each k=1 reference.  A cold run encodes all of
# them; a re-run finds every point in the cache and encodes none.

fresh = sum(encoded.values())
print(f"\nencodes this run: {fresh}, and {len(appended) - fresh} points from the cache"
      f" ({5 * sum(r.iterations + 1 for r in results)} points in the sweeps)")

################################################################################
# Table view, exactly what `rdtune report` prints.

print()
print(rt.render_text(rt.summarize(results)))

################################################################################
# RD curves of the best clip: default vs tuned, PCHIP-smoothed, markers at
# the measured QPs. Re-running this script is free: every point comes from
# the cache and the ledger grows with cached=true records.

best = min(results, key=lambda r: r.bd_rate)
tuned = min(best.trials, key=lambda t: t.cost).curve
rt.emit_plot(
    [best.reference_curve, tuned],
    OUT / "best_clip.svg",
    title=f"{best.clip_id}: k=1 vs k={best.k_hat:.2f}",
)
print(f"wrote {OUT / 'best_clip.svg'}")

ledger_records = rt.RunLedger.load(config.cache_dir / "ledger.jsonl")
print(f"ledger holds {len(ledger_records)} encode records"
      f" ({sum(1 for r in ledger_records if r.get('cached') is True)} cached)")
