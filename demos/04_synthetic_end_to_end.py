"""
End-to-end per-clip optimization on the synthetic encoder
=========================================================

The full pipeline on three synthetic clips: reference sweep, bracketed
Brent search over log k with content-addressed caching and a run ledger,
then a summary table and an SVG of the winning clip's RD curves.

Artifacts land in demos/demo_out/.
"""

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

# One backend serves the three clips, and one call searches them in turn.
backend = rt.SyntheticEncoder(clips)
results = list(rt.optimize_clips(clips, config, backend))
for result in results:
    rt.save_result(result, OUT / f"{result.clip_id}.json")
    print(
        f"{result.clip_id:11s} k_hat={result.k_hat:6.3f}  bd={result.bd_rate:8.3f}%  "
        f"iters={result.iterations:2d}  encodes={result.total_invocations + 5}"
    )

################################################################################
# PNM accounting: each optimizer iteration costs one ladder sweep; the
# predicted budget for this run matches what the backend actually did.

total = sum(r.total_invocations for r in results)
predicted = 5 * sum(r.iterations for r in results)
print(f"\ntrial encodes: {total} (predicted {predicted}),"
      f" plus {5 * len(results)} for the k=1 references")

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
