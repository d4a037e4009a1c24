"""
RD curves, monotone cubic fits, and BD-Rate
===========================================

BD-Rate summarizes two RD curves as one signed percentage: the average
bitrate difference at equal quality over the interval where the curves
overlap. This script builds two synthetic curves, inspects the monotone
cubic (PCHIP) fit underneath, and computes the headline metrics.
"""

import rdtune as rt

################################################################################
# Two measured curves for the same clip: the k=1 default and a candidate
# k=2.5 that trades keyframe bits for quality.

backend = rt.SyntheticEncoder({"demo": rt.SyntheticClipModel()})
config = rt.SweepConfig(codec=rt.CodecId.AV1, group=rt.FrameTypeGroup.KF_GF_ARF)
reference = rt.run_sweep("demo", 1.0, config, backend)
candidate = rt.run_sweep("demo", 2.5, config, backend)

print("reference points (qp, kbps, dB):")
for p in reference.points:
    print(f"  {p.qp:2d}  {p.bitrate_kbps:9.1f}  {p.msssim_db:6.2f}")

################################################################################
# The fit maps quality (dB) to log10 bitrate and reproduces every knot
# exactly; evaluation outside the knot span raises instead of
# extrapolating.

fit = reference.rate_fit
lo, hi = fit.x[0], fit.x[-1]
mid = 0.5 * (lo + hi)
print(f"\nfit span: [{lo:.2f}, {hi:.2f}] dB; rate at {mid:.2f} dB ="
      f" {10 ** rt.pchip_eval(fit, mid):9.1f} kbps")

################################################################################
# BD-Rate over the overlapping quality interval (negative: candidate needs
# fewer bits at equal quality), plus the matched-QP views of the same
# comparison.

d1 = max(reference.points[0].msssim_db, candidate.points[0].msssim_db)
d2 = min(reference.points[-1].msssim_db, candidate.points[-1].msssim_db)
print(f"\noverlap interval: [{d1:.2f}, {d2:.2f}] dB")
print(f"bd_rate          : {rt.bd_rate(reference, candidate):8.3f} %")
print(f"bd_quality       : {rt.bd_quality(reference, candidate):8.3f} dB")
print(f"mean matched     : {rt.mean_matched_savings(reference, candidate):8.3f} %")
print(f"at RD2 (qp 39)   : {rt.matched_qp_savings(reference, candidate, 39):8.3f} %")

################################################################################
# Sanity identities worth knowing: a curve against itself is 0, and
# swapping the roles inverts the ratio rather than the sign.

fwd = rt.bd_rate(reference, candidate)
rev = rt.bd_rate(candidate, reference)
print(f"\nself-comparison  : {rt.bd_rate(reference, reference):.2e} %")
print(f"reciprocity      : (1 + {fwd:.2f}/100) * (1 + {rev:.2f}/100) ="
      f" {(1 + fwd / 100) * (1 + rev / 100):.9f}")
