"""Stand-ins for a patched encoder and a metric tool, run as child processes.

Standard library only, so each child starts fast and never imports the
package under test.  The clip "input" file is a JSON object holding the
synthetic model parameters (restated here from the closed forms in
rdtune.encoder_bridge, not imported) plus `duration_s` and `log`.

    stub_tools.py encode INPUT OUTPUT QP K
        sleeps a fixed per-qp latency, then writes OUTPUT whose size in
        bytes gives the model bitrate over duration_s (a sparse file: only
        its first line, qp and k for the metric tool, is data).  Appends one line naming the
        clip to the file named by `log`, so invocations are counted at the
        encoder.  Exits 1, like a failing encoder, where the model's
        quality underflows.
    stub_tools.py metric REFERENCE DISTORTED REPORT
        writes a libvmaf-style JSON report with the model's MS-SSIM and
        VMAF at the qp and k recorded in DISTORTED.
"""

import json
import math
import sys
import time


def latency_s(qp: int) -> float:
    """Encode time: lower qp (more bits) takes longer, as with real encoders."""
    return 0.100 + 0.002 * (63 - qp)


def rate_kbps(p: dict, qp: int, k: float) -> float:
    return p["r0"] * math.exp(-p["b"] * qp) * (1.0 - p["beta"] + p["beta"] * k ** -p["gamma"])


def quality_db(p: dict, qp: int, k: float) -> float:
    lk = math.log(p["k_star"])
    return p["s0"] - p["a"] * qp - p["c"] * ((math.log(k) - lk) ** 2 - lk * lk)


def _params(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def encode(src: str, out: str, qp: str, k: str) -> int:
    p = _params(src)
    qp_i, k_f = int(qp), float(k)
    with open(p["log"], "a") as fh:
        fh.write(p["clip"] + "\n")
    if quality_db(p, qp_i, k_f) <= 0.0:
        sys.stderr.write(f"stub encoder: quality underflow at qp={qp_i} k={k_f}\n")
        return 1
    time.sleep(latency_s(qp_i))
    header = f"{qp_i} {k}\n".encode()
    size = round(rate_kbps(p, qp_i, k_f) * 1000.0 * p["duration_s"] / 8.0)
    with open(out, "wb") as fh:
        fh.write(header)
        fh.truncate(max(size, len(header)))  # sparse: only the size is read
    return 0


def metric(ref: str, dist: str, report: str) -> int:
    p = _params(ref)
    with open(dist, "rb") as fh:
        qp, k = fh.readline().split()
    db = quality_db(p, int(qp), float(k))
    doc = {
        "pooled_metrics": {
            "float_ms_ssim": {"mean": 1.0 - 10.0 ** (-db / 10.0)},
            "vmaf": {"mean": min(100.0, max(0.0, 4.0 * db - 8.0))},
        }
    }
    with open(report, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    sys.exit({"encode": encode, "metric": metric}[mode](*rest))
