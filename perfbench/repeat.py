"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --workload synth_cold --seeds 1-10 [--trace 0|1]
                                [--seconds S] [--out FILE]

Runs BENCHMARK.json's command once per seed, one run at a time, and prints
for every metric the median, the first and third quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread, the
quartile distance as a share of the median.  An end-to-end metric whose
spread is not below a third of its bound is marked.  --out writes the
runs and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)

    summary = {}
    for name in runs[0]["metrics"]:
        summary[name] = summarise([r["metrics"][name]["value"] for r in runs])
        s = summary[name]
        bound = bounds.get(name)
        flag = " <- spread >= bound/3" if bound and name != "setup_s" and s["spread"] >= bound / 3 else ""
        print(f"{name:40s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
              f"spread {s['spread']:.4f}" + (f" bound {bound}" if bound else "") + flag)
    if args.out:
        args.out.write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds, "trace": args.trace,
             "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
