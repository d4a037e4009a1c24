"""rdtune benchmark: per-clip lambda-scale optimisation, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from `src/`; the
benchmark fails (exit 2, no result) where that is missing.  Every workload
is a closed loop driven from this one process: clips are optimised one
after another, as `rdtune optimize` does, with 2 encode workers per sweep.
After an untimed warm-up and set-up, a pass optimises the whole clip set
on a fresh cache and renders the summary report; passes run while the
next one, taking as long as the last, ends within S seconds.

Workloads (BENCHMARK.json says why each was chosen):

* synth_cold    100 synthetic clips, in-process SyntheticEncoder, empty
                on-disk cache per pass.  The first pass, and every traced
                one, is followed by an untimed warm re-run on its cache.
* external_stub `cli_dispatch(["optimize", "--manifest", ...])` with the
                ExternalEncoder spawning stub_tools.py as encoder and
                metric tool.

The last stdout line is one JSON object: `correct`, `attempted` (clips
optimised), `failed` (clips whose optimisation raised) and `metrics`: the
end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer metrics
(from traced passes, see tracing.py) with --trace 1.  Spans of traced passes
are written to perfbench/.work/trace-<workload>[-warm]-seed<N>.jsonl.

Checks.  Every clip of every pass is checked for: its optimisation
raised; bd_rate > 0; k_hat is not the best evaluated trial; a control
clip's k_hat is off 1 by more than the optimiser's xtol; on a warm re-run,
it invoked the encoder.  A clip failing any check lowers clip_pass_ratio,
and stderr says why.  Two of these are known defects at the time of
writing, kept visible rather than dropped (ROADMAP items 3 and 5): harsh
clips whose failed probe discards evaluated gains, so k_hat is not the
best trial; and failed probes, which are never cached, so a warm re-run
repeats them.  Those two lower clip_pass_ratio only; every other failed
check also clears `correct`.  So do, failing every clip concerned: passes
of one run that disagree; a warm re-run that encodes a point the cold pass
cached or renders a report that is not byte-identical to the cold one; an
external_stub clip that disagrees with the in-process SyntheticEncoder on
the same model beyond the tolerances below.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

WORKERS = 2
SETUP_REPEATS = 3
# The host runs a CPU faster for a few seconds after it idled; this much
# untimed work first puts set-up and passes in the sustained state.
WARMUP_SECONDS = 3.0
WORKLOADS = ("synth_cold", "external_stub")
# Per-layer metrics also taken from synth_cold's traced warm re-runs,
# reported as warm.<name>.
WARM_LAYER_METRICS = (
    "sweep.PointCache.get.us_p50", "sweep.PointCache.hit_ratio", "sweep.RunLedger.append.us_p50",
    "encoder_bridge.synth_encode.calls", "rd_curve.self_share", "pchip.self_share",
    "sweep.self_share",
)
# End-to-end figures printed with --trace 0 but not declared in
# BENCHMARK.json, whose metrics must never read 0: these read 0 where
# nothing fails or nothing is encoded.
PRINTED_ONLY = {"clip_fail_ratio": "ratio", "mean_bd_rate_pct": "%", "worker_util": "ratio"}

# Clip sets.  Each is a fixed list of model centres; --seed jitters every
# parameter of every clip by up to JITTER and draws the noise seeds, so
# each seed gives other models while the set's aggregates (trials, encodes,
# mean BD-Rate) hold steady from seed to seed.
JITTER = 0.01
DESIGN_SEED = 220611976

# synth_*: 10 calibrated controls (k_star = 1, gamma ~ 0, as in acceptance
# criterion 5), 78 clips spread over the box below (one stratified design,
# the same for every seed) with noise on, and the 12 clips of ROADMAP item
# 3's harsh grid, unjittered.
CONTROLS = 10
SPREAD = 78
SPREAD_BOX = {
    "r0": (15000.0, 60000.0), "b": (0.08, 0.10), "beta": (0.25, 0.45), "gamma": (0.7, 1.3),
    "s0": (24.0, 30.0), "a": (0.25, 0.31), "c": (0.5, 1.2), "k_star": (0.5, 4.0),
}
HARSH_GRID = tuple((c, k) for c in (0.8, 2.0, 4.0, 8.0) for k in (2.5, 6.0, 10.0))
# external_stub: the default model at three k_star across the search window
# and one harsh clip whose third bracket probe underflows (failing encoder
# children).
# Noise is off: the command line carries k to 6 decimals while the model's
# jitter is keyed on more digits.  No control clip: its flat cost makes
# the number of Brent probes follow the byte rounding of the stub's output
# sizes, so its trial count would change from seed to seed.
EXTERNAL_K_STARS = (0.7, 1.6, 3.0)
EXTERNAL_HARSH = ((4.0, 2.5),)

# external_stub vs in-process agreement.  The stub's output size is a
# whole number of bytes; over a 60 s clip its bitrates differ from the
# model's by a relative 1.3e-6 at most, which moves a BD-Rate by far less
# than 0.01 points but can steer Brent to other probes near a flat optimum.
CLIP_SECONDS = 60.0
AGREE_BD_POINTS = 0.01
AGREE_LOG_K = 0.02  # twice the default optimiser xtol, in ln k


@dataclass(frozen=True)
class Clip:
    id: str
    params: dict
    control: bool = False


@dataclass(frozen=True)
class Outcome:
    """What a pass must reproduce exactly for one clip."""

    k_hat: float
    bd_rate: float
    trials: int
    best_cost: float
    encodes: int


@dataclass
class Pass:
    wall: float
    outcomes: dict[str, Outcome]
    raised: list[str]
    report: str
    fresh_encodes: int
    encode_seconds: float


# ---------------------------------------------------------------- inputs


def _strata(rng, n: int, lo: float, hi: float, log: bool = False) -> list[float]:
    """n values, one from each of n equal strata of [lo, hi], in random order."""
    u = (rng.permutation(n) + rng.uniform(0.0, 1.0, n)) / n
    if log:
        return [math.exp(math.log(lo) + v * (math.log(hi) - math.log(lo))) for v in u]
    return [lo + v * (hi - lo) for v in u]


def _clips(seed: int, stream: int, controls, centres, noise: bool) -> list[Clip]:
    import numpy as np

    rng = np.random.default_rng([seed, stream])

    def jitter(v: float) -> float:
        return v * (1.0 + JITTER * rng.uniform(-1.0, 1.0))

    out = [
        Clip(f"ctl{i:02d}", {"r0": jitter(r0), "s0": jitter(s0), "gamma": 0.01, "k_star": 1.0},
             control=True)
        for i, (r0, s0) in enumerate(controls)
    ]
    for i, centre in enumerate(centres):
        params = {name: jitter(v) for name, v in centre.items()}
        params["noise_seed"] = int(rng.integers(1, 2**31)) if noise else 0
        out.append(Clip(f"mid{i:02d}", params))
    return out


def _harsh(grid) -> list[Clip]:
    return [Clip(f"harsh_c{c:g}_k{k:g}", {"c": c, "k_star": k}) for c, k in grid]


def synth_clips(seed: int) -> list[Clip]:
    import numpy as np

    design = np.random.default_rng(DESIGN_SEED)
    controls = zip(_strata(design, CONTROLS, *SPREAD_BOX["r0"]),
                   _strata(design, CONTROLS, *SPREAD_BOX["s0"]))
    cols = {name: _strata(design, SPREAD, lo, hi, log=name == "k_star")
            for name, (lo, hi) in SPREAD_BOX.items()}
    centres = [{name: col[i] for name, col in cols.items()} for i in range(SPREAD)]
    return _clips(seed, 1, list(controls), centres, noise=True) + _harsh(HARSH_GRID)


def external_clips(seed: int) -> list[Clip]:
    from rdtune.encoder_bridge import SyntheticClipModel

    default = SyntheticClipModel()
    centre = {name: getattr(default, name) for name in SPREAD_BOX}
    centres = [{**centre, "k_star": k} for k in EXTERNAL_K_STARS]
    return _clips(seed, 2, [], centres, noise=False) + _harsh(EXTERNAL_HARSH)


# ---------------------------------------------------------------- passes


def _outcome(result, encodes: int) -> Outcome:
    return Outcome(
        k_hat=result.k_hat,
        bd_rate=result.bd_rate,
        trials=len(result.trials),
        best_cost=min(t.cost for t in result.trials),
        encodes=encodes,
    )


def _ledger(cache_dir: Path | None) -> list[dict]:
    from rdtune import sweep

    if cache_dir is None or not (cache_dir / "ledger.jsonl").exists():
        return []
    return sweep.RunLedger.load(cache_dir / "ledger.jsonl")


def _fresh_encodes(cache_dir: Path | None, skip: int) -> tuple[int, float]:
    """Successful fresh encodes the pass added to the ledger, and their seconds."""
    fresh = [r for r in _ledger(cache_dir)[skip:] if not r["cached"]]
    return len(fresh), sum(r["invocation_seconds"] for r in fresh)


def synth_pass(clips: list[Clip], cache_dir: Path | None, ledger_skip: int = 0) -> Pass:
    """Optimise every clip in-process with SyntheticEncoder, against an
    on-disk cache whose ledger starts with `ledger_skip` records, or a
    memory-only one."""
    from rdtune import encoder_bridge, report, sweep
    from rdtune.lambda_model import CodecId, FrameTypeGroup

    config = sweep.SweepConfig(
        codec=CodecId.AV1, group=FrameTypeGroup.KF_GF_ARF, workers=WORKERS, cache_dir=cache_dir
    )
    results, outcomes, raised = [], {}, []
    start = time.perf_counter()
    for clip in clips:
        backend = encoder_bridge.SyntheticEncoder(
            encoder_bridge.SyntheticClipModel(**clip.params), clip.id
        )
        try:
            result = sweep.optimize_clip(clip.id, config, backend)
        except Exception as exc:  # counted as a failed operation, never hidden
            print(f"clip {clip.id}: optimize_clip raised {exc!r}", file=sys.stderr)
            raised.append(clip.id)
            continue
        results.append(result)
        outcomes[clip.id] = _outcome(result, backend.invocations)
    text = report.render_text(report.summarize(results))
    wall = time.perf_counter() - start
    return Pass(wall, outcomes, raised, text, *_fresh_encodes(cache_dir, ledger_skip))


class ExternalSetup:
    """Manifest, clip parameter files and stub command templates."""

    def __init__(self, clips: list[Clip], run_dir: Path):
        from rdtune.encoder_bridge import SyntheticClipModel

        self.clips = clips
        self.run_dir = run_dir
        self.log = run_dir / "encodes.log"
        clip_dir = run_dir / "clips"
        clip_dir.mkdir(parents=True)
        entries = []
        for clip in clips:
            path = clip_dir / f"{clip.id}.json"
            params = asdict(SyntheticClipModel(**clip.params))
            params.update(clip=clip.id, duration_s=CLIP_SECONDS, log=str(self.log))
            path.write_text(json.dumps(params, sort_keys=True))
            entries.append({"id": clip.id, "path": str(path), "width": 64, "height": 64,
                            "frame_count": round(CLIP_SECONDS * 25), "frame_rate": 25.0})
        self.manifest = run_dir / "manifest.json"
        self.manifest.write_text(json.dumps(entries))
        tool = f"{shlex.quote(sys.executable)} -S -I {shlex.quote(str(HERE / 'stub_tools.py'))}"
        self.encoder_template = tool + " encode {input} {output} {qp} {k}"
        self.metric_template = tool + " metric {reference} {distorted} {report}"


def external_pass(ext: ExternalSetup, pass_dir: Path) -> Pass:
    """`rdtune optimize` over the manifest, in-process, with stub children."""
    from rdtune import cli, report, sweep

    ext.log.write_text("")
    out_dir = pass_dir / "out"
    argv = [
        "optimize", "--manifest", str(ext.manifest),
        "--encoder-template", ext.encoder_template,
        "--metric-template", ext.metric_template,
        "--codec", "AV1", "--group", "KF_GF_ARF", "--workers", str(WORKERS),
        "--cache-dir", str(pass_dir / "cache"), "--out", str(out_dir),
    ]
    start = time.perf_counter()
    code = cli.cli_dispatch(argv)
    results = [sweep.load_result(p) for p in sorted(out_dir.glob("*.json"))] if out_dir.exists() else []
    text = report.render_text(report.summarize(results))
    wall = time.perf_counter() - start
    if code != 0:
        print(f"rdtune optimize exited with status {code}", file=sys.stderr)

    encodes: dict[str, int] = {}
    for line in ext.log.read_text().split():
        encodes[line] = encodes.get(line, 0) + 1
    outcomes = {r.clip_id: _outcome(r, encodes.get(r.clip_id, 0)) for r in results}
    raised = [c.id for c in ext.clips if c.id not in outcomes]
    return Pass(wall, outcomes, raised, text, *_fresh_encodes(pass_dir / "cache", 0))


# ---------------------------------------------------------------- checks


def clip_checks(clip: Clip, o: Outcome, xtol: float) -> tuple[list[str], list[str]]:
    """(hard, soft) failed checks for one clip; see the module docstring."""
    hard, soft = [], []
    if o.bd_rate > 0.0:
        hard.append(f"bd_rate {o.bd_rate} > 0")
    if clip.control and abs(o.k_hat - 1.0) > xtol:
        hard.append(f"control k_hat {o.k_hat} off 1 by more than {xtol}")
    if o.bd_rate > o.best_cost + 1e-9:
        soft.append(f"k_hat {o.k_hat} (bd_rate {o.bd_rate}) is not the best evaluated "
                    f"trial ({o.best_cost})")
    return hard, soft


def agreement(o: Outcome, reference: Outcome) -> list[str]:
    """How an external_stub clip disagrees with the in-process reference."""
    out = []
    if abs(o.bd_rate - reference.bd_rate) > AGREE_BD_POINTS:
        out.append(f"bd_rate {o.bd_rate} vs in-process {reference.bd_rate}")
    if abs(math.log(o.k_hat / reference.k_hat)) > AGREE_LOG_K:
        out.append(f"k_hat {o.k_hat} vs in-process {reference.k_hat}")
    return out


class Checker:
    def __init__(self, clips: list[Clip], xtol: float):
        self.clips = {c.id: c for c in clips}
        self.xtol = xtol
        self.failed_clips: set[tuple[int, str]] = set()
        self.correct = True
        self.first: Pass | None = None

    def fail(self, index: int, clip_id: str, why: str, hard: bool = True) -> None:
        print(f"check failed, pass {index}, clip {clip_id}: {why}", file=sys.stderr)
        self.failed_clips.add((index, clip_id))
        if hard:
            self.correct = False

    def check_pass(self, index: int, p: Pass) -> None:
        for clip_id in p.raised:
            self.fail(index, clip_id, "optimisation raised")
        for clip_id, o in p.outcomes.items():
            hard, soft = clip_checks(self.clips[clip_id], o, self.xtol)
            for why in hard:
                self.fail(index, clip_id, why)
            for why in soft:
                self.fail(index, clip_id, why, hard=False)
        if self.first is None:
            self.first = p
        elif p.outcomes != self.first.outcomes or p.report != self.first.report:
            for clip_id in self.clips:
                self.fail(index, clip_id, "pass differs from the run's first pass")

    def fail_all(self, index: int, why: str) -> None:
        for clip_id in self.clips:
            self.fail(index, clip_id, why)


# ---------------------------------------------------------------- workloads


def warm_up(seconds: float) -> None:
    """Optimise the default model in memory, untimed, for `seconds`."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        synth_pass([Clip("warm_up", {})], None)


def _import_in_fresh_interpreter() -> None:
    subprocess.run([sys.executable, "-c", "import rdtune"], check=True,
                   env={"PYTHONPATH": str(SRC)}, cwd=ROOT)


class Workload:
    """Set-up, one measured pass, and the workload's own checks."""

    def __init__(self, name: str, seed: int, run_dir: Path):
        self.name = name
        self.seed = seed
        self.run_dir = run_dir
        self.ext: ExternalSetup | None = None

    def setup(self, index: int) -> None:
        """Everything before the first measured pass; repeated for setup_s."""
        _import_in_fresh_interpreter()
        if self.name == "external_stub":
            self.clips = external_clips(self.seed)
            self.ext = ExternalSetup(self.clips, self.run_dir / f"setup{index}")
        else:
            self.clips = synth_clips(self.seed)

    def run_pass(self, index: int, tracer=None, warm_tracer=None) -> tuple[Pass, Pass | None]:
        """One measured pass, under `tracer` if given.  On synth_cold, the
        first pass and every traced one are followed by a warm re-run on the
        same cache (under `warm_tracer`), which the measured pass excludes."""
        pass_dir = self.run_dir / f"pass{index}"
        warm = None
        with tracer or nullcontext():
            if self.name == "external_stub":
                pass_dir.mkdir()
                p = external_pass(self.ext, pass_dir)
            else:
                p = synth_pass(self.clips, pass_dir)
        if self.name == "synth_cold" and (index == 0 or warm_tracer is not None):
            with warm_tracer or nullcontext():
                warm = synth_pass(self.clips, pass_dir, len(_ledger(pass_dir)))
        shutil.rmtree(pass_dir)
        return p, warm

    def check(self, checker: Checker, index: int, p: Pass, warm: Pass | None) -> None:
        checker.check_pass(index, p)
        if warm is not None:
            if warm.fresh_encodes:
                checker.fail_all(index, "warm re-run encoded points the cold pass cached")
            for clip_id, o in warm.outcomes.items():
                if o.encodes:
                    checker.fail(index, clip_id, f"warm re-run made {o.encodes} encodes",
                                 hard=False)
            if warm.report != p.report:
                checker.fail_all(index, "warm report differs from the cold report")
        if self.name == "external_stub" and index == 0:
            reference = synth_pass(self.clips, None).outcomes
            for clip_id, o in p.outcomes.items():
                for why in agreement(o, reference[clip_id]):
                    checker.fail(index, clip_id, why)


# ---------------------------------------------------------------- metrics


def end_to_end(w: Workload, passes: list[Pass], setup_s: list[float], checker: Checker) -> dict:
    first = passes[0]
    n = len(w.clips)
    outcomes = list(first.outcomes.values())
    bd_rates = [o.bd_rate for o in outcomes]
    # Pass 0 and its warm re-run; later passes repeat its outcomes or clear `correct`.
    failed = sum(1 for index, _ in checker.failed_clips if index == 0)
    return {
        "setup_s": statistics.median(setup_s),
        "clips_per_s": statistics.median(n / p.wall for p in passes),
        "encodes_per_clip": sum(o.encodes for o in outcomes) / n,
        "trials_per_clip": sum(o.trials for o in outcomes) / n,
        "mean_bd_saving_pct": -sum(bd_rates) / n,
        "clip_pass_ratio": (n - failed) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # The last three are PRINTED_ONLY.
        "clip_fail_ratio": failed / n,
        "mean_bd_rate_pct": sum(bd_rates) / n,
        "worker_util": statistics.median(p.encode_seconds / (p.wall * WORKERS) for p in passes),
    }


def per_layer(traced: list[Pass], untraced: list[Pass], warm: list[Pass], tracer, warm_tracer,
              clips: int) -> dict:
    import tracing

    def wall_ns(ps: list[Pass]) -> float:
        return sum(p.wall for p in ps) * 1e9

    n = clips // len(traced)
    m = tracing.layer_metrics(tracer.spans, wall_ns(traced), clips, len(traced))
    cps_traced = statistics.median(n / p.wall for p in traced)
    cps_plain = statistics.median(n / p.wall for p in untraced)
    m["trace.clips_per_s"] = cps_traced
    m["trace.untraced_clips_per_s"] = cps_plain
    m["trace.overhead_share"] = 1.0 - cps_traced / cps_plain
    m["sweep.worker_util"] = statistics.median(
        p.encode_seconds / (p.wall * WORKERS) for p in untraced
    )
    # The warm re-runs of synth_cold: the first untraced, the others traced.
    on_warm = tracing.layer_metrics(warm_tracer.spans, wall_ns(warm[1:]), clips, len(traced)) \
        if len(warm) > 1 else {}
    for key in WARM_LAYER_METRICS:
        m[f"warm.{key}"] = on_warm.get(key, 0.0)
    m["warm.clips_per_s"] = n / warm[0].wall if warm else 0.0
    return m


# ---------------------------------------------------------------- main


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args) -> dict:
    import tracing

    from rdtune.sweep import DEFAULT_OPTIMIZER

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        w = Workload(args.workload, args.seed, run_dir)
        warm_up(WARMUP_SECONDS)
        setup_s = []
        for i in range(SETUP_REPEATS):
            start = time.perf_counter()
            w.setup(i)
            setup_s.append(time.perf_counter() - start)
        checker = Checker(w.clips, DEFAULT_OPTIMIZER.xtol)

        passes: list[Pass] = []
        traced: list[Pass] = []
        warm: list[Pass] = []
        tracer, warm_tracer = tracing.Tracer(), tracing.Tracer()
        begin = last = time.perf_counter()
        # Run whole passes while the next one, taking as long as the last,
        # still ends within the measured time.
        while len(passes) + len(traced) < (2 if args.trace else 1) or (
            2 * time.perf_counter() - last - begin <= args.seconds
        ):
            last = time.perf_counter()
            index = len(passes) + len(traced)
            with_trace = args.trace and index % 2 == 1
            if with_trace:
                p, warm_p = w.run_pass(index, tracer, warm_tracer)
                traced.append(p)
            else:
                p, warm_p = w.run_pass(index)
                passes.append(p)
            w.check(checker, index, p, warm_p)
            print(f"pass {index}{' traced' if with_trace else ''}: {p.wall:.3f} s")
            if warm_p is not None:
                warm.append(warm_p)
                print(f"warm re-run of pass {index}: {warm_p.wall:.3f} s")

        all_passes = passes + traced
        attempted = len(w.clips) * len(all_passes)
        failed = sum(len(p.raised) for p in all_passes)
        if args.trace:
            metrics = per_layer(traced, passes, warm, tracer, warm_tracer,
                                len(w.clips) * len(traced))
            tracer.write(WORK / f"trace-{args.workload}-seed{args.seed}.jsonl")
            warm_tracer.write(WORK / f"trace-{args.workload}-warm-seed{args.seed}.jsonl")
            declared = _declared()["per_layer"]
        else:
            metrics = end_to_end(w, passes, setup_s, checker)
            declared = _declared()["end_to_end"]
        units = PRINTED_ONLY | {d["name"]: d["unit"] for d in declared}
        for name in sorted(metrics):
            print(f"{name:40s} {metrics[name]:<14.6g} {units[name]}")
        return {
            "correct": checker.correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in declared},
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rdtune" / "__init__.py").is_file():
        print(f"error: the program is missing: no package at {SRC / 'rdtune'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
