"""Tracing the program from outside, for the benchmark's traced runs.

The program carries no instrumentation of its own.  `Tracer.install`
replaces each traced public function at the module attribute its callers
resolve (for example `rdtune.sweep.bd_rate`, which sweep imported from
rd_curve) with a wrapper that records a span, and restores the originals
on `uninstall`.  Spans are kept in memory and written out when the run
ends.

A span is (name, start, end, parent, clip), plus whether the call returned
None (a cache miss, for PointCache.get) and whether it raised.  The clip
is the first argument of optimize_clip, inherited by every span below
it.  Spans started on a worker
thread of the sweep's encode pool inherit the span that submitted them as
parent, so per-layer self time (duration minus the union of child spans)
accounts for concurrent encodes.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# Span record fields.
NAME, START, END, PARENT, CLIP, EMPTY, ERROR = range(7)

# Layers are the package's modules; lambda_model and plot are on no
# optimize path, so they are not traced.
LAYERS = ("encoder_bridge", "sweep", "rd_curve", "pchip", "scalar_opt", "report", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "inherited", None)

    def span(self, name: str, fn, clip_from_arg: bool = False):
        """Wrap fn so each call records a span called `name`."""
        spans, stack_of, current = self.spans, self._stack, self.current
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = current()
            clip = args[0] if clip_from_arg else (parent[CLIP] if parent else None)
            rec = [name, clock(), 0, parent, clip, False, False]
            spans.append(rec)
            stack = stack_of()
            stack.append(rec)
            try:
                out = fn(*args, **kwargs)
                rec[EMPTY] = out is None
                return out
            except BaseException:
                rec[ERROR] = True
                raise
            finally:
                stack.pop()
                rec[END] = clock()

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        from rdtune import cli, encoder_bridge, pchip, rd_curve, report, sweep

        tracer = self

        class TracedPool(ThreadPoolExecutor):
            """Encode pool whose tasks inherit the submitting span."""

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()
                return super().submit(tracer._run_under, parent, fn, *args, **kwargs)

        optimize = self.span("sweep.optimize_clip", sweep.optimize_clip, clip_from_arg=True)
        patches = [
            (cli, "cli_dispatch", self.span("cli.cli_dispatch", cli.cli_dispatch)),
            (cli, "optimize_clip", optimize),
            (sweep, "optimize_clip", optimize),
            (sweep, "ThreadPoolExecutor", TracedPool),
            (sweep, "evaluate_cost", self.span("sweep.evaluate_cost", sweep.evaluate_cost)),
            (sweep, "load_result", self.span("sweep.load_result", sweep.load_result)),
            (sweep.PointCache, "get", self.span("sweep.PointCache.get", sweep.PointCache.get)),
            (sweep.PointCache, "put", self.span("sweep.PointCache.put", sweep.PointCache.put)),
            (sweep.RunLedger, "append", self.span("sweep.RunLedger.append", sweep.RunLedger.append)),
            (sweep, "bracket_minimum", self.span("scalar_opt.bracket_minimum", sweep.bracket_minimum)),
            (sweep, "brent_minimize", self.span("scalar_opt.brent_minimize", sweep.brent_minimize)),
            (sweep, "bd_rate", self.span("rd_curve.bd_rate", sweep.bd_rate)),
            (sweep, "bd_quality", self.span("rd_curve.bd_quality", sweep.bd_quality)),
        ]
        for fn in ("matched_qp_savings", "mean_matched_savings", "mean_vmaf_delta"):
            patches.append((sweep, fn, self.span(f"rd_curve.{fn}", getattr(sweep, fn))))
        patches += [
            (rd_curve, "pchip_fit", self.span("pchip.pchip_fit", rd_curve.pchip_fit)),
            (pchip, "pchip_eval", self.span("pchip.pchip_eval", pchip.pchip_eval)),
            (encoder_bridge.SyntheticEncoder, "measure",
             self.span("encoder_bridge.measure", encoder_bridge.SyntheticEncoder.measure)),
            (encoder_bridge.ExternalEncoder, "measure",
             self.span("encoder_bridge.measure", encoder_bridge.ExternalEncoder.measure)),
            (encoder_bridge, "synth_encode",
             self.span("encoder_bridge.synth_encode", encoder_bridge.synth_encode)),
            (report, "summarize", self.span("report.summarize", report.summarize)),
            (report, "render_text", self.span("report.render_text", report.render_text)),
        ]
        for owner, attr, value in patches:
            self._patch(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _run_under(self, parent, fn, *args, **kwargs):
        self._local.inherited = parent
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.inherited = None

    def write(self, path) -> None:
        """One JSON line per span: name, start/end in ns, parent line index, clip."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        with open(path, "w") as fh:
            for rec in self.spans:
                parent = index[id(rec[PARENT])] if rec[PARENT] is not None else -1
                fh.write(json.dumps([rec[NAME], rec[START], rec[END], parent, rec[CLIP]]) + "\n")


def self_times(spans: list[list]) -> dict[int, int]:
    """Self time (ns) per span id: duration minus the union of its children."""
    children: dict[int, list[tuple[int, int]]] = {}
    for rec in spans:
        if rec[PARENT] is not None:
            children.setdefault(id(rec[PARENT]), []).append((rec[START], rec[END]))
    out = {}
    for rec in spans:
        covered = 0
        kids = children.get(id(rec))
        if kids:
            kids.sort()
            lo, hi = kids[0]
            for s, e in kids[1:]:
                if s > hi:
                    covered += hi - lo
                    lo, hi = s, e
                else:
                    hi = max(hi, e)
            covered += hi - lo
        out[id(rec)] = rec[END] - rec[START] - covered
    return out


def _p(values: list[float], q: float) -> float:
    """q-quantile (0.5 median, 0.9 p90); 0 where the layer did no work."""
    if not values:
        return 0.0
    if q == 0.5 or len(values) < 2:
        return statistics.median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[round(q * 10) - 1]


def layer_metrics(spans: list[list], wall_ns: float, clips: int, passes: int) -> dict:
    """Per-layer metrics of traced passes.  Counts are per clip, times are
    per call, `<layer>.self_share` is the layer's self time over the
    passes' wall time (concurrent encodes can push a layer above 1)."""
    own = self_times(spans)
    by_name: dict[str, list[list]] = {}
    for rec in spans:
        by_name.setdefault(rec[NAME], []).append(rec)

    def recs(name):
        return by_name.get(name, [])

    def dur(name, scale):
        return [(r[END] - r[START]) / scale for r in recs(name)]

    def self_(name, scale):
        return [own[id(r)] / scale for r in recs(name)]

    def children(name, parent):
        return [r for r in recs(name) if r[PARENT] is not None and r[PARENT][NAME] == parent]

    us, ms = 1e3, 1e6
    bd_calls = len(recs("rd_curve.bd_rate"))
    gets = recs("sweep.PointCache.get")
    opt_evals = {
        name: len(children("sweep.evaluate_cost", name))
        for name in ("scalar_opt.bracket_minimum", "scalar_opt.brent_minimize")
    }
    opt_self_us = sum(self_("scalar_opt.bracket_minimum", us) + self_("scalar_opt.brent_minimize", us))
    m = {
        "rd_curve.bd_rate.calls": bd_calls / clips,
        "rd_curve.bd_rate.us_p50": _p(dur("rd_curve.bd_rate", us), 0.5),
        "rd_curve.bd_quality.us_p50": _p(dur("rd_curve.bd_quality", us), 0.5),
        "pchip.pchip_fit.us_p50": _p(dur("pchip.pchip_fit", us), 0.5),
        "pchip.pchip_eval.calls_per_bd_rate":
            len(children("pchip.pchip_eval", "rd_curve.bd_rate")) / bd_calls if bd_calls else 0.0,
        "sweep.PointCache.put.us_p50": _p(dur("sweep.PointCache.put", us), 0.5),
        "sweep.PointCache.get.us_p50": _p(dur("sweep.PointCache.get", us), 0.5),
        "sweep.PointCache.hit_ratio":
            sum(1 for r in gets if not r[EMPTY]) / len(gets) if gets else 0.0,
        "sweep.RunLedger.append.us_p50": _p(dur("sweep.RunLedger.append", us), 0.5),
        "encoder_bridge.measure.ms_p50": _p(dur("encoder_bridge.measure", ms), 0.5),
        "encoder_bridge.measure.ms_p90": _p(dur("encoder_bridge.measure", ms), 0.9),
        "encoder_bridge.measure.failed":
            sum(1 for r in recs("encoder_bridge.measure") if r[ERROR]) / clips,
        "encoder_bridge.synth_encode.calls": len(recs("encoder_bridge.synth_encode")) / clips,
        "sweep.evaluate_cost.ms_p50": _p(dur("sweep.evaluate_cost", ms), 0.5),
        "sweep.evaluate_cost.ms_p90": _p(dur("sweep.evaluate_cost", ms), 0.9),
        "sweep.evaluate_cost.self_ms_p50": _p(self_("sweep.evaluate_cost", ms), 0.5),
        "sweep.optimize_clip.self_ms_p50": _p(self_("sweep.optimize_clip", ms), 0.5),
        "scalar_opt.bracket_minimum.evals": opt_evals["scalar_opt.bracket_minimum"] / clips,
        "scalar_opt.brent_minimize.evals": opt_evals["scalar_opt.brent_minimize"] / clips,
        "scalar_opt.self_us_per_eval":
            opt_self_us / sum(opt_evals.values()) if sum(opt_evals.values()) else 0.0,
        "report.render.ms": sum(dur("report.summarize", ms) + dur("report.render_text", ms)) / passes,
        "cli.cli_dispatch.self_ms": sum(self_("cli.cli_dispatch", ms)) / passes,
    }
    for layer in LAYERS:
        m[f"{layer}.self_share"] = sum(
            own[id(r)] for r in spans if r[NAME].split(".", 1)[0] == layer
        ) / wall_ns
    return m
