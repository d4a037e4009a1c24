"""Sweep orchestration: RD curves per (clip, k), cost evaluation, and the
per-clip search for the best scale factor.

Cost of one k trial is the BD-Rate of its curve against the k=1 reference
curve, so each trial costs one full QP-ladder sweep (N encodes).  Every
completed encode (fresh or cached) is appended to a JSON Lines run ledger,
which is sufficient to recompute every derived statistic and is the one
persistent store of RD points: PointCache indexes it by content-addressed
cache key, so a warm re-run, or another process sharing the cache dir,
re-encodes nothing.

A sweep dispatches its cache misses in one of two ways, chosen by the
backend's in_process attribute.  An in-process backend's encodes hold the
GIL, so a thread pool could not overlap them and would only add hand-off
cost: they run in ladder order on the calling thread, and the sweep's
records (hits, fresh points, and the partials of a failed sweep) go to the
ledger in one write.  A backend whose encodes run in child processes gets
one pool of config.workers threads per optimize_clip or run_sweep call:
the sweep's hits go to the ledger in one write, and each fresh point as
soon as its encode completes, so a killed run loses no finished encode.

The search runs bracketing plus Brent over log k by default.  It has one
failure rule: any RdtuneError raised while bracketing or refining (a probe
whose sweep or BD-Rate fails, or no bracket inside the k bounds) ends the
search, and k-hat is the best trial evaluated up to then, including the
k=1 baseline, so no clip can regress: reported bd_rate is always <= 0.
The result's stop_reason says why the search ended.  Only an encode whose
child process failed (EncodeFailure) is retried, once; every other error
is deterministic and a retry would only repeat it.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import math
import os
import tempfile
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor, as_completed
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Protocol

from .errors import EncodeFailure, RdtuneError, SweepError
from .encoder_bridge import EncodeJob
from .lambda_model import CodecId, FrameTypeGroup, LambdaScope, validate_qp
from .rd_curve import (
    RDCurve,
    RDPoint,
    bd_rate,
    bd_quality,
    matched_qp_savings,
    mean_matched_savings,
    mean_vmaf_delta,
)
from .scalar_opt import (
    BracketError,
    OptimizerConfig,
    SearchDomain,
    bracket_minimum,
    brent_minimize,
)

__all__ = [
    "DEFAULT_QP_LADDERS",
    "DEFAULT_OPTIMIZER",
    "SweepConfig",
    "TrialRecord",
    "OptimizationResult",
    "InvocationBudget",
    "EncoderBackend",
    "PointCache",
    "RunLedger",
    "cache_key",
    "run_sweep",
    "evaluate_cost",
    "optimize_clip",
    "predict_budget",
    "curves_from_ledger",
    "save_result",
    "load_result",
]

DEFAULT_QP_LADDERS: dict[CodecId, tuple[int, ...]] = {
    CodecId.AV1: (27, 39, 49, 59, 63),
    CodecId.HEVC: (22, 27, 32, 37, 42),
}

DEFAULT_OPTIMIZER = OptimizerConfig(
    xtol=0.01, max_iters=25, search_domain=SearchDomain.LOGARITHMIC
)

# Default multiplicative search window and downhill seeds for k.
DEFAULT_K_BOUNDS = (1.0 / 16.0, 16.0)
DEFAULT_K_SEEDS = (0.5, 1.0)

_K_QUANTUM = 1e-6


def _quantize_k(k: float) -> int:
    return round(k / _K_QUANTUM)


class EncoderBackend(Protocol):
    """What the orchestrator needs from an encode backend.

    in_process is True when measure() computes in this interpreter, holding
    the GIL, so sweeps call it on the calling thread; False when it waits
    on child processes, so sweeps call it from a pool of config.workers
    threads.
    """

    invocations: int
    in_process: bool

    def measure(self, job: EncodeJob) -> RDPoint: ...

    def clip_digest(self, clip_id: str) -> str: ...

    def template_digest(self) -> str: ...

    def input_path(self, clip_id: str) -> Path | None: ...


@dataclass(frozen=True)
class SweepConfig:
    """Ladder, targeting, parallelism and cache placement for sweeps."""

    codec: CodecId
    group: FrameTypeGroup = FrameTypeGroup.ALL_FRAMES
    scope: LambdaScope = LambdaScope.TOP
    qp_ladder: tuple[int, ...] | None = None
    workers: int = 5
    cache_dir: Path | None = None
    min_curve_points: int = 4

    def __post_init__(self) -> None:
        ladder = self.qp_ladder
        if ladder is None:
            ladder = DEFAULT_QP_LADDERS[self.codec]
        ladder = tuple(int(q) for q in ladder)
        object.__setattr__(self, "qp_ladder", ladder)
        if self.cache_dir is not None:
            object.__setattr__(self, "cache_dir", Path(self.cache_dir))
        if not ladder:
            raise ValueError("qp_ladder must not be empty")
        if list(ladder) != sorted(set(ladder)):
            raise ValueError(f"qp_ladder must be strictly ascending, got {ladder}")
        for qp in ladder:
            if not validate_qp(self.codec, qp):
                lo, hi = self.codec.qp_range
                raise ValueError(f"qp {qp} outside [{lo}, {hi}] for {self.codec.value}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if not self.group.valid_for(self.codec):
            raise ValueError(f"group {self.group.value} invalid for codec {self.codec.value}")

    @property
    def rd2_qp(self) -> int:
        """Second operating point of the ladder (typical streaming rates)."""
        return self.qp_ladder[1] if len(self.qp_ladder) > 1 else self.qp_ladder[0]


class RunLedger:
    """Append-only JSON Lines record of every completed encode, and the one
    persistent store of RD points (PointCache is its in-memory index).

    The file is opened once with O_APPEND, and each append() writes all of
    its records with one os.write while an exclusive flock is held, so
    writers in any number of processes never interleave or lose a line, and
    the records of one append are adjacent.  A last line with no newline is
    an append cut short by a crash: under the same lock, opening and every
    append first end the file on a newline, cutting that line off unless it
    parses.  With path=None records go nowhere.

    An in-process sweep appends its records once, after its last encode, so
    a crash in the middle of one loses at most the ladder's encodes of that
    sweep (5 synthetic encodes on the default ladders, about 150 us of
    work).  A sweep over child processes appends each encode as it
    completes.
    """

    def __init__(self, path: Path | None = None):
        self.path = Path(path) if path is not None else None
        self._fd: int | None = None
        self._pid = os.getpid()
        self._lock = threading.Lock()
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
            weakref.finalize(self, os.close, self._fd)
            with self._locked():
                self._end_on_newline()

    @contextmanager
    def _locked(self):
        with self._lock:
            fcntl.flock(self._fd, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(self._fd, fcntl.LOCK_UN)

    def _end_on_newline(self) -> int:
        """Terminate an unterminated last line that parses; cut off one that
        does not.  Returns the file's size after that.  The caller holds the
        lock, so no append is in flight."""
        end = os.fstat(self._fd).st_size
        if end == 0 or os.pread(self._fd, 1, end - 1) == b"\n":
            return end
        data = os.pread(self._fd, end, 0)
        start = data.rfind(b"\n") + 1
        try:
            json.loads(data[start:])
        except ValueError:
            os.ftruncate(self._fd, start)
            return start
        os.write(self._fd, b"\n")
        return end + 1

    def append(self, *records: dict) -> tuple[int, int]:
        """Write the records, one line each, as one append; returns the byte
        span [start, end) they occupy in the file ((0, 0) with no file)."""
        if self._fd is None:
            return 0, 0
        data = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records).encode()
        with self._locked():
            start = self._end_on_newline()
            rest = data
            while rest:
                rest = rest[os.write(self._fd, rest):]
        return start, start + len(data)

    def _read_from(self, offset: int) -> bytes:
        """The complete lines written at or after byte `offset`, by any writer."""
        if self._fd is None:
            return b""
        end = os.fstat(self._fd).st_size
        data = os.pread(self._fd, end - offset, offset) if end > offset else b""
        return data[: data.rfind(b"\n") + 1]

    def _is_current(self) -> bool:
        """The path still names the file this ledger has open, and this is
        the process that opened it (a forked child shares the open file, and
        with it the flock)."""
        try:
            named = os.stat(self.path)
        except FileNotFoundError:
            return False
        held = os.fstat(self._fd)
        same_file = (named.st_dev, named.st_ino) == (held.st_dev, held.st_ino)
        return same_file and self._pid == os.getpid()

    @staticmethod
    def load(path: Path | str) -> list[dict]:
        """Parse every record.  A last line with no trailing newline that
        does not parse is an append cut short by a crash and is skipped; a
        corrupt line anywhere else raises."""
        out = []
        with Path(path).open() as fh:
            for line in fh:
                if not line.strip():
                    continue
                try:
                    out.append(json.loads(line))
                except json.JSONDecodeError:
                    # Only the last line can lack its newline.
                    if line.endswith("\n"):
                        raise
        return out


def _record_point(rec: dict) -> RDPoint:
    return RDPoint(
        qp=int(rec["qp"]),
        bitrate_kbps=float(rec["bitrate_kbps"]),
        msssim=float(rec["msssim"]),
        msssim_db=float(rec["msssim_db"]),
        vmaf=None if rec.get("vmaf") is None else float(rec["vmaf"]),
    )


class PointCache:
    """In-memory index cache_key -> RDPoint over a RunLedger.

    put() writes to memory only: the ledger record the sweep appends after
    it is what persists the point.  On a miss, get() first indexes the
    complete lines appended to the ledger since its last read, by this or
    any other process, then looks again.  A line that does not parse or
    does not make a valid RDPoint is skipped, so its point is a miss and is
    re-encoded.  With no ledger (or one with no path) it is memory-only.
    """

    def __init__(self, ledger: RunLedger | None = None):
        self.ledger = ledger if ledger is not None else RunLedger(None)
        self._mem: dict[str, RDPoint] = {}
        self._read_to = 0
        self._lock = threading.Lock()

    def get(self, key: str) -> RDPoint | None:
        with self._lock:
            point = self._mem.get(key)
            if point is None:
                data = self.ledger._read_from(self._read_to)
                self._read_to += len(data)
                self._index(data)
                point = self._mem.get(key)
            return point

    def _index(self, data: bytes) -> None:
        for line in data.splitlines():
            try:
                rec = json.loads(line)
                if rec["cache_key"] not in self._mem:
                    self._mem[rec["cache_key"]] = _record_point(rec)
            except (ValueError, KeyError, TypeError):
                continue  # unreadable: a miss, re-encoded and appended anew

    def put(self, key: str, point: RDPoint) -> None:
        with self._lock:
            self._mem[key] = point

    def _skip(self, span: tuple[int, int]) -> None:
        """Mark the ledger bytes [start, end) read, when they start where
        the last read ended.  For records of points this store already
        holds (a sweep's own append): parsing them would add nothing.  A
        span elsewhere holds, or follows, lines not yet read; those are
        parsed on the next miss as usual."""
        start, end = span
        with self._lock:
            if self._read_to == start:
                self._read_to = end


# The store of the last cache dir used without an explicit store.  The CLI
# and batch scripts call optimize_clip once per clip; keeping the store
# open means the ledger is parsed once in all, not once per clip.
_open_store: PointCache | None = None
_open_store_lock = threading.Lock()


def _default_store(cache_dir: Path | None) -> PointCache:
    """The kept store for cache_dir, replaced when the dir changes or its
    ledger is no longer the open file; memory-only without a cache dir."""
    global _open_store
    if cache_dir is None:
        return PointCache()
    path = cache_dir / "ledger.jsonl"
    with _open_store_lock:
        store = _open_store
        if store is None or store.ledger.path != path or not store.ledger._is_current():
            store = _open_store = PointCache(RunLedger(path))
        return store


def _stores(
    config: SweepConfig, cache: PointCache | None, ledger: RunLedger | None
) -> tuple[PointCache, RunLedger]:
    if cache is None:
        cache = PointCache(ledger) if ledger is not None else _default_store(config.cache_dir)
    return cache, ledger if ledger is not None else cache.ledger


def cache_key(job: EncodeJob, template_digest: str, clip_digest: str) -> str:
    """Stable digest over clip content identity and every job parameter
    that can change the encode.  k is quantized to 1e-6."""
    payload = "\n".join(
        [
            clip_digest,
            job.codec.value,
            str(job.qp),
            str(_quantize_k(job.k)),
            job.group.value,
            job.scope.value,
            template_digest,
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _ledger_record(
    key: str, job: EncodeJob, point: RDPoint, seconds: float, cached: bool
) -> dict:
    return {
        "timestamp": time.time(),
        "cache_key": key,
        "clip": job.clip_id,
        "codec": job.codec.value,
        "qp": job.qp,
        "k": job.k,
        "group": job.group.value,
        "scope": job.scope.value,
        "bitrate_kbps": point.bitrate_kbps,
        "msssim": point.msssim,
        "msssim_db": point.msssim_db,
        "vmaf": point.vmaf,
        "invocation_seconds": seconds,
        "cached": cached,
    }


def _work_root(config: SweepConfig) -> Path:
    """Encoder scratch space private to this process, so processes encoding
    the same key never write the same output or report file."""
    if config.cache_dir is not None:
        base = config.cache_dir / "work"
    else:
        base = Path(tempfile.gettempdir()) / "rdtune-work"
    return base / str(os.getpid())


def _encode_pool(config: SweepConfig, backend: EncoderBackend):
    """Context giving the encode pool of one call: config.workers threads
    for a backend over child processes, None for an in-process one."""
    if backend.in_process:
        return nullcontext()
    return ThreadPoolExecutor(max_workers=config.workers)


def _sweep(
    clip_id: str,
    k: float,
    config: SweepConfig,
    backend: EncoderBackend,
    cache: PointCache,
    ledger: RunLedger,
    pool: ThreadPoolExecutor | None,
) -> tuple[RDCurve, int]:
    """Measure the full ladder for one (clip, k), encoding cache misses on
    `pool`, or in ladder order on this thread when it is None; returns
    (curve, fresh_encodes).  A failed sweep raises SweepError, whose
    fresh_encodes counts the encodes it dispatched."""
    template_digest = backend.template_digest()
    clip_digest = backend.clip_digest(clip_id)
    work_root = _work_root(config)

    points: dict[int, RDPoint] = {}
    hits: list[dict] = []
    pending: list[tuple[int, EncodeJob, str]] = []
    for qp in config.qp_ladder:
        job = EncodeJob(
            clip_id=clip_id,
            codec=config.codec,
            qp=qp,
            k=k,
            group=config.group,
            scope=config.scope,
            input_path=backend.input_path(clip_id),
            work_dir=None,
        )
        key = cache_key(job, template_digest, clip_digest)
        job = replace(job, work_dir=work_root / key[:16])
        point = cache.get(key)
        if point is not None:
            points[qp] = point
            hits.append(_ledger_record(key, job, point, 0.0, cached=True))
        else:
            pending.append((qp, job, key))

    def write(records: list[dict]) -> None:
        if records:
            span = ledger.append(*records)
            if ledger is cache.ledger:
                cache._skip(span)

    def run_one(job: EncodeJob) -> tuple[RDPoint, float]:
        start = time.perf_counter()
        try:
            point = backend.measure(job)
        except EncodeFailure:  # a failed child process may succeed again
            point = backend.measure(job)
        return point, time.perf_counter() - start

    failures: list[tuple[int, Exception]] = []

    def settle(qp: int, job: EncodeJob, key: str, outcome) -> list[dict]:
        """Index one finished encode; outcome() returns run_one's result or
        raises its error.  Returns the records to write."""
        try:
            point, seconds = outcome()
        except Exception as exc:  # partial results stay cached
            failures.append((qp, exc))
            return []
        cache.put(key, point)
        points[qp] = point
        return [_ledger_record(key, job, point, seconds, cached=False)]

    if pool is None:
        records = hits
        for qp, job, key in pending:
            records += settle(qp, job, key, lambda: run_one(job))
        write(records)
    else:
        write(hits)
        futures = {pool.submit(run_one, job): (qp, job, key) for qp, job, key in pending}
        for fut in as_completed(futures):
            write(settle(*futures[fut], fut.result))

    if failures:
        failures.sort(key=lambda f: f[0])
        qp, exc = failures[0]
        more = f" (+{len(failures) - 1} more)" if len(failures) > 1 else ""
        error = SweepError(f"encode failed at qp={qp}, k={k}{more}: {exc}")
        error.fresh_encodes = len(pending)
        raise error from exc

    curve = RDCurve(
        clip_id=clip_id,
        codec=config.codec,
        k=k,
        group=config.group,
        scope=config.scope,
        points=tuple(points[qp] for qp in config.qp_ladder),
    )
    return curve, len(pending)


def run_sweep(
    clip_id: str,
    k: float,
    config: SweepConfig,
    backend: EncoderBackend,
    cache: PointCache | None = None,
    ledger: RunLedger | None = None,
) -> RDCurve:
    """RD curve over the full ladder for one (clip, k), consulting the cache
    first.  Misses are encoded up to config.workers at a time, or on this
    thread for an in-process backend.

    Without a cache the store of config.cache_dir is used (memory-only when
    that is None); a ledger given without a cache gets a fresh index.
    """
    cache, ledger = _stores(config, cache, ledger)
    with _encode_pool(config, backend) as pool:
        curve, _ = _sweep(clip_id, k, config, backend, cache, ledger, pool)
    return curve


@dataclass(frozen=True)
class TrialRecord:
    """One evaluated scale factor and what it cost."""

    k: float
    curve: RDCurve
    cost: float
    encoder_invocations: int

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "cost": self.cost,
            "encoder_invocations": self.encoder_invocations,
            "curve": self.curve.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrialRecord":
        return cls(
            k=float(d["k"]),
            curve=RDCurve.from_dict(d["curve"]),
            cost=float(d["cost"]),
            encoder_invocations=int(d["encoder_invocations"]),
        )


def evaluate_cost(
    clip_id: str,
    k: float,
    reference_curve: RDCurve,
    config: SweepConfig,
    backend: EncoderBackend,
    cache: PointCache | None = None,
    ledger: RunLedger | None = None,
    *,
    pool: ThreadPoolExecutor | None = None,
) -> TrialRecord:
    """BD-Rate of the k-curve against the k=1 reference curve.

    k=1 short-circuits to cost 0 with zero invocations; the reference
    curve already exists by precondition.  Encodes run on `pool` when one
    is given; otherwise as in run_sweep.  An RdtuneError raised here
    carries fresh_encodes, the encodes the failed trial made.
    """
    if _quantize_k(k) == _quantize_k(1.0):
        return TrialRecord(k=1.0, curve=reference_curve, cost=0.0, encoder_invocations=0)
    cache, ledger = _stores(config, cache, ledger)
    with nullcontext(pool) if pool is not None else _encode_pool(config, backend) as pool:
        curve, fresh = _sweep(clip_id, k, config, backend, cache, ledger, pool)
    try:
        cost = bd_rate(reference_curve, curve, min_points=config.min_curve_points)
    except RdtuneError as exc:
        exc.fresh_encodes = fresh
        raise
    return TrialRecord(k=k, curve=curve, cost=cost, encoder_invocations=fresh)


@dataclass(frozen=True)
class OptimizationResult:
    """Per-clip outcome plus everything needed to report it.

    stop_reason says why the search ended: "converged" or "max_iters" from
    Brent, "no_bracket" when no bracket was found inside the k bounds, or
    "failed_probe" when a probe raised.  A result saved before the field
    existed loads with "unknown".
    """

    clip_id: str
    codec: CodecId
    group: FrameTypeGroup
    scope: LambdaScope
    k_hat: float
    bd_rate: float
    iterations: int
    stop_reason: str
    improved: bool
    rd2_savings: float
    mean_savings: float
    msssim_change_db: float
    vmaf_change: float | None
    total_invocations: int
    trials: tuple[TrialRecord, ...]
    reference_curve: RDCurve

    def to_dict(self) -> dict:
        return {
            "clip_id": self.clip_id,
            "codec": self.codec.value,
            "group": self.group.value,
            "scope": self.scope.value,
            "k_hat": self.k_hat,
            "bd_rate": self.bd_rate,
            "iterations": self.iterations,
            "stop_reason": self.stop_reason,
            "improved": self.improved,
            "rd2_savings": self.rd2_savings,
            "mean_savings": self.mean_savings,
            "msssim_change_db": self.msssim_change_db,
            "vmaf_change": self.vmaf_change,
            "total_invocations": self.total_invocations,
            "trials": [t.to_dict() for t in self.trials],
            "reference_curve": self.reference_curve.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "OptimizationResult":
        return cls(
            clip_id=str(d["clip_id"]),
            codec=CodecId.parse(d["codec"]),
            group=FrameTypeGroup.parse(d["group"]),
            scope=LambdaScope.parse(d["scope"]),
            k_hat=float(d["k_hat"]),
            bd_rate=float(d["bd_rate"]),
            iterations=int(d["iterations"]),
            stop_reason=str(d.get("stop_reason", "unknown")),
            improved=bool(d["improved"]),
            rd2_savings=float(d["rd2_savings"]),
            mean_savings=float(d["mean_savings"]),
            msssim_change_db=float(d["msssim_change_db"]),
            vmaf_change=None if d.get("vmaf_change") is None else float(d["vmaf_change"]),
            total_invocations=int(d["total_invocations"]),
            trials=tuple(TrialRecord.from_dict(t) for t in d["trials"]),
            reference_curve=RDCurve.from_dict(d["reference_curve"]),
        )


def save_result(result: OptimizationResult, path: Path | str) -> None:
    Path(path).write_text(json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n")


def load_result(path: Path | str) -> OptimizationResult:
    return OptimizationResult.from_dict(json.loads(Path(path).read_text()))


class _CostObjective:
    """Memoized cost callback over the optimizer's coordinate.

    Arguments are quantized to a 1e-6 grid so re-probes are free.  A
    failing trial's error ends the search in optimize_clip; only the
    encodes it made are kept here, in failed_encodes.
    """

    def __init__(self, clip_id, config, backend, reference, cache, ledger, pool, log_domain: bool):
        self.clip_id = clip_id
        self.config = config
        self.backend = backend
        self.reference = reference
        self.cache = cache
        self.ledger = ledger
        self.pool = pool
        self.log_domain = log_domain
        self.trials: list[TrialRecord] = []
        self.failed_encodes = 0
        self._memo: dict[int, float] = {}

    def __call__(self, coord: float) -> float:
        grid = round(coord / 1e-6)
        if grid in self._memo:
            return self._memo[grid]
        k = math.exp(coord) if self.log_domain else coord
        try:
            trial = evaluate_cost(
                self.clip_id, k, self.reference, self.config, self.backend, self.cache,
                self.ledger, pool=self.pool,
            )
        except RdtuneError as exc:
            self.failed_encodes += getattr(exc, "fresh_encodes", 0)
            raise
        self.trials.append(trial)
        self._memo[grid] = trial.cost
        return trial.cost


def optimize_clip(
    clip_id: str,
    config: SweepConfig,
    backend: EncoderBackend,
    optimizer: OptimizerConfig = DEFAULT_OPTIMIZER,
    *,
    k_bounds: tuple[float, float] = DEFAULT_K_BOUNDS,
    k_seeds: tuple[float, float] = DEFAULT_K_SEEDS,
    cache: PointCache | None = None,
    ledger: RunLedger | None = None,
) -> OptimizationResult:
    """Find the scale factor minimizing BD-Rate against the clip's k=1 curve.

    Brackets downhill from the seeds, then runs Brent.  Any RdtuneError
    raised on the way (no bracket, or a probe that fails) ends the search;
    k-hat is always the best trial evaluated, including the k=1 baseline,
    and stop_reason records why the search ended.  A failed reference
    sweep propagates, since no result can be reported without the k=1
    curve.  total_invocations also counts the encodes of a probe that
    failed.  For a backend over child processes every sweep of the call
    runs its encodes on one pool of config.workers threads; an in-process
    backend's run on the calling thread.  The store is chosen as in
    run_sweep.
    """
    cache, ledger = _stores(config, cache, ledger)
    log_domain = optimizer.search_domain is SearchDomain.LOGARITHMIC
    to_coord = math.log if log_domain else (lambda v: v)
    with _encode_pool(config, backend) as pool:
        reference, _ = _sweep(clip_id, 1.0, config, backend, cache, ledger, pool)
        objective = _CostObjective(
            clip_id, config, backend, reference, cache, ledger, pool, log_domain
        )
        try:
            bracket = bracket_minimum(
                objective,
                to_coord(k_seeds[0]),
                to_coord(k_seeds[1]),
                max_expansions=32,
                lo=to_coord(k_bounds[0]),
                hi=to_coord(k_bounds[1]),
            )
            _, _, trace = brent_minimize(objective, bracket, optimizer)
            stop_reason = "converged" if trace.converged else "max_iters"
        except BracketError:
            stop_reason = "no_bracket"
        except RdtuneError:
            stop_reason = "failed_probe"

    trials = list(objective.trials)
    if not any(_quantize_k(t.k) == _quantize_k(1.0) for t in trials):
        trials.insert(0, TrialRecord(k=1.0, curve=reference, cost=0.0, encoder_invocations=0))

    iterations = sum(1 for t in trials if _quantize_k(t.k) != _quantize_k(1.0))
    total_invocations = sum(t.encoder_invocations for t in trials) + objective.failed_encodes
    best = min(trials, key=lambda t: (t.cost, abs(math.log(t.k))))

    if _quantize_k(best.k) == _quantize_k(1.0) or best.cost >= 0.0:
        return OptimizationResult(
            clip_id=clip_id,
            codec=config.codec,
            group=config.group,
            scope=config.scope,
            k_hat=1.0,
            bd_rate=0.0,
            iterations=iterations,
            stop_reason=stop_reason,
            improved=False,
            rd2_savings=0.0,
            mean_savings=0.0,
            msssim_change_db=0.0,
            vmaf_change=0.0,
            total_invocations=total_invocations,
            trials=tuple(trials),
            reference_curve=reference,
        )

    return OptimizationResult(
        clip_id=clip_id,
        codec=config.codec,
        group=config.group,
        scope=config.scope,
        k_hat=best.k,
        bd_rate=best.cost,
        iterations=iterations,
        stop_reason=stop_reason,
        improved=True,
        rd2_savings=matched_qp_savings(reference, best.curve, config.rd2_qp),
        mean_savings=mean_matched_savings(reference, best.curve),
        msssim_change_db=bd_quality(reference, best.curve, min_points=config.min_curve_points),
        vmaf_change=mean_vmaf_delta(reference, best.curve),
        total_invocations=total_invocations,
        trials=tuple(trials),
        reference_curve=reference,
    )


@dataclass(frozen=True)
class InvocationBudget:
    """PNM accounting: P optimizer iterations, N ladder points, M clips."""

    p: int
    n: int
    m: int

    def __post_init__(self) -> None:
        for name in ("p", "n", "m"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


def predict_budget(budget: InvocationBudget) -> int:
    """Predicted encoder invocations for a full run: P*N*M."""
    return budget.p * budget.n * budget.m


def curves_from_ledger(records: list[dict]) -> list[RDCurve]:
    """Rebuild all complete RD curves recorded in a ledger.

    Records are deduplicated by cache_key (last wins), then grouped by
    (clip, codec, k quantized to 1e-6, group, scope); a curve takes the k
    of its group's first record.
    """
    latest: dict[str, dict] = {}
    order: list[str] = []
    for rec in records:
        key = rec["cache_key"]
        if key not in latest:
            order.append(key)
        latest[key] = rec

    groups: dict[tuple, tuple[float, dict[int, RDPoint]]] = {}
    for key in order:
        rec = latest[key]
        ident = (rec["clip"], rec["codec"], _quantize_k(rec["k"]), rec["group"], rec["scope"])
        point = _record_point(rec)
        groups.setdefault(ident, (float(rec["k"]), {}))[1][point.qp] = point

    curves = []
    for (clip, codec, _kq, group, scope), (k, by_qp) in groups.items():
        if len(by_qp) < 2:
            continue
        curves.append(
            RDCurve(
                clip_id=clip,
                codec=CodecId.parse(codec),
                k=k,
                group=FrameTypeGroup.parse(group),
                scope=LambdaScope.parse(scope),
                points=tuple(by_qp[qp] for qp in sorted(by_qp)),
            )
        )
    return curves
