"""Sweep orchestration: RD curves per (clip, k), cost evaluation, and the
per-clip search for the best scale factor.

Cost of one k trial is the BD-Rate of its curve against the k=1 reference
curve, so each trial costs one full QP-ladder sweep (N encodes).  An
encode's outcome is one value: its RDPoint, or the error it failed with.
Every encode, fresh or cached, is appended with its outcome to a JSON Lines
run ledger, which is sufficient to recompute every derived statistic and is
the one persistent store: PointCache indexes the outcomes by
content-addressed cache key, so a warm re-run, or another process sharing
the cache dir, re-encodes nothing but the encodes whose child process
failed.  The ledger keeps its store's read position, and moves it past an
append that starts there, so a store does not parse its own records again
unless another process appended in between.  Every ledger read skips a
line that is not a JSON object, and a key's first ok record is its point.
A deterministic failure is replayed as the same error, so a warm re-run
takes the same path through the search.  A sweep tables the outcome of
each qp of its ladder, from the store or from an encode.

A sweep dispatches its cache misses in one of two ways, chosen by the
backend's in_process attribute.  An in-process backend's encodes hold the
GIL, so a thread pool could not overlap them and would only add hand-off
cost: they run in ladder order on the calling thread, and the sweep's
records (hits, fresh points, and the partials of a failed sweep) go to the
ledger in one write.  A backend whose encodes run in child processes gets
a pool of config.workers threads by one rule (_encode_pool): the pool the
caller passes (optimize_clips shares one among its searches, so
config.workers caps the concurrent encodes of the whole run), else one per
optimize_clip or run_sweep call.  Such a sweep's hits go to the ledger in
one write, and each fresh point as soon as its encode completes, so a
killed run loses no finished encode.
Every job carries work_dir <cache-dir>/work (None without a cache dir):
each external encode makes its own temporary directory there (or in the
system temp dir) and removes it when done; the synthetic backend writes
no files.

The search is one fixed bracketing plus Brent over ln k, at
DEFAULT_OPTIMIZER's tolerances (xtol in ln k, ftol in BD-Rate points) and
iteration cap: Brent stops on xtol, on a parabolic step that predicts less
than ftol of gain, or after two trials in a row that each gain less than
ftol on the best cost so far.  ftol (0.05) is set by the noise of one
trial's cost, which scores a single noisy sweep.  It has one failure
rule: any RdtuneError raised while bracketing or refining (a probe whose
sweep or BD-Rate fails, or no bracket inside the k bounds) ends the
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
import threading
import time
import weakref
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from queue import SimpleQueue
from typing import Iterable, Iterator, Protocol

from . import errors
from .errors import EncodeFailure, RdtuneError, SweepError
from .encoder_bridge import EncodeJob, _read_json
from .lambda_model import CodecId, FrameTypeGroup, LambdaScope, validate_qp
from .rd_curve import (
    _MIN_POINTS,
    _Document,
    _json_field,
    RDCurve,
    RDPoint,
    bd_rate,
    bd_quality,
    matched_qp_savings,
    mean_matched_savings,
    mean_vmaf_delta,
)
from .scalar_opt import BracketError, OptimizerConfig, bracket_minimum, brent_minimize

__all__ = [
    "DEFAULT_QP_LADDERS",
    "DEFAULT_OPTIMIZER",
    "SweepConfig",
    "TrialRecord",
    "OptimizationResult",
    "EncoderBackend",
    "PointCache",
    "RunLedger",
    "run_sweep",
    "evaluate_cost",
    "optimize_clip",
    "optimize_clips",
    "curves_from_ledger",
    "save_result",
    "load_result",
]

DEFAULT_QP_LADDERS: dict[CodecId, tuple[int, ...]] = {
    CodecId.AV1: (27, 39, 49, 59, 63),
    CodecId.HEVC: (22, 27, 32, 37, 42),
}

# ftol, in BD-Rate points, is set by the noise of one trial's cost, which
# on the noisy synthetic model scatters with a std of about 0.16 points:
# waiting for smaller gains spends sweeps chasing noise.  At 0.1 the default
# model's search stops short of its optimum.
DEFAULT_OPTIMIZER = OptimizerConfig(xtol=0.01, max_iters=25, ftol=0.05)

# The search over ln k: the window k in [1/16, 16] and the downhill seeds
# k = 0.5 and k = 1.
_LN_K_BOUNDS = (math.log(1.0 / 16.0), math.log(16.0))
_LN_K_SEEDS = (math.log(0.5), 0.0)

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

    in_process: bool

    def measure(self, job: EncodeJob) -> RDPoint: ...

    def clip_digest(self, clip_id: str) -> str: ...

    def template_digest(self) -> str: ...


@dataclass(frozen=True)
class SweepConfig:
    """Ladder, targeting, parallelism and cache placement for sweeps."""

    codec: CodecId
    group: FrameTypeGroup = FrameTypeGroup.ALL_FRAMES
    scope: LambdaScope = LambdaScope.TOP
    qp_ladder: tuple[int, ...] | None = None
    workers: int = 5
    cache_dir: Path | None = None

    def __post_init__(self) -> None:
        ladder = self.qp_ladder
        if ladder is None:
            ladder = DEFAULT_QP_LADDERS[self.codec]
        ladder = tuple(ladder)
        object.__setattr__(self, "qp_ladder", ladder)
        if self.cache_dir is not None:
            object.__setattr__(self, "cache_dir", Path(self.cache_dir))
        if not ladder:
            raise ValueError("qp_ladder must not be empty")
        for qp in ladder:  # before sorting, which a str among ints would break
            if not validate_qp(self.codec, qp):
                lo, hi = self.codec.qp_range
                raise ValueError(f"qp {qp!r} is not an integer in [{lo}, {hi}] for {self.codec.value}")
        if list(ladder) != sorted(set(ladder)):
            raise ValueError(f"qp_ladder must be strictly ascending, got {ladder}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if not self.group.valid_for(self.codec):
            raise ValueError(f"group {self.group.value} invalid for codec {self.codec.value}")

    @property
    def rd2_qp(self) -> int:
        """Second operating point of the ladder (typical streaming rates)."""
        return self.qp_ladder[1] if len(self.qp_ladder) > 1 else self.qp_ladder[0]


# One encoder for every ledger line: json.dumps(r, sort_keys=True) builds a
# new JSONEncoder per call.
_record_json = json.JSONEncoder(sort_keys=True).encode


def _records(lines: Iterable[bytes]) -> Iterator[dict]:
    """Each line that parses as a JSON object; every other line (torn, not
    JSON, not UTF-8, or not an object) is skipped."""
    for line in lines:
        try:
            rec = json.loads(line.decode())
        except (ValueError, RecursionError):
            continue
        if isinstance(rec, dict):
            yield rec


# The last line of the ledger is read back from its end in chunks of this
# many bytes, so ending it on a newline costs the length of that line, not
# of the file.
_TAIL_CHUNK = 1 << 16


class RunLedger:
    """Append-only JSON Lines record of every encode's outcome, and the one
    persistent store of outcomes (PointCache is its in-memory index).

    The file is opened once with O_APPEND, and each append() writes all of
    its records with one os.write while an exclusive flock is held, so
    writers in any number of processes never interleave or lose a line, and
    the records of one append are adjacent.  A last line with no newline is
    an append cut short by a crash: under the same lock, opening and every
    append first end the file on a newline, cutting that line off unless
    _records yields it.  With path=None records go nowhere.

    It keeps the read position of the one store that indexes it:
    _read_new() returns the complete lines written since the last read, by
    any process.  An append that starts at the position moves it past its
    own records, whose outcomes the store holds; one that starts after
    another process's lines leaves it, and the next read returns both.

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
        self._read_to = 0
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
        """Terminate an unterminated last line that is a record; cut off one
        that is not.  Returns the file's size after that.  The caller holds
        the lock, so no append is in flight."""
        end = os.fstat(self._fd).st_size
        if end == 0 or os.pread(self._fd, 1, end - 1) == b"\n":
            return end
        start, chunks = end, []
        while start > 0:  # back to the newline before the last line
            size = min(_TAIL_CHUNK, start)
            start -= size
            chunk = os.pread(self._fd, size, start)
            cut = chunk.rfind(b"\n") + 1
            chunks.append(chunk[cut:])
            if cut:
                start += cut
                break
        if next(_records([b"".join(reversed(chunks))]), None) is None:
            os.ftruncate(self._fd, start)
            return start
        os.write(self._fd, b"\n")
        return end + 1

    def append(self, *records: dict) -> None:
        """Write the records, one line each, as one append."""
        if self._fd is None:
            return
        data = "".join(_record_json(r) + "\n" for r in records).encode()
        with self._locked():
            start = self._end_on_newline()
            rest = data
            while rest:
                rest = rest[os.write(self._fd, rest):]
            if self._read_to == start:
                self._read_to = start + len(data)

    def _read_new(self) -> bytes:
        """The complete lines written since the last read (see the class)."""
        if self._fd is None:
            return b""
        with self._lock:
            start, end = self._read_to, os.fstat(self._fd).st_size
            data = os.pread(self._fd, end - start, start) if end > start else b""
            data = data[: data.rfind(b"\n") + 1]
            self._read_to += len(data)
        return data

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
        """Every record at path, streamed through _records as the store
        reads them, so a torn or damaged line anywhere is skipped.  Only a
        file that cannot be read raises (OSError)."""
        with Path(path).open("rb") as fh:
            return list(_records(fh))


# Failures replayed from the ledger, by class name: every RdtuneError but
# EncodeFailure, whose failed child process may succeed on another try.
_REPLAYED = {
    name: cls
    for name, cls in vars(errors).items()
    if isinstance(cls, type) and issubclass(cls, RdtuneError) and cls is not EncodeFailure
}


def _replayed(error: str, message: str) -> RdtuneError | None:
    """The failure, of the class named error, to replay; None when it is
    not replayed (see _REPLAYED), so its encode is a miss."""
    cls = _REPLAYED.get(error)
    return cls(message) if cls is not None else None


def _outcome(rec: dict) -> RDPoint | RdtuneError | None:
    """The outcome a ledger record holds: an "ok" record's point (records
    older than status are ok), or the failure a "failed" one replays, None
    when that is not replayed.  A record of another status, or with a field
    that does not read, raises ValueError, KeyError or TypeError."""
    status = rec.get("status", "ok")
    if status == "ok":
        return RDPoint.from_dict(rec)
    if status == "failed":
        return _replayed(_json_field(rec, "error", str), _json_field(rec, "message", str))
    raise ValueError(f"unknown status {status!r}")


class PointCache:
    """In-memory index cache_key -> outcome over a RunLedger: an encode's
    RDPoint, or the deterministic failure it replays.

    get() returns the key's point, its replayed failure (an error of the
    recorded class and message: the encode is not run), or None for a miss.
    While it knows no point for the key, it first indexes the lines the
    ledger's _read_new() returns, those appended since the last read by
    any process, so a point recorded elsewhere beats a failure already
    known here.  Each store needs a RunLedger of its own.  put() indexes an
    outcome in memory only; the sweep's ledger record persists it.  Both
    follow one rule: a key's first point wins, and until then its last
    failure decides (an EncodeFailure, or an error that is not an
    RdtuneError, makes it a miss).  A line _records skips, or a record with
    no cache_key or readable outcome, is skipped, so its point is
    re-encoded.  With no ledger (or one with no path) it is memory-only.
    """

    def __init__(self, ledger: RunLedger | None = None):
        self.ledger = ledger if ledger is not None else RunLedger(None)
        self._known: dict[str, RDPoint | RdtuneError | None] = {}
        self._lock = threading.Lock()

    def get(self, key: str) -> RDPoint | RdtuneError | None:
        with self._lock:
            if not isinstance(self._known.get(key), RDPoint):
                self._index(self.ledger._read_new())
            return self._known.get(key)

    def _index(self, data: bytes) -> None:
        for rec in _records(data.split(b"\n")[:-1]):  # data ends on a newline
            try:
                key = rec["cache_key"]
                if not isinstance(self._known.get(key), RDPoint):  # the first point wins
                    self._known[key] = _outcome(rec)
            except (ValueError, KeyError, TypeError):
                continue  # unreadable: a miss, re-encoded and appended anew

    def put(self, key: str, outcome: RDPoint | Exception) -> None:
        if not isinstance(outcome, RDPoint):
            outcome = _replayed(type(outcome).__name__, str(outcome))
        with self._lock:
            if not isinstance(self._known.get(key), RDPoint):  # the first point wins
                self._known[key] = outcome


# The store of the last cache dir used without an explicit store, which
# every search looks up (optimize_clips', or a caller's optimize_clip per
# clip); kept open, the ledger is parsed once in all, not once per clip.
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
    key: str,
    job: EncodeJob,
    digests: dict[str, str],
    outcome: RDPoint | Exception,
    seconds: float,
    cached: bool,
) -> dict:
    """The ledger line of one encode: its job and digests, then its point
    (status "ok") or the error it failed with (status "failed")."""
    if isinstance(outcome, RDPoint):
        result = {"status": "ok", **outcome.to_dict()}
    else:
        result = {"status": "failed", "qp": job.qp, "error": type(outcome).__name__,
                  "message": str(outcome)}
        if isinstance(outcome, EncodeFailure):
            result["stderr_tail"] = outcome.captured_output
    return {
        "timestamp": time.time(),
        "cache_key": key,
        "clip": job.clip_id,
        "codec": job.codec.value,
        "k": job.k,
        "group": job.group.value,
        "scope": job.scope.value,
        **digests,
        **result,
        "invocation_seconds": seconds,
        "cached": cached,
    }


def _encode_pool(config: SweepConfig, backend: EncoderBackend, pool: ThreadPoolExecutor | None = None):
    """Context giving the encode pool of one call: the pool passed in, None
    for an in-process backend, and otherwise a new pool of config.workers
    threads, shut down when the call ends."""
    if pool is not None or backend.in_process:
        return nullcontext(pool)
    return ThreadPoolExecutor(max_workers=config.workers)


def _sweep(
    clip_id: str,
    k: float,
    config: SweepConfig,
    backend: EncoderBackend,
    cache: PointCache,
    pool: ThreadPoolExecutor | None,
) -> tuple[RDCurve, int]:
    """Measure the full ladder for one (clip, k), encoding cache misses on
    `pool`, or in ladder order on this thread when it is None; returns
    (curve, fresh_encodes).  Store hits, replayed failures and encodes all
    go into one table qp -> outcome.  A failed sweep raises SweepError naming
    its first failed qp in ladder order; its fresh_encodes counts the
    encodes it dispatched."""
    digests = {"template_digest": backend.template_digest(),
               "clip_digest": backend.clip_digest(clip_id)}
    work_dir = None if config.cache_dir is None else config.cache_dir / "work"

    outcomes: dict[int, RDPoint | Exception] = {}
    hits: list[dict] = []
    pending: list[tuple[int, EncodeJob, str]] = []
    for qp in config.qp_ladder:
        job = EncodeJob(clip_id, config.codec, qp, k, config.group, config.scope, work_dir)
        key = cache_key(job, **digests)
        outcome = cache.get(key)
        if outcome is None:
            pending.append((qp, job, key))
        else:
            outcomes[qp] = outcome
            hits.append(_ledger_record(key, job, digests, outcome, 0.0, cached=True))

    def run_one(qp: int, job: EncodeJob, key: str) -> dict:
        """Encode job, then index and table its point, or the error it
        failed with; returns its ledger record."""
        start = time.perf_counter()
        try:
            try:
                outcome = backend.measure(job)
            except EncodeFailure:  # a failed child process may succeed again
                outcome = backend.measure(job)
        except Exception as exc:
            outcome = exc
        seconds = time.perf_counter() - start
        cache.put(key, outcome)
        outcomes[qp] = outcome
        return _ledger_record(key, job, digests, outcome, seconds, cached=False)

    if pool is None:
        cache.ledger.append(*hits, *(run_one(*p) for p in pending))
    else:
        if hits:
            cache.ledger.append(*hits)
        # Completions arrive through done callbacks, not as_completed: a
        # future that shutdown(cancel_futures=True) cancels never reaches
        # as_completed, but it does run its callbacks.
        done: SimpleQueue[Future] = SimpleQueue()
        futures = {}
        for qp, job, key in pending:
            try:
                fut = pool.submit(run_one, qp, job, key)
            except RuntimeError as exc:  # the pool is shut down: its run is ending
                outcomes[qp] = exc
                continue
            futures[fut] = qp
            fut.add_done_callback(done.put)
        for _ in futures:
            fut = done.get()
            try:
                cache.ledger.append(fut.result())
            except CancelledError as exc:  # cancelled with its pool: nothing to record
                outcomes[futures[fut]] = exc

    failed = [qp for qp in config.qp_ladder if not isinstance(outcomes[qp], RDPoint)]
    if failed:
        exc = outcomes[failed[0]]
        more = f" (+{len(failed) - 1} more)" if len(failed) > 1 else ""
        message = f"encode failed at qp={failed[0]}, k={k}{more}: {exc}"
        if isinstance(exc, EncodeFailure) and exc.captured_output:
            message += "; stderr tail: " + " | ".join(exc.captured_output.splitlines()[-3:])
        error = SweepError(message)
        error.fresh_encodes = len(pending)
        raise error from exc

    curve = RDCurve(
        clip_id=clip_id,
        codec=config.codec,
        k=k,
        group=config.group,
        scope=config.scope,
        points=tuple(outcomes[qp] for qp in config.qp_ladder),
    )
    return curve, len(pending)


def run_sweep(
    clip_id: str,
    k: float,
    config: SweepConfig,
    backend: EncoderBackend,
    cache: PointCache | None = None,
) -> RDCurve:
    """RD curve over the full ladder for one (clip, k), consulting the cache
    first.  Misses are encoded up to config.workers at a time, or on this
    thread for an in-process backend.

    Without a cache the store of config.cache_dir is used (memory-only when
    that is None).
    """
    cache = cache or _default_store(config.cache_dir)
    with _encode_pool(config, backend) as pool:
        curve, _ = _sweep(clip_id, k, config, backend, cache, pool)
    return curve


@dataclass(frozen=True)
class TrialRecord(_Document):
    """One evaluated scale factor and what it cost."""

    k: float
    curve: RDCurve
    cost: float
    encoder_invocations: int


def evaluate_cost(
    clip_id: str,
    k: float,
    reference_curve: RDCurve,
    config: SweepConfig,
    backend: EncoderBackend,
    cache: PointCache | None = None,
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
    cache = cache or _default_store(config.cache_dir)
    with _encode_pool(config, backend, pool) as pool:
        curve, fresh = _sweep(clip_id, k, config, backend, cache, pool)
    try:
        cost = bd_rate(reference_curve, curve)
    except RdtuneError as exc:
        exc.fresh_encodes = fresh
        raise
    return TrialRecord(k=k, curve=curve, cost=cost, encoder_invocations=fresh)


@dataclass(frozen=True)
class OptimizationResult(_Document):
    """Per-clip outcome plus everything needed to report it.

    stop_reason says why the search ended: "converged" (on xtol, on a
    predicted gain below ftol, or after two trials in a row that each gained
    less than ftol) or "max_iters" from Brent, "no_bracket" when
    no bracket was found inside the k bounds, or
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

    @classmethod
    def from_dict(cls, d: dict) -> "OptimizationResult":
        return super().from_dict({"stop_reason": "unknown", **d})


def _document_text(doc: OptimizationResult | RDCurve) -> str:
    """The file text of a result or curve document."""
    return json.dumps(doc.to_dict(), indent=2, sort_keys=True) + "\n"


def save_result(result: OptimizationResult, path: Path | str) -> None:
    Path(path).write_text(_document_text(result))


def load_result(path: Path | str) -> OptimizationResult:
    """The result saved at path; a file that cannot be read or is not a
    result document raises ManifestError naming it."""
    return _read_json(path, "result file", OptimizationResult.from_dict)


def _require_bd_ladder(config: SweepConfig) -> None:
    if len(config.qp_ladder) < _MIN_POINTS:
        raise ValueError(
            f"BD-Rate needs a qp_ladder of at least {_MIN_POINTS} points, got {config.qp_ladder}")


def optimize_clip(
    clip_id: str,
    config: SweepConfig,
    backend: EncoderBackend,
    *,
    pool: ThreadPoolExecutor | None = None,
) -> OptimizationResult:
    """Find the scale factor minimizing BD-Rate against the clip's k=1 curve.

    Brackets downhill from the seeds k = 0.5 and k = 1 inside the window
    k in [1/16, 16], then runs Brent with DEFAULT_OPTIMIZER, both over
    ln k.  Every probe is a trial; a repeated probe would cost no encodes,
    since the cache serves its points.  Any RdtuneError raised on the way
    (no bracket, or a probe that fails) ends the search; k-hat is always
    the best trial evaluated, including the k=1 baseline, and stop_reason
    records why the search ended.  A clip no trial improves reports k-hat
    1 and zero for every change.  A failed reference sweep propagates,
    since no result can be reported without the k=1 curve, and a ladder too
    short for BD-Rate raises ValueError before any encode.
    total_invocations also counts the encodes of a probe that failed.
    Every sweep of the call runs its encodes on `pool` when one is given,
    which optimize_clips shares between the clips it searches at once;
    otherwise, for a backend over child processes, on one pool of
    config.workers threads opened for the call, and for an in-process
    backend on the calling thread.  The store is that of config.cache_dir,
    as in run_sweep.
    """
    _require_bd_ladder(config)
    cache = _default_store(config.cache_dir)
    trials: list[TrialRecord] = []
    failed_encodes = 0  # those of the probe that failed, which ends the search
    with _encode_pool(config, backend, pool) as pool:
        reference, _ = _sweep(clip_id, 1.0, config, backend, cache, pool)

        def cost(ln_k: float) -> float:
            trial = evaluate_cost(clip_id, math.exp(ln_k), reference, config, backend, cache, pool=pool)
            trials.append(trial)
            return trial.cost

        try:
            bracket = bracket_minimum(cost, *_LN_K_SEEDS, lo=_LN_K_BOUNDS[0], hi=_LN_K_BOUNDS[1])
            _, _, trace = brent_minimize(cost, bracket, DEFAULT_OPTIMIZER)
            stop_reason = "converged" if trace.converged else "max_iters"
        except BracketError:
            stop_reason = "no_bracket"
        except RdtuneError as exc:
            stop_reason = "failed_probe"
            failed_encodes = getattr(exc, "fresh_encodes", 0)

    if not any(_quantize_k(t.k) == _quantize_k(1.0) for t in trials):
        trials.insert(0, TrialRecord(k=1.0, curve=reference, cost=0.0, encoder_invocations=0))
    best = min(trials, key=lambda t: (t.cost, abs(math.log(t.k))))
    improved = _quantize_k(best.k) != _quantize_k(1.0) and best.cost < 0.0
    return OptimizationResult(
        clip_id=clip_id,
        codec=config.codec,
        group=config.group,
        scope=config.scope,
        k_hat=best.k if improved else 1.0,
        bd_rate=best.cost if improved else 0.0,
        iterations=sum(1 for t in trials if _quantize_k(t.k) != _quantize_k(1.0)),
        stop_reason=stop_reason,
        improved=improved,
        rd2_savings=matched_qp_savings(reference, best.curve, config.rd2_qp) if improved else 0.0,
        mean_savings=mean_matched_savings(reference, best.curve) if improved else 0.0,
        msssim_change_db=bd_quality(reference, best.curve) if improved else 0.0,
        vmaf_change=mean_vmaf_delta(reference, best.curve) if improved else 0.0,
        total_invocations=sum(t.encoder_invocations for t in trials) + failed_encodes,
        trials=tuple(trials),
        reference_curve=reference,
    )


def optimize_clips(
    clip_ids: Iterable[str], config: SweepConfig, backend: EncoderBackend
) -> Iterator[OptimizationResult]:
    """Yield optimize_clip's result for each clip, in clip_ids order.

    An in-process backend's clips are searched one after another on the
    calling thread.  For a backend over child processes the call opens one
    pool of config.workers threads, shared by all its searches, so
    config.workers caps the concurrent encodes of the whole run.  It maps
    the searches, in clip_ids order (read in full at the first next()),
    over ceil(workers / ladder length) + 1 runner threads, so that the pool
    has encodes queued while a search waits on its sweep's last encode or
    computes between sweeps; a search starts when a runner thread frees
    up, also while the consumer handles a result.  Each search is an
    optimize_clip call, so a result does not depend on the order in which
    searches complete.  The one exception: clips with identical content
    share cache keys, and which of two concurrent searches encodes a point
    they share, so their invocation counts, can depend on timing.

    The first clip, in clip_ids order, whose search raises ends the call
    with its error, after the results of the clips before it.  Once any
    search has raised, no further search starts.  When the call ends this
    way, or by an interrupt, or because the consumer closes the generator,
    queued searches and encodes are cancelled, running searches submit no
    new sweep, and the call waits only for the encodes already running.  A
    ladder too short for BD-Rate raises ValueError before any encode.
    """
    _require_bd_ladder(config)
    if backend.in_process:
        for clip_id in clip_ids:
            yield optimize_clip(clip_id, config, backend)
        return
    searches = math.ceil(config.workers / len(config.qp_ladder)) + 1
    failed = threading.Event()
    pool = ThreadPoolExecutor(max_workers=config.workers)
    runner = ThreadPoolExecutor(max_workers=searches)

    def search(clip_id: str) -> OptimizationResult | None:
        if failed.is_set():  # an earlier clip's error ends the call first
            return None
        try:
            return optimize_clip(clip_id, config, backend, pool=pool)
        except BaseException:
            failed.set()
            raise

    try:
        yield from runner.map(search, clip_ids)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
        runner.shutdown(cancel_futures=True)
        pool.shutdown()


def curves_from_ledger(records: list[dict]) -> list[RDCurve]:
    """Rebuild all complete RD curves recorded in a ledger.

    Each record is read as PointCache reads it, so a key's first readable ok
    record is its point (one without status, written before the field
    existed, is ok); a failed record, or one whose point or curve fields do
    not read, is skipped.  Points are grouped by (clip, codec, k quantized
    to 1e-6, group, scope, template digest, clip digest), so two encoder
    builds, or two clip contents, under one clip id make two curves; a curve
    takes the k of its group's first record.
    """
    first: dict[str, tuple[tuple, float, RDPoint]] = {}
    for rec in records:
        try:
            key = rec["cache_key"]
            if key not in first and isinstance(point := _outcome(rec), RDPoint):
                k = _json_field(rec, "k")
                ident = (_json_field(rec, "clip", str),
                         CodecId.parse(_json_field(rec, "codec", str)),
                         _quantize_k(k),
                         FrameTypeGroup.parse(_json_field(rec, "group", str)),
                         LambdaScope.parse(_json_field(rec, "scope", str)),
                         _json_field(rec, "template_digest", str, null=True),
                         _json_field(rec, "clip_digest", str, null=True))
                first[key] = (ident, k, point)
        except (ValueError, KeyError, TypeError):
            continue

    groups: dict[tuple, tuple[float, dict[int, RDPoint]]] = {}
    for ident, k, point in first.values():
        groups.setdefault(ident, (k, {}))[1][point.qp] = point
    return [
        RDCurve(clip_id=clip, codec=codec, k=k, group=group, scope=scope,
                points=tuple(by_qp[qp] for qp in sorted(by_qp)))
        for (clip, codec, _kq, group, scope, *_digests), (k, by_qp) in groups.items()
        if len(by_qp) >= 2
    ]
