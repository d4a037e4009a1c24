import gc
import json
import math
import multiprocessing
import os
import random
import shutil
import sys
import tempfile
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdtune import sweep
from rdtune.encoder_bridge import EncodeJob, SyntheticClipModel, SyntheticEncoder, synth_encode
from rdtune.errors import DomainError, EncodeFailure, ManifestError, SweepError
from rdtune.lambda_model import CodecId, FrameTypeGroup, LambdaScope
from rdtune.rd_curve import RDCurve, RDPoint, bd_quality, bd_rate, matched_qp_savings, mean_matched_savings, mean_vmaf_delta
from rdtune.sweep import (
    DEFAULT_OPTIMIZER,
    OptimizationResult,
    PointCache,
    RunLedger,
    SweepConfig,
    TrialRecord,
    cache_key,
    curves_from_ledger,
    evaluate_cost,
    load_result,
    optimize_clip,
    optimize_clips,
    run_sweep,
    save_result,
)

import oracles


def av1_config(**kwargs):
    kwargs.setdefault("codec", CodecId.AV1)
    kwargs.setdefault("group", FrameTypeGroup.KF_GF_ARF)
    return SweepConfig(**kwargs)


def synthetic_backend(clip_id="clip", **model_kwargs):
    return SyntheticEncoder(SyntheticClipModel(**model_kwargs), clip_id)


def pooled(backend):
    """The backend with its encodes dispatched to the encode pool, as for a
    backend over child processes."""
    backend.in_process = False
    return backend


class CountingPool(ThreadPoolExecutor):
    """A pool that counts the tasks submitted to it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.submitted = 0

    def submit(self, fn, /, *args, **kwargs):
        self.submitted += 1
        return super().submit(fn, *args, **kwargs)


@pytest.fixture
def opened_pools(monkeypatch):
    """Every pool the sweep module opens from here on, in order."""
    opened = []

    def open_pool(*args, **kwargs):
        opened.append(CountingPool(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(sweep, "ThreadPoolExecutor", open_pool)
    return opened


class PooledDispatch:
    """Runs every test of a class with SyntheticEncoder's encodes on the
    encode pool, the path of backends over child processes, and checks
    that a pool was opened."""

    @pytest.fixture(autouse=True)
    def pooled_dispatch(self, monkeypatch, opened_pools):
        monkeypatch.setattr(SyntheticEncoder, "in_process", False)
        yield
        assert opened_pools


class FlakyBackend(SyntheticEncoder):
    """Fails the first `failures` calls matching (qp, k) predicate; a failed
    call counts as an invocation."""

    def __init__(self, model, clip_id, fail_qp, fail_k=None, failures=1):
        super().__init__(model, clip_id)
        self.fail_qp = fail_qp
        self.fail_k = fail_k
        self.remaining_failures = failures

    def measure(self, job: EncodeJob):
        if (
            self.remaining_failures > 0
            and job.qp == self.fail_qp
            and (self.fail_k is None or abs(job.k - self.fail_k) < 1e-9)
        ):
            self.remaining_failures -= 1
            self.fail("injected encode failure")
        return super().measure(job)

    def fail(self, message, captured_output=""):
        with self._count_lock:
            self.invocations += 1
        raise EncodeFailure(message, captured_output)


class TestSweepConfig:
    def test_default_ladders(self):
        assert SweepConfig(codec=CodecId.AV1).qp_ladder == (27, 39, 49, 59, 63)
        assert SweepConfig(codec=CodecId.HEVC).qp_ladder == (22, 27, 32, 37, 42)

    def test_rd2_operating_point(self):
        assert SweepConfig(codec=CodecId.AV1).rd2_qp == 39
        assert SweepConfig(codec=CodecId.HEVC).rd2_qp == 27

    def test_custom_ladder(self):
        assert SweepConfig(codec=CodecId.AV1, qp_ladder=(10, 20, 30)).qp_ladder == (10, 20, 30)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(qp_ladder=(39, 27)),
            dict(qp_ladder=(27, 27, 39)),
            dict(qp_ladder=(27, 99)),
            dict(qp_ladder=()),
            dict(workers=0),
            dict(group=FrameTypeGroup.I_FRAMES),
            dict(qp_ladder=(27.9, 39, 49, 59)),
            dict(qp_ladder=(27, "39", 49, 59)),
            dict(qp_ladder=(True, 39, 49, 59)),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SweepConfig(codec=CodecId.AV1, **kwargs)

    def test_non_integer_qp_named(self):
        # Refused, not truncated to 27 as int() would.
        with pytest.raises(ValueError, match=r"qp 27\.9 is not an integer in \[0, 63\]"):
            SweepConfig(codec=CodecId.AV1, qp_ladder=(27.9, 39, 49, 59))


class TestCacheKey:
    def job(self, **kw):
        base = dict(
            clip_id="c", codec=CodecId.AV1, qp=39, k=1.0,
            group=FrameTypeGroup.KF_GF_ARF, scope=LambdaScope.TOP,
        )
        base.update(kw)
        return EncodeJob(**base)

    def test_stable(self):
        assert cache_key(self.job(), "t", "c") == cache_key(self.job(), "t", "c")

    @pytest.mark.parametrize(
        "change",
        [
            dict(k=1.5),
            dict(qp=49),
            dict(scope=LambdaScope.PARTITION),
            dict(group=FrameTypeGroup.KF),
            dict(codec=CodecId.HEVC, qp=39, group=FrameTypeGroup.ALL_FRAMES),
        ],
    )
    def test_field_changes_key(self, change):
        assert cache_key(self.job(), "t", "c") != cache_key(self.job(**change), "t", "c")

    def test_digests_change_key(self):
        assert cache_key(self.job(), "t1", "c") != cache_key(self.job(), "t2", "c")
        assert cache_key(self.job(), "t", "c1") != cache_key(self.job(), "t", "c2")

    def test_k_quantization(self):
        assert cache_key(self.job(k=1.0), "t", "c") == cache_key(self.job(k=1.0 + 4e-7), "t", "c")
        assert cache_key(self.job(k=1.0), "t", "c") != cache_key(self.job(k=1.000002), "t", "c")


def _sweep_in_child(cache_dir, queue):
    """Child half of the two-process test: sweep k=2 (encoded by the parent)
    and k=1, and report fresh encodes and work dirs per sweep."""
    class Recording(SyntheticEncoder):
        in_process = False  # the pooled path, as for an external backend

        def measure(self, job):
            work_dirs.add(str(job.work_dir))
            return super().measure(job)

    counts, work_dirs = [], set()
    for k in (2.0, 1.0):
        backend = Recording(SyntheticClipModel(), "clip")
        run_sweep("clip", k, av1_config(cache_dir=cache_dir), backend)
        counts.append(backend.invocations)
    queue.put((counts, sorted(work_dirs), os.getpid()))


class TestPointCache:
    def test_memory_roundtrip(self):
        from rdtune.rd_curve import RDPoint

        cache = PointCache(None)
        point = RDPoint.from_score(qp=39, bitrate_kbps=100.0, msssim=0.9)
        assert cache.get("k1") is None
        cache.put("k1", point)
        assert cache.get("k1") == point

    def test_put_follows_the_rule_of_ledger_records(self):
        # A deterministic failure is replayed, an EncodeFailure makes the
        # key a miss again, and the first point wins over any later outcome.
        cache = PointCache(None)
        first = RDPoint.from_score(qp=39, bitrate_kbps=100.0, msssim=0.9)
        cache.put("k", DomainError("m"))
        replayed = cache.get("k")
        assert isinstance(replayed, DomainError) and str(replayed) == "m"
        cache.put("k", EncodeFailure("crashed", "stderr"))
        assert cache.get("k") is None
        cache.put("k", first)
        cache.put("k", RDPoint.from_score(qp=39, bitrate_kbps=200.0, msssim=0.9))
        cache.put("k", DomainError("m"))
        assert cache.get("k") == first

    def test_disk_persistence(self, tmp_path):
        # A point persists through its ledger record alone, to a fresh store.
        curve = run_sweep("clip", 1.0, av1_config(cache_dir=tmp_path), synthetic_backend())
        path = tmp_path / "ledger.jsonl"
        fresh = PointCache(RunLedger(path))
        records = RunLedger.load(path)
        assert len(records) == 5
        for rec in records:
            assert fresh.get(rec["cache_key"]) == curve.point_at(rec["qp"])

    @pytest.mark.parametrize(
        "content",
        [
            b'{"cache_key": "x", "rdpo',
            b"\xff\xfe\x00",
            b"[]",
            b"{}",
            b'{"rdpoint": {"qp": 27, "bitrate_kbps": -1.0, "msssim": 0.9, "msssim_db": 10.0}}',
            # The damaged line's own record, with a VMAF of NaN.
            b'{"cache_key": "6ae7489995185569aa0faa64ce619cedc558ad1ba9646cf478a72b4825cf96f0", '
            b'"qp": 49, "bitrate_kbps": 364.65534989744805, "msssim": 0.9408438365824526, '
            b'"msssim_db": 12.28, "vmaf": NaN}',
            # The same record with its bitrate as a string.
            b'{"cache_key": "6ae7489995185569aa0faa64ce619cedc558ad1ba9646cf478a72b4825cf96f0", '
            b'"qp": 49, "bitrate_kbps": "364.65534989744805", "msssim": 0.9408438365824526, '
            b'"msssim_db": 12.28, "vmaf": 41.12}',
            # The same record with an integer bitrate beyond the float range.
            b'{"cache_key": "6ae7489995185569aa0faa64ce619cedc558ad1ba9646cf478a72b4825cf96f0", '
            b'"qp": 49, "bitrate_kbps": 1' + b"0" * 400 + b', "msssim": 0.9408438365824526, '
            b'"msssim_db": 12.28, "vmaf": 41.12}',
        ],
    )
    def test_corrupt_entry_is_a_miss_and_overwritten(self, tmp_path, content):
        # A damaged ledger line is a miss: its point is re-encoded, and the
        # new record supersedes the damaged one for every later store.
        config = av1_config(cache_dir=tmp_path)
        cold = run_sweep("clip", 1.0, config, synthetic_backend())
        path = tmp_path / "ledger.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        damaged = json.loads(lines[2])
        lines[2] = content + b"\n"
        path.write_bytes(b"".join(lines))

        backend = synthetic_backend()
        assert run_sweep("clip", 1.0, config, backend, cache=PointCache(RunLedger(path))) == cold
        assert backend.invocations == 1
        fresh = PointCache(RunLedger(path))
        assert fresh.get(damaged["cache_key"]) == cold.point_at(damaged["qp"])

        # RunLedger.load reads by the store's rule: it skips a line that is
        # not a JSON object, and returns a record that is one, read or not.
        not_objects = {b'{"cache_key": "x", "rdpo', b"\xff\xfe\x00", b"[]"}
        assert len(RunLedger.load(path)) == (9 if content in not_objects else 10)

    def test_invalid_point_under_its_key_is_a_miss(self, tmp_path):
        config = av1_config(cache_dir=tmp_path)
        cold = run_sweep("clip", 1.0, config, synthetic_backend())
        path = tmp_path / "ledger.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        damaged = json.loads(lines[0])
        lines[0] = json.dumps({**damaged, "bitrate_kbps": -1.0}).encode() + b"\n"
        path.write_bytes(b"".join(lines))

        backend = synthetic_backend()
        assert run_sweep("clip", 1.0, config, backend, cache=PointCache(RunLedger(path))) == cold
        assert backend.invocations == 1

    def test_put_writes_no_file(self, tmp_path):
        from rdtune.rd_curve import RDPoint

        # put() only indexes; the sweep's ledger append is the one write, so
        # no per-key or temp file exists to collide with another writer's.
        # Leftovers of an older per-key cache are ignored.
        config = av1_config(cache_dir=tmp_path)
        run_sweep("clip", 1.0, config, synthetic_backend())
        path = tmp_path / "ledger.jsonl"
        key = RunLedger.load(path)[0]["cache_key"]
        (tmp_path / f"{key}.json").write_text("{}")
        (tmp_path / f"{key}.tmp").mkdir()
        before = path.read_bytes()

        cache = PointCache(RunLedger(path))
        point = RDPoint.from_score(qp=39, bitrate_kbps=100.0, msssim=0.9)
        cache.put("k1", point)
        assert cache.get("k1") == point
        assert path.read_bytes() == before
        backend = synthetic_backend()
        run_sweep("clip", 1.0, config, backend, cache=cache)
        assert backend.invocations == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["ledger.jsonl", f"{key}.json", f"{key}.tmp"]
        )

    def test_writers_sharing_a_dir_never_clobber(self, tmp_path):
        # Two instances stand in for two processes: they share no threading
        # lock, only the flock.  Records span many pages, and a third
        # thread keeps opening the ledger, which cuts a torn tail: it must
        # never take an append in flight for one.
        path = tmp_path / "ledger.jsonl"
        ledgers = [RunLedger(path), RunLedger(path)]
        pad = "x" * 256_000
        errors: list[BaseException] = []
        done = threading.Event()

        def batch(w, i):
            # Writers 2 and 3 append two records per call.
            return [{"cache_key": f"w{w}-{i}-{j}", "pad": pad} for j in range(1 + w // 2)]

        def writer(w):
            try:
                for i in range(25):
                    ledgers[w % 2].append(*batch(w, i))
            except BaseException as exc:
                errors.append(exc)

        def opener():
            try:
                while not done.is_set():
                    RunLedger(path)
            except BaseException as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            writers = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
            reopen = threading.Thread(target=opener)
            reopen.start()
            for t in writers:
                t.start()
            for t in writers:
                t.join(timeout=60.0)
            done.set()
            reopen.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in writers + [reopen])
        assert errors == []
        records = RunLedger.load(path)
        keys = [r["cache_key"] for r in records]
        assert sorted(keys) == sorted(
            r["cache_key"] for w in range(4) for i in range(25) for r in batch(w, i)
        )
        assert all(r["pad"] == pad for r in records)
        # The records of one append are adjacent.
        for w in (2, 3):
            for i in range(25):
                at = keys.index(f"w{w}-{i}-0")
                assert keys[at + 1] == f"w{w}-{i}-1"

    def test_second_instance_sees_appends_on_a_miss(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        config = av1_config(cache_dir=tmp_path)
        first, second = PointCache(RunLedger(path)), PointCache(RunLedger(path))
        run_sweep("clip", 2.0, config, synthetic_backend(), cache=second)
        run_sweep("clip", 1.0, config, synthetic_backend(), cache=first)
        backend = synthetic_backend()
        run_sweep("clip", 1.0, config, backend, cache=second)
        assert backend.invocations == 0

    def test_processes_sharing_a_dir_reuse_encodes(self, tmp_path):
        # This process opens its store and encodes k=2; a child process then
        # reuses those and encodes k=1, which this process's open store
        # picks up on its next miss.  Both hand their jobs <cache-dir>/work.
        config = av1_config(cache_dir=tmp_path)
        parent = synthetic_backend()
        run_sweep("clip", 2.0, config, parent)
        ctx = multiprocessing.get_context("spawn")
        queue = ctx.Queue()
        child = ctx.Process(target=_sweep_in_child, args=(tmp_path, queue))
        child.start()
        try:
            counts, work_dirs, child_pid = queue.get(timeout=120.0)
        finally:
            child.join(timeout=120.0)
        assert not child.is_alive()
        assert counts == [0, 5]
        assert work_dirs == [str(tmp_path / "work")]
        assert child_pid != os.getpid()
        run_sweep("clip", 1.0, config, parent)
        assert parent.invocations == 5
        assert len(RunLedger.load(tmp_path / "ledger.jsonl")) == 20


class TestStoreAndPool:
    def test_ledger_parsed_once_across_clips(self, tmp_path, monkeypatch):
        # Clips optimised one call at a time over one cache dir share one
        # store, so a ledger line is not read once per clip; and the store
        # holds every point its own process appended, so it reads none of
        # those lines back, on either dispatch path.
        lines_read = []
        _read_new = RunLedger._read_new

        def counting(self):
            data = _read_new(self)
            lines_read.append(data.count(b"\n"))
            return data

        monkeypatch.setattr(RunLedger, "_read_new", counting)
        config = av1_config(cache_dir=tmp_path)
        for i in range(20):
            backend = synthetic_backend(f"clip{i}")
            optimize_clip(f"clip{i}", config, pooled(backend) if i % 2 else backend)
        records = RunLedger.load(tmp_path / "ledger.jsonl")
        assert len(records) >= 20 * 5 * 5
        assert sum(lines_read) == 0

    def test_new_cache_dir_releases_old_store(self, tmp_path):
        run_sweep("clip", 1.0, av1_config(cache_dir=tmp_path / "a"), synthetic_backend())
        old = weakref.ref(sweep._open_store)
        run_sweep("clip", 1.0, av1_config(cache_dir=tmp_path / "b"), synthetic_backend())
        gc.collect()
        assert old() is None

    def test_replaced_ledger_is_not_served_from_memory(self, tmp_path):
        config = av1_config(cache_dir=tmp_path / "a")
        run_sweep("clip", 1.0, config, synthetic_backend())
        shutil.rmtree(tmp_path / "a")
        backend = synthetic_backend()
        run_sweep("clip", 1.0, config, backend)
        assert backend.invocations == 5
        assert len(RunLedger.load(tmp_path / "a" / "ledger.jsonl")) == 5

    def test_one_pool_per_call(self, tmp_path, opened_pools):
        # A backend over child processes: one pool of config.workers threads
        # per optimize_clip, run_sweep or evaluate_cost call.
        opened = opened_pools
        config = av1_config(cache_dir=tmp_path)
        result = optimize_clip("clip", config, pooled(synthetic_backend()))
        assert result.iterations > 3
        assert len(opened) == 1
        assert opened[0]._max_workers == config.workers

        reference = run_sweep("clip", 1.0, config, pooled(synthetic_backend()))
        assert len(opened) == 2
        evaluate_cost("clip", 1.7, reference, config, pooled(synthetic_backend()))
        assert len(opened) == 3
        with ThreadPoolExecutor(2) as pool:
            trial = evaluate_cost("clip", 1.9, reference, config, pooled(synthetic_backend()), pool=pool)
        assert trial.encoder_invocations == 5
        assert len(opened) == 3

    def test_in_process_backend_opens_no_pool(self, tmp_path, opened_pools):
        # SyntheticEncoder's encodes run in ladder order on the calling
        # thread, and no pool is opened for them.
        calls = []

        class Recording(SyntheticEncoder):
            def measure(self, job):
                calls.append((threading.get_ident(), job.k, job.qp))
                return super().measure(job)

        config = av1_config(cache_dir=tmp_path)
        backend = Recording(SyntheticClipModel(), "clip")
        result = optimize_clip("clip", config, backend)
        reference = run_sweep("clip", 1.0, config, backend)
        evaluate_cost("clip", 1.7, reference, config, backend)
        assert opened_pools == []
        assert len(calls) == 5 + result.total_invocations + 5
        assert {ident for ident, _, _ in calls} == {threading.get_ident()}
        for at in range(0, len(calls), 5):
            assert [qp for _, _, qp in calls[at:at + 5]] == list(config.qp_ladder)

        # A pool passed to evaluate_cost is used, whatever the backend.
        for k, backend in ((1.9, synthetic_backend()), (2.1, pooled(synthetic_backend()))):
            with CountingPool(2) as pool:
                trial = evaluate_cost("clip", k, reference, config, backend, pool=pool)
            assert trial.encoder_invocations == 5
            assert pool.submitted == 5

    def test_jobs_carry_the_cache_work_dir(self, tmp_path):
        # Every job of a sweep carries <cache-dir>/work, or None without a
        # cache dir, on either dispatch path.
        work_dirs = []

        class Recording(SyntheticEncoder):
            def measure(self, job):
                work_dirs.append(job.work_dir)
                return super().measure(job)

        for in_process in (True, False):
            for cache_dir in (tmp_path / str(in_process), None):
                backend = Recording(SyntheticClipModel(), "clip")
                backend.in_process = in_process
                run_sweep("clip", 1.0, av1_config(cache_dir=cache_dir), backend)
                assert work_dirs == [cache_dir and cache_dir / "work"] * 5
                work_dirs.clear()


class TestRunSweep:
    def test_cold_sweep_invokes_n(self, tmp_path):
        backend = synthetic_backend()
        config = av1_config(cache_dir=tmp_path)
        curve = run_sweep("clip", 1.0, config, backend)
        assert backend.invocations == 5
        assert sorted(curve.qps) == [27, 39, 49, 59, 63]

    def test_warm_sweep_invokes_zero(self, tmp_path):
        config = av1_config(cache_dir=tmp_path)
        first = run_sweep("clip", 1.0, config, synthetic_backend())
        warm_backend = synthetic_backend()
        second = run_sweep("clip", 1.0, config, warm_backend)
        assert warm_backend.invocations == 0
        assert second == first

    def test_partial_cache_runs_remainder(self, tmp_path):
        config = av1_config(cache_dir=tmp_path, qp_ladder=(27, 39, 49))
        run_sweep("clip", 1.0, config, synthetic_backend())
        wider = av1_config(cache_dir=tmp_path, qp_ladder=(27, 39, 49, 59, 63))
        backend = synthetic_backend()
        run_sweep("clip", 1.0, wider, backend)
        assert backend.invocations == 2

    def test_ledger_records_every_encode(self, tmp_path):
        config = av1_config(cache_dir=tmp_path)
        run_sweep("clip", 1.0, config, synthetic_backend())
        run_sweep("clip", 1.0, config, synthetic_backend())
        records = RunLedger.load(tmp_path / "ledger.jsonl")
        assert len(records) == 10
        assert [r["cached"] for r in records].count(False) == 5
        assert [r["cached"] for r in records].count(True) == 5
        sample = records[0]
        for field in (
            "timestamp", "cache_key", "clip", "codec", "qp", "k", "group", "scope",
            "bitrate_kbps", "msssim", "msssim_db", "vmaf", "invocation_seconds", "cached",
        ):
            assert field in sample

    def test_failure_names_job_and_keeps_partials(self, tmp_path):
        config = av1_config(cache_dir=tmp_path)
        # A failed encode is retried once, so fail it twice.
        backend = FlakyBackend(SyntheticClipModel(), "clip", fail_qp=49, failures=2)
        with pytest.raises(SweepError, match=r"qp=49, k=1\.3"):
            run_sweep("clip", 1.3, config, backend)
        assert backend.invocations == 5 + 1
        # The four points, and the failed encode as a failed record.
        records = RunLedger.load(tmp_path / "ledger.jsonl")
        assert sorted((r["qp"], r["status"]) for r in records) == [
            (27, "ok"), (39, "ok"), (49, "failed"), (59, "ok"), (63, "ok")]
        # Partials are cached: the retry only dispatches the failed point.
        retry_backend = synthetic_backend()
        run_sweep("clip", 1.3, config, retry_backend)
        assert retry_backend.invocations == 1

    def test_failure_message_ends_with_stderr_tail(self, tmp_path):
        class Noisy(FlakyBackend):
            def fail(self, message):
                super().fail(message, "starting\nframe 1\nframe 2\nout of memory")

        backend = Noisy(SyntheticClipModel(), "clip", fail_qp=49, failures=2)
        with pytest.raises(SweepError) as info:
            run_sweep("clip", 1.3, av1_config(cache_dir=tmp_path), backend)
        message = str(info.value)
        assert message.endswith("stderr tail: frame 1 | frame 2 | out of memory")
        assert "starting" not in message

    def test_single_worker_equivalent(self, tmp_path):
        a = run_sweep("clip", 1.5, av1_config(cache_dir=tmp_path / "a", workers=1), synthetic_backend())
        b = run_sweep("clip", 1.5, av1_config(cache_dir=tmp_path / "b", workers=5), synthetic_backend())
        assert a == b


class TestRunSweepPooled(PooledDispatch, TestRunSweep):
    pass


class TestLedgerBatching:
    @pytest.mark.parametrize(
        "in_process, cold, warm, failed",
        [(True, [5], [5], [5]), (False, [1] * 5, [5], [1] * 5)],
        ids=["inline", "pooled"],
    )
    def test_records_per_append(self, tmp_path, monkeypatch, in_process, cold, warm, failed):
        # Inline, a sweep's records go to the ledger in one append: hits,
        # fresh points, and the partials of a failed sweep before it
        # raises, with its failed encode's record.  Pooled, the hits go in
        # one append and each finished encode in its own.
        appends = []
        append = RunLedger.append

        def counting(self, *records):
            appends.append(len(records))
            return append(self, *records)

        monkeypatch.setattr(RunLedger, "append", counting)
        config = av1_config(cache_dir=tmp_path)

        def backend(b):
            return b if in_process else pooled(b)

        for k, flaky, expected in ((1.0, False, cold), (1.0, False, warm), (1.3, True, failed)):
            appends.clear()
            if flaky:
                b = backend(FlakyBackend(SyntheticClipModel(), "clip", fail_qp=49, failures=2))
                with pytest.raises(SweepError):
                    run_sweep("clip", k, config, b)
            else:
                run_sweep("clip", k, config, backend(synthetic_backend()))
            assert appends == expected
        assert len(RunLedger.load(tmp_path / "ledger.jsonl")) == 5 + 5 + 5

    def test_pooled_encode_is_written_when_it_completes(self, tmp_path):
        # A backend over child processes may take minutes per encode: each
        # finished one is in the ledger while the sweep still waits on
        # another, so a run killed then loses none of them.
        release = threading.Event()

        class Blocking(SyntheticEncoder):
            in_process = False

            def measure(self, job):
                if job.qp == 63 and not release.wait(timeout=60.0):
                    raise EncodeFailure("never released")
                return super().measure(job)

        path = tmp_path / "ledger.jsonl"
        errors: list[BaseException] = []

        def run():
            try:
                run_sweep("clip", 1.0, av1_config(cache_dir=tmp_path), Blocking(SyntheticClipModel(), "clip"))
            except BaseException as exc:
                errors.append(exc)

        thread = threading.Thread(target=run)
        thread.start()
        try:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if path.exists() and len(RunLedger.load(path)) >= 4:
                    break
                time.sleep(0.005)
            assert sorted(r["qp"] for r in RunLedger.load(path)) == [27, 39, 49, 59]
            assert thread.is_alive()
        finally:
            release.set()
            thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert errors == []
        assert sorted(r["qp"] for r in RunLedger.load(path)) == [27, 39, 49, 59, 63]

    def test_own_append_after_another_writer_leaves_both_unread(self, tmp_path):
        # A store's own append counts as read only when it starts where the
        # last read ended: one that follows another writer's point must not
        # carry that point past the read position unindexed.
        path = tmp_path / "ledger.jsonl"
        point = synth_encode(SyntheticClipModel(), 39, 1.0)
        RunLedger(path).append({"cache_key": "w", **point.to_dict()})
        store = PointCache(RunLedger(path))
        assert store.get("w") == point  # read to the end of the ledger
        RunLedger(path).append({"cache_key": "x", **point.to_dict()})
        store.ledger.append({"cache_key": "y", **point.to_dict()})
        assert store.get("x") == point

    def test_read_new_after_own_appends(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.append({"cache_key": "a"})
        ledger.append({"cache_key": "b"}, {"cache_key": "c"})
        assert ledger._read_new() == b""
        # A torn tail is cut off, so the next append still starts at the read
        # position; a parsing tail is ended, and the next read returns it and
        # the append after it.
        with path.open("ab") as fh:
            fh.write(b'{"cache_key": "t')
        ledger.append({"cache_key": "d"})
        assert ledger._read_new() == b""
        with path.open("ab") as fh:
            fh.write(b'{"cache_key": "u"}')
        ledger.append({"cache_key": "e"})
        assert ledger._read_new() == b'{"cache_key": "u"}\n{"cache_key": "e"}\n'
        assert [r["cache_key"] for r in RunLedger.load(path)] == ["a", "b", "c", "d", "u", "e"]
        assert RunLedger(None).append({"cache_key": "f"}) is None
        assert RunLedger(None)._read_new() == b""


class TestRunLedger:
    def _two_records(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.append({"cache_key": "a", "qp": 27})
        ledger.append({"cache_key": "b", "qp": 39})
        return path

    def test_torn_tail_is_skipped(self, tmp_path):
        # Torn inside a JSON string, or inside a UTF-8 sequence.
        torn = {"ascii": b'{"cache_key": "c", "q', "utf8": '{"cache_key": "c", "k": "é'.encode()[:-1]}
        for name, tail in torn.items():
            path = self._two_records(tmp_path / name)
            with path.open("ab") as fh:
                fh.write(tail)
            assert [r["cache_key"] for r in RunLedger.load(path)] == ["a", "b"]

    def test_unterminated_tail_that_parses_is_kept(self, tmp_path):
        path = self._two_records(tmp_path)
        with path.open("a") as fh:
            fh.write('{"cache_key": "c"}')
        assert [r["cache_key"] for r in RunLedger.load(path)] == ["a", "b", "c"]

    def test_corrupt_middle_line_is_skipped(self, tmp_path):
        path = self._two_records(tmp_path)
        with path.open("a") as fh:
            fh.write('{"cache_key": "c", "q\n{"cache_key": "d"}\n')
        assert [r["cache_key"] for r in RunLedger.load(path)] == ["a", "b", "d"]

    def test_append_after_torn_tail_keeps_every_record(self, tmp_path):
        # A crash tore the last line; a new store cuts it off when it opens,
        # so its appends never turn it into a corrupt middle line.
        config = av1_config(cache_dir=tmp_path)
        run_sweep("clip", 1.0, config, synthetic_backend())
        path = tmp_path / "ledger.jsonl"
        with path.open("a") as fh:
            fh.write('{"cache_key": "c", "q')
        store = PointCache(RunLedger(path))
        run_sweep("clip", 2.0, config, synthetic_backend(), cache=store)
        records = RunLedger.load(path)
        assert len(records) == 10
        assert {r["k"] for r in records} == {1.0, 2.0}

    def test_tail_torn_while_open_is_cut_before_append(self, tmp_path):
        path = self._two_records(tmp_path)
        ledger = RunLedger(path)
        with path.open("a") as fh:
            fh.write('{"cache_key": "c", "q')
        ledger.append({"cache_key": "d", "qp": 49})
        assert [r["cache_key"] for r in RunLedger.load(path)] == ["a", "b", "d"]

    def test_unterminated_tail_that_parses_is_ended_on_open(self, tmp_path):
        path = self._two_records(tmp_path)
        with path.open("a") as fh:
            fh.write('{"cache_key": "c"}')
        RunLedger(path).append({"cache_key": "d"})
        assert [r["cache_key"] for r in RunLedger.load(path)] == ["a", "b", "c", "d"]

    def test_corrupt_terminated_last_line_is_skipped(self, tmp_path):
        path = self._two_records(tmp_path)
        with path.open("a") as fh:
            fh.write('{"cache_key": "c", "q\n')
        assert [r["cache_key"] for r in RunLedger.load(path)] == ["a", "b"]

    def test_lines_are_json_dumps_sorted(self, tmp_path):
        # The one shared encoder writes what json.dumps(r, sort_keys=True)
        # would, byte for byte: for a real record, and for None and nesting.
        run_sweep("clip", 1.0, av1_config(cache_dir=tmp_path), synthetic_backend())
        real = RunLedger.load(tmp_path / "ledger.jsonl")[0]
        nested = {"z": None, "a": [1, 2.5, {"y": None, "b": "é"}], "m": {"k": -0.0, "c": 1e-300}}
        path = tmp_path / "check.jsonl"
        RunLedger(path).append(real, nested)
        expected = "".join(json.dumps(r, sort_keys=True) + "\n" for r in (real, nested))
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("lines", [0, 12_000], ids=["alone", "after_4MB"])
    @pytest.mark.parametrize(
        "tail, kept",
        [
            (b'{"cache_key": "t", "q', False),
            (b'{"cache_key": "t", "pad": "' + b"y" * 300_000, False),  # longer than a chunk
            (b'{"cache_key": "u"}', True),
            (b'{"cache_key": "u", "pad": "' + b"y" * 300_000 + b'"}', True),
            (b"", True),
            (b"[]", False),  # JSON, but not a record
        ],
        ids=["torn", "torn_long", "parses", "parses_long", "intact", "not_an_object"],
    )
    def test_tail_is_read_back_from_the_end(self, tmp_path, monkeypatch, lines, tail, kept):
        # Opening ends the file on a newline as it always did: a last line
        # that is not a record is cut off, one that is is ended.  It reads
        # the last line back from the end in bounded chunks, not the whole
        # file.
        body = b"".join(
            json.dumps({"cache_key": f"k{i}", "pad": "x" * 320}).encode() + b"\n" for i in range(lines)
        )
        path = tmp_path / "ledger.jsonl"
        path.write_bytes(body + tail)
        read = []
        pread = os.pread

        def counting(fd, size, offset):
            read.append(size)
            return pread(fd, size, offset)

        monkeypatch.setattr(sweep.os, "pread", counting)
        RunLedger(path)
        assert path.read_bytes() == (body + tail + b"\n" if kept and tail else body)
        assert sum(read) <= 1 + len(tail) + sweep._TAIL_CHUNK


class TestFailureRecords:
    """The ledger as a negative cache: failed encodes are recorded, and a
    deterministic one is replayed with no encode."""

    HARSH = {"c": 8.0, "k_star": 2.5}  # k=0.5 underflows the model at qp 49, 59, 63

    def failed_sweep(self, config, backend, k=0.5):
        with pytest.raises(SweepError) as info:
            run_sweep("clip", k, config, backend)
        return str(info.value)

    def test_failed_record_fields(self, tmp_path):
        backend = synthetic_backend(**self.HARSH)
        self.failed_sweep(av1_config(cache_dir=tmp_path), backend)
        records = RunLedger.load(tmp_path / "ledger.jsonl")
        assert [(r["qp"], r["status"]) for r in records] == [
            (27, "ok"), (39, "ok"), (49, "failed"), (59, "failed"), (63, "failed")]
        for rec in records:
            assert rec["template_digest"] == backend.template_digest()
            assert rec["clip_digest"] == backend.clip_digest("clip")
            assert rec["cached"] is False and rec["invocation_seconds"] > 0.0
        failed = records[2]
        assert failed["error"] == "DomainError"
        assert failed["message"].startswith("quality model underflow at qp=49, k=0.5")
        assert "stderr_tail" not in failed
        assert not {"bitrate_kbps", "msssim", "msssim_db", "vmaf"} & set(failed)

    @pytest.mark.parametrize("store", ["kept", "reopened"])
    def test_deterministic_failure_is_replayed_without_an_encode(self, tmp_path, monkeypatch, store):
        # In the process that recorded it (the kept store: its own appends
        # are never read back), and in a new one (read from the ledger).
        config = av1_config(cache_dir=tmp_path)
        cold_message = self.failed_sweep(config, synthetic_backend(**self.HARSH))
        path = tmp_path / "ledger.jsonl"
        size = path.stat().st_size
        if store == "reopened":
            monkeypatch.setattr(sweep, "_open_store", None)
        backend = synthetic_backend(**self.HARSH)
        with pytest.raises(SweepError) as info:
            run_sweep("clip", 0.5, config, backend)
        assert backend.invocations == 0
        assert str(info.value) == cold_message
        assert isinstance(info.value.__cause__, DomainError)
        assert info.value.fresh_encodes == 0
        # The replay is logged like a cache hit, never as an encode.
        warm = [json.loads(line) for line in path.read_bytes()[size:].splitlines()]
        assert [(r["status"], r["cached"]) for r in warm] == [("ok", True)] * 2 + [("failed", True)] * 3

    @pytest.mark.parametrize("store", ["kept", "reopened"])
    def test_encode_failure_is_recorded_and_encoded_again(self, tmp_path, monkeypatch, store):
        class Crashing(FlakyBackend):
            def fail(self, message):
                super().fail(message, "frame 1\nsegmentation fault")

        config = av1_config(cache_dir=tmp_path)
        self.failed_sweep(config, Crashing(SyntheticClipModel(), "clip", fail_qp=49, failures=2), k=1.3)
        [failed] = [r for r in RunLedger.load(tmp_path / "ledger.jsonl") if r["status"] == "failed"]
        assert (failed["qp"], failed["error"]) == (49, "EncodeFailure")
        assert failed["message"] == "injected encode failure"
        assert failed["stderr_tail"] == "frame 1\nsegmentation fault"
        if store == "reopened":
            monkeypatch.setattr(sweep, "_open_store", None)
        backend = synthetic_backend()
        run_sweep("clip", 1.3, config, backend)
        assert backend.invocations == 1
        last = RunLedger.load(tmp_path / "ledger.jsonl")[-1]
        assert (last["qp"], last["status"], last["cached"]) == (49, "ok", False)

    def rewrite(self, path, edit):
        """The ledger with each record passed through edit (None drops it)."""
        records = [edit(r) for r in RunLedger.load(path)]
        path.write_text("".join(json.dumps(r) + "\n" for r in records if r is not None))

    @pytest.mark.parametrize(
        "change, replayed",
        [
            ({}, True),
            ({"error": "EncodeFailure"}, False),  # child failures stay retryable
            ({"error": "OSError"}, False),  # not an RdtuneError
            ({"error": "NoSuchError"}, False),
            ({"error": None}, False),  # a damaged failed record is a miss
            ({"error": ["DomainError"]}, False),
            ({"message": 5}, False),
            ({"message": None}, False),
            ({"status": "lost"}, False),
        ],
    )
    def test_which_failed_records_are_replayed(self, tmp_path, change, replayed):
        config = av1_config(cache_dir=tmp_path)
        self.failed_sweep(config, synthetic_backend(**self.HARSH))
        path = tmp_path / "ledger.jsonl"
        self.rewrite(path, lambda r: {**r, **change} if r["status"] == "failed" else r)
        backend = synthetic_backend(**self.HARSH)
        with pytest.raises(SweepError, match="qp=49"):
            run_sweep("clip", 0.5, config, backend, cache=PointCache(RunLedger(path)))
        assert backend.invocations == (0 if replayed else 3)

    def test_failed_record_is_never_served_as_a_point(self, tmp_path):
        # A failed record with every point field (and a stale error) under
        # the key of a good point is not that point.
        config = av1_config(cache_dir=tmp_path)
        cold = run_sweep("clip", 1.0, config, synthetic_backend())
        path = tmp_path / "ledger.jsonl"
        self.rewrite(path, lambda r: {**r, "status": "failed", "error": "EncodeFailure", "message": ""})
        backend = synthetic_backend()
        assert run_sweep("clip", 1.0, config, backend, cache=PointCache(RunLedger(path))) == cold
        assert backend.invocations == 5

    def test_ok_record_wins_and_last_failure_decides(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        point = RDPoint.from_score(qp=39, bitrate_kbps=100.0, msssim=0.9)
        ok = {"cache_key": "good", "status": "ok", **point.to_dict()}
        RunLedger(path).append(
            {"cache_key": "good", "status": "failed", "error": "DomainError", "message": "m"},
            ok,
            {"cache_key": "good", "status": "failed", "error": "DomainError", "message": "m"},
            {"cache_key": "retry", "status": "failed", "error": "DomainError", "message": "m"},
            {"cache_key": "retry", "status": "failed", "error": "EncodeFailure", "message": "m"},
            {"cache_key": "replay", "status": "failed", "error": "EncodeFailure", "message": "m"},
            {"cache_key": "replay", "status": "failed", "error": "OverlapError", "message": "gone"},
        )
        cache = PointCache(RunLedger(path))
        assert cache.get("good") == point
        assert cache.get("retry") is None
        replayed = cache.get("replay")
        assert isinstance(replayed, sweep.errors.OverlapError) and str(replayed) == "gone"

    def test_lines_that_are_not_records_are_misses(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_bytes(b'[]\n"failed"\n5\nnull\n{"status": "failed"}\n[{"cache_key": "a"}]\n')
        with path.open("ab") as fh:
            fh.write(b"[" * 100_000 + b"\n")  # nested past the recursion limit
        cache = PointCache(RunLedger(path))
        assert cache.get("a") is None

    def test_point_recorded_elsewhere_beats_a_replayed_failure(self, tmp_path):
        # Store a is served a replayed failure; store b, standing in for
        # another process, then records a point under that key.  a's next
        # get reads the ledger again although it knows the key.
        path = tmp_path / "ledger.jsonl"
        RunLedger(path).append({"cache_key": "k", "status": "failed", "error": "DomainError", "message": "m"})
        a, b = PointCache(RunLedger(path)), PointCache(RunLedger(path))
        replayed = a.get("k")
        assert isinstance(replayed, DomainError) and str(replayed) == "m"
        point = RDPoint.from_score(qp=39, bitrate_kbps=100.0, msssim=0.9)
        b.put("k", point)
        b.ledger.append({"cache_key": "k", "status": "ok", **point.to_dict()})
        assert a.get("k") == point

    def test_records_without_status_or_digests_load_as_points(self, tmp_path):
        # Ledgers written before these fields existed.
        config = av1_config(cache_dir=tmp_path)
        cold = run_sweep("clip", 1.0, config, synthetic_backend())
        path = tmp_path / "ledger.jsonl"
        old = ("status", "template_digest", "clip_digest")
        self.rewrite(path, lambda r: {f: v for f, v in r.items() if f not in old})
        backend = synthetic_backend()
        assert run_sweep("clip", 1.0, config, backend, cache=PointCache(RunLedger(path))) == cold
        assert backend.invocations == 0
        assert curves_from_ledger(RunLedger.load(path)) == [cold]


class TestEvaluateCost:
    @pytest.fixture
    def setup(self, tmp_path):
        config = av1_config(cache_dir=tmp_path)
        backend = synthetic_backend()
        reference = run_sweep("clip", 1.0, config, backend)
        return config, backend, reference

    def test_k1_short_circuits(self, setup):
        config, backend, reference = setup
        before = backend.invocations
        trial = evaluate_cost("clip", 1.0, reference, config, backend)
        assert trial.cost == 0.0
        assert trial.encoder_invocations == 0
        assert backend.invocations == before

    def test_cost_at_k_star_matches_oracle(self, setup):
        config, backend, reference = setup
        trial = evaluate_cost("clip", 2.5, reference, config, backend)
        assert trial.cost == pytest.approx(oracles.COST_AT_KSTAR, abs=1e-3)
        assert trial.encoder_invocations == 5

    def test_overscaling_costs_more(self, setup):
        config, backend, reference = setup
        at_star = evaluate_cost("clip", 2.5, reference, config, backend)
        at_16 = evaluate_cost("clip", 16.0, reference, config, backend)
        assert at_16.cost > at_star.cost
        assert at_16.cost > 0.0

    def test_warm_trial_reports_zero_invocations(self, setup):
        config, backend, reference = setup
        evaluate_cost("clip", 2.5, reference, config, backend)
        warm = evaluate_cost("clip", 2.5, reference, config, backend)
        assert warm.encoder_invocations == 0
        assert warm.cost == pytest.approx(oracles.COST_AT_KSTAR, abs=1e-3)


class TestOptimizeClip:
    def test_default_model_matches_grid_oracle(self, tmp_path):
        backend = synthetic_backend()
        result = optimize_clip("clip", av1_config(cache_dir=tmp_path), backend)
        assert abs(result.k_hat - oracles.GRID_ARGMIN_K) <= 0.15
        assert result.bd_rate < 0.0
        assert result.improved
        assert result.stop_reason == "converged"
        assert result.iterations <= 25
        fresh_trials = [t for t in result.trials if t.encoder_invocations > 0]
        assert result.total_invocations == 5 * len(fresh_trials)
        assert backend.invocations == result.total_invocations + 5  # + reference sweep

    def test_default_model_probe_count(self, tmp_path):
        # Brent's first two steps may both be parabolic, and it stops once a
        # parabolic step predicts less than ftol (0.05 BD-Rate points) of
        # gain, before the interval reaches xtol*(|ln k| + 1/2).
        result = optimize_clip("clip", av1_config(cache_dir=tmp_path), synthetic_backend())
        assert result.stop_reason == "converged"
        assert result.iterations == 4
        assert result.total_invocations == 20

    def test_control_probe_count(self, tmp_path):
        # A clip with nothing to gain stops at Brent's first parabolic step,
        # which predicts less than ftol of gain, right after the bracket.
        backend = synthetic_backend(gamma=0.01, k_star=1.0)
        result = optimize_clip("clip", av1_config(cache_dir=tmp_path), backend)
        assert result.stop_reason == "converged"
        assert result.iterations == 2
        assert result.total_invocations == 10
        assert result.k_hat == 1.0

    def test_flat_noisy_cost_stops_on_ftol(self, tmp_path, monkeypatch):
        # A small gamma leaves about one BD-Rate point to gain, and the noise
        # is as large as what the parabola predicts near the minimum; there
        # Brent with ftol = 0 chases last-bit differences between trials.
        def search(cache_dir):
            backend = synthetic_backend(gamma=0.02, k_star=1.2, noise_seed=3)
            return optimize_clip("clip", av1_config(cache_dir=cache_dir), backend)

        result = search(tmp_path / "ftol")
        monkeypatch.setattr(sweep, "DEFAULT_OPTIMIZER", replace(DEFAULT_OPTIMIZER, ftol=0.0))
        without = search(tmp_path / "no-ftol")
        assert result.stop_reason == "converged"
        assert result.iterations < without.iterations
        best = min(result.trials, key=lambda t: t.cost)
        assert result.improved and (result.k_hat, result.bd_rate) == (best.k, best.cost)

    def test_bd_rate_is_min_over_trials(self, tmp_path):
        result = optimize_clip("clip", av1_config(cache_dir=tmp_path), synthetic_backend())
        costs = [t.cost for t in result.trials] + [0.0]
        assert result.bd_rate == min(costs)
        assert result.bd_rate <= 0.0

    def test_calibrated_default_stays_at_one(self, tmp_path):
        # Sharp quality curvature plus fast rate decay puts the cost argmin
        # within the optimizer tolerance of k=1.
        backend = synthetic_backend(b=0.6, c=10.0, k_star=1.0)
        config = SweepConfig(
            codec=CodecId.HEVC, group=FrameTypeGroup.I_FRAMES, cache_dir=tmp_path
        )
        result = optimize_clip("clip", config, backend)
        assert abs(result.k_hat - 1.0) <= DEFAULT_OPTIMIZER.xtol
        assert abs(result.bd_rate) < 0.5

    def test_table_fields_recomputable(self, tmp_path):
        config = av1_config(cache_dir=tmp_path)
        result = optimize_clip("clip", config, synthetic_backend())
        best = min(result.trials, key=lambda t: t.cost)
        reference = result.reference_curve
        assert result.rd2_savings == matched_qp_savings(reference, best.curve, 39)
        assert result.mean_savings == mean_matched_savings(reference, best.curve)
        assert result.msssim_change_db == bd_quality(reference, best.curve)
        assert result.vmaf_change == mean_vmaf_delta(reference, best.curve)
        for name in ("k_hat", "bd_rate", "rd2_savings", "mean_savings", "msssim_change_db", "vmaf_change"):
            assert type(getattr(result, name)) is float, name

    def test_persistent_failure_degenerates_to_one(self, tmp_path):
        # The k=1 reference itself must succeed; fail only k != 1 jobs.
        class FailNonReference(FlakyBackend):
            def measure(self, job):
                if abs(job.k - 1.0) > 1e-9 and job.qp == 49:
                    self.fail("injected persistent failure")
                return SyntheticEncoder.measure(self, job)

        backend = FailNonReference(SyntheticClipModel(), "clip", fail_qp=49)
        result = optimize_clip("clip", av1_config(cache_dir=tmp_path), backend)
        assert result.k_hat == 1.0
        assert result.bd_rate == 0.0
        assert not result.improved
        assert result.stop_reason == "failed_probe"
        # The first failed probe ends the search: the reference sweep plus
        # one probe, whose failed encode is retried once.
        assert backend.invocations <= 5 + 5 + 1

    def test_transient_reference_failure_recovers(self, tmp_path):
        # First failure lands in the k=1 reference sweep; the retry only
        # re-dispatches the failed point.
        backend = FlakyBackend(SyntheticClipModel(), "clip", fail_qp=49, failures=1)
        result = optimize_clip("clip", av1_config(cache_dir=tmp_path), backend)
        assert result.improved
        assert abs(result.k_hat - oracles.GRID_ARGMIN_K) <= 0.15
        assert backend.invocations == 5 + 1 + result.total_invocations

    def test_transient_trial_failure_recovers(self, tmp_path):
        # The first trial is the k=0.5 seed; one of its encodes fails once.
        backend = FlakyBackend(SyntheticClipModel(), "clip", fail_qp=59, fail_k=0.5, failures=1)
        result = optimize_clip("clip", av1_config(cache_dir=tmp_path), backend)
        assert backend.remaining_failures == 0
        assert result.improved
        assert abs(result.k_hat - oracles.GRID_ARGMIN_K) <= 0.15
        assert backend.invocations == 5 + 1 + result.total_invocations

    @pytest.mark.parametrize(
        "model, k_hat, bd, stop_reason",
        [
            # The k=16 probe underflows the quality model while bracketing.
            (SyntheticClipModel(c=4.0, k_star=2.5), None, -72.60, "failed_probe"),
            # Still descending at the k=16 bound: no bracket.
            (SyntheticClipModel(c=0.8, k_star=10.0), 16.0, -81.81, "no_bracket"),
        ],
    )
    def test_search_cut_short_keeps_best_evaluated_trial(
        self, tmp_path, model, k_hat, bd, stop_reason
    ):
        result = optimize_clip("clip", av1_config(cache_dir=tmp_path), SyntheticEncoder(model, "clip"))
        assert result.bd_rate == pytest.approx(bd, abs=0.01)
        assert result.bd_rate == min(t.cost for t in result.trials)
        assert result.improved
        assert result.stop_reason == stop_reason
        if k_hat is not None:
            assert result.k_hat == pytest.approx(k_hat, rel=1e-12)

    @pytest.mark.parametrize(
        "model_kwargs, stop_reason",
        [
            ({}, "converged"),
            ({"gamma": 0.01, "k_star": 1.0}, "converged"),
            ({"c": 4.0, "k_star": 2.5}, "failed_probe"),
            ({"c": 0.8, "k_star": 10.0}, "no_bracket"),
        ],
    )
    def test_no_two_trials_share_a_k(self, tmp_path, model_kwargs, stop_reason):
        # A repeated probe would cost no encodes (the cache serves it) but
        # would still be a wasted trial: the search never makes one.
        backend = synthetic_backend(**model_kwargs)
        result = optimize_clip("clip", av1_config(cache_dir=tmp_path), backend)
        assert result.stop_reason == stop_reason
        ks = [sweep._quantize_k(t.k) for t in result.trials]
        assert len(ks) == len(set(ks)), sorted(ks)

    def test_deterministic_failure_is_tried_once(self, tmp_path):
        # The k=0.5 seed underflows the quality model at three QPs; those
        # encodes are not retried and the search ends at that probe.
        backend = synthetic_backend(c=8.0, k_star=2.5)
        result = optimize_clip("clip", av1_config(cache_dir=tmp_path), backend)
        assert backend.invocations == 5 + 5
        assert result.stop_reason == "failed_probe"
        assert result.k_hat == 1.0
        # The failed probe's encodes are counted.
        assert result.total_invocations == 5
        # A clip no trial improves reports zero change, not a missing one.
        assert not result.improved and result.bd_rate == 0.0
        for name in ("rd2_savings", "mean_savings", "msssim_change_db", "vmaf_change"):
            assert getattr(result, name) == 0.0, name
        baseline = result.trials[0]
        assert (baseline.k, baseline.cost, baseline.encoder_invocations) == (1.0, 0.0, 0)
        assert baseline.curve == result.reference_curve

    def test_failed_bd_rate_counts_its_encodes(self, tmp_path):
        # The k=0.5 probe's sweep succeeds, but its curve shares no quality
        # interval with the reference, so its BD-Rate raises OverlapError:
        # the search ends there, and the probe's 5 encodes are counted.
        backend = synthetic_backend(s0=40.0, c=6.5)
        result = optimize_clip("clip", av1_config(cache_dir=tmp_path), backend)
        assert result.stop_reason == "failed_probe"
        assert result.total_invocations == 5
        assert backend.invocations == 5 + 5

    def test_stop_reason_max_iters(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sweep, "DEFAULT_OPTIMIZER", replace(DEFAULT_OPTIMIZER, xtol=1e-9, max_iters=3, ftol=0.0))
        result = optimize_clip("clip", av1_config(cache_dir=tmp_path), synthetic_backend())
        assert result.stop_reason == "max_iters"
        assert result.improved

    def test_warm_rerun_identical_but_free(self, tmp_path):
        config = av1_config(cache_dir=tmp_path)
        cold = optimize_clip("clip", config, synthetic_backend())
        warm_backend = synthetic_backend()
        warm = optimize_clip("clip", config, warm_backend)
        assert warm_backend.invocations == 0
        assert warm.total_invocations == 0
        assert warm.k_hat == cold.k_hat
        assert warm.bd_rate == cold.bd_rate
        assert warm.iterations == cold.iterations

    def test_result_json_roundtrip(self, tmp_path):
        result = optimize_clip("clip", av1_config(cache_dir=tmp_path), synthetic_backend())
        path = tmp_path / "result.json"
        save_result(result, path)
        assert load_result(path) == result
        assert json.loads(path.read_text())["stop_reason"] == "converged"

    def test_result_without_stop_reason_loads(self, tmp_path):
        # Results saved before stop_reason existed lack the field.
        result = optimize_clip("clip", av1_config(cache_dir=tmp_path), synthetic_backend())
        doc = result.to_dict()
        del doc["stop_reason"]
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        assert load_result(path) == replace(result, stop_reason="unknown")


class TestOptimizeClipPooled(PooledDispatch, TestOptimizeClip):
    pass


@pytest.mark.parametrize("text", ["{", "[]", '{"clip_id": "c"}', "\udcff"])
def test_malformed_result_file_names_it(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text, errors="surrogateescape")
    with pytest.raises(ManifestError, match="result file .*bad.json"):
        load_result(path)


finite_floats = st.floats(-1e6, 1e6, allow_nan=False)
positive_floats = st.floats(1e-6, 1e6)
point_docs = st.builds(
    RDPoint.from_db,
    qp=st.integers(0, 63),
    bitrate_kbps=positive_floats,
    msssim_db=st.floats(0.01, 80.0),
    vmaf=st.none() | st.floats(0.0, 100.0),
)


@st.composite
def curve_docs(draw):
    n = draw(st.integers(2, 6))
    qps = draw(st.lists(st.integers(0, 63), min_size=n, max_size=n, unique=True))
    dbs = sorted(draw(st.lists(st.floats(0.01, 80.0), min_size=n, max_size=n, unique=True)))
    rates = sorted(draw(st.lists(positive_floats, min_size=n, max_size=n, unique=True)))
    vmafs = draw(st.lists(st.none() | st.floats(0.0, 100.0), min_size=n, max_size=n))
    codec = draw(st.sampled_from(CodecId))
    return RDCurve(
        clip_id=draw(st.text()),
        codec=codec,
        k=draw(positive_floats),
        group=draw(st.sampled_from([g for g in FrameTypeGroup if g.valid_for(codec)])),
        scope=draw(st.sampled_from(LambdaScope)),
        points=tuple(map(RDPoint.from_db, qps, rates, dbs, vmafs)),
    )


trial_docs = st.builds(
    TrialRecord, k=positive_floats, curve=curve_docs(), cost=finite_floats,
    encoder_invocations=st.integers(0, 10**6),
)
result_docs = st.builds(
    OptimizationResult,
    clip_id=st.text(),
    codec=st.sampled_from(CodecId),
    group=st.sampled_from(FrameTypeGroup),
    scope=st.sampled_from(LambdaScope),
    k_hat=positive_floats,
    bd_rate=finite_floats,
    iterations=st.integers(0, 100),
    stop_reason=st.text(),
    improved=st.booleans(),
    rd2_savings=finite_floats,
    mean_savings=finite_floats,
    msssim_change_db=finite_floats,
    vmaf_change=st.none() | finite_floats,
    total_invocations=st.integers(0, 10**6),
    trials=st.lists(trial_docs, max_size=3).map(tuple),
    reference_curve=curve_docs(),
)


class TestDocumentJson:
    @settings(max_examples=60, deadline=None)
    @given(doc=st.one_of(point_docs, curve_docs(), trial_docs, result_docs))
    def test_round_trip(self, doc):
        text = json.dumps(doc.to_dict())
        loaded = type(doc).from_dict(json.loads(text))
        assert loaded == doc
        assert json.dumps(loaded.to_dict()) == text

    def test_curve_format(self):
        # Written out by hand, so that the generic rule is checked against
        # something other than itself.
        curve = RDCurve(
            clip_id="c",
            codec=CodecId.AV1,
            k=2.0,
            group=FrameTypeGroup.KF_GF_ARF,
            scope=LambdaScope.PARTITION,
            points=(RDPoint(39, 100.0, 0.9, 10.0), RDPoint(27, 400.0, 0.99, 20.0, 95.5)),
        )
        assert curve.to_dict() == {
            "clip_id": "c",
            "codec": "AV1",
            "k": 2.0,
            "group": "KF_GF_ARF",
            "scope": "Partition",
            "points": [
                {"qp": 39, "bitrate_kbps": 100.0, "msssim": 0.9, "msssim_db": 10.0, "vmaf": None},
                {"qp": 27, "bitrate_kbps": 400.0, "msssim": 0.99, "msssim_db": 20.0, "vmaf": 95.5},
            ],
        }


class ClipSet(SyntheticEncoder):
    """One synthetic model per clip id, each encode sleeping delays[clip]
    seconds (as a child process would wait), a clip whose model is None
    failing every encode with DomainError, and a record of every encode:
    (clip, start, end), the most encodes ever running at once, and whether
    encodes of two clips ever ran at once."""

    def __init__(self, models, delays):
        super().__init__(SyntheticClipModel())
        self.models = models
        self.delays = delays
        self.calls = []
        self.running = []
        self.most_running = 0
        self.clips_overlapped = False

    def measure(self, job):
        with self._count_lock:
            self.running.append(job.clip_id)
            self.most_running = max(self.most_running, len(self.running))
            self.clips_overlapped |= len(set(self.running)) > 1
        start = time.perf_counter()
        try:
            time.sleep(self.delays[job.clip_id])
            model = self.models[job.clip_id]
            if model is None:
                raise DomainError(f"no model for clip {job.clip_id}")
            return synth_encode(model, job.qp, job.k)
        finally:
            with self._count_lock:
                self.running.remove(job.clip_id)
                self.calls.append((job.clip_id, start, time.perf_counter()))


CLIP_MODELS = {f"clip{i}": SyntheticClipModel(k_star=k) for i, k in enumerate((0.7, 1.6, 3.0, 2.2))}


def assert_as_sequential(results, tmp_path):
    # Each result equals a sequential optimize_clip of its clip on a fresh cache dir.
    for result in results:
        clip = result.clip_id
        config = av1_config(cache_dir=tmp_path / "sequential" / clip)
        alone = optimize_clip(clip, config, SyntheticEncoder(CLIP_MODELS[clip], clip))
        assert (result.k_hat, result.bd_rate, result.stop_reason) == (
            alone.k_hat, alone.bd_rate, alone.stop_reason)
        assert [(t.k, t.cost, t.encoder_invocations) for t in result.trials] == [
            (t.k, t.cost, t.encoder_invocations) for t in alone.trials]
        assert result.total_invocations == alone.total_invocations


class TestOptimizeClips:
    def test_one_pool_caps_encodes_while_clips_overlap(self, tmp_path, opened_pools):
        backend = pooled(ClipSet(CLIP_MODELS, dict.fromkeys(CLIP_MODELS, 0.02)))
        config = av1_config(cache_dir=tmp_path / "cache", workers=2)
        results = list(optimize_clips(list(CLIP_MODELS), config, backend))
        assert [r.clip_id for r in results] == list(CLIP_MODELS)
        assert backend.most_running <= 2
        assert backend.clips_overlapped
        # One encode pool of config.workers threads, and one for the
        # ceil(2 / 5) + 1 searches, which submit no encode themselves.
        assert [p._max_workers for p in opened_pools] == [2, 2]
        assert opened_pools[0].submitted == len(backend.calls)
        assert opened_pools[1].submitted == 4
        assert_as_sequential(results, tmp_path)

    def test_results_follow_clip_order_not_completion(self, tmp_path):
        # clip0's first encode is held until clip3 has started encoding, so
        # clip1 and clip2 complete before clip0's reference sweep.
        class HoldFirst(ClipSet):
            def __init__(self, *args):
                super().__init__(*args)
                self.clip3_started = threading.Event()
                self.held = False

            def measure(self, job):
                with self._count_lock:
                    hold = job.clip_id == "clip0" and not self.held
                    self.held |= hold
                if job.clip_id == "clip3":
                    self.clip3_started.set()
                if hold:
                    if not self.clip3_started.wait(10.0):
                        raise DomainError("clip3 never started")
                    self.released_at = time.perf_counter()
                return super().measure(job)

        backend = pooled(HoldFirst(CLIP_MODELS, dict.fromkeys(CLIP_MODELS, 0.0)))
        config = av1_config(cache_dir=tmp_path / "cache", workers=2)
        results = list(optimize_clips(list(CLIP_MODELS), config, backend))
        assert [r.clip_id for r in results] == list(CLIP_MODELS)
        ends = [end for clip, _, end in backend.calls if clip in ("clip1", "clip2")]
        assert max(ends) < backend.released_at
        assert_as_sequential(results, tmp_path)

    def test_in_process_backend_runs_on_the_calling_thread(self, tmp_path, opened_pools):
        threads = set()

        class Recording(SyntheticEncoder):
            def measure(self, job):
                threads.add(threading.get_ident())
                return super().measure(job)

        config = av1_config(cache_dir=tmp_path)
        results = list(optimize_clips(["a", "b"], config, Recording(SyntheticClipModel())))
        assert [r.clip_id for r in results] == ["a", "b"]
        assert opened_pools == []
        assert threads == {threading.get_ident()}

    @pytest.mark.parametrize("in_process", [True, False], ids=["in_process", "pooled"])
    def test_short_ladder_is_rejected_before_any_encode(self, tmp_path, opened_pools, in_process):
        backend = synthetic_backend()
        backend.in_process = in_process
        config = av1_config(cache_dir=tmp_path, qp_ladder=(27, 39, 49))
        with pytest.raises(ValueError, match="at least 4"):
            optimize_clip("clip", config, backend)
        with pytest.raises(ValueError, match="at least 4"):
            next(optimize_clips(["clip"], config, backend))
        assert backend.invocations == 0
        assert opened_pools == []

    def test_failed_search_stops_the_run(self, tmp_path):
        models = {"bad": None, "slow": SyntheticClipModel(), "slow2": SyntheticClipModel(k_star=3.0)}
        backend = pooled(ClipSet(models, {"bad": 0.0, "slow": 0.05, "slow2": 0.05}))
        config = av1_config(cache_dir=tmp_path, workers=2)
        threads = threading.active_count()
        with pytest.raises(SweepError) as raised:
            list(optimize_clips(["bad", "slow", "slow2"], config, backend))
        assert isinstance(raised.value.__cause__, DomainError)
        failed_at = max(end for clip, _, end in backend.calls if clip == "bad")
        clips = [clip for clip, _, _ in backend.calls]
        assert "slow2" not in clips
        assert sum(1 for clip, start, _ in backend.calls if clip == "slow" and start > failed_at) <= 2
        # Every encode and search thread has ended.
        assert threading.active_count() == threads

    def test_no_search_starts_after_a_later_clip_failed(self, tmp_path):
        # "bad" fails while "slow" still runs: slow's result comes first,
        # then bad's error, and "later" never starts.
        models = {"slow": SyntheticClipModel(), "bad": None, "later": SyntheticClipModel()}
        backend = pooled(ClipSet(models, {"slow": 0.02, "bad": 0.0, "later": 0.0}))
        results = optimize_clips(list(models), av1_config(cache_dir=tmp_path, workers=2), backend)
        assert next(results).clip_id == "slow"
        with pytest.raises(SweepError):
            next(results)
        assert "later" not in {clip for clip, _, _ in backend.calls}

    def test_closing_the_generator_ends_the_run(self, tmp_path):
        delays = dict.fromkeys(CLIP_MODELS, 0.05)
        delays["clip0"] = 0.0
        backend = pooled(ClipSet(CLIP_MODELS, delays))
        config = av1_config(cache_dir=tmp_path, workers=2)
        threads = threading.active_count()
        results = optimize_clips(list(CLIP_MODELS), config, backend)
        assert next(results).clip_id == "clip0"
        encodes = len(backend.calls)
        results.close()
        assert len(backend.calls) <= encodes + 2
        assert threading.active_count() == threads
        assert "clip3" not in {clip for clip, _, _ in backend.calls}

    def test_searches_run_while_the_consumer_holds_a_result(self, tmp_path):
        # After clip0's result, the queued searches start as runner threads
        # free up, with no further next() asking for them.
        delays = dict.fromkeys(CLIP_MODELS, 0.01)
        delays["clip0"] = 0.0
        backend = pooled(ClipSet(CLIP_MODELS, delays))
        results = optimize_clips(list(CLIP_MODELS), av1_config(cache_dir=tmp_path, workers=2), backend)
        assert next(results).clip_id == "clip0"
        deadline = time.monotonic() + 20.0
        while "clip3" not in {clip for clip, _, _ in backend.calls}:
            assert time.monotonic() < deadline, "clip3 never encoded while the consumer held clip0"
            time.sleep(0.01)
        assert [r.clip_id for r in results] == ["clip1", "clip2", "clip3"]


class TestBudget:
    # A cold run costs P*N*M encodes: P probes, N ladder points, M clips.
    # The k=1 reference sweep is outside that count.
    def test_reference_accounting(self, tmp_path):
        backend = synthetic_backend()
        result = optimize_clip("clip", av1_config(cache_dir=tmp_path), backend)
        (reference,) = [t for t in result.trials if t.k == 1.0]
        assert reference.encoder_invocations == 0
        assert reference.curve == result.reference_curve
        assert result.iterations == len(result.trials) - 1
        assert backend.invocations == result.total_invocations + 5

    def test_arithmetic(self, tmp_path):
        # N is the ladder length, not a fixed 5.
        config = av1_config(cache_dir=tmp_path, qp_ladder=(27, 39, 49, 59))
        result = optimize_clip("clip", config, synthetic_backend())
        assert result.iterations > 0
        assert result.total_invocations == result.iterations * 4
        assert all(t.encoder_invocations == 4 for t in result.trials if t.k != 1.0)

    def test_validation(self, tmp_path):
        # Over M clips sharing one store, the summed counts match what the
        # encoders ran: no clip reuses another's points.
        config = av1_config(cache_dir=tmp_path)
        backends = [synthetic_backend(clip) for clip in ("a", "b")]
        results = [optimize_clip(b.clip_id, config, b) for b in backends]
        assert sum(r.total_invocations for r in results) == 5 * sum(r.iterations for r in results)
        assert sum(b.invocations for b in backends) == sum(r.total_invocations for r in results) + 2 * 5

    def test_cold_run_matches_budget(self, tmp_path):
        backend = synthetic_backend()
        result = optimize_clip("clip", av1_config(cache_dir=tmp_path), backend)
        assert result.total_invocations == result.iterations * 5


class TestLedgerReplay:
    def test_replay_reproduces_result_fields(self, tmp_path):
        config = av1_config(cache_dir=tmp_path)
        result = optimize_clip("clip", config, synthetic_backend())

        records = RunLedger.load(tmp_path / "ledger.jsonl")
        curves = {c.k: c for c in curves_from_ledger(records)}
        reference = curves.pop(1.0)
        assert reference == result.reference_curve

        costs = {k: bd_rate(reference, c) for k, c in curves.items()}
        best_k = min(costs, key=lambda k: (costs[k], abs(math.log(k))))
        assert costs[best_k] <= 0.0
        assert best_k == result.k_hat
        assert costs[best_k] == result.bd_rate
        best = curves[best_k]
        assert matched_qp_savings(reference, best, config.rd2_qp) == result.rd2_savings
        assert mean_matched_savings(reference, best) == result.mean_savings
        assert bd_quality(reference, best) == result.msssim_change_db
        assert mean_vmaf_delta(reference, best) == result.vmaf_change

        fresh_ks = {r["k"] for r in records if not r["cached"] and r["k"] != 1.0}
        trial_ks = {r["k"] for r in records if r["k"] != 1.0}
        assert result.iterations == len(trial_ks)
        assert result.total_invocations == 5 * len(fresh_ks)

    def test_k_below_quantum_keeps_one_curve(self, tmp_path):
        run_sweep("clip", 2.0, av1_config(cache_dir=tmp_path), synthetic_backend())
        records = RunLedger.load(tmp_path / "ledger.jsonl")
        records[2]["k"] += 2e-7
        curves = curves_from_ledger(records)
        assert len(curves) == 1
        assert len(curves[0].points) == 5
        assert curves[0].k == 2.0

    def test_dedupe_first_point_wins(self, tmp_path):
        # Stores a and b on one ledger, standing in for two processes in
        # lockstep, both miss the k=1 ladder and encode it to different
        # points under the same keys: b's first encode lets a's whole sweep
        # run and append first.  The rebuilt curve is the one a fresh store
        # serves: a key's first point wins.
        config = av1_config(cache_dir=tmp_path)
        path = tmp_path / "ledger.jsonl"
        a, b = PointCache(RunLedger(path)), PointCache(RunLedger(path))
        firsts = []

        class Lockstep(SyntheticEncoder):
            def measure(self, job):  # the default model's keys, another model's points
                if not firsts:
                    firsts.append(run_sweep("clip", 1.0, config, synthetic_backend(), cache=a))
                return synth_encode(SyntheticClipModel(r0=40000.0), job.qp, job.k)

        second = run_sweep("clip", 1.0, config, Lockstep(SyntheticClipModel(), "clip"), cache=b)
        records = RunLedger.load(path)
        assert len(records) == 10
        backend = synthetic_backend()
        served = run_sweep("clip", 1.0, config, backend, cache=PointCache(RunLedger(path)))
        assert backend.invocations == 0
        assert served == firsts[0] != second
        assert curves_from_ledger(records) == [served]

    def test_two_builds_under_one_clip_id_make_two_curves(self, tmp_path):
        class Build(SyntheticEncoder):
            def __init__(self, build, **model_kwargs):
                super().__init__(SyntheticClipModel(**model_kwargs), "clip")
                self.build = build

            def template_digest(self):
                return self.build

        config = av1_config(cache_dir=tmp_path)
        curves = [run_sweep("clip", 1.0, config, Build(b, r0=r0)) for b, r0 in (("b1", 30000.0), ("b2", 40000.0))]
        assert curves_from_ledger(RunLedger.load(tmp_path / "ledger.jsonl")) == curves

    def test_lines_that_are_not_records_are_skipped(self, tmp_path):
        # Read as PointCache reads them: the lines the store skips add no
        # point to a curve, and raise nothing.
        cold = run_sweep("clip", 1.0, av1_config(cache_dir=tmp_path), synthetic_backend())
        path = tmp_path / "ledger.jsonl"
        without_clip = {f: v for f, v in RunLedger.load(path)[0].items() if f != "clip"}
        with path.open("ab") as fh:
            fh.write(b"\xff\xfe\x00\n")  # not UTF-8
            fh.write(b'[]\n"failed"\n5\nnull\n{"status": "failed"}\n[{"cache_key": "a"}]\n')
            fh.write(b'{"status": "ok"}\n' + json.dumps(without_clip).encode() + b"\n")
        assert curves_from_ledger(RunLedger.load(path)) == [cold]

    def test_failed_records_change_no_curve(self, tmp_path):
        optimize_clip("clip", av1_config(cache_dir=tmp_path), synthetic_backend(c=4.0, k_star=2.5))
        records = RunLedger.load(tmp_path / "ledger.jsonl")
        ok = [r for r in records if r["status"] == "ok"]
        assert len(ok) < len(records)
        assert curves_from_ledger(records) == curves_from_ledger(ok)


class InjectedFaults(SyntheticEncoder):
    """Fails the first faults(qp, k) attempts at each (qp, k) with an
    EncodeFailure.  The count is drawn from the fault seed and the job
    alone, and attempts are counted per backend, so a cold and a warm
    backend fail alike: one failure is recovered by the sweep's retry, two
    fail the encode."""

    def __init__(self, model, fault_seed, once, twice):
        super().__init__(model, "clip")
        self.rule = (fault_seed, once, twice)
        self.attempts: dict[tuple, int] = {}

    def measure(self, job):
        at = (job.qp, sweep._quantize_k(job.k))
        self.attempts[at] = self.attempts.get(at, 0) + 1
        seed, once, twice = self.rule
        u = random.Random(f"{seed}:{at}").random()
        if self.attempts[at] <= (2 if u < twice else 1 if u < twice + once else 0):
            with self._count_lock:
                self.invocations += 1
            raise EncodeFailure("injected failure", "encoder stderr")
        return super().measure(job)


def _search(config, backend):
    """optimize_clip's result, or the message of the error it raised (a
    failed reference sweep)."""
    try:
        return optimize_clip("clip", config, backend)
    except SweepError as exc:
        return str(exc)


def _without_invocations(result: OptimizationResult) -> dict:
    doc = result.to_dict()
    doc["total_invocations"] = 0
    for trial in doc["trials"]:
        trial["encoder_invocations"] = 0
    return doc


HARSH_GRID = [(c, k) for c in (0.8, 2.0, 4.0, 8.0) for k in (2.5, 6.0, 10.0)]


class TestWarmRerun:
    """A warm re-run on the cache dir of a cold one encodes nothing but what
    the cold run could not keep, and reports the same."""

    @settings(max_examples=40, deadline=None)
    @given(
        model=st.one_of(
            st.just({"gamma": 0.01, "k_star": 1.0}),  # calibrated
            st.fixed_dictionaries({"c": st.floats(0.5, 8.0), "k_star": st.floats(1.0, 10.0)}),
        ),
        noise_seed=st.sampled_from([0, 17]),
        ladder=st.lists(st.integers(20, 63), min_size=4, max_size=7, unique=True).map(
            lambda qps: tuple(sorted(qps))),
        faults=st.tuples(st.integers(0, 2**16), st.floats(0.0, 0.3), st.floats(0.0, 0.1)),
        damaged_line=st.integers(0, 10**6),
        damage=st.sampled_from([b"torn", b"[]"]),
    )
    def test_guarantees_hold_under_faults(self, model, noise_seed, ladder, faults, damaged_line, damage):
        with tempfile.TemporaryDirectory() as tmp:
            config = av1_config(cache_dir=Path(tmp), qp_ladder=ladder)
            params = SyntheticClipModel(**model, noise_seed=noise_seed)
            cold = _search(config, InjectedFaults(params, *faults))

            # Damage one line, in a new file, as a new process finds it: the
            # store kept open over the old file is not reused.
            path = Path(tmp) / "ledger.jsonl"
            records = RunLedger.load(path)
            lines = path.read_bytes().splitlines(keepends=True)
            at = damaged_line % len(lines)
            lines[at] = lines[at][: len(lines[at]) // 2] + b"\n" if damage == b"torn" else damage + b"\n"
            (Path(tmp) / "next").write_bytes(b"".join(lines))
            os.replace(Path(tmp) / "next", path)
            size = path.stat().st_size

            warm = _search(config, InjectedFaults(params, *faults))

            appended = [json.loads(line) for line in path.read_bytes()[size:].splitlines()]
            warm_encoded = {r["cache_key"] for r in appended if not r["cached"]}
            child_failures = {r["cache_key"] for r in records
                              if r["status"] == "failed" and r["error"] == "EncodeFailure"}
            assert child_failures <= warm_encoded <= child_failures | {records[at]["cache_key"]}
            if isinstance(cold, str):  # the reference sweep failed, on both runs
                assert warm == cold
                return
            assert cold.bd_rate <= 0.0
            best = min(cold.trials, key=lambda t: (t.cost, abs(math.log(t.k))))
            assert cold.bd_rate == min(t.cost for t in cold.trials)
            assert cold.k_hat == (best.k if cold.improved else 1.0)
            assert _without_invocations(warm) == _without_invocations(cold)
            if noise_seed == 0:  # every trial holds the model's own points
                for trial in cold.trials:
                    expected_db, expected_log_rate = oracles.synth_arrays(trial.k, ladder, **model)
                    db = sorted(p.msssim_db for p in trial.curve.points)
                    log_rate = [math.log10(p.bitrate_kbps)
                                for p in sorted(trial.curve.points, key=lambda p: p.msssim_db)]
                    assert db == pytest.approx(list(expected_db), abs=1e-9)
                    assert log_rate == pytest.approx(list(expected_log_rate), abs=1e-12)

    @pytest.mark.parametrize("store", ["kept", "reopened"])
    def test_harsh_grid_warm_rerun_makes_no_encode(self, tmp_path, monkeypatch, store):
        # Six of these clips end on a probe that underflows the quality
        # model; its failed encodes are replayed from the ledger.
        config = av1_config(cache_dir=tmp_path)

        def run():
            backends = [synthetic_backend(f"harsh_c{c:g}_k{k:g}", c=c, k_star=k) for c, k in HARSH_GRID]
            return [optimize_clip(b.clip_id, config, b) for b in backends], backends

        cold, _ = run()
        assert sum(r.stop_reason == "failed_probe" for r in cold) >= 6
        path = tmp_path / "ledger.jsonl"
        size = path.stat().st_size
        if store == "reopened":
            monkeypatch.setattr(sweep, "_open_store", None)
        warm, backends = run()
        assert [b.invocations for b in backends] == [0] * len(HARSH_GRID)
        assert [r.total_invocations for r in warm] == [0] * len(HARSH_GRID)
        assert [_without_invocations(r) for r in warm] == [_without_invocations(r) for r in cold]
        appended = [json.loads(line) for line in path.read_bytes()[size:].splitlines()]
        assert appended and all(r["cached"] for r in appended)
