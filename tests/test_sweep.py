import gc
import json
import math
import multiprocessing
import os
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

from rdtune import sweep
from rdtune.encoder_bridge import EncodeJob, SyntheticClipModel, SyntheticEncoder
from rdtune.errors import EncodeFailure, SweepError
from rdtune.lambda_model import CodecId, FrameTypeGroup, LambdaScope
from rdtune.rd_curve import bd_quality, bd_rate, matched_qp_savings, mean_matched_savings, mean_vmaf_delta
from rdtune.sweep import (
    DEFAULT_OPTIMIZER,
    InvocationBudget,
    OptimizationResult,
    PointCache,
    RunLedger,
    SweepConfig,
    cache_key,
    curves_from_ledger,
    evaluate_cost,
    load_result,
    optimize_clip,
    predict_budget,
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

    def fail(self, message):
        with self._count_lock:
            self.invocations += 1
        raise EncodeFailure(message)


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
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SweepConfig(codec=CodecId.AV1, **kwargs)


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
        def measure(self, job):
            work_dirs.add(str(job.work_dir.parent))
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

        # RunLedger.load is unchanged: a middle line that does not parse raises.
        try:
            json.loads(content)
        except ValueError:
            with pytest.raises(ValueError):
                RunLedger.load(path)
        else:
            assert len(RunLedger.load(path)) == 10

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
        # picks up on its next miss.  Each encodes under its own work dir.
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
        assert work_dirs == [str(tmp_path / "work" / str(child_pid))]
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
        _read_from = RunLedger._read_from

        def counting(self, offset):
            data = _read_from(self, offset)
            lines_read.append(data.count(b"\n"))
            return data

        monkeypatch.setattr(RunLedger, "_read_from", counting)
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

    def test_work_dir_is_private_to_the_process(self, tmp_path):
        work_dirs = set()

        class Recording(SyntheticEncoder):
            def measure(self, job):
                work_dirs.add(job.work_dir.parent)
                return super().measure(job)

        pid = str(os.getpid())
        backend = Recording(SyntheticClipModel(), "clip")
        run_sweep("clip", 1.0, av1_config(cache_dir=tmp_path), backend)
        assert work_dirs == {tmp_path / "work" / pid}
        work_dirs.clear()
        run_sweep("clip", 1.0, av1_config(), Recording(SyntheticClipModel(), "clip"))
        assert work_dirs == {Path(tempfile.gettempdir()) / "rdtune-work" / pid}


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
        assert len(RunLedger.load(tmp_path / "ledger.jsonl")) == 4
        # Partials are cached: the retry only dispatches the failed point.
        retry_backend = synthetic_backend()
        run_sweep("clip", 1.3, config, retry_backend)
        assert retry_backend.invocations == 1

    def test_single_worker_equivalent(self, tmp_path):
        a = run_sweep("clip", 1.5, av1_config(cache_dir=tmp_path / "a", workers=1), synthetic_backend())
        b = run_sweep("clip", 1.5, av1_config(cache_dir=tmp_path / "b", workers=5), synthetic_backend())
        assert a == b


class TestRunSweepPooled(PooledDispatch, TestRunSweep):
    pass


class TestLedgerBatching:
    @pytest.mark.parametrize(
        "in_process, cold, warm, failed",
        [(True, [5], [5], [4]), (False, [1] * 5, [5], [1] * 4)],
        ids=["inline", "pooled"],
    )
    def test_records_per_append(self, tmp_path, monkeypatch, in_process, cold, warm, failed):
        # Inline, a sweep's records go to the ledger in one append: hits,
        # fresh points, and the partials of a failed sweep before it
        # raises.  Pooled, the hits go in one append and each fresh point
        # in its own.
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
        assert len(RunLedger.load(tmp_path / "ledger.jsonl")) == 5 + 5 + 4

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

    def test_append_returns_its_span(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        first = ledger.append({"cache_key": "a"})
        assert first == (0, path.stat().st_size)
        start, end = ledger.append({"cache_key": "b"}, {"cache_key": "c"})
        assert (start, end) == (first[1], path.stat().st_size)
        assert [json.loads(line)["cache_key"] for line in path.read_bytes()[start:end].splitlines()] == ["b", "c"]
        # After a torn tail is cut off, or a parsing one ended, the span
        # starts where the new records do.
        for tail, kept in ((b'{"cache_key": "t', 0), (b'{"cache_key": "u"}', 1)):
            size = path.stat().st_size
            with path.open("ab") as fh:
                fh.write(tail)
            span = ledger.append({"cache_key": "d"})
            assert span == (size + kept * (len(tail) + 1), path.stat().st_size)
            assert json.loads(path.read_bytes()[span[0]:span[1]]) == {"cache_key": "d"}
        assert RunLedger(None).append({"cache_key": "e"}) == (0, 0)

    def test_append_to_another_ledger_skips_nothing(self, tmp_path):
        # A sweep writing to a ledger other than its store's must not mark
        # the store's own file read, however the offsets line up.
        config = av1_config(cache_dir=tmp_path)
        store = PointCache(RunLedger(tmp_path / "a.jsonl"))
        elsewhere = RunLedger(tmp_path / "b.jsonl")
        run_sweep("clip", 1.0, config, synthetic_backend(), cache=store, ledger=elsewhere)
        # Another writer then appends k=2 points to the store's file.
        run_sweep("clip", 2.0, config, synthetic_backend(), cache=PointCache(RunLedger(tmp_path / "a.jsonl")))
        backend = synthetic_backend()
        run_sweep("clip", 2.0, config, backend, cache=store, ledger=elsewhere)
        assert backend.invocations == 0


class TestRunLedger:
    def _two_records(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.append({"cache_key": "a", "qp": 27})
        ledger.append({"cache_key": "b", "qp": 39})
        return path

    def test_torn_tail_is_skipped(self, tmp_path):
        path = self._two_records(tmp_path)
        with path.open("a") as fh:
            fh.write('{"cache_key": "c", "q')
        assert [r["cache_key"] for r in RunLedger.load(path)] == ["a", "b"]

    def test_unterminated_tail_that_parses_is_kept(self, tmp_path):
        path = self._two_records(tmp_path)
        with path.open("a") as fh:
            fh.write('{"cache_key": "c"}')
        assert [r["cache_key"] for r in RunLedger.load(path)] == ["a", "b", "c"]

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = self._two_records(tmp_path)
        with path.open("a") as fh:
            fh.write('{"cache_key": "c", "q\n{"cache_key": "d"}\n')
        with pytest.raises(json.JSONDecodeError):
            RunLedger.load(path)

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

    def test_corrupt_terminated_last_line_raises(self, tmp_path):
        path = self._two_records(tmp_path)
        with path.open("a") as fh:
            fh.write('{"cache_key": "c", "q\n')
        with pytest.raises(json.JSONDecodeError):
            RunLedger.load(path)


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

    def test_stop_reason_max_iters(self, tmp_path):
        optimizer = replace(DEFAULT_OPTIMIZER, xtol=1e-9, max_iters=3)
        result = optimize_clip("clip", av1_config(cache_dir=tmp_path), synthetic_backend(), optimizer)
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


class TestBudget:
    def test_reference_accounting(self):
        assert predict_budget(InvocationBudget(p=9, n=5, m=1)) == 45

    def test_arithmetic(self):
        assert predict_budget(InvocationBudget(p=10, n=5, m=10)) == 500
        assert predict_budget(InvocationBudget(p=1, n=1, m=1)) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            InvocationBudget(p=0, n=5, m=1)

    def test_cold_run_matches_budget(self, tmp_path):
        backend = synthetic_backend()
        result = optimize_clip("clip", av1_config(cache_dir=tmp_path), backend)
        predicted = predict_budget(InvocationBudget(p=result.iterations, n=5, m=1))
        assert result.total_invocations == predicted


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

    def test_dedupe_last_record_wins(self, tmp_path):
        config = av1_config(cache_dir=tmp_path)
        run_sweep("clip", 1.0, config, synthetic_backend())
        run_sweep("clip", 1.0, config, synthetic_backend())  # cache hits, duplicates
        records = RunLedger.load(tmp_path / "ledger.jsonl")
        curves = curves_from_ledger(records)
        assert len(curves) == 1
        assert len(curves[0].points) == 5
