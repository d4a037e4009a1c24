"""The benchmark's tracer (perfbench/tracing.py) patches module attributes
of the package by name.  A change that deletes or renames one of them must
fail here, not only in a traced benchmark run; so must one that moves a
store or encode call out from under its clip's optimize_clip span."""

import importlib.util
from pathlib import Path

import pytest

from rdtune import sweep
from rdtune.encoder_bridge import SyntheticClipModel, SyntheticEncoder
from rdtune.lambda_model import CodecId, FrameTypeGroup

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def pooled(backend):
    """The backend with its encodes dispatched to the encode pool, as for a
    backend over child processes."""
    backend.in_process = False
    return backend


def test_tracer_wraps_and_restores_every_patched_attribute():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()  # uninstall undoes the patches made before a failure
        patched = list(tracer._restore)
        assert patched
        for owner, attr, original in patched:
            wrapper = getattr(owner, attr)
            # A traced function wraps its original; the encode pool subclasses it.
            assert getattr(wrapper, "__wrapped__", None) is original or (
                isinstance(wrapper, type) and issubclass(wrapper, original)
            ), f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    assert tracer._restore == []
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"


@pytest.mark.parametrize("dispatch", [lambda b: b, pooled], ids=["inline", "pooled"])
def test_store_and_encode_spans_carry_the_clip(tmp_path, dispatch):
    # The per-layer metrics group spans by clip; on the pooled path the
    # encodes, and the puts that index them, run on the pool's threads.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    backend = dispatch(SyntheticEncoder({"clip": SyntheticClipModel()}))
    config = sweep.SweepConfig(CodecId.AV1, FrameTypeGroup.KF_GF_ARF, cache_dir=tmp_path, workers=2)
    with tracing.Tracer() as tracer:
        result = sweep.optimize_clip("clip", config, backend)
    names = ("sweep.PointCache.get", "sweep.PointCache.put", "sweep.RunLedger.append",
             "encoder_bridge.measure")
    spans = [s for s in tracer.spans if s[tracing.NAME] in names]
    assert {s[tracing.NAME] for s in spans} == set(names)
    assert {s[tracing.CLIP] for s in spans} == {"clip"}
    puts = [s for s in spans if s[tracing.NAME] == "sweep.PointCache.put"]
    assert len(puts) == backend.invocations == result.total_invocations + len(config.qp_ladder)
