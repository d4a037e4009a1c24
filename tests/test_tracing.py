"""The benchmark's tracer (perfbench/tracing.py) patches module attributes
of the package by name.  A change that deletes or renames one of them must
fail here, not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
