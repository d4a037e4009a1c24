"""The benchmark (perfbench/run.py) drives the package through calls of its
own: the one-model SyntheticEncoder(model, clip_id), its invocations count,
and one optimize_clip call per clip.  A package change that breaks one of
them must fail here, not only in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.fixture(scope="module")
def perfbench_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules as they are built.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_synth_pass_cold_then_warm(perfbench_run, tmp_path):
    clips = perfbench_run.synth_clips(1)[::20]
    cold = perfbench_run.synth_pass(clips, tmp_path)
    warm = perfbench_run.synth_pass(clips, tmp_path, len(perfbench_run._ledger(tmp_path)))
    assert cold.raised == warm.raised == []
    assert sum(o.encodes for o in cold.outcomes.values()) == cold.fresh_encodes > 0
    assert [o.encodes for o in warm.outcomes.values()] == [0] * len(clips)
    assert warm.fresh_encodes == 0


def test_external_clips_search_counts(perfbench_run):
    # The external_stub workload's clips, searched in-process: the octave
    # bracket makes 4 trials and 20 encodes per clip, the reference's
    # included (4.75 and 23.75 with a bracket that grew each step by phi).
    clips = perfbench_run.external_clips(1)
    p = perfbench_run.synth_pass(clips, None)
    assert p.raised == []
    outcomes = list(p.outcomes.values())
    assert sum(o.encodes for o in outcomes) == 20 * len(clips)
    assert sum(o.trials for o in outcomes) == 4 * len(clips)
