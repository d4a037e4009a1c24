"""Pinned outputs of the synthetic pipeline, compared byte for byte with
the files under tests/golden/:

- optimize_synthetic_default.json: the stdout of `rdtune optimize
  --synthetic default`, without a cache dir and cold on a new one;
  optimize_synthetic_default_warm.json: that of a warm re-run on the cache
  dir, whose trials count no encoder invocations.
- demo04/: demos/04's three result files and its SVG.
- demo04/ledger.jsonl: demos/04's ledger records without timestamp and
  invocation_seconds, one sorted-key JSON object per line.  It pins every
  synthetic cache key and digest.
- synth_clips_documents.txt: for each of the 200 clips of perfbench's
  synth_clips seeds 1 and 2, its seed, its id and the sha256 of its result
  document, searched in-process on a memory-only store as the benchmark's
  synth_cold workload searches it.

The bytes are pinned to the CPython 3.11.7 and libm (glibc 2.36, x86-64)
they were generated with, as TestFrozenBits in test_rd_metrics.py is: the
synthetic model's exp, log and pow, and so every point, may differ in a last
bit under another libm.  A change that moves an output on purpose
regenerates the files with `PYTHONPATH=src python tests/test_golden.py`
and lists the change.
"""

import hashlib
import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from rdtune.cli import cli_dispatch
from rdtune.encoder_bridge import SyntheticClipModel, SyntheticEncoder
from rdtune.lambda_model import CodecId, FrameTypeGroup
from rdtune.sweep import SweepConfig, _document_text, optimize_clip

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
DEMO = ROOT / "demos" / "04_synthetic_end_to_end.py"
PERFBENCH = ROOT / "perfbench" / "run.py"
SYNTH_SEEDS = (1, 2)
DEMO_FILES = ("calm_scene.json", "busy_scene.json", "flat_scene.json", "best_clip.svg")
# The ledger fields that differ from run to run.
VOLATILE = ("timestamp", "invocation_seconds")


def optimize_stdout(*argv: str) -> bytes:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli_dispatch(["optimize", "--synthetic", "default", *argv]) == 0
    return out.getvalue().encode()


def stable_ledger(path: Path) -> bytes:
    """The ledger's records without their VOLATILE fields."""
    lines = []
    for line in path.read_text().splitlines():
        rec = {k: v for k, v in json.loads(line).items() if k not in VOLATILE}
        lines.append(json.dumps(rec, sort_keys=True) + "\n")
    return "".join(lines).encode()


def demo04_outputs(work: Path) -> dict[str, bytes]:
    """Run a copy of demos/04 in work; returns its files by golden name."""
    script = work / DEMO.name
    shutil.copy(DEMO, script)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script)], cwd=work, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = work / "demo_out"
    files = {name: (out / name).read_bytes() for name in DEMO_FILES}
    files["ledger.jsonl"] = stable_ledger(out / "cache" / "ledger.jsonl")
    return files


def synth_clips_documents() -> bytes:
    """`seed clip_id sha256` of each synth_clips clip's result document, one
    line per clip, in seed and clip order."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH)
    run = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules as they are built.
    sys.modules[spec.name] = run
    try:
        spec.loader.exec_module(run)
    finally:
        del sys.modules[spec.name]
    config = SweepConfig(codec=CodecId.AV1, group=FrameTypeGroup.KF_GF_ARF, workers=run.WORKERS)
    lines = []
    for seed in SYNTH_SEEDS:
        for clip in run.synth_clips(seed):
            backend = SyntheticEncoder({clip.id: SyntheticClipModel(**clip.params)})
            doc = _document_text(optimize_clip(clip.id, config, backend))
            lines.append(f"{seed} {clip.id} {hashlib.sha256(doc.encode()).hexdigest()}\n")
    return "".join(lines).encode()


@pytest.fixture(scope="module")
def demo04(tmp_path_factory):
    return demo04_outputs(tmp_path_factory.mktemp("demo04"))


def test_optimize_synthetic_default_stdout(tmp_path):
    expected = (GOLDEN / "optimize_synthetic_default.json").read_bytes()
    assert optimize_stdout() == expected
    cache = str(tmp_path / "cache")
    assert optimize_stdout("--cache-dir", cache) == expected  # cold
    warm = (GOLDEN / "optimize_synthetic_default_warm.json").read_bytes()
    assert optimize_stdout("--cache-dir", cache) == warm


def test_demo04_files(demo04):
    differ = [n for n in DEMO_FILES if demo04[n] != (GOLDEN / "demo04" / n).read_bytes()]
    assert differ == []


def test_demo04_ledger(demo04):
    assert demo04["ledger.jsonl"] == (GOLDEN / "demo04" / "ledger.jsonl").read_bytes()


def test_synth_clips_documents():
    actual = synth_clips_documents().decode().splitlines()
    expected = (GOLDEN / "synth_clips_documents.txt").read_text().splitlines()
    assert len(actual) == len(expected) == 200
    assert [line for line, pinned in zip(actual, expected) if line != pinned] == []


def regenerate() -> None:
    (GOLDEN / "demo04").mkdir(parents=True, exist_ok=True)
    (GOLDEN / "optimize_synthetic_default.json").write_bytes(optimize_stdout())
    with tempfile.TemporaryDirectory() as work:
        cache = str(Path(work) / "cache")
        optimize_stdout("--cache-dir", cache)
        warm = optimize_stdout("--cache-dir", cache)
        (GOLDEN / "optimize_synthetic_default_warm.json").write_bytes(warm)
        for name, data in demo04_outputs(Path(work)).items():
            (GOLDEN / "demo04" / name).write_bytes(data)
    (GOLDEN / "synth_clips_documents.txt").write_bytes(synth_clips_documents())


if __name__ == "__main__":
    regenerate()
