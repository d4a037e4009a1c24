import hashlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from rdtune.errors import (
    CurveDataError,
    DomainError,
    EncodeFailure,
    ManifestError,
    MetricReportError,
    QpRangeError,
    TemplateError,
)
from rdtune.encoder_bridge import (
    ClipInfo,
    CommandTemplate,
    EncodeJob,
    ExternalEncoder,
    SyntheticClipModel,
    SyntheticEncoder,
    encode_measure,
    load_manifest,
    parse_metric_report,
    synth_encode,
)
from rdtune.lambda_model import CodecId, FrameTypeGroup, LambdaScope
from rdtune.sweep import RunLedger, SweepConfig, SweepError, run_sweep

import oracles

PY = sys.executable

# Deterministic stand-in tools: the encoder writes a payload whose size
# shrinks with qp (or a fixed 65536 bytes in 'fixed' mode) and logs its
# argv; the metric tool derives a qp-dependent pooled score from the
# distorted file name.
ENCODER_STUB = """\
import sys
inp, out, qp, k, mode, log = sys.argv[1:7]
size = 65536 if mode == "fixed" else 80000 // (int(qp) + 1)
payload = f"{inp}|{qp}|{k}".encode()
open(out, "wb").write((payload * (size // len(payload) + 1))[:size])
open(log, "a").write(" ".join(sys.argv[1:]) + "\\n")
"""

METRIC_STUB = """\
import json, re, sys
ref, dist, rep = sys.argv[1:4]
qp = int(re.search(r"_qp(\\d+)_", dist).group(1))
doc = {"pooled_metrics": {"float_ms_ssim": {"mean": 0.999 - 0.003 * qp},
                          "vmaf": {"mean": 50.0 + (63 - qp) * 0.5}}}
json.dump(doc, open(rep, "w"))
"""

# METRIC_STUB with a pooled VMAF mean of NaN, as json.dump writes it.
NAN_VMAF_METRIC_STUB = METRIC_STUB.replace("50.0 + (63 - qp) * 0.5", 'float("nan")')

FAILING_ENCODER_STUB = """\
import sys
sys.stderr.write("simulated encoder crash\\n")
sys.exit(3)
"""

# Progress output that is not UTF-8, then the ENCODER_STUB behaviour.
NON_UTF8_ENCODER_STUB = """\
import sys
sys.stdout.buffer.write(b"progress \\xff\\xfe\\n")
sys.stderr.buffer.write(b"progress \\xff\\xfe\\n")
""" + ENCODER_STUB

FAILING_NON_UTF8_ENCODER_STUB = """\
import sys
sys.stderr.buffer.write(b"crash at \\xff\\xfe\\n")
sys.exit(3)
"""


@pytest.fixture
def stub_tools(tmp_path):
    enc = tmp_path / "stub_encoder.py"
    met = tmp_path / "stub_metric.py"
    enc.write_text(ENCODER_STUB)
    met.write_text(METRIC_STUB)
    clip_file = tmp_path / "clip.yuv"
    clip_file.write_bytes(b"\x10" * 4096)
    clip = ClipInfo(
        id="clipA", path=clip_file,
        frame_count=130, frame_rate=25.0,
    )
    log = tmp_path / "argv.log"
    return enc, met, clip, log


def stub_templates(enc, met, log, mode="var"):
    return CommandTemplate(
        encoder_template=f"{PY} {enc} {{input}} {{output}} {{qp}} {{k}} {mode} {log}",
        metric_template=f"{PY} {met} {{reference}} {{distorted}} {{report}}",
    )


def make_job(qp=39, k=1.0, work_dir=None, codec=CodecId.AV1, group=FrameTypeGroup.ALL_FRAMES):
    return EncodeJob(
        clip_id="clipA", codec=codec, qp=qp, k=k,
        group=group, scope=LambdaScope.TOP, work_dir=work_dir,
    )


class TestClipManifest:
    def test_load(self, tmp_path):
        clip_file = tmp_path / "a.yuv"
        clip_file.write_bytes(b"x")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([
            {"id": "a", "path": str(clip_file), "width": 1920, "height": 1080,
             "frame_count": 130, "frame_rate": 30000 / 1001, "pix_fmt": "yuv420p"},
        ]))
        clips = load_manifest(manifest)
        assert clips["a"].duration_seconds == pytest.approx(130 * 1001 / 30000)

    def test_entry_without_width_and_height_loads(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([
            {"id": "a", "path": "a.yuv", "frame_count": 50, "frame_rate": 25.0},
        ]))
        assert load_manifest(manifest)["a"].duration_seconds == 2.0

    def test_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ManifestError, match="nope.json"):
            load_manifest(missing)

    def test_bad_json(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text("{not json")
        with pytest.raises(ManifestError, match="JSON"):
            load_manifest(p)

    def test_missing_field(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps([{"id": "a", "path": "x"}]))
        with pytest.raises(ManifestError, match="m.json entry 0: missing field 'frame_count'$"):
            load_manifest(p)

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "m.json"
        entry = {"id": "a", "path": "x", "width": 1, "height": 1,
                 "frame_count": 1, "frame_rate": 1.0}
        p.write_text(json.dumps([entry, entry]))
        with pytest.raises(ManifestError, match="duplicate"):
            load_manifest(p)

    def test_bad_frame_count(self):
        with pytest.raises(ManifestError):
            ClipInfo(id="a", path=Path("x"), frame_count=0, frame_rate=25.0)

    @pytest.mark.parametrize("frame_rate", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_frame_rate(self, tmp_path, frame_rate):
        # json.loads takes these tokens; an encode of such a clip would run
        # both tools and then fail on its bitrate.
        p = tmp_path / "m.json"
        p.write_text(f'[{{"id": "a", "path": "x", "frame_count": 1, "frame_rate": {frame_rate}}}]')
        with pytest.raises(ManifestError, match="frame_rate must be positive and finite"):
            load_manifest(p)

    @pytest.mark.parametrize(
        "frame_count, frame_rate",
        [(2.9, 25.0), (2.0, 25.0), (True, 25.0), ("7", 25.0), (None, 25.0),
         (7, "25"), (7, True), (7, None)],
    )
    def test_numbers_are_not_coerced(self, tmp_path, frame_count, frame_rate):
        # These used to load as int() and float() of the value: 2.9 as 2,
        # true as 1, "25" as 25.0.
        good = {"id": "a", "path": "x", "frame_count": 7, "frame_rate": 25.0}
        bad = {"id": "b", "path": "y", "frame_count": frame_count, "frame_rate": frame_rate}
        p = tmp_path / "m.json"
        p.write_text(json.dumps([good, bad]))
        with pytest.raises(ManifestError, match="m.json entry 1: frame_count must be an integer"):
            load_manifest(p)

    @pytest.mark.parametrize("clip_id", [5, True, None])
    def test_id_is_not_coerced(self, tmp_path, clip_id):
        # These used to load as str() of the value: 5 as clip "5", true as "True".
        good = {"id": "a", "path": "x", "frame_count": 7, "frame_rate": 25.0}
        bad = {"id": clip_id, "path": "y", "frame_count": 7, "frame_rate": 25.0}
        p = tmp_path / "m.json"
        p.write_text(json.dumps([good, bad]))
        with pytest.raises(ManifestError, match="m.json entry 1: .*id must be a string"):
            load_manifest(p)

    @pytest.mark.parametrize("path", [5, None, ["x"]])
    def test_path_is_not_coerced(self, tmp_path, path):
        # These used to end in Python's own text, which does not name the
        # field: "expected str, bytes or os.PathLike object, not int".
        good = {"id": "a", "path": "x", "frame_count": 7, "frame_rate": 25.0}
        bad = {"id": "b", "path": path, "frame_count": 7, "frame_rate": 25.0}
        p = tmp_path / "m.json"
        p.write_text(json.dumps([good, bad]))
        with pytest.raises(ManifestError, match=r"m.json entry 1: path must be a string, got "):
            load_manifest(p)

    def test_integer_frame_rate_loads_as_float(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps([{"id": "a", "path": "x", "frame_count": 50, "frame_rate": 25}]))
        assert repr(load_manifest(p)["a"].frame_rate) == "25.0"

    def test_bytes_that_are_not_utf8_name_the_file(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_bytes(b'[{"id": "\xff"}]')
        with pytest.raises(ManifestError, match="manifest .*m.json is not valid JSON"):
            load_manifest(p)


class TestCommandTemplate:
    def test_valid(self, stub_tools):
        enc, met, _, log = stub_tools
        stub_templates(enc, met, log)

    def test_missing_required(self):
        with pytest.raises(TemplateError, match="required"):
            CommandTemplate("enc {input} {output}", "met {reference} {distorted} {report}")

    def test_duplicate_placeholder(self):
        with pytest.raises(TemplateError, match="more than once"):
            CommandTemplate("enc {input} {output} {qp} {qp}", "met")

    def test_unknown_placeholder(self):
        with pytest.raises(TemplateError, match="unknown placeholder"):
            CommandTemplate("enc {input} {output} {qp} {bitdepth}", "met")

    def test_digest_changes_with_template(self, stub_tools):
        enc, met, _, log = stub_tools
        a = stub_templates(enc, met, log, mode="var")
        b = stub_templates(enc, met, log, mode="fixed")
        assert a.digest() != b.digest()


class TestParseMetricReport:
    def test_extracts_pooled_means(self):
        doc = {"pooled_metrics": {"float_ms_ssim": {"mean": 0.987}, "vmaf": {"mean": 91.0}}}
        msssim, vmaf = parse_metric_report(json.dumps(doc))
        assert msssim == 0.987 and vmaf == 91.0

    def test_vmaf_optional(self):
        doc = {"pooled_metrics": {"float_ms_ssim": {"mean": 0.987}}}
        msssim, vmaf = parse_metric_report(json.dumps(doc))
        assert msssim == 0.987 and vmaf is None

    def test_truncated_document(self):
        with pytest.raises(MetricReportError, match="JSON"):
            parse_metric_report('{"pooled_metrics": {"float_ms_ssim"')

    def test_missing_msssim_names_path(self):
        with pytest.raises(MetricReportError, match="pooled_metrics/float_ms_ssim/mean"):
            parse_metric_report(json.dumps({"pooled_metrics": {}}))


    @pytest.mark.parametrize("mean", ['"0.95"', "true", "null", "[0.95]"])
    def test_msssim_mean_must_be_a_number(self, mean):
        # "0.95" used to load as 0.95 and true as 1.0.
        report = f'{{"pooled_metrics": {{"float_ms_ssim": {{"mean": {mean}}}}}}}'
        with pytest.raises(MetricReportError, match="pooled_metrics/float_ms_ssim/mean"):
            parse_metric_report(report)

    @pytest.mark.parametrize("mean", ['"91"', "true", "{}"])
    def test_vmaf_mean_present_must_be_a_number(self, mean):
        # "91" used to load as 91.0 and true as 1.0.
        report = f'{{"pooled_metrics": {{"float_ms_ssim": {{"mean": 0.98}}, "vmaf": {{"mean": {mean}}}}}}}'
        with pytest.raises(MetricReportError, match="vmaf mean is not a number"):
            parse_metric_report(report)

    def test_null_vmaf_mean_is_none(self):
        doc = {"pooled_metrics": {"float_ms_ssim": {"mean": 0.98}, "vmaf": {"mean": None}}}
        assert parse_metric_report(json.dumps(doc)) == (0.98, None)

    def test_integral_means_load_as_floats(self):
        doc = {"pooled_metrics": {"float_ms_ssim": {"mean": 0.98}, "vmaf": {"mean": 91}}}
        assert repr(parse_metric_report(json.dumps(doc))) == "(0.98, 91.0)"


class TestSyntheticModel:
    def test_k1_rate_exact(self):
        model = SyntheticClipModel()
        for qp in (27, 39, 63):
            point = synth_encode(model, qp, 1.0)
            assert point.bitrate_kbps == model.r0 * math.exp(-model.b * qp)

    def test_k1_quality_exact(self):
        model = SyntheticClipModel()
        for qp in (27, 39, 63):
            point = synth_encode(model, qp, 1.0)
            assert point.msssim_db == pytest.approx(model.s0 - model.a * qp, abs=1e-12)

    def test_rate_decreasing_in_qp_and_k(self):
        model = SyntheticClipModel()
        rates_qp = [synth_encode(model, qp, 1.5).bitrate_kbps for qp in (27, 39, 49, 59, 63)]
        assert all(b < a for a, b in zip(rates_qp, rates_qp[1:]))
        rates_k = [synth_encode(model, 39, k).bitrate_kbps for k in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(b < a for a, b in zip(rates_k, rates_k[1:]))

    def test_quality_concave_peak_at_k_star(self):
        model = SyntheticClipModel()
        import numpy as np

        ln_ks = np.linspace(math.log(0.5), math.log(8.0), 301)
        dbs = np.array([synth_encode(model, 39, math.exp(v)).msssim_db for v in ln_ks])
        assert abs(math.exp(ln_ks[int(np.argmax(dbs))]) - model.k_star) < 0.05
        second_diff = np.diff(dbs, 2)
        assert np.max(second_diff) < 1e-9  # concave in ln k

    def test_quality_underflow_raises(self):
        with pytest.raises(DomainError, match="underflow"):
            synth_encode(SyntheticClipModel(), 63, 1.0 / 16.0)

    def test_qp_range(self):
        with pytest.raises(QpRangeError):
            synth_encode(SyntheticClipModel(), 64, 1.0)

    def test_bad_k(self):
        with pytest.raises(DomainError):
            synth_encode(SyntheticClipModel(), 39, 0.0)

    def test_noise_reproducible(self):
        noisy = SyntheticClipModel(noise_seed=42)
        a = synth_encode(noisy, 39, 1.3)
        b = synth_encode(noisy, 39, 1.3)
        assert a == b
        other_seed = synth_encode(SyntheticClipModel(noise_seed=43), 39, 1.3)
        assert other_seed != a
        clean = synth_encode(SyntheticClipModel(), 39, 1.3)
        assert clean != a

    def test_matches_oracle_surfaces(self):
        model = SyntheticClipModel()
        arrays = oracles.synth_arrays(1.7)
        curve_points = sorted(
            (synth_encode(model, qp, 1.7) for qp in oracles.AV1_LADDER),
            key=lambda p: p.msssim_db,
        )
        for point, db, log_rate in zip(curve_points, arrays[0], arrays[1]):
            assert point.msssim_db == pytest.approx(db, rel=1e-12)
            assert math.log10(point.bitrate_kbps) == pytest.approx(log_rate, rel=1e-12)

    def test_vmaf_clamped(self):
        assert 0.0 <= synth_encode(SyntheticClipModel(), 63, 1.0).vmaf <= 100.0
        assert synth_encode(SyntheticClipModel(s0=40.0), 0, 2.5).vmaf == 100.0

    @pytest.mark.parametrize("kwargs", [dict(beta=1.0), dict(r0=0.0), dict(gamma=-1.0), dict(c=0.0)])
    def test_model_validation(self, kwargs):
        with pytest.raises(DomainError):
            SyntheticClipModel(**kwargs)

    def test_from_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"k_star": 1.8, "c": 2.0}))
        model = SyntheticClipModel.from_file(path)
        assert model.k_star == 1.8 and model.c == 2.0 and model.r0 == 30000.0

    def test_from_file_unknown_field(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"curvature": 2.0}))
        with pytest.raises(ManifestError, match="unknown fields"):
            SyntheticClipModel.from_file(path)

    @pytest.mark.parametrize(
        "doc",
        ["5", "[1.0]", "null", '{"r0": "abc"}', '{"k_star": null}', '{"c": true}', '{"noise_seed": [1]}',
         '{"noise_seed": 1.0}', '{"noise_seed": true}'],
    )
    def test_from_file_not_an_object_of_numbers(self, tmp_path, doc):
        path = tmp_path / "model.json"
        path.write_text(doc)
        with pytest.raises(ManifestError, match="model file"):
            SyntheticClipModel.from_file(path)

    @pytest.mark.parametrize("doc", ['{"r0": -1}', '{"k_star": NaN}', '{"beta": 1.5}'])
    def test_from_file_out_of_range_number(self, tmp_path, doc):
        path = tmp_path / "model.json"
        path.write_text(doc)
        with pytest.raises(DomainError):
            SyntheticClipModel.from_file(path)

    def test_digest_distinguishes_models(self):
        assert SyntheticClipModel().digest() != SyntheticClipModel(k_star=2.51).digest()


class TestEncodeMeasure:
    def test_fixed_size_bitrate_arithmetic(self, stub_tools, tmp_path):
        enc, met, clip, log = stub_tools
        templates = stub_templates(enc, met, log, mode="fixed")
        job = make_job(qp=39, work_dir=tmp_path / "w")
        point = encode_measure(job, templates, clip)
        # 65536 bytes over 130 frames at 25 fps: 65536*8 / 5.2 s / 1000.
        assert point.bitrate_kbps == pytest.approx(65536 * 8 / 5.2 / 1000.0, rel=1e-12)

    def test_db_conversion_from_report(self, stub_tools, tmp_path):
        enc, met, clip, log = stub_tools
        templates = stub_templates(enc, met, log)
        point = encode_measure(make_job(qp=3, work_dir=tmp_path / "w"), templates, clip)
        # Stub emits msssim 0.999 - 0.003*3 = 0.99 at qp 3.
        assert point.msssim == pytest.approx(0.99, abs=1e-12)
        assert point.msssim_db == pytest.approx(20.0, abs=1e-9)

    def test_deterministic(self, stub_tools, tmp_path):
        enc, met, clip, log = stub_tools
        templates = stub_templates(enc, met, log)
        job = make_job(qp=39, work_dir=tmp_path / "w")
        a = encode_measure(job, templates, clip)
        b = encode_measure(job, templates, clip)
        assert a == b

    def test_k_flag_forwarded(self, stub_tools, tmp_path):
        enc, met, clip, log = stub_tools
        templates = stub_templates(enc, met, log)
        encode_measure(make_job(qp=39, k=3.79, work_dir=tmp_path / "w"), templates, clip)
        assert "3.790000" in log.read_text()

    def test_outputs_removed_by_default(self, stub_tools, tmp_path):
        enc, met, clip, log = stub_tools
        templates = stub_templates(enc, met, log)
        encode_measure(make_job(work_dir=tmp_path / "w"), templates, clip)
        assert list((tmp_path / "w").iterdir()) == []

    def test_each_encode_gets_its_own_removed_directory(self, stub_tools, tmp_path):
        enc, met, clip, log = stub_tools
        templates = stub_templates(enc, met, log)
        job = make_job(work_dir=tmp_path / "w")
        encode_measure(job, templates, clip)
        encode_measure(job, templates, clip)
        dirs = [Path(line.split()[1]).parent for line in log.read_text().splitlines()]
        assert len(dirs) == 2 and dirs[0] != dirs[1]
        for d in dirs:
            assert d.parent == tmp_path / "w"
            assert not d.exists()

    def test_non_utf8_output_of_a_working_encoder(self, stub_tools, tmp_path):
        enc, met, clip, log = stub_tools
        noisy = tmp_path / "noisy_encoder.py"
        noisy.write_text(NON_UTF8_ENCODER_STUB)
        point = encode_measure(make_job(qp=3), stub_templates(noisy, met, log), clip)
        assert point.msssim == pytest.approx(0.99, abs=1e-12)

    def test_non_utf8_stderr_of_a_failing_encoder(self, stub_tools, tmp_path):
        enc, met, clip, log = stub_tools
        bad = tmp_path / "bad_encoder.py"
        bad.write_text(FAILING_NON_UTF8_ENCODER_STUB)
        with pytest.raises(EncodeFailure) as info:
            encode_measure(make_job(), stub_templates(bad, met, log), clip)
        assert "crash at \ufffd\ufffd" in info.value.captured_output

    def test_placeholder_text_in_a_value_stays_literal(self, stub_tools, tmp_path):
        enc, met, clip, log = stub_tools
        path = tmp_path / "{qp}" / "clip.yuv"
        path.parent.mkdir()
        path.write_bytes(clip.path.read_bytes())
        encode_measure(make_job(qp=39), stub_templates(enc, met, log), replace(clip, path=path))
        assert log.read_text().split()[0] == str(path)

    def test_encoder_failure_captured(self, stub_tools, tmp_path):
        enc, met, clip, log = stub_tools
        bad = tmp_path / "bad_encoder.py"
        bad.write_text(FAILING_ENCODER_STUB)
        templates = CommandTemplate(
            encoder_template=f"{PY} {bad} {{input}} {{output}} {{qp}} {{k}} var {log}",
            metric_template=f"{PY} {met} {{reference}} {{distorted}} {{report}}",
        )
        with pytest.raises(EncodeFailure) as info:
            encode_measure(make_job(work_dir=tmp_path / "w"), templates, clip)
        assert "status 3" in str(info.value)
        assert "simulated encoder crash" in info.value.captured_output

    def test_nan_vmaf_fails_the_encode_without_a_retry(self, stub_tools, tmp_path):
        enc, _, clip, log = stub_tools
        met = tmp_path / "nan_metric.py"
        met.write_text(NAN_VMAF_METRIC_STUB)
        templates = stub_templates(enc, met, log)
        with pytest.raises(CurveDataError, match="vmaf must be finite"):
            encode_measure(make_job(work_dir=tmp_path / "w"), templates, clip)
        config = SweepConfig(codec=CodecId.AV1, qp_ladder=(39,), cache_dir=tmp_path / "cache")
        log.write_text("")
        with pytest.raises(SweepError, match="vmaf must be finite"):
            run_sweep(clip.id, 1.0, config, ExternalEncoder(templates, {clip.id: clip}))
        assert len(log.read_text().splitlines()) == 1
        [record] = RunLedger.load(tmp_path / "cache" / "ledger.jsonl")
        assert (record["status"], record["error"], record["qp"]) == ("failed", "CurveDataError", 39)
        assert "vmaf must be finite" in record["message"]

    @pytest.mark.parametrize("tool, stub", [("encoder", FAILING_ENCODER_STUB),
                                            ("encoder", "pass\n"), ("metric", "pass\n")],
                             ids=["encoder_fails", "no_output", "no_report"])
    def test_failure_message_is_the_same_on_every_run(self, stub_tools, tmp_path, tool, stub):
        # Each encode's temporary directory is named anew, and a replayed
        # MetricReportError would name one that no longer exists.
        enc, met, clip, log = stub_tools
        bad = tmp_path / "bad_tool.py"
        bad.write_text(stub)
        templates = stub_templates(bad, met, log) if tool == "encoder" else stub_templates(enc, bad, log)
        messages = []
        for cache in ("cache_a", "cache_b"):
            config = SweepConfig(codec=CodecId.AV1, qp_ladder=(27, 39), workers=2,
                                 cache_dir=tmp_path / cache)
            with pytest.raises(SweepError):
                run_sweep(clip.id, 1.0, config, ExternalEncoder(templates, {clip.id: clip}))
            records = RunLedger.load(tmp_path / cache / "ledger.jsonl")
            messages.append(sorted(r["message"] for r in records))
        assert messages[0] == messages[1]
        assert len(messages[0]) == 2
        assert all("<scratch>" in m and "work/tmp" not in m for m in messages[0])

    def test_missing_input_clip(self, stub_tools, tmp_path):
        enc, met, clip, log = stub_tools
        templates = stub_templates(enc, met, log)
        ghost = ClipInfo(id="ghost", path=tmp_path / "ghost.yuv",
                         frame_count=130, frame_rate=25.0)
        with pytest.raises(EncodeFailure, match="ghost.yuv"):
            encode_measure(make_job(work_dir=tmp_path / "w"), templates, ghost)


class TestBackends:
    def test_synthetic_counts_invocations(self):
        backend = SyntheticEncoder({"clipA": SyntheticClipModel()})
        backend.measure(make_job(qp=39, k=1.5))
        backend.measure(make_job(qp=49, k=1.5))
        assert backend.invocations == 2

    def test_synthetic_digests(self):
        model = SyntheticClipModel()
        backend = SyntheticEncoder({"x": model, "y": model, "z": SyntheticClipModel(k_star=1.1)})
        (tx, cx), (ty, cy), (tz, _) = map(backend.digests, "xyz")
        assert tx == ty != tz
        assert cx != cy
        # The one-model form is the one-entry mapping; the cache keys of both
        # are those of the backend that served one model for any clip id.
        pinned = ("synthetic:" + model.digest(),
                  hashlib.sha256(f"x:{model.digest()}".encode()).hexdigest())
        assert SyntheticEncoder(model, "x").digests("x") == (tx, cx) == pinned

    def test_external_clip_digest_tracks_content(self, stub_tools):
        enc, met, clip, log = stub_tools
        backend = ExternalEncoder(stub_templates(enc, met, log), {clip.id: clip})
        template_digest, first = backend.digests("clipA")
        assert template_digest == backend.templates.digest()
        assert first == backend.digests("clipA")[1]
        backend2 = ExternalEncoder(stub_templates(enc, met, log), {clip.id: clip})
        clip.path.write_bytes(b"\x20" * 4096)
        assert backend2.digests("clipA")[1] != first

    def test_external_clip_digest_tracks_duration_fields(self, stub_tools):
        enc, met, clip, log = stub_tools
        first = ExternalEncoder(stub_templates(enc, met, log), {clip.id: clip}).digests("clipA")
        for changed in (replace(clip, frame_rate=50.0), replace(clip, frame_count=260)):
            backend = ExternalEncoder(stub_templates(enc, met, log), {clip.id: changed})
            assert backend.digests("clipA")[1] != first[1]

    def test_changed_frame_rate_re_encodes(self, stub_tools, tmp_path):
        # The bitrate is computed from the manifest's duration, so a cached
        # point measured at another frame rate must not be served.
        enc, met, clip, log = stub_tools
        config = SweepConfig(codec=CodecId.AV1, qp_ladder=(27, 39), workers=2,
                             cache_dir=tmp_path / "cache")

        def sweep_at(info):
            log.write_text("")
            backend = ExternalEncoder(stub_templates(enc, met, log), {info.id: info})
            return run_sweep(info.id, 1.0, config, backend), len(log.read_text().splitlines())

        at_25, encodes = sweep_at(clip)
        assert encodes == 2
        assert sweep_at(clip) == (at_25, 0)
        at_50, encodes = sweep_at(replace(clip, frame_rate=50.0))
        assert encodes == 2
        for slow, fast in zip(at_25.points, at_50.points):
            assert fast.bitrate_kbps == pytest.approx(2.0 * slow.bitrate_kbps, rel=1e-12)

    def test_external_sweep_leaves_only_the_ledger(self, stub_tools, tmp_path):
        enc, met, clip, log = stub_tools
        cache = tmp_path / "cache"
        config = SweepConfig(codec=CodecId.AV1, qp_ladder=(27, 39), workers=2, cache_dir=cache)
        backend = ExternalEncoder(stub_templates(enc, met, log), {clip.id: clip})
        run_sweep(clip.id, 1.5, config, backend)
        assert sorted(p.name for p in cache.iterdir()) == ["ledger.jsonl", "work"]
        assert list((cache / "work").iterdir()) == []

    @pytest.mark.parametrize("clip_id", ["set1/clipA", "../../../clipB"])
    def test_clip_id_never_names_a_path(self, stub_tools, tmp_path, clip_id):
        enc, met, clip, log = stub_tools
        cache = tmp_path / "cache"
        config = SweepConfig(codec=CodecId.AV1, qp_ladder=(27, 39), workers=2, cache_dir=cache)
        backend = ExternalEncoder(stub_templates(enc, met, log), {clip_id: replace(clip, id=clip_id)})
        curve = run_sweep(clip_id, 1.0, config, backend)
        assert sorted(curve.qps) == [27, 39]
        outputs = [Path(line.split()[1]) for line in log.read_text().splitlines()]
        assert len(outputs) == 2
        for output in outputs:
            assert output.resolve().is_relative_to((cache / "work").resolve())

    @pytest.mark.parametrize("backend", [
        lambda enc, met, clip, log: SyntheticEncoder({clip.id: SyntheticClipModel()}),
        lambda enc, met, clip, log: ExternalEncoder(stub_templates(enc, met, log), {clip.id: clip}),
    ], ids=["synthetic", "external"])
    def test_unknown_clip(self, stub_tools, tmp_path, backend):
        cache = tmp_path / "cache"
        config = SweepConfig(codec=CodecId.AV1, qp_ladder=(27, 39), workers=2, cache_dir=cache)
        with pytest.raises(ManifestError, match="'nope'"):
            run_sweep("nope", 1.0, config, backend(*stub_tools))
        assert (cache / "ledger.jsonl").read_bytes() == b""


class TestEncodeJob:
    def test_qp_validated(self):
        with pytest.raises(QpRangeError):
            make_job(qp=64)

    @pytest.mark.parametrize("qp", [27.5, 27.0, "27", True])
    def test_qp_must_be_an_int(self, qp):
        with pytest.raises(QpRangeError, match=f"qp {qp!r} is not an integer"):
            make_job(qp=qp)

    def test_group_codec_checked(self):
        with pytest.raises(DomainError):
            make_job(codec=CodecId.HEVC, group=FrameTypeGroup.KF)

    def test_positive_k(self):
        for k in (-1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                make_job(k=k)
