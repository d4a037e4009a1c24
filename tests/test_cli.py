import json

import pytest

from rdtune.cli import cli_dispatch
from rdtune.encoder_bridge import CommandTemplate, ExternalEncoder, load_manifest
from rdtune.lambda_model import CodecId, FrameTypeGroup, LambdaScope
from rdtune.rd_curve import RDCurve, RDPoint
from rdtune.sweep import SweepConfig, load_result, optimize_clip

import oracles
from test_encoder_bridge import ENCODER_STUB, METRIC_STUB, PY


def write_curve(path, rates_scale=1.0, k=1.0):
    points = [
        {"qp": q, "bitrate_kbps": r * rates_scale, "msssim_db": d}
        for q, r, d in [
            (63, 300.0, 10.0), (59, 600.0, 12.0), (49, 1500.0, 15.0),
            (39, 4000.0, 18.0), (27, 11000.0, 22.0),
        ]
    ]
    curve = RDCurve(
        clip_id="fixture",
        codec=CodecId.AV1,
        k=k,
        group=FrameTypeGroup.ALL_FRAMES,
        scope=LambdaScope.TOP,
        points=tuple(RDPoint.from_db(bitrate_kbps=p["bitrate_kbps"], qp=p["qp"], msssim_db=p["msssim_db"]) for p in points),
    )
    path.write_text(json.dumps(curve.to_dict()))
    return curve


class TestBdrateCommand:
    def test_identical_files_print_zero(self, tmp_path, capsys):
        ref = tmp_path / "ref.json"
        write_curve(ref)
        status = cli_dispatch(["bdrate", str(ref), str(ref)])
        assert status == 0
        assert capsys.readouterr().out.strip() == "0.00%"

    def test_inflated_curve(self, tmp_path, capsys):
        ref, test = tmp_path / "ref.json", tmp_path / "test.json"
        write_curve(ref)
        write_curve(test, rates_scale=1.10, k=2.0)
        assert cli_dispatch(["bdrate", str(ref), str(test)]) == 0
        assert capsys.readouterr().out.strip() == "10.00%"

    def test_malformed_curve_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        ref = tmp_path / "ref.json"
        write_curve(ref)
        assert cli_dispatch(["bdrate", str(ref), str(bad)]) == 1
        assert "bad.json" in capsys.readouterr().err


class TestOptimizeCommand:
    def test_synthetic_default_matches_oracle(self, tmp_path):
        out = tmp_path / "result.json"
        status = cli_dispatch([
            "optimize", "--synthetic", "default", "--codec", "AV1",
            "--group", "KF_GF_ARF", "--cache-dir", str(tmp_path / "cache"),
            "--out", str(out),
        ])
        assert status == 0
        result = load_result(out)
        assert abs(result.k_hat - oracles.GRID_ARGMIN_K) <= 0.15
        assert result.bd_rate < 0.0
        assert result.group is FrameTypeGroup.KF_GF_ARF

    def test_model_file(self, tmp_path):
        model = tmp_path / "clipmodel.json"
        model.write_text(json.dumps({"k_star": 1.6}))
        out = tmp_path / "result.json"
        assert cli_dispatch(["optimize", "--synthetic", str(model), "--out", str(out)]) == 0
        assert load_result(out).clip_id == "clipmodel"

    @pytest.mark.parametrize("doc", ["5", '{"r0": "abc"}', '{"k_star": null}'])
    def test_model_file_not_an_object_of_numbers_is_one_error_line(self, tmp_path, capsys, doc):
        model = tmp_path / "m.json"
        model.write_text(doc)
        out = tmp_path / "result.json"
        assert cli_dispatch(["optimize", "--synthetic", str(model), "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: optimize: model file ")

    # An integer beyond the float range is no number: float() of it would
    # raise OverflowError, which ended the command in a traceback.
    BEYOND_FLOAT_RANGE = "1" + "0" * 400

    def test_model_number_beyond_float_range_is_one_error_line(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        model.write_text('{"r0": %s}' % self.BEYOND_FLOAT_RANGE)
        assert cli_dispatch(["optimize", "--synthetic", str(model)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: optimize: model file ") and "field r0" in captured.err

    @pytest.mark.parametrize("option, doc", [
        ("--synthetic", '{"r0": %s}' % BEYOND_FLOAT_RANGE),
        ("--manifest", '[{"id": %s, "path": "a.yuv", "frame_count": 10, "frame_rate": 25}]'
         % BEYOND_FLOAT_RANGE),
        ("--manifest", '[{"id": "a", "path": "a.yuv", "frame_count": 10, "frame_rate": %s}]'
         % BEYOND_FLOAT_RANGE),
    ], ids=["model-r0", "manifest-id", "manifest-frame_rate"])
    def test_number_beyond_float_range_is_cut_short_in_the_error(self, tmp_path, capsys, option, doc):
        path = tmp_path / "input.json"
        path.write_text(doc)
        assert cli_dispatch(["optimize", option, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: optimize: ")
        assert "1" + "0" * 39 + "..." in err and "0" * 40 not in err
        assert len(err) < len(str(path)) + 150

    def test_manifest_frame_rate_beyond_float_range_is_one_error_line(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text('[{"id": "a", "path": "a.yuv", "frame_count": 10, "frame_rate": %s}]'
                            % self.BEYOND_FLOAT_RANGE)
        assert cli_dispatch(["optimize", "--manifest", str(manifest)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: optimize: manifest {manifest} entry 0: ")

    def test_manifest_field_error_is_plain_text(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text('[{"id": 5, "path": "a.yuv", "frame_count": 10, "frame_rate": 25}]')
        assert cli_dispatch(["optimize", "--manifest", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "id must be a string, got 5" in err and "CurveDataError(" not in err

    def test_stdout_output(self, tmp_path, capsys):
        assert cli_dispatch([
            "optimize", "--synthetic", "default", "--cache-dir", str(tmp_path / "c"),
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["improved"] is True


class TestSweepCommand:
    def test_missing_manifest_names_path(self, tmp_path, capsys):
        missing = tmp_path / "missing_manifest.json"
        status = cli_dispatch(["sweep", "--manifest", str(missing),
                               "--encoder-template", "enc {input} {output} {qp}",
                               "--metric-template", "met {reference} {distorted} {report}"])
        assert status == 1
        assert "missing_manifest.json" in capsys.readouterr().err

    def test_requires_backend(self, capsys):
        assert cli_dispatch(["sweep"]) == 1
        assert "--synthetic or --manifest" in capsys.readouterr().err

    def test_synthetic_sweep_writes_curve(self, tmp_path):
        out = tmp_path / "curve.json"
        status = cli_dispatch([
            "sweep", "--synthetic", "default", "--k", "2.0", "--out", str(out),
        ])
        assert status == 0
        doc = json.loads(out.read_text())
        assert doc["k"] == 2.0
        assert len(doc["points"]) == 5

    def test_qps_override(self, tmp_path):
        out = tmp_path / "curve.json"
        assert cli_dispatch([
            "sweep", "--synthetic", "default", "--qps", "30,40,50", "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert sorted(p["qp"] for p in doc["points"]) == [30, 40, 50]

    @pytest.mark.parametrize(
        "k_args",
        [pytest.param([f"--k={k}"], id=k) for k in ("inf", "nan", "-inf")]
        + [pytest.param(["--k", k], id=f"spaced{k}") for k in ("inf", "nan", "-inf")],
    )
    def test_non_finite_k_is_one_error_line(self, tmp_path, capsys, k_args):
        # The space-separated `--k -inf` is a value too, not an unknown option.
        status = cli_dispatch([
            "sweep", "--synthetic", "default", *k_args, "--out", str(tmp_path / "c.json"),
        ])
        assert status == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("\n") == 1 and err.startswith("error: sweep: ")
        assert "finite" in err


class TestPerClipOutput:
    TEMPLATES = ["--encoder-template", "enc {input} {output} {qp}",
                 "--metric-template", "met {reference} {distorted} {report}"]

    @pytest.mark.parametrize("command, verb", [("sweep", "sweeping"), ("optimize", "optimizing")])
    def test_out_file_with_two_clips_is_an_error(self, tmp_path, capsys, command, verb):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([
            {"id": c, "path": str(tmp_path / f"{c}.yuv"), "width": 64, "height": 64,
             "frame_count": 25, "frame_rate": 25.0}
            for c in ("a", "b")
        ]))
        out = tmp_path / "result.json"
        argv = [command, "--manifest", str(manifest), *self.TEMPLATES, "--out", str(out)]
        status = cli_dispatch(argv)
        assert status == 1
        err = capsys.readouterr().err
        assert err == f"error: {command}: --out must be a directory when {verb} multiple clips\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["sweep", "--k", "2"], "synthetic_k2.000000.json"),
            (["optimize", "--group", "KF_GF_ARF"], "synthetic_AV1_Top_KF_GF_ARF.json"),
        ],
        ids=["sweep", "optimize"],
    )
    def test_out_dir_names_the_file_per_clip(self, tmp_path, capsys, argv, name):
        out = tmp_path / "out"
        assert cli_dispatch([*argv, "--synthetic", "default", "--out", str(out)]) == 0
        assert [p.name for p in out.iterdir()] == [name]
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv, suffix",
        [(["sweep", "--k", "2"], "_k2.000000.json"), (["optimize"], "_AV1_Top_AllFrames.json")],
        ids=["sweep", "optimize"],
    )
    @pytest.mark.parametrize("clip_id, name", [("set1/clipA", "set1%2FclipA"), ("../x", "..%2Fx")])
    def test_clip_id_is_percent_encoded_in_the_file_name(
        self, tmp_path, capsys, argv, suffix, clip_id, name
    ):
        out = tmp_path / "out"
        argv = [*argv, "--synthetic", "default", "--clip", clip_id, "--out", str(out)]
        assert cli_dispatch(argv) == 0
        assert [p.name for p in out.iterdir()] == [name + suffix]
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert capsys.readouterr().err == ""


class TestOptimizeManifest:
    """`rdtune optimize` over a manifest, with the stub tools of
    test_encoder_bridge as encoder and metric tool."""

    QPS = (27, 39, 49, 59)

    @pytest.fixture
    def run(self, tmp_path):
        enc, met, log = tmp_path / "enc.py", tmp_path / "met.py", tmp_path / "argv.log"
        enc.write_text(ENCODER_STUB)
        met.write_text(METRIC_STUB)
        # -S -I: the stubs need no site packages, and start faster without.
        templates = [
            "--encoder-template", f"{PY} -S -I {enc} {{input}} {{output}} {{qp}} {{k}} var {log}",
            "--metric-template", f"{PY} -S -I {met} {{reference}} {{distorted}} {{report}}",
        ]

        def run(clips, *argv):
            """Write a manifest of `clips` (id -> content bytes, or None for
            a missing file) and run optimize over it; returns the exit
            status, the manifest path, the encodes logged so far and the
            template options."""
            entries = []
            for clip_id, content in clips.items():
                path = tmp_path / f"{clip_id}.yuv"
                if content is not None:
                    path.write_bytes(content)
                entries.append({"id": clip_id, "path": str(path), "width": 64, "height": 64,
                                "frame_count": 25, "frame_rate": 25.0})
            manifest = tmp_path / "manifest.json"
            manifest.write_text(json.dumps(entries))
            status = cli_dispatch([
                "optimize", "--manifest", str(manifest), *templates, "--workers", "2",
                "--qps", ",".join(map(str, self.QPS)), *argv,
            ])
            encodes = len(log.read_text().splitlines()) if log.exists() else 0
            return status, manifest, encodes, templates

        return run

    def test_documents_do_not_depend_on_timing(self, run, tmp_path, capsys):
        clips = {c: bytes([i]) * 512 for i, c in enumerate(("a", "b", "c"))}
        cache = tmp_path / "cache"
        status, manifest, _, templates = run(clips, "--cache-dir", str(cache))
        assert status == 0
        printed = capsys.readouterr().out

        # The documents of optimize_clip called clip by clip, cold, then warm.
        backend = ExternalEncoder(CommandTemplate(templates[1], templates[3]), load_manifest(manifest))
        config = SweepConfig(codec=CodecId.AV1, qp_ladder=self.QPS, workers=2,
                             cache_dir=tmp_path / "alone")

        def alone():
            return [json.dumps(optimize_clip(c, config, backend).to_dict(), indent=2,
                               sort_keys=True) + "\n" for c in clips]

        assert printed == "".join(alone())
        warm = alone()

        # A warm re-run encodes nothing and writes the same bytes.
        out = tmp_path / "out"
        encodes = len((tmp_path / "argv.log").read_text().splitlines())
        status, _, total, _ = run(clips, "--cache-dir", str(cache), "--out", str(out))
        assert (status, total) == (0, encodes)
        assert sorted(p.name for p in out.iterdir()) == [f"{c}_AV1_Top_AllFrames.json" for c in clips]
        assert [(out / f"{c}_AV1_Top_AllFrames.json").read_text() for c in clips] == warm

    def test_short_ladder_is_one_error_line_and_no_encode(self, run, tmp_path, capsys):
        out = tmp_path / "out"
        status, _, encodes, _ = run({"a": b"\x01" * 512}, "--qps", "27,39,49", "--out", str(out))
        assert (status, encodes) == (1, 0)
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: optimize: ")
        assert "at least 4" in err

    def test_clips_before_a_failed_clip_are_written(self, run, tmp_path, capsys):
        out = tmp_path / "out"
        status, _, _, _ = run({"slow": b"\x01" * 512, "bad": None}, "--out", str(out))
        assert status == 1
        assert [p.name for p in out.iterdir()] == ["slow_AV1_Top_AllFrames.json"]
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: optimize: ")


class TestReportCommand:
    @pytest.fixture
    def results(self, tmp_path):
        paths = []
        for i, group in enumerate(("KF_GF_ARF", "KF")):
            out = tmp_path / f"r{i}.json"
            assert cli_dispatch([
                "optimize", "--synthetic", "default", "--group", group,
                "--cache-dir", str(tmp_path / f"cache{i}"), "--out", str(out),
            ]) == 0
            paths.append(out)
        return paths

    def test_text_report_deterministic(self, results, tmp_path, capsys):
        args = ["report"] + [str(p) for p in results]
        assert cli_dispatch(args) == 0
        first = capsys.readouterr().out
        assert cli_dispatch(args) == 0
        assert capsys.readouterr().out == first
        assert "KF_GF_ARF" in first

    def test_csv_format(self, results, capsys):
        assert cli_dispatch(["report", "--format", "csv"] + [str(p) for p in results]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("codec,scope,group")

    def test_out_file(self, results, tmp_path):
        out = tmp_path / "summary.txt"
        assert cli_dispatch(["report", "--out", str(out)] + [str(p) for p in results]) == 0
        assert "Avg BDR(%)" in out.read_text()

    def test_result_without_stop_reason(self, results, capsys):
        # Result files written before stop_reason existed still report.
        args = ["report"] + [str(p) for p in results]
        assert cli_dispatch(args) == 0
        current = capsys.readouterr().out
        for path in results:
            doc = json.loads(path.read_text())
            del doc["stop_reason"]
            path.write_text(json.dumps(doc))
        assert cli_dispatch(args) == 0
        assert capsys.readouterr().out == current


class TestPlotCommand:
    def test_writes_svg(self, tmp_path):
        ref, test = tmp_path / "ref.json", tmp_path / "test.json"
        write_curve(ref)
        write_curve(test, rates_scale=0.7, k=2.5)
        out = tmp_path / "plot.svg"
        assert cli_dispatch(["plot", str(ref), str(test), "--out", str(out)]) == 0
        svg = out.read_text()
        assert svg.count('class="legend-entry"') == 2

    def test_requires_out(self, tmp_path, capsys):
        ref = tmp_path / "ref.json"
        write_curve(ref)
        assert cli_dispatch(["plot", str(ref)]) == 1
        assert "--out" in capsys.readouterr().err


class TestMalformedInputFile:
    # A file that parses as JSON but is no curve or result document.
    SHAPES = {
        "array": lambda doc: [],
        "points_not_a_list": lambda doc: {**doc, "points": 5},
        "qp_true": lambda doc: {**doc, "points": [{**doc["points"][0], "qp": True},
                                                  *doc["points"][1:]]},
    }

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("command", ["bdrate", "plot", "report"])
    def test_is_one_error_line_naming_the_file(self, tmp_path, capsys, command, shape):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        if command == "report":
            assert cli_dispatch(["optimize", "--synthetic", "default", "--out", str(good)]) == 0
            doc = json.loads(good.read_text())
            doc["reference_curve"] = self.SHAPES[shape](doc["reference_curve"])
            bad.write_text(json.dumps([] if shape == "array" else doc))
        else:
            write_curve(good)
            bad.write_text(json.dumps(self.SHAPES[shape](json.loads(good.read_text()))))
        argv = {
            "bdrate": ["bdrate", str(good), str(bad)],
            "plot": ["plot", str(good), str(bad), "--out", str(tmp_path / "plot.svg")],
            "report": ["report", str(good), str(bad)],
        }[command]
        capsys.readouterr()
        assert cli_dispatch(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "plot.svg").exists()
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {command}: ") and str(bad) in captured.err


def _set(path, value):
    """A function setting doc[path[0]][path[1]]... to value in a copy of doc."""
    def apply(doc):
        doc = json.loads(json.dumps(doc))
        *outer, last = path
        target = doc
        for key in outer:
            target = target[key]
        target[last] = value
        return doc
    return apply


class TestFieldTypesAreNotCoerced:
    # Each of these used to load coerced (true as k 1.0, 5 as clip "5", 2.9
    # iterations as 2) or, for a codec that is not a string, to end in an
    # AttributeError traceback.
    CURVE = {
        "k_true": _set(["k"], True),
        "k_string": _set(["k"], "2"),
        "clip_id_number": _set(["clip_id"], 5),
        "codec_number": _set(["codec"], 5),
        "scope_null": _set(["scope"], None),
        "k_nan": _set(["k"], float("nan")),
        "k_beyond_float_range": _set(["k"], 10**400),
    }
    RESULT = {
        "iterations_fraction": _set(["iterations"], 2.9),
        "total_invocations_true": _set(["total_invocations"], True),
        "k_hat_true": _set(["k_hat"], True),
        "bd_rate_string": _set(["bd_rate"], "-37.8"),
        "improved_number": _set(["improved"], 1),
        "stop_reason_null": _set(["stop_reason"], None),
        "vmaf_change_string": _set(["vmaf_change"], "0.5"),
        "trial_cost_true": _set(["trials", 1, "cost"], True),
        "trial_invocations_fraction": _set(["trials", 1, "encoder_invocations"], 4.5),
        "trial_k_string": _set(["trials", 1, "k"], "0.5"),
        "bd_rate_nan": _set(["bd_rate"], float("nan")),
        "k_hat_infinity": _set(["k_hat"], float("inf")),
    }

    @staticmethod
    def run(tmp_path, capsys, command, good, bad):
        argv = {
            "bdrate": ["bdrate", str(good), str(bad)],
            "plot": ["plot", str(good), str(bad), "--out", str(tmp_path / "plot.svg")],
            "report": ["report", str(good), str(bad)],
        }[command]
        capsys.readouterr()
        assert cli_dispatch(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "plot.svg").exists()
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {command}: ") and str(bad) in captured.err

    def optimized(self, tmp_path):
        good = tmp_path / "good.json"
        assert cli_dispatch(["optimize", "--synthetic", "default", "--out", str(good)]) == 0
        return good, json.loads(good.read_text())

    @pytest.mark.parametrize("shape", CURVE)
    @pytest.mark.parametrize("command", ["bdrate", "plot", "report"])
    def test_curve_field(self, tmp_path, capsys, command, shape):
        bad = tmp_path / "bad.json"
        if command == "report":
            good, doc = self.optimized(tmp_path)
            doc["reference_curve"] = self.CURVE[shape](doc["reference_curve"])
        else:
            good = tmp_path / "good.json"
            write_curve(good)
            doc = self.CURVE[shape](json.loads(good.read_text()))
        bad.write_text(json.dumps(doc))
        self.run(tmp_path, capsys, command, good, bad)

    @pytest.mark.parametrize("shape", RESULT)
    def test_result_field(self, tmp_path, capsys, shape):
        good, doc = self.optimized(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(self.RESULT[shape](doc)))
        self.run(tmp_path, capsys, "report", good, bad)

    def test_result_without_stop_reason_loads_as_unknown(self, tmp_path):
        good, doc = self.optimized(tmp_path)
        del doc["stop_reason"]
        good.write_text(json.dumps(doc))
        assert load_result(good).stop_reason == "unknown"


class TestUsageErrors:
    def test_unknown_subcommand_distinct_exit(self, capsys):
        assert cli_dispatch(["frobnicate"]) == 2

    def test_unknown_flag(self, capsys):
        assert cli_dispatch(["bdrate", "--no-such-flag", "a", "b"]) == 2

    def test_bad_codec_value(self, capsys):
        assert cli_dispatch(["sweep", "--synthetic", "default", "--codec", "vp9"]) == 2

    def test_bad_qps_value(self, capsys):
        assert cli_dispatch(["sweep", "--synthetic", "default", "--qps", "a,b"]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli_dispatch(["--help"]) == 0

    def test_usage_and_runtime_codes_differ(self, tmp_path, capsys):
        runtime = cli_dispatch(["sweep"])  # no backend configured
        usage = cli_dispatch(["sweep", "--bogus"])
        assert runtime == 1 and usage == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--synthetic", "default", "--k", "2"],
            ["report", "--workers", "3", "result.json"],
            ["bdrate", "--out", "x.txt", "a.json", "b.json"],
        ],
        ids=["optimize-k", "report-workers", "bdrate-out"],
    )
    def test_option_the_subcommand_does_not_read(self, argv, capsys):
        assert cli_dispatch(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_invalid_config_value_is_runtime_error(self, capsys):
        assert cli_dispatch(["sweep", "--synthetic", "default", "--workers", "0"]) == 1
        assert "workers" in capsys.readouterr().err
