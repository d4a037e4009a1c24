import csv
import io
import math
import re
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rdtune.encoder_bridge import SyntheticClipModel, SyntheticEncoder
from rdtune.lambda_model import CodecId, FrameTypeGroup, LambdaScope
from rdtune.plot import _linspace, compute_layout, emit_plot, render_svg
from rdtune.rd_curve import RDCurve, RDPoint
from rdtune.report import _mean, render_csv, render_text, summarize
from rdtune.sweep import OptimizationResult, SweepConfig


def make_result(bd=-4.0, k_hat=2.0, iters=9, group=FrameTypeGroup.KF_GF_ARF,
                scope=LambdaScope.TOP, codec=CodecId.AV1, clip_id="clip",
                vmaf_change=0.5):
    points = tuple(
        RDPoint.from_db(qp=q, bitrate_kbps=r, msssim_db=d, vmaf=80.0)
        for q, r, d in [(63, 300.0, 10.0), (49, 900.0, 14.0), (39, 2500.0, 18.0), (27, 8000.0, 22.0)]
    )
    curve = RDCurve(clip_id=clip_id, codec=codec, k=1.0, group=group, scope=scope, points=points)
    return OptimizationResult(
        clip_id=clip_id, codec=codec, group=group, scope=scope,
        k_hat=k_hat, bd_rate=bd, iterations=iters, stop_reason="converged", improved=bd < 0,
        rd2_savings=bd * 1.5, mean_savings=bd * 1.2, msssim_change_db=0.1,
        vmaf_change=vmaf_change, total_invocations=iters * 4,
        trials=(), reference_curve=curve,
    )


class TestSummarize:
    def test_singleton_statistics(self):
        rows = summarize([make_result(bd=-4.0)])
        assert len(rows) == 1
        row = rows[0]
        assert row.avg_bdr == row.max_bdr == row.min_bdr == -4.0
        assert row.clips == 1

    def test_pair_statistics(self):
        rows = summarize([make_result(bd=-1.0, clip_id="a"), make_result(bd=-3.0, clip_id="b")])
        row = rows[0]
        assert row.avg_bdr == -2.0
        assert row.max_bdr == -3.0
        assert row.min_bdr == -1.0

    def test_sign_invariant(self):
        rows = summarize([make_result(bd=b, clip_id=f"c{i}") for i, b in enumerate([-1.0, -3.0, -7.0])])
        row = rows[0]
        assert row.max_bdr <= row.avg_bdr <= row.min_bdr

    def test_group_ordering_deterministic(self):
        results = [
            make_result(group=FrameTypeGroup.KF, clip_id="a"),
            make_result(group=FrameTypeGroup.ALL_FRAMES, clip_id="b"),
            make_result(codec=CodecId.HEVC, group=FrameTypeGroup.I_FRAMES, clip_id="c"),
            make_result(scope=LambdaScope.PARTITION, clip_id="d"),
        ]
        keys = [(r.codec, r.scope, r.group) for r in summarize(results)]
        assert keys == sorted(keys)

    def test_vmaf_none_propagates(self):
        rows = summarize([make_result(vmaf_change=None)])
        assert rows[0].avg_vmaf_change is None

    def test_empty_results(self):
        assert summarize([]) == []

    def test_means_match_recomputation(self):
        results = [
            make_result(bd=-float(i + 1) / 2.0, k_hat=1.0 + 0.1 * i, iters=7 + i % 4, clip_id=f"c{i}")
            for i in range(10)
        ]
        row = summarize(results)[0]
        assert row.clips == 10
        assert row.avg_k_hat == pytest.approx(sum(r.k_hat for r in results) / 10)
        assert row.avg_iters == pytest.approx(sum(r.iterations for r in results) / 10)
        assert row.avg_rd2_savings == pytest.approx(sum(r.rd2_savings for r in results) / 10)
        assert row.max_bdr == min(r.bd_rate for r in results)
        assert row.min_bdr == max(r.bd_rate for r in results)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
    def test_mean_is_correctly_rounded(self, values):
        assert _mean(values) == float(sum(map(Fraction, values))) / len(values)


class TestRendering:
    def test_text_deterministic(self):
        results = [make_result(bd=-2.0), make_result(bd=-5.0, clip_id="b")]
        assert render_text(summarize(results)) == render_text(summarize(results))

    def test_text_contains_values(self):
        text = render_text(summarize([make_result(bd=-4.0)]))
        assert "AV1" in text and "Top" in text and "-4.000" in text

    def test_csv_parses_back(self):
        results = [make_result(bd=-2.0), make_result(bd=-6.0, clip_id="b", group=FrameTypeGroup.KF)]
        rows = list(csv.reader(io.StringIO(render_csv(summarize(results)))))
        assert rows[0][0] == "codec"
        assert len(rows) == 3

    def test_vmaf_none_rendered_as_dash(self):
        text = render_text(summarize([make_result(vmaf_change=None)]))
        assert text.rstrip().endswith("-")


def synthetic_curves(ks=(1.0, 2.5)):
    backend = SyntheticEncoder({"demo": SyntheticClipModel()})
    config = SweepConfig(codec=CodecId.AV1, group=FrameTypeGroup.KF_GF_ARF)
    from rdtune.sweep import run_sweep

    return [run_sweep("demo", k, config, backend) for k in ks]


def path_points(svg, index):
    d = re.search(rf'<path class="curve curve-{index}" d="M ([^"]+)"', svg).group(1)
    return [tuple(map(float, pair.split(","))) for pair in d.split(" L ")]


def marker_points(svg, index):
    return [
        (float(m.group(1)), float(m.group(2)))
        for m in re.finditer(
            rf'<circle class="marker marker-{index}" cx="([-\d.]+)" cy="([-\d.]+)"', svg
        )
    ]


class TestPlot:
    def test_marker_count_matches_points(self):
        curves = synthetic_curves(ks=(1.0,))
        svg = render_svg(curves)
        assert len(marker_points(svg, 0)) == 5
        assert svg.count('<circle class="marker') == 5

    def test_legend_entries(self):
        svg = render_svg(synthetic_curves(ks=(1.0, 2.5)))
        assert svg.count('class="legend-entry"') == 2
        assert "k=1" in svg and "k=2.5" in svg

    def test_exactly_200_path_samples(self):
        svg = render_svg(synthetic_curves(ks=(1.0, 2.5)))
        assert len(path_points(svg, 0)) == 200
        assert len(path_points(svg, 1)) == 200

    def test_samples_stay_in_span(self):
        curves = synthetic_curves(ks=(1.0, 2.5))
        layout = compute_layout(curves)
        svg = render_svg(curves)
        for i, curve in enumerate(curves):
            lo = layout.x_px(curve.log10_rates[0])
            hi = layout.x_px(curve.log10_rates[-1])
            for x, _ in path_points(svg, i):
                assert lo - 0.02 <= x <= hi + 0.02

    def test_path_passes_through_markers(self):
        # The rendered polyline, inverse-transformed, must agree with the
        # interpolant at every measured point to within half a pixel.
        curves = synthetic_curves(ks=(1.0, 2.5))
        layout = compute_layout(curves)
        svg = render_svg(curves)
        for i, curve in enumerate(curves):
            pts = path_points(svg, i)
            for cx, cy in marker_points(svg, i):
                nearest = min(pts, key=lambda p: abs(p[0] - cx))
                assert abs(nearest[0] - cx) <= 0.5
                assert abs(nearest[1] - cy) <= 0.5

    def test_marker_positions_match_transform(self):
        curves = synthetic_curves(ks=(1.0,))
        layout = compute_layout(curves)
        svg = render_svg(curves)
        expected = sorted(
            (layout.x_px(math.log10(p.bitrate_kbps)), layout.y_px(p.msssim_db))
            for p in curves[0].points
        )
        actual = sorted(marker_points(svg, 0))
        for (ex, ey), (ax, ay) in zip(expected, actual):
            assert ax == pytest.approx(ex, abs=0.005)
            assert ay == pytest.approx(ey, abs=0.005)

    def test_emit_writes_file(self, tmp_path):
        out = tmp_path / "curves.svg"
        emit_plot(synthetic_curves(ks=(1.0,)), out, title="demo clip")
        text = out.read_text()
        assert text.startswith("<svg") or text.startswith("<svg", 0)
        assert "demo clip" in text

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            emit_plot(synthetic_curves(ks=(1.0,)), tmp_path / "missing_dir" / "x.svg")

    def test_empty_curve_list(self):
        with pytest.raises(ValueError):
            compute_layout([])

    # Finite spans of the plot's magnitudes (dB and log10 kbps); the example
    # is a subnormal span whose step underflows to 0.
    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.integers(2, 300))
    @example(0.0, 2e-323, 11)
    def test_linspace_matches_numpy_bit_for_bit(self, lo, hi, n):
        def bits(values):
            return [struct.pack("<d", v) for v in values]

        assert bits(_linspace(lo, hi, n)) == bits(np.linspace(lo, hi, n).tolist())

    def test_deterministic_output(self):
        curves = synthetic_curves(ks=(1.0, 2.5))
        assert render_svg(curves) == render_svg(curves)
