from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdtune.errors import (
    CurveDataError,
    DomainError,
    InsufficientPointsError,
    LadderMismatchError,
    MissingPointError,
    OverlapError,
)
from rdtune.lambda_model import CodecId, FrameTypeGroup, LambdaScope
from rdtune.rd_curve import (
    RDCurve,
    RDPoint,
    bd_quality,
    bd_rate,
    db_to_msssim,
    matched_qp_savings,
    mean_matched_savings,
    mean_vmaf_delta,
    msssim_to_db,
)

import oracles


def make_curve(qps, rates, dbs, k=1.0, vmafs=None, clip_id="clip", codec=CodecId.AV1):
    vmafs = vmafs or [None] * len(qps)
    return RDCurve(
        clip_id=clip_id,
        codec=codec,
        k=k,
        group=FrameTypeGroup.ALL_FRAMES,
        scope=LambdaScope.TOP,
        points=tuple(
            RDPoint.from_db(qp=q, bitrate_kbps=r, msssim_db=d, vmaf=v)
            for q, r, d, v in zip(qps, rates, dbs, vmafs)
        ),
    )


def curve_from_arrays(quality_db, log_rate, k=1.0):
    """Quality ascending; synthesizes descending fake QPs."""
    qps = list(range(63, 63 - len(quality_db), -1))
    return make_curve(qps, list(10.0 ** np.asarray(log_rate)), list(quality_db), k=k)


FIVE_QP = [63, 59, 49, 39, 27]  # ascending quality order
FIVE_RATE = [400.0, 800.0, 1800.0, 4200.0, 11000.0]
FIVE_DB = [10.0, 12.5, 15.0, 18.0, 22.0]


class TestDbConversions:
    @pytest.mark.parametrize("score,db", [(0.9, 10.0), (0.99, 20.0), (0.999, 30.0)])
    def test_reference_values(self, score, db):
        assert msssim_to_db(score) == pytest.approx(db, abs=1e-9)

    def test_strictly_increasing(self):
        scores = np.linspace(0.0, 0.999999, 500)
        dbs = [msssim_to_db(s) for s in scores]
        assert all(b > a for a, b in zip(dbs, dbs[1:]))

    @pytest.mark.parametrize("bad", [1.0, 1.5, -0.01])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            msssim_to_db(bad)

    def test_roundtrip(self):
        for db in (0.5, 10.0, 25.0, 60.0):
            assert msssim_to_db(db_to_msssim(db)) == pytest.approx(db, rel=1e-9)

    @pytest.mark.parametrize("bad", [0.0, -3.0, float("inf")])
    def test_db_domain(self, bad):
        with pytest.raises(DomainError):
            db_to_msssim(bad)


class TestRDPoint:
    def test_from_score_consistency(self):
        p = RDPoint.from_score(qp=30, bitrate_kbps=1000.0, msssim=0.99)
        assert p.msssim_db == pytest.approx(20.0, abs=1e-9)

    def test_inconsistent_db_rejected(self):
        with pytest.raises(CurveDataError):
            RDPoint(qp=30, bitrate_kbps=1000.0, msssim=0.99, msssim_db=25.0)

    @pytest.mark.parametrize("rate", [0.0, -5.0])
    def test_bad_rate(self, rate):
        with pytest.raises(CurveDataError):
            RDPoint.from_score(qp=30, bitrate_kbps=rate, msssim=0.9)

    @pytest.mark.parametrize("score", [0.0, -0.1, 1.5])
    def test_bad_score(self, score):
        with pytest.raises(CurveDataError):
            RDPoint(qp=30, bitrate_kbps=10.0, msssim=score, msssim_db=10.0)

    def test_perfect_score_allowed_with_finite_db(self):
        p = RDPoint(qp=1, bitrate_kbps=9000.0, msssim=1.0, msssim_db=140.0)
        assert p.msssim == 1.0

    @pytest.mark.parametrize("vmaf", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_vmaf(self, vmaf):
        with pytest.raises(CurveDataError, match="vmaf must be finite"):
            RDPoint.from_score(qp=30, bitrate_kbps=10.0, msssim=0.9, vmaf=vmaf)

    def test_dict_roundtrip(self):
        p = RDPoint.from_score(qp=39, bitrate_kbps=1234.5, msssim=0.97, vmaf=88.0)
        assert RDPoint.from_dict(p.to_dict()) == p

    @pytest.mark.parametrize(
        "field, value",
        [("qp", True), ("qp", 39.7), ("qp", 39.0), ("qp", "39"), ("bitrate_kbps", "100"),
         ("bitrate_kbps", True), ("msssim", "0.97"), ("msssim_db", None), ("vmaf", "88")],
    )
    def test_from_dict_refuses_what_is_not_a_json_number(self, field, value):
        # These used to load coerced: true as qp 1, 39.7 as 39, "100" as 100.0.
        d = RDPoint.from_score(qp=39, bitrate_kbps=1234.5, msssim=0.97, vmaf=88.0).to_dict()
        d[field] = value
        with pytest.raises(CurveDataError, match=f"{field} must be"):
            RDPoint.from_dict(d)

    def test_from_dict_takes_integral_rates(self):
        p = RDPoint.from_dict({"qp": 39, "bitrate_kbps": 100, "msssim": 0.9,
                               "msssim_db": msssim_to_db(0.9), "vmaf": 80})
        assert p.bitrate_kbps == 100.0 and type(p.bitrate_kbps) is float and p.vmaf == 80.0


class TestRDCurve:
    def test_sorts_by_quality(self):
        c = make_curve([27, 63, 49], [9000.0, 300.0, 2000.0], [22.0, 9.0, 15.0])
        assert [p.qp for p in c.points] == [63, 49, 27]

    def test_duplicate_qp_rejected(self):
        with pytest.raises(CurveDataError, match="duplicate"):
            make_curve([30, 30], [100.0, 200.0], [10.0, 12.0])

    def test_non_monotone_rate_rejected(self):
        with pytest.raises(CurveDataError, match="bitrate"):
            make_curve([63, 59, 49], [500.0, 400.0, 900.0], [10.0, 12.0, 14.0])

    def test_equal_quality_rejected(self):
        with pytest.raises(CurveDataError, match="quality"):
            make_curve([63, 59], [400.0, 900.0], [10.0, 10.0])

    def test_too_few_points(self):
        with pytest.raises(CurveDataError):
            make_curve([63], [400.0], [10.0])

    def test_group_codec_mismatch(self):
        with pytest.raises(CurveDataError):
            RDCurve(
                clip_id="x",
                codec=CodecId.HEVC,
                k=1.0,
                group=FrameTypeGroup.KF,
                scope=LambdaScope.TOP,
                points=tuple(
                    RDPoint.from_db(qp=q, bitrate_kbps=r, msssim_db=d)
                    for q, r, d in [(42, 100.0, 10.0), (22, 900.0, 16.0)]
                ),
            )

    def test_dict_roundtrip(self):
        c = make_curve(FIVE_QP, FIVE_RATE, FIVE_DB, k=2.5)
        assert RDCurve.from_dict(c.to_dict()) == c

    def test_fits_made_once_and_shared_read_only(self, monkeypatch):
        import rdtune.rd_curve as rd_curve
        from rdtune.pchip import pchip_fit

        fits = []

        def counting(points):
            fits.append(1)
            return pchip_fit(points)

        monkeypatch.setattr(rd_curve, "pchip_fit", counting)
        reference = make_curve(FIVE_QP, FIVE_RATE, FIVE_DB)
        tests = [
            make_curve(FIVE_QP, [r * f for r in FIVE_RATE], FIVE_DB, k=f) for f in (0.9, 0.95)
        ]
        first = [bd_rate(reference, t) for t in tests]
        assert len(fits) == 3  # one reference fit, one per test curve
        assert [bd_rate(reference, t) for t in tests] == first
        assert len(fits) == 3

        fresh = pchip_fit(np.column_stack([reference.qualities_db, reference.log10_rates]))
        for name in ("x", "y", "slopes"):
            cached = getattr(reference.rate_fit, name)
            assert np.array_equal(cached, getattr(fresh, name))
            with pytest.raises(TypeError):
                cached[0] = 0.0
        assert reference.quality_fit is reference.quality_fit
        assert RDCurve.from_dict(reference.to_dict()) == reference


class TestBdRate:
    def test_identity_zero(self):
        c = make_curve(FIVE_QP, FIVE_RATE, FIVE_DB)
        assert abs(bd_rate(c, c)) < 1e-9

    def test_uniform_inflation(self):
        ref = make_curve(FIVE_QP, FIVE_RATE, FIVE_DB)
        test = make_curve(FIVE_QP, [r * 1.10 for r in FIVE_RATE], FIVE_DB)
        assert bd_rate(ref, test) == pytest.approx(10.0, abs=1e-3)

    def test_uniform_deflation(self):
        ref = make_curve(FIVE_QP, FIVE_RATE, FIVE_DB)
        test = make_curve(FIVE_QP, [r * 0.75 for r in FIVE_RATE], FIVE_DB)
        assert bd_rate(ref, test) == pytest.approx(-25.0, abs=1e-3)

    def test_reciprocity(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            qa, ra = oracles.random_monotone_curve(rng, int(rng.integers(4, 7)))
            qb, rb = oracles.random_monotone_curve(rng, int(rng.integers(4, 7)))
            a, b = curve_from_arrays(qa, ra), curve_from_arrays(qb, rb, k=2.0)
            try:
                fwd = bd_rate(a, b)
                rev = bd_rate(b, a)
            except OverlapError:
                continue
            assert (1.0 + fwd / 100.0) * (1.0 + rev / 100.0) == pytest.approx(1.0, abs=1e-6)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(29)
        while True:
            qa, ra = oracles.random_monotone_curve(rng, 5)
            qb, rb = oracles.random_monotone_curve(rng, 5)
            if max(qa[0], qb[0]) < min(qa[-1], qb[-1]):
                break
        base = bd_rate(curve_from_arrays(qa, ra), curve_from_arrays(qb, rb, k=2.0))
        for c in (0.01, 3.7, 2000.0):
            shifted = bd_rate(
                curve_from_arrays(qa, ra + np.log10(c)),
                curve_from_arrays(qb, rb + np.log10(c), k=2.0),
            )
            assert shifted == pytest.approx(base, abs=1e-9)

    def test_dense_oracle_agreement(self):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 25:
            qa, ra = oracles.random_monotone_curve(rng, int(rng.integers(4, 7)))
            qb, rb = oracles.random_monotone_curve(rng, int(rng.integers(4, 7)))
            try:
                mine = bd_rate(curve_from_arrays(qa, ra), curve_from_arrays(qb, rb, k=2.0))
            except OverlapError:
                continue
            expected = oracles.bd_rate_dense(qa, ra, qb, rb)
            assert mine == pytest.approx(expected, abs=1e-4)
            checked += 1

    def test_point_floor(self):
        ref = make_curve(FIVE_QP[:3], FIVE_RATE[:3], FIVE_DB[:3])
        test = make_curve(FIVE_QP[:3], [r * 1.1 for r in FIVE_RATE[:3]], FIVE_DB[:3])
        with pytest.raises(InsufficientPointsError):
            bd_rate(ref, test)
        with pytest.raises(InsufficientPointsError):
            bd_quality(ref, test)

    def test_no_overlap_raises(self):
        a = make_curve(FIVE_QP[:4], FIVE_RATE[:4], [8.0, 9.0, 10.0, 11.0])
        b = make_curve(FIVE_QP[:4], FIVE_RATE[:4], [20.0, 21.0, 22.0, 23.0])
        with pytest.raises(OverlapError):
            bd_rate(a, b)


def _strictly_inside_a_piece(value, knots):
    return knots[0] < value < knots[-1] and not np.any(np.isclose(knots, value, rtol=0.0, atol=1e-12))


def _exactness_cases():
    """(ref, test) (quality_db, log10_rate) array pairs: the FIVE_* curve
    against reshaped copies, and seeded synthetic (k=1, k) pairs over a
    harsh c / k_star grid, whose quality shift puts the overlap ends
    inside a piece of the other fit."""
    five = (np.array(FIVE_DB), np.log10(FIVE_RATE))
    reshaped = [
        (five[0], five[1] + np.log10(0.75)),
        (five[0], five[1] + np.log10([0.5, 0.6, 0.7, 0.8, 0.9])),
        (five[0] + 0.7, five[1]),
        (np.array([10.3, 13.1, 15.9, 18.2, 21.5]), np.log10([380.0, 900.0, 1700.0, 4700.0, 10200.0])),
        (np.array([9.1, 11.0, 14.2, 16.0, 19.5, 23.3]), np.log10([350.0, 610.0, 1500.0, 2600.0, 6400.0, 15000.0])),
    ]
    cases = [(five, test) for test in reshaped]
    rng = np.random.default_rng(71)
    for c in (0.8, 2.0, 4.0, 8.0):
        for k_star in (2.5, 6.0, 10.0):
            ref = oracles.synth_arrays(1.0, c=c, k_star=k_star)
            for k in np.exp(rng.uniform(-2.7, 2.7, 4)):
                test = oracles.synth_arrays(float(k), c=c, k_star=k_star)
                if ref is not None and test is not None:
                    cases.append((ref, test))
    return cases


class TestExactIntegral:
    """bd_rate and bd_quality integrate the piecewise cubics exactly, so
    they match scipy's exact PCHIP integral to rounding, far inside the
    dense oracle's 1e-4."""

    @pytest.mark.parametrize(
        "metric, oracle, axis",
        [(bd_rate, oracles.bd_rate_exact, 0), (bd_quality, oracles.bd_quality_exact, 1)],
        ids=["bd_rate", "bd_quality"],
    )
    def test_matches_exact_oracle(self, metric, oracle, axis):
        inside = 0
        checked = 0
        for ref, test in _exactness_cases():
            xa, xb = ref[axis], test[axis]
            lo, hi = max(xa[0], xb[0]), min(xa[-1], xb[-1])
            if lo >= hi:
                continue
            mine = metric(curve_from_arrays(*ref), curve_from_arrays(*test, k=2.0))
            expected = oracle(ref[axis], ref[1 - axis], test[axis], test[1 - axis])
            assert type(mine) is float
            assert mine == pytest.approx(expected, rel=1e-9)
            checked += 1
            inside += _strictly_inside_a_piece(lo, xb if lo == xa[0] else xa)
            inside += _strictly_inside_a_piece(hi, xb if hi == xa[-1] else xa)
        assert checked >= 30
        assert inside >= 30


# repr of (bd_rate, bd_quality) for the seeded pairs of _frozen_pairs, with
# the Simpson terms summed by math.fsum; None where the curves share no
# interval.  Every bit must stay: any change to the BD path that moves one
# is a change of results.
FROZEN_BD = [
    (340.43142476333924, -5.45900589659215),
    (-18.815171080638383, 1.2011124279736853),
    (-87.70905708142848, 5.585985275009928),
    (-55.038080268249345, 2.537750089468758),
    (-81.7491056112666, 8.561021594096363),
    (-75.16570845225476, 4.946260730239867),
    (-74.08021471589078, 7.2931192732335),
    (-77.77471109843505, 6.316831384798958),
    (180.88883859207607, -4.269782071210038),
    (1102.953221806666, -8.938638777733619),
    (-53.534516869659555, 4.32276800442993),
    (323.0912714240672, -4.375717870432974),
    (795.0912323811242, -10.29544256358246),
    (34.71068263957513, -0.7487446937885428),
    (-90.24434494695157, 11.458095874345549),
    (-79.87905912985332, 7.097952213090481),
    (-24.307476197934974, 2.6118052266571268),
    (1.3792961305560958, 0.7406149419547802),
    (331.60881421192477, -13.93346997598433),
    (-93.48447492303576, 11.868140555704395),
    (None, 11.825278840004957),
    (-72.51035755909056, 5.85817638149435),
    (1142.4624859440858, -10.149608823120449),
    (442.7682585372766, -9.852925266251697),
    (-38.0821634251423, 3.338990726416106),
    (-83.89011182874428, 12.88069061948294),
    (-75.5071759495424, 3.872377290479958),
    (3.353777467945984, 0.26407979418034944),
    (936.73772061105, -7.40690788986924),
    (372.8529397594569, -6.262072042805017),
    (317.0605841849291, -5.687186073620415),
    (213.26100363534982, -4.662366764648511),
    (-88.18915480472896, 7.8781539136279495),
    (-77.30899991802366, 3.8321203750536763),
    (-72.34826653212006, 2.6745625045048085),
    (30.973058138682454, -3.164701533057384),
    (801.8206577919965, -9.091348347240753),
    (34.63117460835947, -1.7056203738140043),
    (65.84870833462735, -2.6260501687734616),
    (-30.963244572070348, 0.39859162403359316),
    (-91.0772305250922, 15.813329577666948),
    (-57.67003896142231, 4.299196852668958),
    (-52.334388475984596, 5.742281685987175),
    (127.38690110953348, -0.8219361424246489),
    (-97.39075012265732, 12.355051910709223),
    (28.748039037634587, -1.751268129091817),
    (None, 17.75100719256431),
    (723.2138290033762, -9.785234858180775),
    (51.70703621028423, -1.804771185289828),
    (2793.271749494117, -13.46638775310551),
]


def _frozen_pairs():
    rng = np.random.default_rng(20261018)
    for _ in range(len(FROZEN_BD)):
        qa, ra = oracles.random_monotone_curve(rng, int(rng.integers(4, 8)))
        qb, rb = oracles.random_monotone_curve(rng, int(rng.integers(4, 8)))
        yield curve_from_arrays(qa, ra), curve_from_arrays(qb, rb, k=2.0)


class TestFrozenBits:
    def test_bd_metrics_frozen_bits(self):
        for (ref, test), expected in zip(_frozen_pairs(), FROZEN_BD):
            for metric, value in zip((bd_rate, bd_quality), expected):
                if value is None:
                    with pytest.raises(OverlapError):
                        metric(ref, test)
                else:
                    assert metric(ref, test) == value


class TestMatchedSavings:
    def test_identity(self):
        c = make_curve(FIVE_QP, FIVE_RATE, FIVE_DB)
        for qp in FIVE_QP:
            assert matched_qp_savings(c, c, qp) == 0.0

    def test_strong_reduction(self):
        ref = make_curve(FIVE_QP, FIVE_RATE, FIVE_DB)
        test = make_curve(FIVE_QP, [r * 0.354 for r in FIVE_RATE], FIVE_DB)
        assert matched_qp_savings(ref, test, 39) == pytest.approx(-64.6, abs=1e-9)

    def test_increase(self):
        ref = make_curve([63, 59, 49, 39], [1000.0, 2000.0, 4000.0, 8000.0], FIVE_DB[:4])
        test = make_curve([63, 59, 49, 39], [1100.0, 2200.0, 4400.0, 8800.0], FIVE_DB[:4])
        assert matched_qp_savings(ref, test, 63) == pytest.approx(10.0, abs=1e-9)

    def test_missing_qp(self):
        c = make_curve(FIVE_QP, FIVE_RATE, FIVE_DB)
        with pytest.raises(MissingPointError):
            matched_qp_savings(c, c, 33)

    def test_mean_identity(self):
        c = make_curve(FIVE_QP, FIVE_RATE, FIVE_DB)
        assert mean_matched_savings(c, c) == 0.0

    def test_mean_uniform(self):
        ref = make_curve(FIVE_QP, FIVE_RATE, FIVE_DB)
        test = make_curve(FIVE_QP, [r * 1.10 for r in FIVE_RATE], FIVE_DB)
        assert mean_matched_savings(ref, test) == pytest.approx(10.0, abs=1e-9)

    def test_mean_of_varied_savings(self):
        ref = make_curve(FIVE_QP, [1000.0, 2000.0, 4000.0, 8000.0, 16000.0], FIVE_DB)
        factors = [0.5, 0.6, 0.7, 0.8, 0.9]  # savings -50..-10, mean -30
        test = make_curve(
            FIVE_QP, [r * f for r, f in zip([1000.0, 2000.0, 4000.0, 8000.0, 16000.0], factors)], FIVE_DB
        )
        assert mean_matched_savings(ref, test) == pytest.approx(-30.0, abs=1e-9)

    def test_ladder_mismatch(self):
        a = make_curve(FIVE_QP, FIVE_RATE, FIVE_DB)
        b = make_curve([62, 59, 49, 39, 27], FIVE_RATE, FIVE_DB)
        with pytest.raises(LadderMismatchError):
            mean_matched_savings(a, b)


class TestBdQuality:
    def test_identity(self):
        c = make_curve(FIVE_QP, FIVE_RATE, FIVE_DB)
        assert abs(bd_quality(c, c)) < 1e-9

    def test_uniform_offset(self):
        ref = make_curve(FIVE_QP, FIVE_RATE, FIVE_DB)
        test = make_curve(FIVE_QP, FIVE_RATE, [d + 0.5 for d in FIVE_DB])
        assert bd_quality(ref, test) == pytest.approx(0.5, abs=1e-3)

    def test_dense_oracle_agreement(self):
        rng = np.random.default_rng(59)
        checked = 0
        while checked < 15:
            qa, ra = oracles.random_monotone_curve(rng, int(rng.integers(4, 7)))
            qb, rb = oracles.random_monotone_curve(rng, int(rng.integers(4, 7)))
            try:
                mine = bd_quality(curve_from_arrays(qa, ra), curve_from_arrays(qb, rb, k=2.0))
            except OverlapError:
                continue
            expected = oracles.bd_quality_dense(ra, qa, rb, qb)
            assert mine == pytest.approx(expected, abs=1e-4)
            checked += 1

    def test_no_rate_overlap(self):
        a = make_curve([63, 59, 49, 39], [10.0, 20.0, 40.0, 80.0], FIVE_DB[:4])
        b = make_curve([63, 59, 49, 39], [1000.0, 2000.0, 4000.0, 8000.0], FIVE_DB[:4])
        with pytest.raises(OverlapError):
            bd_quality(a, b)


class TestVmafDelta:
    def test_mean_delta(self):
        ref = make_curve(FIVE_QP, FIVE_RATE, FIVE_DB, vmafs=[50.0, 60.0, 70.0, 80.0, 90.0])
        test = make_curve(FIVE_QP, FIVE_RATE, FIVE_DB, vmafs=[52.0, 62.0, 72.0, 82.0, 92.0])
        assert mean_vmaf_delta(ref, test) == pytest.approx(2.0, abs=1e-12)

    def test_absent_vmaf_returns_none(self):
        ref = make_curve(FIVE_QP, FIVE_RATE, FIVE_DB, vmafs=[50.0, 60.0, None, 80.0, 90.0])
        test = make_curve(FIVE_QP, FIVE_RATE, FIVE_DB, vmafs=[52.0, 62.0, 72.0, 82.0, 92.0])
        assert mean_vmaf_delta(ref, test) is None


def exact_mean(values: list[float]) -> float:
    """The correctly rounded sum of values, divided by their count."""
    return float(sum(map(Fraction, values))) / len(values)


class TestCorrectlyRoundedMeans:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 100.0), min_size=10, max_size=10))
    def test_vmaf_delta(self, vmafs):
        ref = make_curve(FIVE_QP, FIVE_RATE, FIVE_DB, vmafs=vmafs[:5])
        test = make_curve(FIVE_QP, FIVE_RATE, FIVE_DB, vmafs=vmafs[5:])
        deltas = [t - r for r, t in zip(vmafs[:5], vmafs[5:])]
        assert mean_vmaf_delta(ref, test) == exact_mean(deltas)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(1.0, 1e5), min_size=5, max_size=5, unique=True).map(sorted))
    def test_matched_savings(self, rates):
        ref = make_curve(FIVE_QP, FIVE_RATE, FIVE_DB)
        test = make_curve(FIVE_QP, rates, FIVE_DB)
        savings = [matched_qp_savings(ref, test, qp) for qp in FIVE_QP]
        assert mean_matched_savings(ref, test) == exact_mean(savings)
