"""RD-curve data model and Bjontegaard-style metrics.

A curve is a set of (qp, bitrate, quality) measurements for one encode
configuration.  Quality is MS-SSIM expressed in dB via the standard map
db = -10*log10(1 - score); the raw score compresses near 1.0, which makes
integration ill-conditioned, so all curve math runs on the dB axis.

bd_rate fits a monotone cubic to quality -> log10(bitrate) for each curve
and averages the log-rate difference over the overlapping quality
interval; the result is the signed average bitrate difference in percent
(negative means the test curve needs fewer bits at equal quality).
bd_quality is the same construction with the axes swapped.  The integral
is exact: both fits are cubic between the union of their knots, so one
Simpson pass over those pieces integrates the difference with no
truncation error.  There is no extrapolation beyond the overlap interval,
ever.  Every sum here (the Simpson terms and the ladder means) is
math.fsum, which is correctly rounded, so results do not depend on term
order, CPU or Python version.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from enum import Enum
from functools import cache, cached_property
from typing import get_args, get_origin, get_type_hints

from .errors import (
    CurveDataError,
    DomainError,
    InsufficientPointsError,
    LadderMismatchError,
    MissingPointError,
    OverlapError,
)
from .lambda_model import CodecId, FrameTypeGroup, LambdaScope
from .pchip import PchipInterpolant, pchip_fit

__all__ = [
    "RDPoint",
    "RDCurve",
    "msssim_to_db",
    "db_to_msssim",
    "bd_rate",
    "bd_quality",
    "matched_qp_savings",
    "mean_matched_savings",
    "mean_vmaf_delta",
]

# Above this score (90 dB), 1 - msssim has lost enough precision that the
# dB consistency check would mostly measure rounding noise.
_SCORE_CHECK_LIMIT = 1.0 - 1e-9

# Fewest points per curve for a BD metric, as in Bjontegaard's cubic fit
# through four points; fewer leave the fit too loosely pinned to trust.
_MIN_POINTS = 4


def _is_json_number(value, kind: type = float) -> bool:
    """True for a JSON number of the given kind: int for an integer, float
    for any number.  JSON true and false load as bool, a subclass of int,
    and are not numbers; nor is an integer beyond the float range, which
    float() cannot convert.  NaN and ±Infinity are: callers refuse them
    with their own range checks."""
    if isinstance(value, bool):
        return False
    if isinstance(value, int):
        return abs(value) <= sys.float_info.max
    return kind is float and isinstance(value, float)


_JSON_KINDS = {str: "a string", bool: "true or false", int: "an integer", float: "a number"}


def _brief(value) -> str:
    """repr(value) for an error message, cut to 40 characters plus "...", so
    that a 400-digit integer from a file still makes one short line."""
    text = repr(value)
    return text if len(text) <= 40 else text[:40] + "..."


def _json_field(d: dict, name: str, kind: type = float, null: bool = False):
    """d[name] if it is a JSON value of kind, as a float for kind float (any
    JSON number within the float range); with null, a missing or null field
    is None.  Anything else, such as true for a number, 2.9 for an integer
    or NaN, raises CurveDataError rather than being coerced."""
    value = d.get(name) if null else d[name]
    if null and value is None:
        return None
    if not (_is_json_number(value, kind) if kind in (int, float) else isinstance(value, kind)):
        what = _JSON_KINDS[kind] + (" or null" if null else "")
        raise CurveDataError(f"{name} must be {what}, got {_brief(value)}")
    if kind is float and not abs(value) <= sys.float_info.max:  # NaN, ±Infinity
        raise CurveDataError(f"{name} must be finite, got {_brief(value)}")
    return float(value) if kind is float else value


@cache
def _field_types(cls: type) -> dict[str, type]:
    """The resolved annotations of a dataclass, once per class (the modules
    use postponed annotations, so they are strings until resolved)."""
    return get_type_hints(cls)


@cache
def _plan(cls: type) -> tuple:
    """A document class's (to_dict, from_dict), made once from its fields as
    dataclasses makes __init__: each is the one expression a hand-written
    body would be, so a call costs what a hand-written one does."""
    space, writes, reads = {"_json_field": _json_field}, [], []
    for name in (f.name for f in fields(cls)):
        kind = _field_types(cls)[name]
        args, this = get_args(kind), f"self.{name}"
        space[f"_{name}"] = args[0] if args else kind
        if get_origin(kind) is tuple:  # tuple[Doc, ...]: an array of documents
            write = f"[x.to_dict() for x in {this}]"
            read = f"tuple(_{name}.from_dict(x) for x in d[{name!r}])"
        elif type(None) in args:  # X | None
            write, read = this, f"_json_field(d, {name!r}, _{name}, null=True)"
        elif issubclass(kind, _Document):
            write, read = f"{this}.to_dict()", f"_{name}.from_dict(d[{name!r}])"
        elif issubclass(kind, Enum):
            write, read = f"{this}.value", f"_{name}.parse(_json_field(d, {name!r}, str))"
        else:
            write, read = this, f"_json_field(d, {name!r}, _{name})"
        writes.append(f"{name!r}: {write}")
        reads.append(f"{name}={read}")
    return (eval(f"lambda self: {{{', '.join(writes)}}}", space),
            eval(f"lambda cls, d: cls({', '.join(reads)})", space))


class _Document:
    """Maps a dataclass to a JSON object and back by one rule, read from its
    field annotations: an enum is its value, a document a nested object, a
    tuple[Doc, ...] an array, an X | None field may be null or missing, and
    every other field is a JSON value of its type (_json_field).  A field of
    the wrong JSON type raises CurveDataError rather than being coerced."""

    def to_dict(self) -> dict:
        return _plan(type(self))[0](self)

    @classmethod
    def from_dict(cls, d: dict):
        """Inverse of to_dict."""
        return _plan(cls)[1](cls, d)


def msssim_to_db(score: float) -> float:
    """Map an MS-SSIM score in [0, 1) to decibels: -10*log10(1 - score)."""
    if not (0.0 <= score < 1.0):
        raise DomainError(f"msssim score must lie in [0, 1), got {score}")
    return -10.0 * math.log10(1.0 - score)


def db_to_msssim(db: float) -> float:
    """Inverse of msssim_to_db; requires db > 0 so the score lands in (0, 1)."""
    if not (db > 0.0 and math.isfinite(db)):
        raise DomainError(f"msssim_db must be positive and finite, got {db}")
    return 1.0 - 10.0 ** (-db / 10.0)


@dataclass(frozen=True)
class RDPoint(_Document):
    """One (qp, bitrate, quality) measurement."""

    qp: int
    bitrate_kbps: float
    msssim: float
    msssim_db: float
    vmaf: float | None = None

    def __post_init__(self) -> None:
        if self.bitrate_kbps <= 0.0 or not math.isfinite(self.bitrate_kbps):
            raise CurveDataError(f"bitrate must be positive and finite, got {self.bitrate_kbps}")
        if not (0.0 < self.msssim <= 1.0):
            raise CurveDataError(f"msssim must lie in (0, 1], got {self.msssim}")
        if not math.isfinite(self.msssim_db):
            raise CurveDataError(f"msssim_db must be finite, got {self.msssim_db}")
        if self.vmaf is not None and not math.isfinite(self.vmaf):
            raise CurveDataError(f"vmaf must be finite, got {self.vmaf}")
        if self.msssim < _SCORE_CHECK_LIMIT:
            expected = msssim_to_db(self.msssim)
            if abs(self.msssim_db - expected) > 1e-6 * max(1.0, abs(expected)):
                raise CurveDataError(
                    f"msssim_db={self.msssim_db} inconsistent with score {self.msssim} "
                    f"(expected {expected})"
                )

    @classmethod
    def from_score(cls, qp: int, bitrate_kbps: float, msssim: float, vmaf: float | None = None) -> "RDPoint":
        return cls(qp=qp, bitrate_kbps=bitrate_kbps, msssim=msssim,
                   msssim_db=msssim_to_db(msssim), vmaf=vmaf)

    @classmethod
    def from_db(cls, qp: int, bitrate_kbps: float, msssim_db: float, vmaf: float | None = None) -> "RDPoint":
        return cls(qp=qp, bitrate_kbps=bitrate_kbps, msssim=db_to_msssim(msssim_db),
                   msssim_db=msssim_db, vmaf=vmaf)


@dataclass(frozen=True)
class RDCurve(_Document):
    """Measurements for one (clip, k, group, scope), sorted by ascending quality.

    Both quality and bitrate must be strictly increasing along the sorted
    points (the monotone RD assumption) and QPs must be unique.
    """

    clip_id: str
    codec: CodecId
    k: float
    group: FrameTypeGroup
    scope: LambdaScope
    points: tuple[RDPoint, ...]

    def __post_init__(self) -> None:
        if not 0.0 < self.k < math.inf:
            raise CurveDataError(f"scale factor k must be positive and finite, got {self.k}")
        if not self.group.valid_for(self.codec):
            raise CurveDataError(f"group {self.group.value} invalid for codec {self.codec.value}")
        pts = tuple(sorted(self.points, key=lambda p: p.msssim_db))
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise CurveDataError(f"curve needs at least 2 points, got {len(pts)}")
        qps = [p.qp for p in pts]
        if len(set(qps)) != len(qps):
            dupes = sorted({q for q in qps if qps.count(q) > 1})
            raise CurveDataError(f"duplicate QPs in curve: {dupes}")
        for a, b in zip(pts, pts[1:]):
            if b.msssim_db <= a.msssim_db:
                raise CurveDataError(
                    f"quality not strictly increasing: {a.msssim_db} then {b.msssim_db}"
                )
            if b.bitrate_kbps <= a.bitrate_kbps:
                raise CurveDataError(
                    f"bitrate not strictly increasing with quality: "
                    f"{a.bitrate_kbps} then {b.bitrate_kbps} (qp {a.qp} -> {b.qp})"
                )

    # Read by the BD math and the plot.  math.log10, not np.log10: numpy picks
    # its log10 kernel by CPU feature, and its AVX-512 kernel differs from
    # math.log10 in the last bit for 3.7% of bitrates, so results would vary
    # by host (inferred on one AVX-512 host, not run on a second one).
    @cached_property
    def qualities_db(self) -> tuple[float, ...]:
        return tuple(p.msssim_db for p in self.points)

    @cached_property
    def log10_rates(self) -> tuple[float, ...]:
        return tuple(math.log10(p.bitrate_kbps) for p in self.points)

    @property
    def qps(self) -> tuple[int, ...]:
        return tuple(p.qp for p in self.points)

    def point_at(self, qp: int) -> RDPoint:
        for p in self.points:
            if p.qp == qp:
                return p
        raise MissingPointError(f"qp {qp} not present in curve for clip {self.clip_id!r}")

    # A curve is immutable, so each fit is made once (the k=1 reference is
    # the same curve for every trial of a clip) and shared; its fields are
    # tuples, so no user can change it.
    @cached_property
    def rate_fit(self) -> PchipInterpolant:
        """Monotone fit of quality (dB) -> log10 bitrate."""
        return pchip_fit(zip(self.qualities_db, self.log10_rates))

    @cached_property
    def quality_fit(self) -> PchipInterpolant:
        """Monotone fit of log10 bitrate -> quality (dB)."""
        return pchip_fit(zip(self.log10_rates, self.qualities_db))


def _integrate_difference(
    f_test: PchipInterpolant, f_ref: PchipInterpolant, lo: float, hi: float
) -> float:
    """Exact integral of (f_test - f_ref) over [lo, hi].

    Both fits are cubic between consecutive points of the union of their
    knots, so one Simpson pass over those pieces is exact.  Each fit is
    evaluated once, in one call, at the cut points and the midpoints, and
    the piece terms are summed by math.fsum, correctly rounded.
    """
    cuts = sorted({lo, hi, *(c for c in f_test.x + f_ref.x if lo < c < hi)})
    pieces = list(zip(cuts, cuts[1:]))
    at = cuts + [0.5 * (a + b) for a, b in pieces]
    diff = [t - r for t, r in zip(f_test(at), f_ref(at))]
    fm = diff[len(cuts):]
    terms = [
        (b - a) * (diff[i] + 4.0 * fm[i] + diff[i + 1]) for i, (a, b) in enumerate(pieces)
    ]
    return math.fsum(terms) / 6.0


def _bd_mean(reference: RDCurve, test: RDCurve, fit: str, metric: str, axis: str) -> float:
    """Mean of test.<fit> - reference.<fit> over the overlap of the two fits'
    knot spans, for curves of at least _MIN_POINTS points each."""
    for name, curve in (("reference", reference), ("test", test)):
        if len(curve.points) < _MIN_POINTS:
            raise InsufficientPointsError(
                f"{metric} needs at least {_MIN_POINTS} points, {name} curve has {len(curve.points)}"
            )
    f_ref, f_test = getattr(reference, fit), getattr(test, fit)
    lo = max(f_ref.x[0], f_test.x[0])
    hi = min(f_ref.x[-1], f_test.x[-1])
    if lo >= hi:
        raise OverlapError(
            f"curves share no {axis} interval: [{lo}, {hi}] "
            f"(ref span {f_ref.x[0]}..{f_ref.x[-1]}, test span {f_test.x[0]}..{f_test.x[-1]})"
        )
    return _integrate_difference(f_test, f_ref, lo, hi) / (hi - lo)


def bd_rate(reference: RDCurve, test: RDCurve) -> float:
    """Average bitrate difference of test vs reference, percent, over the
    overlapping quality interval.  Negative means the test curve is better."""
    delta = _bd_mean(reference, test, "rate_fit", "bd_rate", "quality (dB)")
    return (10.0 ** delta - 1.0) * 100.0


def bd_quality(reference: RDCurve, test: RDCurve) -> float:
    """Average quality difference (dB) of test vs reference over the
    overlapping log-rate interval.  Positive means the test curve is better."""
    return _bd_mean(reference, test, "quality_fit", "bd_quality", "log10 rate")


def matched_qp_savings(reference: RDCurve, test: RDCurve, qp: int) -> float:
    """Signed percent bitrate change of test vs reference at one shared QP."""
    ref_rate = reference.point_at(qp).bitrate_kbps
    test_rate = test.point_at(qp).bitrate_kbps
    return (test_rate - ref_rate) / ref_rate * 100.0


def _shared_ladder(reference: RDCurve, test: RDCurve) -> list[int]:
    """The curves' QPs, ascending; LadderMismatchError unless they match."""
    ref_qps, test_qps = sorted(reference.qps), sorted(test.qps)
    if ref_qps != test_qps:
        raise LadderMismatchError(
            f"QP ladders differ: reference {ref_qps} vs test {test_qps}"
        )
    return ref_qps


def mean_matched_savings(reference: RDCurve, test: RDCurve) -> float:
    """Arithmetic mean of matched-QP savings over the shared ladder.

    Both curves must cover exactly the same QPs.
    """
    qps = _shared_ladder(reference, test)
    savings = [matched_qp_savings(reference, test, qp) for qp in qps]
    return math.fsum(savings) / len(savings)


def mean_vmaf_delta(reference: RDCurve, test: RDCurve) -> float | None:
    """Mean VMAF change over the shared ladder; None if any point lacks VMAF."""
    deltas = []
    for qp in _shared_ladder(reference, test):
        rv, tv = reference.point_at(qp).vmaf, test.point_at(qp).vmaf
        if rv is None or tv is None:
            return None
        deltas.append(tv - rv)
    return math.fsum(deltas) / len(deltas)
