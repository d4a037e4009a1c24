"""Codec identities and the targeting of the Lagrange-multiplier scale k.

A patched encoder applies k to its own quantizer-derived lambda0 (lambda =
k * lambda0) for the frame types and decisions selected here; rdtune only
chooses k, so it never computes lambda itself.  This module names the
codecs with their quantizer ranges, the frame-type groups and the scopes
that k can target.  Each parses from its value or its name, in any case.
"""

from __future__ import annotations

from enum import Enum

__all__ = [
    "CodecId",
    "FrameTypeGroup",
    "LambdaScope",
    "validate_qp",
]


class _Parsed(Enum):
    """An enum whose parse takes a member's value or name, in any case,
    with surrounding whitespace."""

    @classmethod
    def parse(cls, text: str):
        wanted = text.strip().lower()
        for member in cls:
            if wanted in (member.value.lower(), member.name.lower()):
                return member
        raise ValueError(
            f"unknown {_KINDS[cls]} {text!r}; expected one of " + ", ".join(m.value for m in cls)
        )


class CodecId(_Parsed):
    AV1 = "AV1"
    HEVC = "HEVC"

    @property
    def qp_range(self) -> tuple[int, int]:
        return (0, 63) if self is CodecId.AV1 else (0, 51)


class FrameTypeGroup(_Parsed):
    """Frame-type grouping whose lambda gets the scale factor k.

    ALL_FRAMES applies the same k everywhere.  The others leave k=1 for
    untargeted frame types.  KF / GF_ARF / KF_GF_ARF are AV1 groupings,
    I_FRAMES / B_FRAMES are HEVC groupings; ALL_FRAMES is valid for both.
    """

    ALL_FRAMES = "AllFrames"
    KF = "KF"
    GF_ARF = "GF_ARF"
    KF_GF_ARF = "KF_GF_ARF"
    I_FRAMES = "IFrames"
    B_FRAMES = "BFrames"

    def valid_for(self, codec: CodecId) -> bool:
        if self is FrameTypeGroup.ALL_FRAMES:
            return True
        av1_only = {FrameTypeGroup.KF, FrameTypeGroup.GF_ARF, FrameTypeGroup.KF_GF_ARF}
        return (self in av1_only) == (codec is CodecId.AV1)


class LambdaScope(_Parsed):
    """Whether k applies to all RD decisions in targeted frames (TOP) or
    only to the block-partitioning decision (PARTITION)."""

    TOP = "Top"
    PARTITION = "Partition"


# Each kind's name in parse's error (a class attribute of an enum is a member).
_KINDS = {CodecId: "codec", FrameTypeGroup: "frame-type group", LambdaScope: "scope"}


def validate_qp(codec: CodecId, qp: int) -> bool:
    """True iff qp is an int (not a bool) in the codec's closed quantizer
    range; 27.5, "27" and True are not QPs."""
    lo, hi = codec.qp_range
    return isinstance(qp, int) and not isinstance(qp, bool) and lo <= qp <= hi
