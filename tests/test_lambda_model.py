import pytest

from rdtune.lambda_model import CodecId, FrameTypeGroup, LambdaScope, validate_qp


class TestValidateQp:
    @pytest.mark.parametrize(
        "codec,qp,ok",
        [
            (CodecId.HEVC, 51, True),
            (CodecId.HEVC, 52, False),
            (CodecId.AV1, 63, True),
            (CodecId.AV1, 64, False),
            (CodecId.AV1, 0, True),
            (CodecId.HEVC, 0, True),
            (CodecId.HEVC, -1, False),
            (CodecId.AV1, 27.5, False),
            (CodecId.AV1, 27.0, False),
            (CodecId.AV1, "27", False),
            (CodecId.AV1, True, False),
        ],
    )
    def test_bounds(self, codec, qp, ok):
        assert validate_qp(codec, qp) is ok


class TestEnums:
    def test_group_validity(self):
        assert FrameTypeGroup.ALL_FRAMES.valid_for(CodecId.AV1)
        assert FrameTypeGroup.ALL_FRAMES.valid_for(CodecId.HEVC)
        assert FrameTypeGroup.KF_GF_ARF.valid_for(CodecId.AV1)
        assert not FrameTypeGroup.KF_GF_ARF.valid_for(CodecId.HEVC)
        assert FrameTypeGroup.I_FRAMES.valid_for(CodecId.HEVC)
        assert not FrameTypeGroup.I_FRAMES.valid_for(CodecId.AV1)

    def test_parsers(self):
        assert CodecId.parse("av1") is CodecId.AV1
        assert FrameTypeGroup.parse("kf_gf_arf") is FrameTypeGroup.KF_GF_ARF
        assert FrameTypeGroup.parse("IFrames") is FrameTypeGroup.I_FRAMES
        assert LambdaScope.parse("partition") is LambdaScope.PARTITION
        # Names, in any case and with surrounding whitespace, parse too.
        assert CodecId.parse(" hevc ") is CodecId.HEVC
        assert LambdaScope.parse("TOP") is LambdaScope.TOP
        assert FrameTypeGroup.parse("i_frames") is FrameTypeGroup.I_FRAMES
        assert FrameTypeGroup.parse("\tAll_Frames\n") is FrameTypeGroup.ALL_FRAMES
        with pytest.raises(ValueError, match=r"unknown codec 'vp9'; expected one of AV1, HEVC$"):
            CodecId.parse("vp9")
        with pytest.raises(ValueError, match=r"frame-type group 'pframes'; expected one of AllFrames, KF,"):
            FrameTypeGroup.parse("pframes")
        with pytest.raises(ValueError, match=r"scope 'middle'; expected one of Top, Partition$"):
            LambdaScope.parse("middle")
