"""Uniform encode-and-measure interface.

Two backends produce RD points for a (clip, qp, k, group, scope) job:

* ExternalEncoder renders command templates and runs a patched encoder
  plus a metric tool as child processes (argument vectors, no shell).
  The encoder binary itself is out of scope here; it must accept the
  scale factor k and the targeted frame group / scope as flags.
* SyntheticEncoder evaluates a closed-form clip model, cheap enough to
  drive full optimizations on a desk.  Its rate surface decays with qp
  and splits bits between a keyframe share (shrinking with k) and the
  rest; its quality surface is concave in ln k and peaks at a latent
  per-clip optimum k_star, with k=1 calibrated to the no-op baseline.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import shlex
import subprocess
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    DomainError,
    EncodeFailure,
    ManifestError,
    MetricReportError,
    QpRangeError,
    TemplateError,
)
from .lambda_model import CodecId, FrameTypeGroup, LambdaScope, validate_qp
from .rd_curve import (
    _JSON_KINDS,
    RDPoint,
    _brief,
    _field_types,
    _is_json_number,
    _json_field,
)

__all__ = [
    "ClipInfo",
    "load_manifest",
    "EncodeJob",
    "CommandTemplate",
    "SyntheticClipModel",
    "encode_measure",
    "SyntheticEncoder",
    "ExternalEncoder",
]

_PLACEHOLDER_RE = re.compile(r"\{([^{}]*)\}")
_ENCODER_PLACEHOLDERS = frozenset({"input", "output", "qp", "k", "frame_group", "scope"})
_ENCODER_REQUIRED = ("input", "output", "qp")
_METRIC_PLACEHOLDERS = frozenset({"reference", "distorted", "report"})


@dataclass(frozen=True)
class ClipInfo:
    """One clip manifest entry."""

    id: str
    path: Path
    frame_count: int
    frame_rate: float

    def __post_init__(self) -> None:
        if self.frame_count <= 0:
            raise ManifestError(f"clip {self.id!r}: frame_count must be positive")
        if not 0.0 < self.frame_rate < math.inf:
            raise ManifestError(f"clip {self.id!r}: frame_rate must be positive and finite")

    @property
    def duration_seconds(self) -> float:
        return self.frame_count / self.frame_rate


def _read_json(path: Path | str, what: str, from_dict=None):
    """The JSON document in the file at path, passed through from_dict when
    one is given.  Every failure is one ManifestError that names the file
    as `what`: it cannot be read, it is not valid JSON, or from_dict finds
    it malformed (KeyError, TypeError or ValueError, CurveDataError too)."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ManifestError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ManifestError(f"{what} {path} is not valid JSON: {exc}") from exc
    if from_dict is None:
        return doc
    try:
        return from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ManifestError(f"{what} {path} is malformed: {exc}") from exc


def load_manifest(path: Path | str) -> dict[str, ClipInfo]:
    """Load a clip manifest: a JSON array of {id, path, frame_count,
    frame_rate}, with an integer frame_count and a number frame_rate;
    other keys are ignored."""
    raw = _read_json(path, "manifest")
    if not isinstance(raw, list):
        raise ManifestError(f"manifest {path} must be a JSON array of clip entries")
    clips: dict[str, ClipInfo] = {}
    for i, entry in enumerate(raw):
        try:
            count, rate = entry["frame_count"], entry["frame_rate"]
            if not (_is_json_number(count, int) and _is_json_number(rate)):
                raise ManifestError(
                    f"manifest {path} entry {i}: frame_count must be an integer and "
                    f"frame_rate a number, got {_brief(count)} and {_brief(rate)}"
                )
            clip = ClipInfo(id=_json_field(entry, "id", str), path=Path(entry["path"]),
                            frame_count=count, frame_rate=float(rate))
        except KeyError as exc:
            raise ManifestError(f"manifest {path} entry {i}: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ManifestError(f"manifest {path} entry {i}: {exc}") from exc
        if clip.id in clips:
            raise ManifestError(f"manifest {path}: duplicate clip id {clip.id!r}")
        clips[clip.id] = clip
    if not clips:
        raise ManifestError(f"manifest {path} contains no clips")
    return clips


@dataclass(frozen=True)
class EncodeJob:
    """One encoder invocation: encode clip at (qp, k, group, scope).

    work_dir is where an external encode makes its own temporary directory
    for the output and report files (the system temp dir when None); sweeps
    set it to <cache-dir>/work.
    """

    clip_id: str
    codec: CodecId
    qp: int
    k: float
    group: FrameTypeGroup
    scope: LambdaScope
    work_dir: Path | None = None

    def __post_init__(self) -> None:
        if not validate_qp(self.codec, self.qp):
            lo, hi = self.codec.qp_range
            raise QpRangeError(f"qp {self.qp!r} is not an integer in [{lo}, {hi}] for {self.codec.value}")
        if not (self.k > 0.0 and math.isfinite(self.k)):
            raise DomainError(f"scale factor k must be positive and finite, got {self.k}")
        if not self.group.valid_for(self.codec):
            raise DomainError(
                f"group {self.group.value} invalid for codec {self.codec.value}"
            )


def _validate_template(template: str, allowed: frozenset[str], required, label: str) -> None:
    names = _PLACEHOLDER_RE.findall(template)
    for name in names:
        if name not in allowed:
            raise TemplateError(
                f"{label}: unknown placeholder {{{name}}}; allowed: "
                + ", ".join(sorted("{%s}" % a for a in allowed))
            )
        if names.count(name) > 1:
            raise TemplateError(f"{label}: placeholder {{{name}}} used more than once")
    for name in required:
        if name not in names:
            raise TemplateError(f"{label}: required placeholder {{{name}}} missing")


@dataclass(frozen=True)
class CommandTemplate:
    """Command lines for the encoder and the metric tool.

    encoder_template placeholders: {input} {output} {qp} {k} {frame_group} {scope}
    metric_template placeholders:  {reference} {distorted} {report}

    Each placeholder may appear at most once; {input}, {output}, {qp} are
    required in the encoder template.  Commands run shell-free: templates
    are tokenized first, then placeholders are substituted literally
    inside tokens ({k} is rendered with 6 decimal places, matching the
    cache quantization).
    """

    encoder_template: str
    metric_template: str

    def __post_init__(self) -> None:
        _validate_template(
            self.encoder_template, _ENCODER_PLACEHOLDERS, _ENCODER_REQUIRED, "encoder_template"
        )
        _validate_template(self.metric_template, _METRIC_PLACEHOLDERS, (), "metric_template")

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.encoder_template.encode())
        h.update(b"\x00")
        h.update(self.metric_template.encode())
        return h.hexdigest()


def _render_argv(template: str, values: dict[str, str]) -> list[str]:
    # One pass per token, so placeholder text inside a value stays literal.
    argv = [
        _PLACEHOLDER_RE.sub(lambda m: values.get(m[1], m[0]), token)
        for token in shlex.split(template)
    ]
    if not argv:
        raise TemplateError("template renders to an empty command")
    return argv


def parse_metric_report(report_bytes: bytes | str) -> tuple[float, float | None]:
    """Extract (msssim, vmaf) pooled means from a libvmaf JSON report, at
    pooled_metrics/float_ms_ssim/mean and pooled_metrics/vmaf/mean.

    Both must be JSON numbers, not coerced from strings or true.  msssim is
    required; vmaf is optional and returned as None when its key path is
    absent or null.
    """
    try:
        doc = json.loads(report_bytes)
    except json.JSONDecodeError as exc:
        raise MetricReportError(f"metric report is not valid JSON: {exc}") from exc
    means = []
    for metric in ("float_ms_ssim", "vmaf"):
        try:
            means.append(doc["pooled_metrics"][metric]["mean"])
        except (KeyError, TypeError):
            means.append(None)
    msssim, vmaf = means
    if not _is_json_number(msssim):
        raise MetricReportError(
            "metric report missing msssim at path pooled_metrics/float_ms_ssim/mean"
            + ("" if msssim is None else f" (not a number: {msssim!r})")
        )
    if not (vmaf is None or _is_json_number(vmaf)):
        raise MetricReportError(f"metric report vmaf mean is not a number: {vmaf!r}")
    return float(msssim), None if vmaf is None else float(vmaf)


def _run_child(argv: list[str], label: str) -> None:
    try:
        proc = subprocess.run(argv, capture_output=True)
    except OSError as exc:
        raise EncodeFailure(f"{label} failed to start ({argv[0]!r}): {exc}") from exc
    if proc.returncode != 0:
        # Child output need not be UTF-8; only a failure's tail is decoded.
        tail = (proc.stderr or proc.stdout).decode(errors="replace").strip()[-2000:]
        raise EncodeFailure(
            f"{label} exited with status {proc.returncode}: {' '.join(argv)}", tail
        )


def encode_measure(job: EncodeJob, templates: CommandTemplate, clip: ClipInfo) -> RDPoint:
    """Encode one job with external tools and measure its RD point.

    Runs the encoder, then the metric tool, parses the report, and derives
    the bitrate from output size and clip duration.  Each call works in a
    temporary directory of its own, made under job.work_dir (created if
    missing) or the system temp dir, and removed with the output and
    report files afterwards; a failed removal never fails the encode.
    """
    if not clip.path.exists():
        raise EncodeFailure(f"input clip {clip.path} does not exist")
    if job.work_dir is not None:
        job.work_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=job.work_dir, ignore_cleanup_errors=True) as scratch:
        output = Path(scratch) / f"encode_qp{job.qp}_k{job.k:.6f}.out"
        report = Path(scratch) / f"encode_qp{job.qp}_k{job.k:.6f}.report.json"
        enc_argv = _render_argv(
            templates.encoder_template,
            {
                "input": str(clip.path),
                "output": str(output),
                "qp": str(job.qp),
                "k": f"{job.k:.6f}",
                "frame_group": job.group.value,
                "scope": job.scope.value,
            },
        )
        met_argv = _render_argv(
            templates.metric_template,
            {"reference": str(clip.path), "distorted": str(output), "report": str(report)},
        )

        _run_child(enc_argv, "encoder")
        if not output.exists() or output.stat().st_size == 0:
            raise EncodeFailure(f"encoder produced no output at {output}")
        size_bytes = output.stat().st_size
        _run_child(met_argv, "metric tool")
        try:
            report_bytes = report.read_bytes()
        except OSError as exc:
            raise MetricReportError(f"metric tool wrote no report at {report}: {exc}") from exc
    msssim, vmaf = parse_metric_report(report_bytes)
    if not (0.0 < msssim < 1.0):
        raise MetricReportError(
            f"pooled msssim {msssim} outside (0, 1); cannot map to dB"
        )
    bitrate_kbps = size_bytes * 8.0 / clip.duration_seconds / 1000.0
    return RDPoint.from_score(job.qp, bitrate_kbps, msssim, vmaf)


@dataclass(frozen=True)
class SyntheticClipModel:
    """Parametric rate/quality surfaces standing in for a real encoder.

    rate(qp, k) = r0 * exp(-b*qp) * (1 - beta + beta * k**-gamma)
    quality_db(qp, k) = s0 - a*qp - c*((ln k - ln k_star)^2 - (ln k_star)^2)

    beta is the keyframe share of total bits (keyframes carry several
    times the bits of other frames, so this share is substantial); gamma
    controls how strongly k shrinks that share; c is how sharply quality
    degrades when k moves away from the latent per-clip optimum k_star.
    The quality penalty is normalized so k=1 reproduces the baseline
    surface exactly.  noise_seed=0 disables jitter; a nonzero seed adds
    reproducible per-(seed, qp, k) jitter.
    """

    r0: float = 30000.0
    b: float = 0.09
    beta: float = 0.35
    gamma: float = 1.0
    s0: float = 26.0
    a: float = 0.28
    c: float = 0.8
    k_star: float = 2.5
    noise_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("r0", "b", "beta", "gamma", "s0", "a", "c", "k_star"):
            value = getattr(self, name)
            if value <= 0.0 or not math.isfinite(value):
                raise DomainError(f"model parameter {name} must be positive, got {value}")
        if self.beta >= 1.0:
            raise DomainError(f"beta must be below 1, got {self.beta}")

    def digest(self) -> str:
        payload = json.dumps(
            {f: getattr(self, f) for f in self.__dataclass_fields__}, sort_keys=True
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    @classmethod
    def from_file(cls, path: Path | str) -> "SyntheticClipModel":
        raw = _read_json(path, "model file")
        if not isinstance(raw, dict):
            raise ManifestError(f"model file {path} must hold a JSON object of numbers")
        kinds = _field_types(cls)
        unknown = set(raw) - set(kinds)
        if unknown:
            raise ManifestError(f"model file {path}: unknown fields {sorted(unknown)}")
        for name, value in raw.items():
            # Out-of-range numbers, NaN included, are __post_init__'s DomainError.
            if not _is_json_number(value, kinds[name]):
                what = _JSON_KINDS[kinds[name]]
                raise ManifestError(f"model file {path}: field {name} must be {what}, got {_brief(value)}")
        return cls(**raw)


def synth_encode(model: SyntheticClipModel, qp: int, k: float) -> RDPoint:
    """Evaluate the synthetic model at (qp, k); deterministic for fixed inputs."""
    if qp < 0 or qp > 63:
        raise QpRangeError(f"qp {qp} outside [0, 63]")
    if k <= 0.0 or not math.isfinite(k):
        raise DomainError(f"scale factor k must be positive, got {k}")

    log_ratio = math.log(k) - math.log(model.k_star)
    penalty = model.c * (log_ratio * log_ratio - math.log(model.k_star) ** 2)
    bitrate = model.r0 * math.exp(-model.b * qp) * (
        1.0 - model.beta + model.beta * k ** -model.gamma
    )
    quality_db = model.s0 - model.a * qp - penalty

    if model.noise_seed:
        rng = random.Random(f"{model.noise_seed}:{qp}:{k:.9e}")
        bitrate *= 1.0 + 0.002 * (2.0 * rng.random() - 1.0)
        quality_db += 0.02 * (2.0 * rng.random() - 1.0)

    if quality_db <= 0.0:
        raise DomainError(
            f"quality model underflow at qp={qp}, k={k}: {quality_db:.3f} dB; "
            "the model is outside its valid operating region"
        )
    vmaf = min(100.0, max(0.0, 4.0 * quality_db - 8.0))
    return RDPoint.from_db(qp, bitrate, quality_db, vmaf)


class SyntheticEncoder:
    """Backend over a SyntheticClipModel; counts its invocations."""

    # Its encodes are Python arithmetic that holds the GIL: threads cannot
    # overlap them, so sweeps run them on the calling thread.
    in_process = True

    def __init__(self, model: SyntheticClipModel, clip_id: str = "synthetic"):
        self.model = model
        self.clip_id = clip_id
        self.invocations = 0
        self._digest = model.digest()
        self._count_lock = threading.Lock()

    def measure(self, job: EncodeJob) -> RDPoint:
        with self._count_lock:
            self.invocations += 1
        return synth_encode(self.model, job.qp, job.k)

    def clip_digest(self, clip_id: str) -> str:
        return hashlib.sha256(f"{clip_id}:{self._digest}".encode()).hexdigest()

    def template_digest(self) -> str:
        return "synthetic:" + self._digest


class ExternalEncoder:
    """Backend that shells out (shell-free) to a patched encoder and a
    metric tool, per the command templates."""

    # Its encodes wait on child processes, which a pool of threads overlaps.
    in_process = False

    def __init__(self, templates: CommandTemplate, manifest: dict[str, ClipInfo]):
        self.templates = templates
        self.manifest = manifest
        self._clip_digests: dict[str, str] = {}

    def _clip(self, clip_id: str) -> ClipInfo:
        try:
            return self.manifest[clip_id]
        except KeyError:
            raise ManifestError(f"clip {clip_id!r} not present in the manifest") from None

    def measure(self, job: EncodeJob) -> RDPoint:
        return encode_measure(job, self.templates, self._clip(job.clip_id))

    def clip_digest(self, clip_id: str) -> str:
        """Digest of the clip's content and of the manifest fields its
        bitrate is computed from (frame_count and frame_rate)."""
        if clip_id not in self._clip_digests:
            clip = self._clip(clip_id)
            h = hashlib.sha256()
            try:
                with open(clip.path, "rb") as fh:
                    for chunk in iter(lambda: fh.read(1 << 20), b""):
                        h.update(chunk)
            except OSError as exc:
                raise ManifestError(f"cannot hash clip {clip_id!r} at {clip.path}: {exc}") from exc
            h.update(f"\x00{clip.frame_count}\x00{clip.frame_rate!r}".encode())
            self._clip_digests[clip_id] = h.hexdigest()
        return self._clip_digests[clip_id]

    def template_digest(self) -> str:
        return self.templates.digest()
