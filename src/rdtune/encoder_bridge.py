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
from .rd_curve import RDPoint, db_to_msssim, msssim_to_db

__all__ = [
    "ClipInfo",
    "load_manifest",
    "EncodeJob",
    "CommandTemplate",
    "MetricKeyPaths",
    "SyntheticClipModel",
    "synth_encode",
    "parse_metric_report",
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
    width: int
    height: int
    frame_count: int
    frame_rate: float
    pix_fmt: str = "yuv420p"

    def __post_init__(self) -> None:
        if self.frame_count <= 0:
            raise ManifestError(f"clip {self.id!r}: frame_count must be positive")
        if self.frame_rate <= 0.0:
            raise ManifestError(f"clip {self.id!r}: frame_rate must be positive")

    @property
    def duration_seconds(self) -> float:
        return self.frame_count / self.frame_rate


def load_manifest(path: Path | str) -> dict[str, ClipInfo]:
    """Load a clip manifest: a JSON array of
    {id, path, width, height, frame_count, frame_rate, pix_fmt}."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise ManifestError(f"manifest {path} must be a JSON array of clip entries")
    clips: dict[str, ClipInfo] = {}
    for i, entry in enumerate(raw):
        try:
            clip = ClipInfo(
                id=str(entry["id"]),
                path=Path(entry["path"]),
                width=int(entry["width"]),
                height=int(entry["height"]),
                frame_count=int(entry["frame_count"]),
                frame_rate=float(entry["frame_rate"]),
                pix_fmt=str(entry.get("pix_fmt", "yuv420p")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"manifest {path} entry {i}: {exc!r}") from exc
        if clip.id in clips:
            raise ManifestError(f"manifest {path}: duplicate clip id {clip.id!r}")
        clips[clip.id] = clip
    if not clips:
        raise ManifestError(f"manifest {path} contains no clips")
    return clips


@dataclass(frozen=True)
class EncodeJob:
    """One encoder invocation: encode clip at (qp, k, group, scope)."""

    clip_id: str
    codec: CodecId
    qp: int
    k: float
    group: FrameTypeGroup
    scope: LambdaScope
    input_path: Path | None = None
    work_dir: Path | None = None

    def __post_init__(self) -> None:
        if not validate_qp(self.codec, self.qp):
            lo, hi = self.codec.qp_range
            raise QpRangeError(f"qp {self.qp} outside [{lo}, {hi}] for {self.codec.value}")
        if self.k <= 0.0:
            raise DomainError(f"scale factor k must be positive, got {self.k}")
        if not self.group.valid_for(self.codec):
            raise DomainError(
                f"group {self.group.value} invalid for codec {self.codec.value}"
            )


def _placeholders(template: str) -> list[str]:
    return _PLACEHOLDER_RE.findall(template)


def _validate_template(template: str, allowed: frozenset[str], required, label: str) -> None:
    names = _placeholders(template)
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
    argv = []
    for token in shlex.split(template):
        for name, value in values.items():
            token = token.replace("{%s}" % name, value)
        argv.append(token)
    if not argv:
        raise TemplateError("template renders to an empty command")
    return argv


@dataclass(frozen=True)
class MetricKeyPaths:
    """Where to find pooled metric means in the report JSON.

    Defaults follow the standard libvmaf JSON layout.
    """

    msssim: tuple[str, ...] = ("pooled_metrics", "float_ms_ssim", "mean")
    vmaf: tuple[str, ...] = ("pooled_metrics", "vmaf", "mean")


def _dig(doc, path: tuple[str, ...]):
    node = doc
    for key in path:
        if not isinstance(node, dict) or key not in node:
            raise KeyError(key)
        node = node[key]
    return node


def parse_metric_report(
    report_bytes: bytes | str,
    key_paths: MetricKeyPaths = MetricKeyPaths(),
) -> tuple[float, float | None]:
    """Extract (msssim, vmaf) pooled means from a metric report.

    msssim is required; vmaf is optional and returned as None when its
    key path is absent.
    """
    try:
        doc = json.loads(report_bytes)
    except json.JSONDecodeError as exc:
        raise MetricReportError(f"metric report is not valid JSON: {exc}") from exc
    try:
        msssim = float(_dig(doc, key_paths.msssim))
    except (KeyError, TypeError, ValueError):
        raise MetricReportError(
            "metric report missing msssim at path " + "/".join(key_paths.msssim)
        ) from None
    vmaf: float | None
    try:
        vmaf = float(_dig(doc, key_paths.vmaf))
    except (KeyError, TypeError, ValueError):
        vmaf = None
    return msssim, vmaf


def _run_child(argv: list[str], label: str) -> None:
    try:
        proc = subprocess.run(argv, capture_output=True, text=True)
    except OSError as exc:
        raise EncodeFailure(f"{label} failed to start ({argv[0]!r}): {exc}") from exc
    if proc.returncode != 0:
        tail = (proc.stderr or proc.stdout or "").strip()[-2000:]
        raise EncodeFailure(
            f"{label} exited with status {proc.returncode}: {' '.join(argv)}", tail
        )


def encode_measure(
    job: EncodeJob,
    templates: CommandTemplate,
    clip: ClipInfo,
    key_paths: MetricKeyPaths = MetricKeyPaths(),
    keep_outputs: bool = False,
) -> RDPoint:
    """Encode one job with external tools and measure its RD point.

    Runs the encoder, then the metric tool, parses the report, and derives
    the bitrate from output size and clip duration.
    """
    if clip.path is None or not Path(clip.path).exists():
        raise EncodeFailure(f"input clip {clip.path} does not exist")
    work_dir = job.work_dir or Path(".")
    work_dir.mkdir(parents=True, exist_ok=True)
    output = work_dir / f"{clip.id}_qp{job.qp}_k{job.k:.6f}.out"
    report = work_dir / f"{clip.id}_qp{job.qp}_k{job.k:.6f}.report.json"

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

    try:
        _run_child(enc_argv, "encoder")
        if not output.exists() or output.stat().st_size == 0:
            raise EncodeFailure(f"encoder produced no output at {output}")
        size_bytes = output.stat().st_size
        _run_child(met_argv, "metric tool")
        try:
            report_bytes = report.read_bytes()
        except OSError as exc:
            raise MetricReportError(f"metric tool wrote no report at {report}: {exc}") from exc
        msssim, vmaf = parse_metric_report(report_bytes, key_paths)
        if not (0.0 < msssim < 1.0):
            raise MetricReportError(
                f"pooled msssim {msssim} outside (0, 1); cannot map to dB"
            )
        bitrate_kbps = size_bytes * 8.0 / clip.duration_seconds / 1000.0
        return RDPoint(
            qp=job.qp,
            bitrate_kbps=bitrate_kbps,
            msssim=msssim,
            msssim_db=msssim_to_db(msssim),
            vmaf=vmaf,
        )
    finally:
        if not keep_outputs:
            for f in (output, report):
                try:
                    f.unlink(missing_ok=True)
                except OSError:
                    pass


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
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ManifestError(f"cannot read model file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ManifestError(f"model file {path} is not valid JSON: {exc}") from exc
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ManifestError(f"model file {path}: unknown fields {sorted(unknown)}")
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
    return RDPoint(
        qp=qp,
        bitrate_kbps=bitrate,
        msssim=db_to_msssim(quality_db),
        msssim_db=quality_db,
        vmaf=vmaf,
    )


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

    def input_path(self, clip_id: str) -> Path | None:
        return None


class ExternalEncoder:
    """Backend that shells out (shell-free) to a patched encoder and a
    metric tool, per the command templates."""

    # Its encodes wait on child processes, which a pool of threads overlaps.
    in_process = False

    def __init__(
        self,
        templates: CommandTemplate,
        manifest: dict[str, ClipInfo],
        key_paths: MetricKeyPaths = MetricKeyPaths(),
        keep_outputs: bool = False,
    ):
        self.templates = templates
        self.manifest = manifest
        self.key_paths = key_paths
        self.keep_outputs = keep_outputs
        self.invocations = 0
        self._clip_digests: dict[str, str] = {}
        self._count_lock = threading.Lock()

    def _clip(self, clip_id: str) -> ClipInfo:
        try:
            return self.manifest[clip_id]
        except KeyError:
            raise ManifestError(f"clip {clip_id!r} not present in the manifest") from None

    def measure(self, job: EncodeJob) -> RDPoint:
        with self._count_lock:
            self.invocations += 1
        return encode_measure(
            job, self.templates, self._clip(job.clip_id), self.key_paths, self.keep_outputs
        )

    def clip_digest(self, clip_id: str) -> str:
        if clip_id not in self._clip_digests:
            clip = self._clip(clip_id)
            h = hashlib.sha256()
            try:
                with open(clip.path, "rb") as fh:
                    for chunk in iter(lambda: fh.read(1 << 20), b""):
                        h.update(chunk)
            except OSError as exc:
                raise ManifestError(f"cannot hash clip {clip_id!r} at {clip.path}: {exc}") from exc
            self._clip_digests[clip_id] = h.hexdigest()
        return self._clip_digests[clip_id]

    def template_digest(self) -> str:
        return self.templates.digest()

    def input_path(self, clip_id: str) -> Path | None:
        return self._clip(clip_id).path
