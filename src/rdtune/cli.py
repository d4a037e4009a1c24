"""Command-line surface: sweeps, optimization, BD-Rate queries, summary
reports, and SVG RD-curve plots.

Exit codes: 0 success, 1 runtime failure (diagnostic names the failing
stage on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .encoder_bridge import (
    CommandTemplate,
    ExternalEncoder,
    SyntheticClipModel,
    SyntheticEncoder,
    load_manifest,
)
from .errors import ManifestError, RdtuneError
from .lambda_model import CodecId, FrameTypeGroup, LambdaScope
from .plot import emit_plot
from .rd_curve import RDCurve, bd_rate
from .report import render_csv, render_text, summarize
from .sweep import (
    DEFAULT_OPTIMIZER,
    OptimizationResult,
    SweepConfig,
    load_result,
    optimize_clip,
    run_sweep,
)

__all__ = ["cli_dispatch", "main"]


def _qps(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(q) for q in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad QP list {text!r}; expected e.g. 27,39,49") from None


def _codec(text: str) -> CodecId:
    try:
        return CodecId.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _group(text: str) -> FrameTypeGroup:
    try:
        return FrameTypeGroup.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _scope(text: str) -> LambdaScope:
    try:
        return LambdaScope.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--manifest", type=Path, help="clip manifest JSON (array of clip entries)")
    shared.add_argument("--codec", type=_codec, default=CodecId.AV1, help="AV1 or HEVC")
    shared.add_argument("--qps", type=_qps, default=None, help="comma-separated QP ladder")
    shared.add_argument("--group", type=_group, default=FrameTypeGroup.ALL_FRAMES,
                        help="frame-type group receiving k (e.g. KF_GF_ARF, IFrames)")
    shared.add_argument("--scope", type=_scope, default=LambdaScope.TOP,
                        help="Top (all RD decisions) or Partition (partitioning only)")
    shared.add_argument("--k", type=float, default=1.0, help="scale factor for sweeps")
    shared.add_argument("--workers", type=int, default=5,
                        help="concurrent encoder child processes per sweep; "
                             "no effect with --synthetic, whose encodes run in-process")
    shared.add_argument("--cache-dir", type=Path, default=None,
                        help="persistent RD-point cache and run ledger location")
    shared.add_argument("--encoder-template", default=None,
                        help="encoder command with {input} {output} {qp} {k} {frame_group} {scope}")
    shared.add_argument("--metric-template", default=None,
                        help="metric command with {reference} {distorted} {report}")
    shared.add_argument("--synthetic", default=None, metavar="MODEL",
                        help="'default' or a JSON model file; replaces real encoders")
    shared.add_argument("--clip", default=None, help="clip id (defaults to all manifest clips)")
    shared.add_argument("--out", type=Path, default=None, help="output file (or directory)")

    parser = argparse.ArgumentParser(
        prog="rdtune",
        description="Per-clip tuning of the encoder Lagrange multiplier scale factor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", parents=[shared], help="measure an RD curve at one k")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("optimize", parents=[shared], help="search for the best k per clip")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("bdrate", parents=[shared], help="BD-Rate of a test curve vs a reference")
    p.add_argument("reference", type=Path, help="reference curve JSON")
    p.add_argument("test", type=Path, help="test curve JSON")
    p.set_defaults(func=_cmd_bdrate)

    p = sub.add_parser("report", parents=[shared], help="summary table over result files")
    p.add_argument("results", type=Path, nargs="+", help="OptimizationResult JSON files")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("plot", parents=[shared], help="SVG plot of RD curves")
    p.add_argument("curves", type=Path, nargs="+", help="curve JSON files")
    p.add_argument("--title", default="")
    p.set_defaults(func=_cmd_plot)

    return parser


def _sweep_config(args) -> SweepConfig:
    return SweepConfig(
        codec=args.codec,
        group=args.group,
        scope=args.scope,
        qp_ladder=args.qps,
        workers=args.workers,
        cache_dir=args.cache_dir,
    )


def _make_backend(args):
    """Backend plus the clip ids to process."""
    if args.synthetic is not None:
        if args.synthetic == "default":
            model = SyntheticClipModel()
            clip_id = args.clip or "synthetic"
        else:
            model = SyntheticClipModel.from_file(args.synthetic)
            clip_id = args.clip or Path(args.synthetic).stem
        return SyntheticEncoder(model, clip_id), [clip_id]
    if args.manifest is None:
        raise ManifestError("either --synthetic or --manifest is required")
    manifest = load_manifest(args.manifest)
    if args.encoder_template is None or args.metric_template is None:
        raise ManifestError(
            "--encoder-template and --metric-template are required with --manifest"
        )
    templates = CommandTemplate(args.encoder_template, args.metric_template)
    if args.clip is not None:
        if args.clip not in manifest:
            raise ManifestError(f"clip {args.clip!r} not present in {args.manifest}")
        clip_ids = [args.clip]
    else:
        clip_ids = list(manifest)
    return ExternalEncoder(templates, manifest), clip_ids


def _write_or_print(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)


def _load_curve(path: Path) -> RDCurve:
    try:
        return RDCurve.from_dict(json.loads(path.read_text()))
    except OSError as exc:
        raise ManifestError(f"cannot read curve file {path}: {exc}") from exc
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        raise ManifestError(f"curve file {path} is malformed: {exc}") from exc


def _cmd_sweep(args) -> int:
    backend, clip_ids = _make_backend(args)
    config = _sweep_config(args)
    if len(clip_ids) > 1 and args.out is not None and args.out.suffix:
        raise ManifestError("--out must be a directory when sweeping multiple clips")
    for clip_id in clip_ids:
        curve = run_sweep(clip_id, args.k, config, backend)
        text = json.dumps(curve.to_dict(), indent=2, sort_keys=True) + "\n"
        if args.out is None:
            sys.stdout.write(text)
        elif len(clip_ids) == 1 and args.out.suffix:
            _write_or_print(text, args.out)
        else:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{clip_id}_k{args.k:.6f}.json").write_text(text)
    return 0


def _cmd_optimize(args) -> int:
    backend, clip_ids = _make_backend(args)
    config = _sweep_config(args)
    if len(clip_ids) > 1 and args.out is not None and args.out.suffix:
        raise ManifestError("--out must be a directory when optimizing multiple clips")
    for clip_id in clip_ids:
        result = optimize_clip(clip_id, config, backend, DEFAULT_OPTIMIZER)
        text = json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
        if args.out is None:
            sys.stdout.write(text)
        elif len(clip_ids) == 1 and args.out.suffix:
            _write_or_print(text, args.out)
        else:
            args.out.mkdir(parents=True, exist_ok=True)
            name = f"{clip_id}_{config.codec.value}_{config.scope.value}_{config.group.value}.json"
            (args.out / name).write_text(text)
    return 0


def _cmd_bdrate(args) -> int:
    reference = _load_curve(args.reference)
    test = _load_curve(args.test)
    value = bd_rate(reference, test)
    print(f"{value:.2f}%")
    return 0


def _cmd_report(args) -> int:
    results: list[OptimizationResult] = []
    for path in args.results:
        try:
            results.append(load_result(path))
        except OSError as exc:
            raise ManifestError(f"cannot read result file {path}: {exc}") from exc
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            raise ManifestError(f"result file {path} is malformed: {exc}") from exc
    rows = summarize(results)
    text = render_csv(rows) if args.format == "csv" else render_text(rows)
    _write_or_print(text, args.out)
    return 0


def _cmd_plot(args) -> int:
    if args.out is None:
        raise ManifestError("plot requires --out for the SVG path")
    curves = [_load_curve(p) for p in args.curves]
    emit_plot(curves, args.out, title=args.title)
    return 0


def cli_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:  # argparse usage error (2) or --help (0)
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (RdtuneError, OSError, ValueError) as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
