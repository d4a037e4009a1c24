"""Command-line surface: sweeps, optimization, BD-Rate queries, summary
reports, and SVG RD-curve plots.

Exit codes: 0 success, 1 runtime failure (diagnostic names the failing
stage on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import closing
from pathlib import Path
from urllib.parse import quote

from .encoder_bridge import (
    CommandTemplate,
    ExternalEncoder,
    SyntheticClipModel,
    SyntheticEncoder,
    _read_json,
    load_manifest,
)
from .errors import ManifestError, RdtuneError
from .lambda_model import CodecId, FrameTypeGroup, LambdaScope
from .plot import emit_plot
from .rd_curve import RDCurve, bd_rate
from .report import render_csv, render_text, summarize
from .sweep import (
    SweepConfig,
    _document_text,
    load_result,
    optimize_clip,  # unused here; perfbench/tracing.py traces it under this name
    optimize_clips,
    run_sweep,
)

__all__ = ["cli_dispatch", "main"]


def _qps(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(q) for q in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad QP list {text!r}; expected e.g. 27,39,49") from None


def _parsed_by(enum_type):
    """argparse type that reads a value with enum_type.parse."""

    def parse(text: str):
        try:
            return enum_type.parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def build_parser() -> argparse.ArgumentParser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=Path, default=None, help="output file (or directory)")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--manifest", type=Path, help="clip manifest JSON (array of clip entries)")
    shared.add_argument("--codec", type=_parsed_by(CodecId), default=CodecId.AV1,
                        help="AV1 or HEVC")
    shared.add_argument("--qps", type=_qps, default=None, help="comma-separated QP ladder")
    shared.add_argument("--group", type=_parsed_by(FrameTypeGroup),
                        default=FrameTypeGroup.ALL_FRAMES,
                        help="frame-type group receiving k (e.g. KF_GF_ARF, IFrames)")
    shared.add_argument("--scope", type=_parsed_by(LambdaScope), default=LambdaScope.TOP,
                        help="Top (all RD decisions) or Partition (partitioning only)")
    shared.add_argument("--workers", type=int, default=5,
                        help="concurrent encoder child processes per run, shared by the "
                             "clips searched at once; no effect with --synthetic, whose "
                             "encodes run in-process")
    shared.add_argument("--cache-dir", type=Path, default=None,
                        help="persistent RD-point cache and run ledger location")
    shared.add_argument("--encoder-template", default=None,
                        help="encoder command with {input} {output} {qp} {k} {frame_group} {scope}")
    shared.add_argument("--metric-template", default=None,
                        help="metric command with {reference} {distorted} {report}")
    shared.add_argument("--synthetic", default=None, metavar="MODEL",
                        help="'default' or a JSON model file; replaces real encoders")
    shared.add_argument("--clip", default=None, help="clip id (defaults to all manifest clips)")

    parser = argparse.ArgumentParser(
        prog="rdtune",
        description="Per-clip tuning of the encoder Lagrange multiplier scale factor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", parents=[shared, out], help="measure an RD curve at one k")
    p.add_argument("--k", type=float, default=1.0, help="scale factor of the sweep")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("optimize", parents=[shared, out], help="search for the best k per clip")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("bdrate", help="BD-Rate of a test curve vs a reference")
    p.add_argument("reference", type=Path, help="reference curve JSON")
    p.add_argument("test", type=Path, help="test curve JSON")
    p.set_defaults(func=_cmd_bdrate)

    p = sub.add_parser("report", parents=[out], help="summary table over result files")
    p.add_argument("results", type=Path, nargs="+", help="OptimizationResult JSON files")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("plot", parents=[out], help="SVG plot of RD curves")
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
        default = args.synthetic == "default"
        model = SyntheticClipModel() if default else SyntheticClipModel.from_file(args.synthetic)
        clip_id = args.clip or ("synthetic" if default else Path(args.synthetic).stem)
        return SyntheticEncoder({clip_id: model}), [clip_id]
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


def _run_per_clip(args, verb: str, run, file_name) -> int:
    """Write each clip's document, as run(clip_ids, config, backend) yields
    them in clip order: to stdout, to the --out file (one clip only), or to
    --out/file_name(...) if --out is a directory, or does not exist and has
    no suffix.  The file name holds the clip id percent-encoded, so an id
    with "/" or ".." still names a file directly in --out."""
    backend, clip_ids = _make_backend(args)
    config = _sweep_config(args)
    to_file = args.out is not None and not args.out.is_dir() and (
        args.out.exists() or bool(args.out.suffix))
    if len(clip_ids) > 1 and to_file:
        raise ManifestError(f"--out must be a directory when {verb} multiple clips")
    with closing(run(clip_ids, config, backend)) as documents:
        for doc in documents:
            text = _document_text(doc)
            if args.out is None or to_file:
                _write_or_print(text, args.out)
            else:
                args.out.mkdir(parents=True, exist_ok=True)
                (args.out / file_name(quote(doc.clip_id, safe=""), config)).write_text(text)
    return 0


def _cmd_sweep(args) -> int:
    return _run_per_clip(
        args,
        "sweeping",
        lambda clip_ids, config, backend: (
            run_sweep(clip_id, args.k, config, backend) for clip_id in clip_ids
        ),
        lambda name, config: f"{name}_k{args.k:.6f}.json",
    )


def _cmd_optimize(args) -> int:
    return _run_per_clip(
        args,
        "optimizing",
        optimize_clips,
        lambda name, c: f"{name}_{c.codec.value}_{c.scope.value}_{c.group.value}.json",
    )


def _cmd_bdrate(args) -> int:
    reference, test = (_read_json(p, "curve file", RDCurve.from_dict)
                       for p in (args.reference, args.test))
    print(f"{bd_rate(reference, test):.2f}%")
    return 0


def _cmd_report(args) -> int:
    rows = summarize([load_result(p) for p in args.results])
    text = render_csv(rows) if args.format == "csv" else render_text(rows)
    _write_or_print(text, args.out)
    return 0


def _cmd_plot(args) -> int:
    if args.out is None:
        raise ManifestError("plot requires --out for the SVG path")
    curves = [_read_json(p, "curve file", RDCurve.from_dict) for p in args.curves]
    emit_plot(curves, args.out, title=args.title)
    return 0


def _join_k_value(argv) -> list[str]:
    """argv with `--k VALUE` written `--k=VALUE`: argparse reads a dash-led
    value that is not a plain number, such as -inf, as an option."""
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] == "--k":
            joined[-1] = f"--k={arg}"
        else:
            joined.append(arg)
    return joined


def cli_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_k_value(argv))
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
