"""Summary tables over per-clip optimization results.

One row per (codec, scope, group): means over clips, plus the best and
worst per-clip BD-Rate.  Sign convention: negative BD-Rate values are
better, so the "max" gain is the most negative entry.  Rendering is
deterministic; identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

from .sweep import OptimizationResult

__all__ = ["SummaryRow", "summarize", "render_text", "render_csv"]

_COLUMNS = [
    ("codec", "Codec"),
    ("scope", "Scope"),
    ("group", "Frame-Type"),
    ("clips", "Clips"),
    ("avg_k_hat", "Avg k"),
    ("avg_bdr", "Avg BDR(%)"),
    ("max_bdr", "Max BDR(%)"),
    ("min_bdr", "Min BDR(%)"),
    ("avg_iters", "Avg Iters"),
    ("avg_bitrate_savings", "Avg Savings(%)"),
    ("avg_rd2_savings", "Avg RD2 Savings(%)"),
    ("avg_msssim_change_db", "Avg MS-SSIM Change(dB)"),
    ("avg_vmaf_change", "Avg VMAF Change"),
]


@dataclass(frozen=True)
class SummaryRow:
    """Aggregate statistics for one (codec, scope, group)."""

    codec: str
    scope: str
    group: str
    clips: int
    avg_k_hat: float
    avg_bdr: float
    max_bdr: float  # most negative per-clip BD-Rate (best gain)
    min_bdr: float  # least negative per-clip BD-Rate
    avg_iters: float
    avg_bitrate_savings: float
    avg_rd2_savings: float
    avg_msssim_change_db: float
    avg_vmaf_change: float | None


def _mean(values: list[float]) -> float:
    return math.fsum(values) / len(values)


def summarize(results: list[OptimizationResult]) -> list[SummaryRow]:
    """One SummaryRow per (codec, scope, group), ordered by that key."""
    groups: dict[tuple[str, str, str], list[OptimizationResult]] = {}
    for r in results:
        groups.setdefault((r.codec.value, r.scope.value, r.group.value), []).append(r)

    rows = []
    for key in sorted(groups):
        members = groups[key]
        bdrs = [r.bd_rate for r in members]
        vmafs = [r.vmaf_change for r in members if r.vmaf_change is not None]
        rows.append(
            SummaryRow(
                codec=key[0],
                scope=key[1],
                group=key[2],
                clips=len(members),
                avg_k_hat=_mean([r.k_hat for r in members]),
                avg_bdr=_mean(bdrs),
                max_bdr=min(bdrs),
                min_bdr=max(bdrs),
                avg_iters=_mean([float(r.iterations) for r in members]),
                avg_bitrate_savings=_mean([r.mean_savings for r in members]),
                avg_rd2_savings=_mean([r.rd2_savings for r in members]),
                avg_msssim_change_db=_mean([r.msssim_change_db for r in members]),
                avg_vmaf_change=_mean(vmafs) if len(vmafs) == len(members) else None,
            )
        )
    return rows


def _cell(row: SummaryRow, field: str) -> str:
    value = getattr(row, field)
    if value is None:
        return "-"
    if field in ("clips", "codec", "scope", "group"):
        return str(value)
    return f"{value:.3f}"


def render_text(rows: list[SummaryRow]) -> str:
    """Aligned plain-text table; stable formatting for diffing."""
    header = [title for _, title in _COLUMNS]
    body = [[_cell(row, field) for field, _ in _COLUMNS] for row in rows]
    widths = [max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
              for i in range(len(header))]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for r in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def render_csv(rows: list[SummaryRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([field for field, _ in _COLUMNS])
    for row in rows:
        writer.writerow([_cell(row, field) for field, _ in _COLUMNS])
    return buf.getvalue()
