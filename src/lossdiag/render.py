"""Text rendering shared by every output path.

The report subcommand and the standalone subcommands must emit identical
bytes for identical values, so all CSV/markdown/SVG formatting lives here
and both paths call the same functions. Floats render with a configurable
number of significant digits (default 6), '.' decimal separator, no
thousands separators.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

from .concordance import ConcordanceReport
from .correlate import SelectionTable, SweepRow
from .errors import ValidationError
from .quantiles import SummarySet
from .shape import BandTable, PercentileProfile, profile_distance

if TYPE_CHECKING:  # the distillation lab is imported only when distill-demo runs
    from .distill import LabCheckpoint

DEFAULT_PRECISION = 6


def _format_floats(values, precision: int) -> list[str]:
    """Each value with ``precision`` significant digits; inf stays 'inf'.

    The one float format of every output: NaN is refused and -0.0 shows as
    0 (adding +0.0 turns -0.0 into 0.0 and leaves every other value as is).
    All values go through one '%' operation; '%.{p}g' % v is format(v, '.{p}g').
    """
    if precision < 1:
        raise ValidationError("precision must be >= 1")
    if precision >= 1 << 31:  # '%' formatting takes a C int
        raise ValidationError("precision must be < 2**31")
    values = tuple([float(v) + 0.0 for v in values])
    if any(map(math.isnan, values)):
        raise ValidationError("refusing to render NaN")
    return (",".join([f"%.{precision}g"] * len(values)) % values).split(",")


def fmt(value: float, precision: int = DEFAULT_PRECISION) -> str:
    """Format one float with `precision` significant digits; inf stays 'inf'."""
    return _format_floats((value,), precision)[0]


def _csv_line(row, precision: int) -> str:
    """One CSV line; the row's float cells are checked and formatted together."""
    cells: list = []
    floats: list = []
    for value in row:
        if type(value) is float:  # the common cell, tested first
            cells.append(None)
            floats.append(value)
        elif isinstance(value, str):
            if "," in value or '"' in value or "\n" in value or "\r" in value:
                value = '"' + value.replace('"', '""') + '"'
            cells.append(value)
        elif isinstance(value, bool):
            raise ValidationError(f"cannot render {value!r}")
        elif isinstance(value, int):  # digits and sign: never quoted
            cells.append(str(value))
        else:
            cells.append(None)
            floats.append(value)
    if floats:
        texts = iter(_format_floats(floats, precision))
        cells = [next(texts) if cell is None else cell for cell in cells]
    return ",".join(cells)


def csv_table(
    header: Sequence[str],
    rows: Iterable[Sequence],
    precision: int = DEFAULT_PRECISION,
) -> str:
    """Render a CSV string with a trailing newline and \\n line endings."""
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValidationError(
                f"row has {len(row)} cells, header has {len(header)}"
            )
        lines.append(_csv_line(row, precision))
    return "\n".join(lines) + "\n"


def _pct_name(k: int) -> str:
    return f"p{k:02d}"


def summary_table(
    summaries: Sequence[SummarySet], precision: int = DEFAULT_PRECISION
) -> str:
    """One row per checkpoint: id, mean, the percentile grid, count."""
    if not summaries:
        raise ValidationError("no summaries to render")
    ks = summaries[0].ks
    for s in summaries:
        if s.ks != ks:
            raise ValidationError(
                f"summary {s.checkpoint_id!r} has a different percentile grid"
            )
    header = ["checkpoint_id", "mean", *(_pct_name(k) for k in ks), "count"]
    rows = [
        [s.checkpoint_id, s.mean, *(s.percentiles[k] for k in ks), s.count]
        for s in summaries
    ]
    return csv_table(header, rows, precision)


def concordance_table(
    reports: Sequence[ConcordanceReport], precision: int = DEFAULT_PRECISION
) -> str:
    """Per-family concordance: pi(S) plus one column per summary pair."""
    if not reports:
        raise ValidationError("no concordance reports to render")
    pair_keys = list(reports[0].pairwise)
    for r in reports:
        if list(r.pairwise) != pair_keys:
            raise ValidationError("concordance reports use different summary sets")
    header = [
        "family",
        "summaries",
        "checkpoints",
        "total_pairs",
        "concordant_pairs",
        "tied_pairs",
        "pi",
        *(f"pi({a};{b})" for a, b in pair_keys),
    ]
    rows = [
        [
            r.family,
            ";".join(r.summaries),
            len(r.checkpoint_ids),
            r.total_pairs,
            r.concordant_pairs,
            r.tied_pairs,
            r.pi,
            *(r.pairwise[key] for key in pair_keys),
        ]
        for r in reports
    ]
    return csv_table(header, rows, precision)


def profile_table(
    profiles: Sequence[PercentileProfile], precision: int = DEFAULT_PRECISION
) -> str:
    """Standardized percentile profiles, one checkpoint per row."""
    if not profiles:
        raise ValidationError("no profiles to render")
    grid = profiles[0].grid
    for p in profiles:
        if p.grid != grid:
            raise ValidationError("profiles use different percentile grids")
    header = ["checkpoint_id", *(_pct_name(k) for k in grid), "iqr"]
    rows = [[p.checkpoint_id, *(p.values[k] for k in grid), p.iqr] for p in profiles]
    return csv_table(header, rows, precision)


def distance_table(
    profiles: Sequence[PercentileProfile], precision: int = DEFAULT_PRECISION
) -> str:
    """Symmetric matrix of Euclidean profile distances."""
    if not profiles:
        raise ValidationError("no profiles to render")
    ids = [p.checkpoint_id for p in profiles]
    header = ["checkpoint_id", *ids]
    matrix = profile_distance(profiles, profiles)
    rows = ([cid, *dists.tolist()] for cid, dists in zip(ids, matrix))
    return csv_table(header, rows, precision)


def _band_name(lo: float, hi: float) -> str:
    hi_text = "inf" if math.isinf(hi) else fmt(hi, 6)
    return f"band[{fmt(lo, 6)};{hi_text})"


def band_table(tables: Sequence[BandTable]) -> str:
    """Loss-band mass percentages, one checkpoint per row.

    Masses print at a fixed 0.1 percentage-point resolution (so a mass of
    exactly 21% reads "21.0", not "21") and band bounds in the header with 6
    significant digits, so no precision applies.
    """
    if not tables:
        raise ValidationError("no band tables to render")
    bounds = tables[0].bounds
    for t in tables:
        if t.bounds != bounds:
            raise ValidationError("band tables use different bounds")
    header = ["checkpoint_id", *(_band_name(lo, hi) for lo, hi in tables[0].bands)]
    rows = [[t.checkpoint_id, *(f"{m:.1f}" for m in t.mass)] for t in tables]
    return csv_table(header, rows)


def family_stats_table(
    stats: Sequence[tuple[str, int, float, float]],
    precision: int = DEFAULT_PRECISION,
) -> str:
    """Per-family count and mean/std of the standardized tail point p95."""
    header = ["family", "checkpoints", "p95_tilde_mean", "p95_tilde_std"]
    return csv_table(header, list(stats), precision)


def sweep_table(rows: Sequence[SweepRow], precision: int = DEFAULT_PRECISION) -> str:
    """Summary-vs-metric correlations, mean row first then each percentile."""
    if not rows:
        raise ValidationError("no sweep rows to render")
    header = ["summary", "pearson_r", "spearman_rho"]
    return csv_table(
        header, [[r.summary, r.pearson_r, r.spearman_rho] for r in rows], precision
    )


def selection_table(
    table: SelectionTable, precision: int = DEFAULT_PRECISION
) -> str:
    """One row per rule: the winning checkpoint and its deciding value."""
    header = ["rule", "column", "direction", "checkpoint_id", "value"]
    rows = [
        [rule.name, rule.column, rule.direction, row.checkpoint_id, row.value]
        for rule, row in zip(table.rules, table.rows)
    ]
    return csv_table(header, rows, precision)


def dose_table(
    checkpoints: Sequence[LabCheckpoint], precision: int = DEFAULT_PRECISION
) -> str:
    """Dose-response rows, one per lab record with a K (the teacher has
    none): truncation level, trained/oracle, CE summaries."""
    rows = [
        [str(c.k), c.family, c.summary.mean, c.summary.value("median"), c.summary.value("p95")]
        for c in checkpoints if c.k is not None
    ]
    if not rows:
        raise ValidationError("no dose-response rows to render")
    return csv_table(["k", "source", "mean", "median", "p95"], rows, precision)


def crossing_table(
    entries: Sequence[tuple[str, str, float, int | None]],
    precision: int = DEFAULT_PRECISION,
) -> str:
    """Crossing-step results; a missing crossing renders as 'none'."""
    header = ["family", "summary", "reference", "crossing_step"]
    rows = [
        [family, summary, reference, "none" if step is None else step]
        for family, summary, reference, step in entries
    ]
    return csv_table(header, rows, precision)


def markdown_section(title: str, csv_text: str) -> str:
    """A titled fenced-csv block; report documents are a list of these."""
    return f"## {title}\n\n```csv\n{csv_text}```\n"


def markdown_report(title: str, sections: Sequence[tuple[str, str]]) -> str:
    parts = [f"# {title}\n"]
    for section_title, csv_text in sections:
        parts.append(markdown_section(section_title, csv_text))
    return "\n".join(parts)


# SVG output is intentionally minimal: axes, ticks at the extremes, and a
# polyline (or circles) per series. Charts are a convenience view of the CSV
# data, not the canonical output.

_SVG_W, _SVG_H = 640, 400
_MARGIN = 50
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _scale(values: Sequence[float], lo_px: float, hi_px: float):
    vmin = min(values)
    vmax = max(values)
    span = vmax - vmin
    if span == 0:
        span = 1.0
    return lambda v: lo_px + (v - vmin) / span * (hi_px - lo_px), vmin, vmax


def _svg_frame(
    x_label: str,
    y_label: str,
    xmin: float,
    xmax: float,
    ymin: float,
    ymax: float,
) -> list[str]:
    left, right = _MARGIN, _SVG_W - _MARGIN
    top, bottom = _MARGIN, _SVG_H - _MARGIN
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="black"/>',
        f'<text x="{(left + right) / 2:g}" y="{_SVG_H - 10}" text-anchor="middle" '
        f'font-size="12">{x_label}</text>',
        f'<text x="14" y="{(top + bottom) / 2:g}" text-anchor="middle" '
        f'font-size="12" transform="rotate(-90 14 {(top + bottom) / 2:g})">{y_label}</text>',
        f'<text x="{left}" y="{bottom + 16}" font-size="10">{fmt(xmin)}</text>',
        f'<text x="{right}" y="{bottom + 16}" text-anchor="end" font-size="10">{fmt(xmax)}</text>',
        f'<text x="{left - 4}" y="{bottom}" text-anchor="end" font-size="10">{fmt(ymin)}</text>',
        f'<text x="{left - 4}" y="{top + 10}" text-anchor="end" font-size="10">{fmt(ymax)}</text>',
    ]


def svg_chart(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    x_label: str,
    y_label: str,
    kind: str = "line",
) -> str:
    """Render named (xs, ys) series as one SVG line or scatter chart."""
    if kind not in ("line", "scatter"):
        raise ValidationError(f"kind must be line or scatter, got {kind!r}")
    if not series:
        raise ValidationError("no series to chart")
    all_x = [x for _, xs, _ in series for x in xs]
    all_y = [y for _, _, ys in series for y in ys]
    if not all_x:
        raise ValidationError("series contain no points")
    if not all(math.isfinite(v) for v in all_x + all_y):
        raise ValidationError("chart values must be finite")
    sx, xmin, xmax = _scale(all_x, _MARGIN, _SVG_W - _MARGIN)
    sy, ymin, ymax = _scale(all_y, _SVG_H - _MARGIN, _MARGIN)
    parts = _svg_frame(x_label, y_label, xmin, xmax, ymin, ymax)
    for i, (label, xs, ys) in enumerate(series):
        if len(xs) != len(ys):
            raise ValidationError(f"series {label!r}: x/y lengths differ")
        color = _PALETTE[i % len(_PALETTE)]
        pts = [(sx(x), sy(y)) for x, y in zip(xs, ys)]
        if kind == "line":
            coords = " ".join(f"{px:.2f},{py:.2f}" for px, py in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        else:
            for px, py in pts:
                parts.append(
                    f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" fill="{color}"/>'
                )
        parts.append(
            f'<text x="{_SVG_W - _MARGIN + 4}" y="{_MARGIN + 14 * i + 10}" '
            f'font-size="10" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
