"""Command-line entry point.

Subcommands: summarize, concord, shape, correlate, distill-demo, report.
Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 internal
error. Failures print one JSON object per line on stderr so wrappers can
parse them. All outputs are deterministic for identical inputs and seeds.
This module parses flags, scans dumps, composes tables and writes files;
statistics, the profile-grid policy and the lab's checkpoints come from the
library modules, and every table is rendered by render.

Each run reads every dump it needs once: one scan per checkpoint streams
the dump in chunks and yields a ``Scan`` record: its summary over every
percentile the run uses and, where bands are wanted, its band table. All
tables are built from those records. The scan takes the dump's value count
from the manifest check (a positional dump is counted once, before any
scan), so no dump is counted twice. The summary flags (--summaries, --select,
--summary) take summary names only; a manifest metric enters a run only
through --metric, under a name no summary has. What the flags and the
manifest decide (--precision, --ks, --grid, --bands, --k and the lab's
sizes, summary names, a --metric missing a selected checkpoint, what
concordance, the sweep and --crossing refuse, a NaN --reference among them)
is refused by the library's own rules before any dump is streamed or
student trained. Only what dump values decide fails in or after the scan:
a value that is not a valid loss, an undefined IQR, a non-finite or
constant correlation column, a dump changed since it was counted. Usage
errors, a correlate flag its mode does not read among them, come before
the manifest is read. An empty --family list means every family; a
repeated name counts once.
LOSSDIAG_THREADS sets the limit on the worker threads that scan checkpoints
and the worker processes that train distill-demo's students, in place of
the default (workers.worker_count: one per task, at most 8 and at most the
usable CPUs); a set value may exceed both. BLAS runs single-threaded, by
the rule in the package ``__init__``.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from collections import Counter, namedtuple
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import render
from .concordance import _check_rankings, concordance
from .correlate import MetricSeries, _check_reference, _check_steps, _check_sweep_size
from .correlate import crossing_step, default_rules, percentile_sweep, select
from .errors import DivergenceError, StoreFormatError, UsageError, ValidationError
from .quantiles import (
    DEFAULT_KS,
    EXACT_PATH_MAX,
    SummarySet,
    _check_ks,
    _percentile_of,
    _scan_percentiles,
    summarize_chunks,
    summarize_sorted,
)
from .shape import (
    DEFAULT_BAND_BOUNDS,
    PROFILE_GRID,
    BandCounter,
    _check_bounds,
    bands_of_sorted,
    family_tail_stats,
    profile_percentiles,
    standardize_profile,
)
from .store import (
    CheckpointMeta,
    Manifest,
    dump_manifest,
    iter_loss_chunks,
    load_manifest,
    peek_dump_count,
    read_loss_dump,  # not called here; perfbench/tracing.py patches this binding
    write_loss_dump,
)
from .workers import worker_count


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; our contract reserves 2 for
    # data errors, so route parse failures through UsageError instead.
    def error(self, message):
        raise UsageError(message)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise UsageError(f"bad integer list {text!r}") from exc


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise UsageError(f"bad float list {text!r}") from exc


def _str_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _families(text: str) -> list[str] | None:
    return list(dict.fromkeys(_str_list(text))) or None  # each once; [] is all


# Each scan thread keeps a float32 sort buffer from dump to dump and fills
# it one streamed chunk at a time: it holds 4 bytes per value of its largest
# dump plus one chunk, however the threads overlap.
_BUFFERS = threading.local()

# One checkpoint's scan, read by field name; bands is None unless bounds were given.
Scan = namedtuple("Scan", "summary bands")


def _scan(path, checkpoint_id, count, ks, bounds=None, sketch=False):
    """One dump's Scan: its summary over ``ks`` and, given ``bounds``, band table.

    The dump is streamed once, each chunk copied into the thread's float32
    sort buffer, which gives the summary and the bands, or, given ``sketch``
    or past EXACT_PATH_MAX, fed to the sketch and counted into the bands.
    ``count`` is the value count ``peek_dump_count`` measured; a stream of
    any other length (the file changed) is a StoreFormatError.
    """
    exact = not sketch and count <= EXACT_PATH_MAX
    counter = None if bounds is None or exact else BandCounter(checkpoint_id, bounds)

    def chunks():
        seen = 0
        for chunk in iter_loss_chunks(path):
            seen += chunk.size
            if seen > count:
                break
            if counter is not None:
                counter.extend(chunk)
            yield chunk
        if seen != count:
            raise StoreFormatError(f"{path}: changed after {count} values were counted")

    if exact:
        if getattr(_BUFFERS, "size", 0) < count:
            _BUFFERS.size = count
            _BUFFERS.values = np.empty(count, np.float32)
        ascending = _BUFFERS.values[:count]
        filled = 0
        for chunk in chunks():
            ascending[filled:filled + chunk.size] = chunk
            filled += chunk.size
        ascending.sort()
        summary = summarize_sorted(checkpoint_id, ascending, ks)
        bands = None if bounds is None else bands_of_sorted(checkpoint_id, ascending, bounds)
    else:
        summary = summarize_chunks(checkpoint_id, chunks(), ks)
        bands = None if counter is None else counter.table()
    return Scan(summary, bands)


def _scan_many(checkpoints, ks, bounds=None, sketch=False) -> list[Scan]:
    """_scan of each checkpoint's dump at its measured count, in one pool, in order."""
    checkpoints = list(checkpoints)
    with ThreadPoolExecutor(max_workers=worker_count(len(checkpoints))) as pool:
        return list(pool.map(lambda c: _scan(
            c.loss_path, c.checkpoint_id, c.count, ks, bounds, sketch), checkpoints))


def _summary_table(checkpoints, ks) -> dict[str, SummarySet]:
    return {s.summary.checkpoint_id: s.summary for s in _scan_many(checkpoints, ks)}


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_text(Path(out), text)


def _write_dir(out_dir: str, outputs: dict[str, str]) -> None:
    """Write each ``{file name: text}`` under ``out_dir``, then print each path."""
    for name, text in outputs.items():
        _write_text(Path(out_dir) / name, text)
    for name in outputs:
        print(Path(out_dir) / name)


def _metrics(selected, name: str | None) -> dict[str, MetricSeries]:
    """``{name: series}`` of the manifest metric --metric names, ``{}`` for
    none; refused when it has a summary's name or misses a selected checkpoint."""
    if name is None:
        return {}
    values = {c.checkpoint_id: c.metrics[name] for c in selected if name in c.metrics}
    if not values:
        raise ValidationError(f"no checkpoint carries metric {name!r}")
    series = MetricSeries(name, values)
    series.aligned(sorted(c.checkpoint_id for c in selected))
    return {name: series}


# --- summarize ---------------------------------------------------------


def _cmd_summarize(args) -> None:
    checkpoints = ()
    if args.manifest:
        checkpoints = load_manifest(args.manifest).select(args.family)
    elif args.family:
        raise UsageError("--family requires --manifest")
    if not args.paths and not checkpoints:
        raise UsageError("give dump paths and/or --manifest")
    ks = _check_ks(args.ks)
    paths = [Path(p) for p in args.paths]
    named = [(p.stem, p) for p in paths] + [(c.checkpoint_id, c.loss_path) for c in checkpoints]
    first: dict[str, Path] = {}
    for cid, path in named:
        if cid in first:
            raise ValidationError(f"dumps {str(first[cid])!r} and {str(path)!r} share id {cid!r}")
        first[cid] = path
    dumps = [CheckpointMeta(p.stem, "", 0, "", p, count=peek_dump_count(p)) for p in paths]
    scans = _scan_many([*dumps, *checkpoints], ks, None, args.sketch)
    _emit(render.summary_table([s.summary for s in scans], args.precision), args.out)


# --- concord -----------------------------------------------------------


def _family_groups(manifest, families, summaries):
    """Each family's checkpoints, refused here if concordance would refuse them."""
    groups = [(family, manifest.select([family])) for family in families]
    for family, checkpoints in groups:
        _check_rankings(summaries, len(checkpoints), family)
    return groups


def _concordance_reports(groups, table, summaries):
    return [
        concordance({c.checkpoint_id: table[c.checkpoint_id] for c in cs}, summaries, family)
        for family, cs in groups
    ]


def _families_with_pairs(checkpoints) -> list[str]:
    counts = Counter(c.family for c in checkpoints)
    return [f for f, n in counts.items() if n >= 2]


def _cmd_concord(args) -> None:
    if len(args.summaries) < 2:
        raise UsageError("--summaries needs at least two names")
    manifest = load_manifest(args.manifest)
    ks = _scan_percentiles(args.summaries)
    families = args.family or _families_with_pairs(manifest.checkpoints)
    if not families:
        raise ValidationError("no family holds two or more checkpoints")
    groups = _family_groups(manifest, families, args.summaries)
    table = _summary_table([c for _, cs in groups for c in cs], ks)
    reports = _concordance_reports(groups, table, args.summaries)
    _emit(render.concordance_table(reports, args.precision), args.out)


# --- shape -------------------------------------------------------------


def _shape_tables(selected, scans, grid, precision):
    """The four shape CSVs: profiles, distances, bands, per-family stats.

    ``scans`` holds each checkpoint's Scan, its summary over (at least)
    ``profile_percentiles(grid)`` and its band table.
    """
    summaries = [s.summary for s in scans]
    profiles = [standardize_profile(s, grid) for s in summaries]
    stats = family_tail_stats([c.family for c in selected], summaries, profiles)
    return {
        "profiles.csv": render.profile_table(profiles, precision),
        "distances.csv": render.distance_table(profiles, precision),
        "bands.csv": render.band_table([s.bands for s in scans]),
        "family_stats.csv": render.family_stats_table(stats, precision),
    }


_SHAPE_TITLES = {
    "profiles.csv": "Standardized percentile profiles",
    "distances.csv": "Profile distances",
    "bands.csv": "Loss-band mass",
    "family_stats.csv": "Per-family tail statistics",
}


def _cmd_shape(args) -> None:
    manifest = load_manifest(args.manifest)
    ks = _scan_percentiles((), profile_percentiles(args.grid))
    bounds = _check_bounds(args.bands)
    selected = manifest.select(args.family)
    scans = _scan_many(selected, ks, bounds)
    tables = _shape_tables(selected, scans, args.grid, args.precision)
    if args.out_dir is not None:
        _write_dir(args.out_dir, tables)
        return
    for name, text in tables.items():
        sys.stdout.write(render.markdown_section(_SHAPE_TITLES[name], text))


# --- correlate ---------------------------------------------------------


def _cmd_correlate(args) -> None:
    if args.sweep and not args.metric:
        raise UsageError("--sweep requires --metric")
    if args.select is not None and not args.select:
        raise UsageError("--select needs at least one column")
    if args.crossing and args.reference is None:
        raise UsageError("--crossing requires --reference")
    if args.crossing and args.metric is not None:
        raise UsageError("--metric is not read by --crossing")
    for flag, value in (("--reference", args.reference), ("--summary", args.summary)):
        if value is not None and not args.crossing:
            raise UsageError(f"{flag} requires --crossing")
    manifest = load_manifest(args.manifest)

    if args.crossing:
        summary = "median" if args.summary is None else args.summary
        ks = _scan_percentiles([summary])
        _check_reference(args.reference)
        groups = [(f, manifest.select([f])) for f in args.family or manifest.families()]
        for family, cs in groups:
            _check_steps((c.step for c in cs), family)
        table = _summary_table([c for _, cs in groups for c in cs], ks)
        rows = []
        for family, cs in groups:
            series = [(c.step, table[c.checkpoint_id].value(summary)) for c in cs]
            step = crossing_step(series, args.reference)
            rows.append((family, summary, args.reference, step))
        _emit(render.crossing_table(rows, args.precision), args.out)
        return

    selected = manifest.select(args.family)
    if args.sweep:
        _check_sweep_size(len(selected))
        metric = _metrics(selected, args.metric)[args.metric]
        rows = percentile_sweep(_summary_table(selected, DEFAULT_KS), metric)
        _emit(render.sweep_table(rows, args.precision), args.out)
    else:
        ks = _scan_percentiles(args.select)
        metrics = _metrics(selected, args.metric)
        table = _summary_table(selected, ks)
        result = select(table, default_rules([*args.select, *metrics], metrics), metrics)
        _emit(render.selection_table(result, args.precision), args.out)


# --- distill-demo ------------------------------------------------------


def _parse_k_list(text: str) -> tuple:
    ks: list = []
    for part in _str_list(text):
        if part == "full":
            ks.append("full")
            continue
        try:
            ks.append(int(part))
        except ValueError as exc:
            raise UsageError(f"bad K value {part!r}") from exc
    if not ks:
        raise UsageError("--k needs at least one value")
    return tuple(ks)


# The LabConfig sizes distill-demo sets, each by the flag of its name; an
# unset flag keeps the field's default. The other fields are LabConfig's own.
_LAB_FLAGS = ("vocab", "length", "steps", "eval_length")


def _cmd_distill_demo(args) -> None:
    # Imported here, and its names read at call time: only this subcommand
    # needs the lab, and a tracer may have replaced them.
    from . import distill

    given = {f: getattr(args, f) for f in _LAB_FLAGS if getattr(args, f) is not None}
    result = distill.dose_response(distill.LabConfig(ks=_parse_k_list(args.k), **given))
    out = Path(args.out)
    _write_text(out, render.dose_table(result.checkpoints, args.precision))
    print(out)

    # One dump per lab model plus a manifest, so the other subcommands can
    # run on the lab's outputs.
    dump_dir = out.parent / "dumps"
    dump_dir.mkdir(parents=True, exist_ok=True)
    checkpoints = []
    for c, losses in distill.lab_checkpoints(result):
        path = (dump_dir / f"{c.id}.bin").resolve()
        write_loss_dump(losses, path)
        checkpoints.append(CheckpointMeta(c.id, c.family, c.step, c.objective, path, c.metrics))

    manifest_path = out.parent / "manifest.yaml"
    dump_manifest(Manifest(version=1, checkpoints=tuple(checkpoints)), manifest_path)
    print(manifest_path)


# --- report ------------------------------------------------------------


def _report_sections(args) -> tuple[dict[str, str], dict[str, str]]:
    """All report CSVs, in report order, and SVG charts, keyed by file name.

    One scan per checkpoint feeds every table, through the same module calls
    and render functions as the standalone subcommands, so the bytes match
    exactly: a percentile does not depend on which others are scanned with it.
    """
    manifest = load_manifest(args.manifest)
    grid, precision = args.grid, args.precision
    ks = _scan_percentiles(args.summaries, profile_percentiles(grid))
    bounds = _check_bounds(args.bands)
    selected = manifest.select(args.family)
    metrics = _metrics(selected, args.metric)
    groups = _family_groups(manifest, _families_with_pairs(selected), args.summaries)
    scans = _scan_many(selected, ks, bounds)

    summaries = [s.summary.restrict(DEFAULT_KS) for s in scans]
    sections = {"summary.csv": render.summary_table(summaries, precision)}
    table = {s.summary.checkpoint_id: s.summary for s in scans}
    if groups:
        reports = _concordance_reports(groups, table, args.summaries)
        sections["concordance.csv"] = render.concordance_table(reports, precision)
    result = select(table, default_rules([*args.summaries, *metrics], metrics), metrics)
    sections["selection.csv"] = render.selection_table(result, precision)

    sweep_rows = []
    if metrics and len(table) >= 3:
        sweep_rows = percentile_sweep({s.checkpoint_id: s for s in summaries},
                                      metrics[args.metric])
        sections["sweep.csv"] = render.sweep_table(sweep_rows, precision)

    sections.update(_shape_tables(selected, scans, grid, precision))
    return sections, _report_charts(summaries, sweep_rows, precision)


_REPORT_TITLES = {
    "summary.csv": "Checkpoint summaries",
    "concordance.csv": "Summary concordance per family",
    "selection.csv": "Checkpoint selection",
    "sweep.csv": "Percentile correlation sweep",
    **_SHAPE_TITLES,
}


def _report_charts(summaries, sweep_rows, precision: int) -> dict[str, str]:
    """Sweep and scatter charts of the values as their CSV cells show them."""

    def shown(value: float) -> float:
        return float(render.fmt(value, precision))

    charts: dict[str, str] = {}
    rows = [r for r in sweep_rows if r.summary != "mean"]
    if rows:
        ks = [float(_percentile_of(r.summary)) for r in rows]
        charts["sweep.svg"] = render.svg_chart(
            [
                ("pearson_r", ks, [shown(r.pearson_r) for r in rows]),
                ("spearman_rho", ks, [shown(r.spearman_rho) for r in rows]),
            ],
            x_label="percentile",
            y_label="correlation with metric",
            kind="line",
        )
    points = [(shown(s.percentiles[50]), shown(s.mean)) for s in summaries]
    points = [(x, y) for x, y in points if np.isfinite(x) and np.isfinite(y)]
    if len(points) >= 2:
        charts["scatter.svg"] = render.svg_chart(
            [("checkpoints", [x for x, _ in points], [y for _, y in points])],
            x_label="median CE",
            y_label="mean CE",
            kind="scatter",
        )
    return charts


def _cmd_report(args) -> None:
    if len(args.summaries) < 2:
        raise UsageError("report needs at least two summary names")
    sections, charts = _report_sections(args)
    outputs = dict(sections)
    outputs["report.md"] = render.markdown_report(
        "Loss diagnostics report",
        [(_REPORT_TITLES[name], text) for name, text in sections.items()],
    )
    outputs.update(sorted(charts.items()))
    _write_dir(args.out_dir, outputs)


# --- parser ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lossdiag", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    def common(p):
        p.add_argument("--precision", type=int, default=render.DEFAULT_PRECISION,
                       help="significant digits in rendered floats")
        p.add_argument("--out", default=None, help="write CSV here instead of stdout")

    p = sub.add_parser("summarize", help="mean/percentile summaries of loss dumps")
    p.add_argument("paths", nargs="*", help="loss dump files")
    p.add_argument("--manifest", default=None)
    p.add_argument("--family", type=_families, default=None,
                   help="comma-separated family tags (with --manifest)")
    p.add_argument("--ks", type=_int_list, default=list(DEFAULT_KS),
                   help="percentiles to report")
    p.add_argument("--sketch", action="store_true", help="force the sketch path")
    common(p)
    p.set_defaults(func=_cmd_summarize)

    p = sub.add_parser("concord", help="summary concordance across checkpoints")
    p.add_argument("--manifest", required=True)
    p.add_argument("--family", type=_families, default=None)
    p.add_argument("--summaries", type=_str_list, default=["mean", "median", "p95"])
    common(p)
    p.set_defaults(func=_cmd_concord)

    p = sub.add_parser("shape", help="standardized profiles and band tables")
    p.add_argument("--manifest", required=True)
    p.add_argument("--family", type=_families, default=None)
    p.add_argument("--grid", type=_int_list, default=PROFILE_GRID)
    p.add_argument("--bands", type=_float_list, default=list(DEFAULT_BAND_BOUNDS))
    p.add_argument("--out-dir", default=None, help="write the four CSVs here")
    p.add_argument("--precision", type=int, default=render.DEFAULT_PRECISION)
    p.set_defaults(func=_cmd_shape)

    p = sub.add_parser("correlate", help="summary-vs-metric relationships")
    p.add_argument("--manifest", required=True)
    p.add_argument("--family", type=_families, default=None)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--sweep", action="store_true",
                      help="correlate every summary against --metric")
    mode.add_argument("--select", type=_str_list, default=None,
                      help="pick best checkpoints by these summaries and --metric")
    mode.add_argument("--crossing", action="store_true",
                      help="first step a summary drops below --reference")
    p.add_argument("--metric", default=None, help="manifest metric for --sweep or --select")
    p.add_argument("--summary", default=None, help="summary used by --crossing (default: median)")
    p.add_argument("--reference", type=float, default=None)
    common(p)
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("distill-demo", help="synthetic top-K distillation lab")
    for field in _LAB_FLAGS:
        p.add_argument("--" + field.replace("_", "-"), dest=field, type=int,
                       help=f"default: LabConfig.{field}")
    p.add_argument("--k", default="2,4,8,16,full",
                   help="comma-separated truncation levels; include full")
    p.add_argument("--out", required=True, help="dose-response CSV path")
    p.add_argument("--precision", type=int, default=render.DEFAULT_PRECISION)
    p.set_defaults(func=_cmd_distill_demo)

    p = sub.add_parser("report", help="all analyses in one document")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--family", type=_families, default=None)
    p.add_argument("--summaries", type=_str_list, default=["mean", "median", "p95"])
    p.add_argument("--metric", default=None)
    p.add_argument("--grid", type=_int_list, default=PROFILE_GRID)
    p.add_argument("--bands", type=_float_list, default=list(DEFAULT_BAND_BOUNDS))
    p.add_argument("--precision", type=int, default=render.DEFAULT_PRECISION)
    p.set_defaults(func=_cmd_report)

    return parser


def _fail(exc: BaseException, code: int) -> int:
    line = json.dumps(
        {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    )
    print(line, file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            raise UsageError("a subcommand is required (see --help)")
        render.fmt(0.0, args.precision)  # render's own precision rule, before any work
        args.func(args)
        return 0
    except UsageError as exc:
        return _fail(exc, 1)
    except (ValidationError, DivergenceError, OSError) as exc:
        return _fail(exc, 2)
    except KeyboardInterrupt:
        raise
    except Exception as exc:  # anything unplanned is an internal error
        return _fail(exc, 3)


if __name__ == "__main__":
    sys.exit(main())
