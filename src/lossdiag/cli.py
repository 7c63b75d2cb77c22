"""Command-line entry point.

Subcommands: summarize, concord, shape, correlate, distill-demo, report.
Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 internal
error. Failures print one JSON object per line on stderr so wrappers can
parse them. All outputs are deterministic for identical inputs and seeds;
CSV rendering is delegated to the render module, which the report
subcommand shares with the standalone subcommands.

Each run reads every dump it needs once: one scan per checkpoint streams
the dump in chunks and yields its summary over every percentile the run
uses and, where bands are wanted, its band table, and all tables are built
from those results. The scan takes the dump's value count from the
manifest check (a positional dump is counted once, before any scan), so
no dump is counted twice. An empty --family list means every family.
LOSSDIAG_THREADS caps the worker threads that scan checkpoints and the
worker processes that train distill-demo's students (workers.worker_count:
one per task, at most 8 and at most the usable CPUs).
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import render
from .concordance import concordance
from .correlate import MetricSeries, crossing_step, default_rules, percentile_sweep, select
from .distill import (
    LabConfig,
    chain_fidelity,
    dose_response,
    next_token_accuracy,
    per_token_ce,
    true_chain,
)
from .errors import DivergenceError, StoreFormatError, UsageError, ValidationError
from .quantiles import (
    DEFAULT_KS,
    EXACT_PATH_MAX,
    SummarySet,
    summarize_chunks,
    summarize_sorted,
)
from .shape import (
    DEFAULT_BAND_BOUNDS,
    PROFILE_GRID,
    BandCounter,
    standardize_profile,
)
from .store import (
    CheckpointMeta,
    LossVector,
    Manifest,
    dump_manifest,
    iter_loss_chunks,
    load_manifest,
    peek_dump_count,
    read_loss_dump,  # not called here; perfbench/tracing.py patches this binding
    read_metric_file,
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
    return _str_list(text) or None  # an empty list selects every family


# Each scan thread keeps a float32 and a float64 sort buffer from dump to
# dump and fills them one streamed chunk at a time: it holds 12 bytes per
# value of its largest dump plus one chunk, however the threads overlap.
_BUFFERS = threading.local()


def _scan(path, checkpoint_id, count, ks, bounds=None, mode="auto", epsilon=1e-3):
    """Summary of one dump over ``ks`` and, given ``bounds``, its band table.

    The dump is streamed once, each chunk counted into the bands and then
    copied into the thread's sort buffer or, past EXACT_PATH_MAX, fed to
    the sketch. ``count`` is the value count ``peek_dump_count`` measured;
    a stream of any other length (the file changed) is a StoreFormatError.
    """
    counter = None if bounds is None else BandCounter(checkpoint_id, bounds)

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

    if mode == "exact" or (mode == "auto" and count <= EXACT_PATH_MAX):
        if getattr(_BUFFERS, "size", 0) < count:
            _BUFFERS.size = count
            _BUFFERS.f32, _BUFFERS.f64 = np.empty(count, np.float32), np.empty(count)
        values, ascending = _BUFFERS.f32[:count], _BUFFERS.f64[:count]
        filled = 0
        for chunk in chunks():
            values[filled:filled + chunk.size] = chunk
            filled += chunk.size
        values.sort()
        np.copyto(ascending, values)  # exact: every float32 is a float64
        summary = summarize_sorted(checkpoint_id, ascending, ks)
    else:
        summary = summarize_chunks(checkpoint_id, chunks(), ks, epsilon)
    return summary, None if counter is None else counter.table()


def _scan_many(entries, ks, bounds=None, mode="auto", epsilon=1e-3):
    """_scan over (path, checkpoint_id, count) in one thread pool, order-preserving."""
    entries = list(entries)
    with ThreadPoolExecutor(max_workers=worker_count(len(entries))) as pool:
        return list(pool.map(lambda e: _scan(*e, ks, bounds, mode, epsilon), entries))


def _shape_ks(grid) -> tuple[int, ...]:
    """The profile grid plus p95, which the family tail statistic reads."""
    return grid if 95 in grid else (*grid, 95)


def _entries(checkpoints) -> list[tuple[Path, str, int]]:
    """Scan entries of checkpoints whose counts ``load_manifest`` measured."""
    return [(c.loss_path, c.checkpoint_id, c.count) for c in checkpoints]


def _summary_table(checkpoints, ks) -> dict[str, SummarySet]:
    return {s.checkpoint_id: s for s, _ in _scan_many(_entries(checkpoints), ks)}


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_text(Path(out), text)


def _selection_result(manifest: Manifest, families, table, columns):
    metric_names = sorted({n for c in manifest.select(families) for n in c.metrics})
    metrics = {
        name: _metric_series(manifest, name, None, families)
        for name in metric_names
        if name in columns
    }
    return select(table, default_rules(columns, metric_names), metrics)


def _metric_series(
    manifest: Manifest, name: str, metric_file: str | None, families=None
) -> MetricSeries:
    if metric_file is not None:
        return MetricSeries(name, read_metric_file(metric_file))
    values = {
        c.checkpoint_id: c.metrics[name]
        for c in manifest.select(families)
        if name in c.metrics
    }
    if not values:
        raise ValidationError(f"no checkpoint carries metric {name!r}")
    return MetricSeries(name, values)


# --- summarize ---------------------------------------------------------


def _cmd_summarize(args) -> None:
    checkpoints = ()
    if args.manifest:
        checkpoints = load_manifest(args.manifest).select(args.family)
    elif args.family:
        raise UsageError("--family requires --manifest")
    if not args.paths and not checkpoints:
        raise UsageError("give dump paths and/or --manifest")
    paths = [Path(p) for p in args.paths]
    entries = [(p, p.stem, peek_dump_count(p)) for p in paths] + _entries(checkpoints)
    mode = "exact" if args.exact else "sketch" if args.sketch else "auto"
    scans = _scan_many(entries, tuple(args.ks), None, mode, args.epsilon)
    _emit(render.summary_table([s for s, _ in scans], args.precision), args.out)


# --- concord -----------------------------------------------------------


def _concordance_reports(manifest, families, table, summaries):
    reports = []
    for family in families:
        ids = [c.checkpoint_id for c in manifest.select([family])]
        reports.append(concordance({i: table[i] for i in ids}, summaries, family))
    return reports


def _families_with_pairs(checkpoints) -> list[str]:
    counts = Counter(c.family for c in checkpoints)
    return [f for f, n in counts.items() if n >= 2]


def _cmd_concord(args) -> None:
    if len(args.summaries) < 2:
        raise UsageError("--summaries needs at least two names")
    manifest = load_manifest(args.manifest)
    families = args.family or _families_with_pairs(manifest.checkpoints)
    if not families:
        raise ValidationError("no family holds two or more checkpoints")
    selected = [c for family in families for c in manifest.select([family])]
    table = _summary_table(selected, tuple(args.ks))
    reports = _concordance_reports(manifest, families, table, args.summaries)
    _emit(render.concordance_table(reports, args.precision), args.out)


# --- shape -------------------------------------------------------------


def _shape_tables(selected, scans, grid, precision):
    """The four shape CSVs: profiles, distances, bands, per-family stats.

    ``scans`` pairs each checkpoint's summary over ``_shape_ks(grid)`` with
    its band table.
    """
    profiles = [standardize_profile(s, grid) for s, _ in scans]
    bands = [b for _, b in scans]
    by_family: dict[str, list[float]] = {}
    for c, (s, _), p in zip(selected, scans, profiles):
        tail = (s.percentiles[95] - s.percentiles[50]) / p.iqr  # p95 in profile units
        by_family.setdefault(c.family, []).append(tail)
    stats = []
    for fam in sorted(by_family):
        tails = np.array(by_family[fam])
        mean = tails.mean()
        with np.errstate(invalid="ignore"):  # inf - inf, zeroed below
            d = tails - mean
        d[tails == mean] = 0.0  # as in profile_distance: equal infinities add 0
        stats.append((fam, tails.size, float(mean), float(np.sqrt((d * d).mean()))))
    return {
        "profiles.csv": render.profile_table(profiles, precision),
        "distances.csv": render.distance_table(profiles, precision),
        "bands.csv": render.band_table(bands, precision),
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
    grid = tuple(args.grid)
    for needed in (25, 50, 75):
        if needed not in grid:
            raise UsageError(f"--grid must include {needed}")
    selected = manifest.select(args.family)
    scans = _scan_many(_entries(selected), _shape_ks(grid), tuple(args.bands))
    tables = _shape_tables(selected, scans, grid, args.precision)
    if args.out_dir is None:
        for name, text in tables.items():
            sys.stdout.write(render.markdown_section(_SHAPE_TITLES[name], text))
        return
    out_dir = Path(args.out_dir)
    for name, text in tables.items():
        _write_text(out_dir / name, text)
        print(out_dir / name)


# --- correlate ---------------------------------------------------------


def _cmd_correlate(args) -> None:
    modes = [bool(args.sweep), args.select is not None, bool(args.crossing)]
    if sum(modes) != 1:
        raise UsageError("pick exactly one of --sweep, --select, --crossing")
    manifest = load_manifest(args.manifest)
    if args.sweep and not args.metric:
        raise UsageError("--sweep requires --metric")
    if args.select is not None and not args.select:
        raise UsageError("--select needs at least one column")
    if args.crossing and args.reference is None:
        raise UsageError("--crossing requires --reference")

    if args.crossing:
        groups = [(f, manifest.select([f])) for f in args.family or manifest.families()]
        table = _summary_table([c for _, cs in groups for c in cs], tuple(args.ks))
        rows = []
        for family, cs in groups:
            series = [(c.step, table[c.checkpoint_id].value(args.summary)) for c in cs]
            step = crossing_step(series, args.reference)
            rows.append((family, args.summary, args.reference, step))
        _emit(render.crossing_table(rows, args.precision), args.out)
        return

    table = _summary_table(manifest.select(args.family), tuple(args.ks))
    if args.sweep:
        metric = _metric_series(manifest, args.metric, args.metric_file, args.family)
        rows = percentile_sweep(table, metric)
        _emit(render.sweep_table(rows, args.precision), args.out)
    else:
        result = _selection_result(manifest, args.family, table, args.select)
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


def _cmd_distill_demo(args) -> None:
    config = LabConfig(
        vocab=args.vocab,
        zipf_exponent=args.zipf,
        length=args.length,
        alpha=args.alpha,
        ks=_parse_k_list(args.k),
        steps=args.steps,
        learning_rate=args.lr,
        concentration=args.concentration,
        eval_length=args.eval_length,
        epsilon_q=args.epsilon_q,
        seed=args.seed,
    )
    result = dose_response(config)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_text(out, render.dose_table(result.rows, args.precision))
    print(out)

    # CE dumps plus a manifest so every other subcommand can run on the
    # lab's outputs: the teacher under family "teacher", trained students
    # under "trained", converged floors under "oracle". Metrics: accuracy
    # (constant across students of one teacher, by construction) and
    # fidelity against the generating chain (varies with K), the lab's
    # external-judge analogue.
    dump_dir = out.parent / "dumps"
    dump_dir.mkdir(parents=True, exist_ok=True)
    eval_stream = result.eval_stream
    _, truth = true_chain(
        config.seed, config.vocab, config.zipf_exponent, config.concentration
    )
    checkpoints = []

    def add(checkpoint_id, family, step, objective, model):
        ce = per_token_ce(model, eval_stream).astype(np.float32)
        path = (dump_dir / f"{checkpoint_id}.bin").resolve()
        write_loss_dump(LossVector(checkpoint_id, ce), path)
        checkpoints.append(
            CheckpointMeta(
                checkpoint_id=checkpoint_id,
                family=family,
                step=step,
                objective=objective,
                loss_path=path,
                metrics={
                    "accuracy": next_token_accuracy(model, eval_stream),
                    "fidelity": chain_fidelity(model, truth),
                },
            )
        )

    add("teacher", "teacher", 0, "token-ce", result.teacher)
    for k in config.ks:
        label = "full" if k == "full" else str(int(k))
        objective = f"topk-kl:{label}"
        add(f"student-k{label}-trained", "trained", config.steps, objective, result.students[k])
        add(f"student-k{label}-oracle", "oracle", 0, objective, result.oracles[k])

    manifest_path = out.parent / "manifest.yaml"
    dump_manifest(Manifest(version=1, checkpoints=tuple(checkpoints)), manifest_path)
    print(manifest_path)


# --- report ------------------------------------------------------------

_FORMATS = ("csv", "md", "svg")


def _report_sections(args) -> tuple[dict[str, str], dict[str, str]]:
    """All report CSVs, in report order, and SVG charts, keyed by file name.

    One scan per checkpoint feeds every table. Each table gets the summaries
    restricted to the percentiles its standalone subcommand computes and the
    same module calls and render functions, so the bytes match exactly.
    """
    manifest = load_manifest(args.manifest)
    families, grid, precision = args.family, tuple(args.grid), args.precision
    selected = manifest.select(families)
    # Grid values outside 1..99 stay out of the scan; restrict() rejects them
    # where the shape tables are built.
    ks = sorted(set(DEFAULT_KS).union(k for k in grid if 1 <= k <= 99))
    scans = _scan_many(_entries(selected), ks, tuple(args.bands))

    summaries = [s.restrict(DEFAULT_KS) for s, _ in scans]
    sections = {"summary.csv": render.summary_table(summaries, precision)}
    table = {s.checkpoint_id: s for s in summaries}

    pair_families = _families_with_pairs(selected)
    if pair_families:
        reports = _concordance_reports(manifest, pair_families, table, args.summaries)
        sections["concordance.csv"] = render.concordance_table(reports, precision)

    columns = list(args.summaries)
    if args.metric is not None:
        columns.append(args.metric)
    sections["selection.csv"] = render.selection_table(
        _selection_result(manifest, families, table, columns), precision
    )

    sweep_rows = []
    if args.metric is not None and len(table) >= 3:
        metric = _metric_series(manifest, args.metric, None, families)
        sweep_rows = percentile_sweep(table, metric)
        sections["sweep.csv"] = render.sweep_table(sweep_rows, precision)

    grid_scans = [(s.restrict(_shape_ks(grid)), b) for s, b in scans]
    sections.update(_shape_tables(selected, grid_scans, grid, precision))
    svg = "svg" in args.formats
    charts = _report_charts(summaries, sweep_rows, precision) if svg else {}
    return sections, charts


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
        ks = [float(r.summary[1:]) for r in rows]
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
    bad = [f for f in args.formats if f not in _FORMATS]
    if bad:
        raise UsageError(f"unknown format(s) {bad}; choose from {_FORMATS}")
    for needed in (25, 50, 75):
        if needed not in args.grid:
            raise UsageError(f"profile grid must include {needed}")
    sections, charts = _report_sections(args)
    outputs = dict(sections) if "csv" in args.formats else {}
    if "md" in args.formats:
        outputs["report.md"] = render.markdown_report(
            "Loss diagnostics report",
            [(_REPORT_TITLES[name], text) for name, text in sections.items()],
        )
    outputs.update(sorted(charts.items()))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in outputs.items():
        _write_text(out_dir / name, text)
    for name in outputs:
        print(out_dir / name)


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
    p.add_argument("--exact", action="store_true", help="force the exact path")
    p.add_argument("--sketch", action="store_true", help="force the sketch path")
    p.add_argument("--epsilon", type=float, default=1e-3,
                   help="sketch rank-error budget")
    common(p)
    p.set_defaults(func=_cmd_summarize)

    p = sub.add_parser("concord", help="summary concordance across checkpoints")
    p.add_argument("--manifest", required=True)
    p.add_argument("--family", type=_families, default=None)
    p.add_argument("--summaries", type=_str_list, default=["mean", "median", "p95"])
    p.add_argument("--ks", type=_int_list, default=list(DEFAULT_KS))
    common(p)
    p.set_defaults(func=_cmd_concord)

    p = sub.add_parser("shape", help="standardized profiles and band tables")
    p.add_argument("--manifest", required=True)
    p.add_argument("--family", type=_families, default=None)
    p.add_argument("--grid", type=_int_list, default=list(PROFILE_GRID))
    p.add_argument("--bands", type=_float_list, default=list(DEFAULT_BAND_BOUNDS))
    p.add_argument("--out-dir", default=None, help="write the four CSVs here")
    p.add_argument("--precision", type=int, default=render.DEFAULT_PRECISION)
    p.set_defaults(func=_cmd_shape)

    p = sub.add_parser("correlate", help="summary-vs-metric relationships")
    p.add_argument("--manifest", required=True)
    p.add_argument("--family", type=_families, default=None)
    p.add_argument("--sweep", action="store_true",
                   help="correlate every summary against --metric")
    p.add_argument("--select", type=_str_list, default=None,
                   help="pick best checkpoints by these columns")
    p.add_argument("--crossing", action="store_true",
                   help="first step a summary drops below --reference")
    p.add_argument("--metric", default=None)
    p.add_argument("--metric-file", default=None,
                   help="two-column checkpoint_id,value file overriding manifest metrics")
    p.add_argument("--summary", default="median", help="summary used by --crossing")
    p.add_argument("--reference", type=float, default=None)
    p.add_argument("--ks", type=_int_list, default=list(DEFAULT_KS))
    common(p)
    p.set_defaults(func=_cmd_correlate)

    lab = LabConfig()
    p = sub.add_parser("distill-demo", help="synthetic top-K distillation lab")
    p.add_argument("--vocab", type=int, default=lab.vocab)
    p.add_argument("--zipf", type=float, default=lab.zipf_exponent)
    p.add_argument("--length", type=int, default=lab.length)
    p.add_argument("--alpha", type=float, default=lab.alpha)
    p.add_argument("--k", default="2,4,8,16,full",
                   help="comma-separated truncation levels; include full")
    p.add_argument("--steps", type=int, default=lab.steps)
    p.add_argument("--lr", type=float, default=lab.learning_rate)
    p.add_argument("--seed", type=int, default=lab.seed)
    p.add_argument("--concentration", type=float, default=lab.concentration)
    p.add_argument("--eval-length", type=int, default=lab.eval_length)
    p.add_argument("--epsilon-q", type=float, default=lab.epsilon_q)
    p.add_argument("--out", required=True, help="dose-response CSV path")
    p.add_argument("--precision", type=int, default=render.DEFAULT_PRECISION)
    p.set_defaults(func=_cmd_distill_demo)

    p = sub.add_parser("report", help="all analyses in one document")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--family", type=_families, default=None)
    p.add_argument("--summaries", type=_str_list, default=["mean", "median", "p95"])
    p.add_argument("--metric", default=None)
    p.add_argument("--grid", type=_int_list, default=list(PROFILE_GRID))
    p.add_argument("--bands", type=_float_list, default=list(DEFAULT_BAND_BOUNDS))
    p.add_argument("--formats", type=_str_list, default=list(_FORMATS))
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
