"""Independent checks of the CLI's outputs.

References come from the dump files read with plain numpy, never from
lossdiag code: exact summaries from ``np.percentile(method="linear")`` on
float64, band masses from ``np.histogram`` counts, and sketch rank windows
from the sorted values. Each check returns a list of problems; an empty
list means the output is correct.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from perfbench.workspace import read_values

KS = (1,) + tuple(range(5, 100, 5)) + (99,)  # the CLI's default grid
BAND_EDGES = np.array([0.0, 0.1, 0.5, 1.5, 5.0, 10.0, math.inf])
SKETCH_EPSILON = 1e-3  # the CLI's default rank-error budget
MAGIC = b"CELOSSv1"


@dataclass(frozen=True)
class Reference:
    checkpoint_id: str
    count: int
    mean: float
    percentiles: tuple[float, ...]  # exact, one per KS entry (empty if unused)
    band_counts: tuple[int, ...]  # exact (empty if unused)
    windows: tuple[tuple[float, float], ...]  # sketch value windows per KS entry


def manifest_dumps(manifest: Path) -> list[tuple[str, Path]]:
    doc = yaml.safe_load(manifest.read_text(encoding="utf-8"))
    return [(c["id"], manifest.parent / c["loss"]) for c in doc["checkpoints"]]


def references(manifest: Path, exact: bool, sketch: bool) -> list[Reference]:
    refs = []
    for cid, path in manifest_dumps(manifest):
        x32 = np.sort(read_values(path))
        x = x32.astype(np.float64)
        n = x.size
        pct = bands = windows = ()
        if exact:
            pct = tuple(np.percentile(x, KS, method="linear").tolist())
            bands = tuple(np.histogram(x, bins=BAND_EDGES)[0].tolist())
        if sketch:
            # The sketch answers with a stored value whose rank is within
            # epsilon*n of k*n/100; one rank of slack on each side.
            slack = SKETCH_EPSILON * n
            windows = tuple(
                (
                    float(x[max(0, math.floor(k * n / 100 - slack) - 1)]),
                    float(x[min(n - 1, math.ceil(k * n / 100 + slack))]),
                )
                for k in KS
            )
        refs.append(Reference(cid, n, float(x.mean()), pct, bands, windows))
    return refs


def fmt(value: float) -> str:
    """Six significant digits, the CLI's default rendering."""
    return format(value + 0.0, ".6g")


def _same_rendering(cell: str, ref: float) -> bool:
    # Summation order may move the reference by a few ulps; accept either
    # neighbour's rendering so a rounding boundary is not a false failure.
    return cell in {fmt(ref), fmt(ref * (1 - 1e-12)), fmt(ref * (1 + 1e-12))}


def _within(cell: str, lo: float, hi: float) -> bool:
    value = float(cell)
    tol = 1e-5 * abs(value)  # at least half a unit of the sixth digit
    return value + tol >= lo and value - tol <= hi


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _ordered_rows(path: Path, refs: list[Reference]) -> tuple[list, list[str]]:
    """Rows of a per-checkpoint CSV, which must follow the manifest order."""
    rows = _rows(path)
    if [r["checkpoint_id"] for r in rows] != [r.checkpoint_id for r in refs]:
        return [], [f"{path.name}: rows are not the manifest's checkpoints in order"]
    return rows, []


def _summary_rows(path: Path, refs: list[Reference]) -> tuple[list, list[str]]:
    rows, problems = _ordered_rows(path, refs)
    problems += [
        f"{path.name}: {ref.checkpoint_id} count {row['count']} != {ref.count}"
        for row, ref in zip(rows, refs)
        if int(row["count"]) != ref.count
    ]
    return rows, problems


def check_exact_summary(path: Path, refs: list[Reference]) -> list[str]:
    rows, problems = _summary_rows(path, refs)
    for row, ref in zip(rows, refs):
        cells = [("mean", ref.mean)] + [
            (f"p{k:02d}", v) for k, v in zip(KS, ref.percentiles)
        ]
        problems += [
            f"{path.name}: {ref.checkpoint_id} {col} {row[col]} != {fmt(v)}"
            for col, v in cells
            if not _same_rendering(row[col], v)
        ]
    return problems


def check_sketch_summary(path: Path, refs: list[Reference]) -> list[str]:
    rows, problems = _summary_rows(path, refs)
    for row, ref in zip(rows, refs):
        # The streamed mean sums chunk by chunk, so it may differ from the
        # reference in the last digits; +inf renders identically.
        if row["mean"] != fmt(ref.mean) and not _within(row["mean"], ref.mean, ref.mean):
            problems.append(f"{path.name}: {ref.checkpoint_id} mean {row['mean']} != {fmt(ref.mean)}")
        for k, (lo, hi) in zip(KS, ref.windows):
            cell = row[f"p{k:02d}"]
            if not _within(cell, lo, hi):
                problems.append(
                    f"{path.name}: {ref.checkpoint_id} p{k} {cell} outside rank window [{lo}, {hi}]"
                )
    return problems


def check_bands(path: Path, refs: list[Reference]) -> list[str]:
    rows, problems = _ordered_rows(path, refs)
    for row, ref in zip(rows, refs):
        cells = list(row.values())[1:]
        want = [f"{100.0 * c / ref.count:.1f}" for c in ref.band_counts]
        if cells != want:
            problems.append(f"{path.name}: {ref.checkpoint_id} bands {cells} != {want}")
    return problems


def _dump_problems(path: Path) -> list[str]:
    if not path.is_file():
        return [f"missing dump {path.name}"]
    with open(path, "rb") as fh:
        head = fh.read(16)
    if len(head) < 16 or head[:8] != MAGIC:
        return [f"{path.name}: bad header"]
    count = int.from_bytes(head[8:], "little")
    if path.stat().st_size != 16 + 4 * count:
        return [f"{path.name}: size does not match its count {count}"]
    return []


def check_distill(out: Path, full_config: bool) -> list[str]:
    """The 11 dumps and manifest exist, and dose.csv shows the lab's signature.

    Signature (criterion 7): at K=4 the converged student's median CE is
    below the full-K one's while its mean is above; with the default
    config every trained student is within 5% of its converged floor, and
    some trained student beats the teacher's median CE while losing on the
    mean. The teacher's summaries come from its dump.
    """
    manifest = out / "manifest.yaml"
    if not manifest.is_file():
        return ["missing manifest.yaml"]
    dumps = manifest_dumps(manifest)
    problems = [] if len(dumps) == 11 else [f"manifest lists {len(dumps)} dumps, not 11"]
    for _, path in dumps:
        problems += _dump_problems(path)
    rows = {(r["k"], r["source"]): r for r in _rows(out / "dose.csv")}

    def value(k: str, source: str, col: str) -> float:
        return float(rows[(k, source)][col])

    ks = sorted({k for k, _ in rows})
    if not (
        value("4", "oracle", "median") < value("full", "oracle", "median")
        and value("4", "oracle", "mean") > value("full", "oracle", "mean")
    ):
        problems.append("dose.csv: no median-down/mean-up signature at K=4")
    if full_config:
        for k in ks:
            for col in ("mean", "median"):
                floor = value(k, "oracle", col)
                if abs(value(k, "trained", col) - floor) > 0.05 * floor:
                    problems.append(f"dose.csv: K={k} trained {col} not within 5% of oracle")
        teacher = read_values(out / "dumps" / "teacher.bin").astype(np.float64)
        t_median, t_mean = float(np.percentile(teacher, 50)), float(teacher.mean())
        if not any(
            value(k, "trained", "median") < t_median and value(k, "trained", "mean") > t_mean
            for k in ks
        ):
            problems.append("dose.csv: no trained student beats the teacher median while losing on the mean")
    return problems
