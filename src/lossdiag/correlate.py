"""Relating loss summaries to external quality metrics across checkpoints.

Covers: Pearson/Spearman correlations, the per-percentile correlation sweep,
best-checkpoint selection under different summaries, and first-crossing
detection on training trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DegenerateInputError, ValidationError
from .quantiles import SummarySet, _integral, _percentile_of


@dataclass(frozen=True)
class MetricSeries:
    """An external metric (judge score, accuracy, ...) per checkpoint, named unlike any summary."""

    name: str
    values: Mapping[str, float]

    def __post_init__(self):
        if self.name == "mean" or _percentile_of(self.name) is not None:
            raise ValidationError(f"metric {self.name!r} has the name of a summary")
        if not self.values:
            raise ValidationError(f"metric {self.name!r} has no entries")
        values = {str(k): float(v) for k, v in self.values.items()}
        for cid, v in values.items():
            if math.isnan(v):
                raise ValidationError(
                    f"metric {self.name!r} of checkpoint {cid!r} is NaN"
                )
        object.__setattr__(self, "values", values)

    def aligned(self, checkpoint_ids: Sequence[str]) -> np.ndarray:
        missing = [cid for cid in checkpoint_ids if cid not in self.values]
        if missing:
            raise ValidationError(f"metric {self.name!r} missing checkpoints {missing}")
        return np.array([self.values[cid] for cid in checkpoint_ids], dtype=np.float64)


def _check_pair(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("inputs must be one-dimensional and equally long")
    if x.size < 3:
        raise ValidationError("need at least three observations")
    if not np.isfinite(x).all():
        raise ValidationError("first vector contains non-finite values")
    if not np.isfinite(y).all():
        raise ValidationError("second vector contains non-finite values")


def pearson(a: Sequence[float], b: Sequence[float]) -> float:
    """Pearson correlation; degenerate (zero-variance) input is an error."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    _check_pair(x, y)
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.sqrt((xc * xc).sum()))
    sy = float(np.sqrt((yc * yc).sum()))
    if sx == 0.0:
        raise DegenerateInputError("first vector has zero variance")
    if sy == 0.0:
        raise DegenerateInputError("second vector has zero variance")
    return float((xc * yc).sum() / (sx * sy))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties sharing their average rank: a tie group ending at
    cumulative count ``end`` averages ``end - (count - 1) / 2``, exactly."""
    _, group, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2)[group]


def spearman(a: Sequence[float], b: Sequence[float]) -> float:
    """Spearman rank correlation: Pearson on average ranks."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    _check_pair(x, y)
    return pearson(_average_ranks(x), _average_ranks(y))


@dataclass(frozen=True)
class SweepRow:
    summary: str  # "mean" or "pK"
    pearson_r: float
    spearman_rho: float


def _check_sweep_size(n_checkpoints: int) -> None:
    if n_checkpoints < 3:
        raise ValidationError("sweep needs at least three checkpoints")


def percentile_sweep(table: Mapping[str, SummarySet], metric: MetricSeries) -> list[SweepRow]:
    """Correlate the metric against mean CE and against each percentile.

    One row per summary, "mean" first, then ascending k. All checkpoints in
    ``table`` must carry the first one's percentiles and a metric value. A
    column pearson or spearman refuses raises the same error type, its
    message prefixed with the summary and the metric name.
    """
    ids = sorted(table)
    _check_sweep_size(len(ids))
    y = metric.aligned(ids)
    rows = []
    for name in ("mean", *(f"p{k}" for k in table[ids[0]].ks)):
        xs = [table[cid].value(name) for cid in ids]
        try:
            rows.append(SweepRow(name, pearson(xs, y), spearman(xs, y)))
        except ValidationError as exc:  # name the column and the metric
            raise type(exc)(f"sweep of {name} against {metric.name!r}: {exc}") from exc
    return rows


@dataclass(frozen=True)
class SelectionRule:
    """Pick the checkpoint optimizing one column: CE summaries are minimized,
    quality metrics maximized."""

    name: str
    column: str
    direction: str  # "min" | "max"

    def __post_init__(self):
        if self.direction not in ("min", "max"):
            raise ValidationError(f"direction must be min or max, got {self.direction!r}")


@dataclass(frozen=True)
class SelectionRow:
    rule: str
    checkpoint_id: str
    value: float


@dataclass(frozen=True)
class SelectionTable:
    rules: tuple[SelectionRule, ...]
    rows: tuple[SelectionRow, ...]


def select(
    table: Mapping[str, SummarySet],
    rules: Sequence[SelectionRule],
    metrics: Mapping[str, MetricSeries] | None = None,
) -> SelectionTable:
    """Apply each rule over the table; ties break to the lexicographically
    smaller checkpoint id, so selection is deterministic.

    Values compare as floats: a +inf CE summary loses every ``min`` rule to
    any finite value, a +inf metric wins a ``max`` rule and a -inf one loses
    it, and equal infinities tie like any other values. Each key of
    ``metrics`` must be its series' name, so no key shadows a summary.
    """
    if not rules:
        raise ValidationError("no selection rules given")
    metrics = metrics or {}
    for key, series in metrics.items():
        if key != series.name:
            raise ValidationError(f"metric key {key!r} is not its series' name {series.name!r}")
    ids = sorted(table)
    if not ids:
        raise ValidationError("empty summary table")
    rows = []
    for rule in rules:
        if rule.column in metrics:
            values = metrics[rule.column].aligned(ids)
        else:
            values = [table[cid].value(rule.column) for cid in ids]
        # min and max return the first of equal values: ties keep the smaller id.
        pick = min if rule.direction == "min" else max
        best = pick(range(len(ids)), key=values.__getitem__)
        rows.append(SelectionRow(rule.name, ids[best], float(values[best])))
    return SelectionTable(rules=tuple(rules), rows=tuple(rows))


def default_rules(names: Sequence[str], metric_names: Sequence[str]) -> list[SelectionRule]:
    """One rule per distinct summary ("median,p50" is one, as "mean,mean" is)
    or metric, named by its first spelling, in first-seen order. CE summaries
    are minimized, anything that is a known metric is maximized."""
    rules: dict[object, SelectionRule] = {}
    for name in names:
        rule = SelectionRule(name, name, "max" if name in metric_names else "min")
        rules.setdefault(_percentile_of(name) or name, rule)
    return list(rules.values())


def _check_steps(steps, family: str = "") -> None:
    """ValidationError for the smallest repeated step, naming a non-empty ``family``."""
    ordered = sorted(steps)
    for step, following in zip(ordered, ordered[1:]):
        if step == following:
            where = f"family {family!r}: " if family else ""
            raise ValidationError(f"{where}duplicate step {step} in series")


def _check_reference(reference: float) -> None:
    if math.isnan(reference):
        raise ValidationError("crossing reference is NaN")


def crossing_step(
    series: Sequence[tuple[int, float]], reference: float
) -> int | None:
    """First step whose value drops strictly below ``reference``.

    The series is ordered by step before scanning; no interpolation between
    evaluation points. Returns None when the series never crosses; a NaN
    reference, which no value is below, is a ValidationError, as are a
    non-integral or bool step and a NaN value (±inf values are ordered).
    """
    _check_reference(reference)
    if not series:
        raise ValidationError("empty series")
    for step, _ in series:
        if not _integral(step):
            raise ValidationError(f"series step must be an integer, got {step!r}")
    ordered = sorted((int(s), float(v)) for s, v in series)
    _check_steps(s for s, _ in ordered)
    nan_steps = [step for step, value in ordered if math.isnan(value)]
    if nan_steps:
        raise ValidationError(f"series value at step {nan_steps[0]} is NaN")
    for step, value in ordered:
        if value < reference:
            return step
    return None
