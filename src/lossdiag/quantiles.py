"""Exact distributional summaries of per-token loss vectors.

Percentile definition used everywhere in this package: linear interpolation
between closest ranks on the sorted data, index h = (n - 1) * k / 100. The
implementation guards the case where both bracketing order statistics are
+inf (plain ``a + g*(b-a)`` would produce NaN there).
"""

from __future__ import annotations

import copy
import math
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .sketch import build_sketch, float64_sum
from .store import LossVector

# Default percentile grid for summaries: the 5..95 shape grid plus the 1/99
# tails, so downstream profile and sweep consumers always find what they need.
DEFAULT_KS: tuple[int, ...] = (1,) + tuple(range(5, 100, 5)) + (99,)

# Dumps at most this large are summarized exactly unless the sketch is asked
# for; the CLI sketches every larger dump. The exact scan sorts a dump in
# a float32 buffer each scan thread keeps, so at this size 8 scan threads
# hold 2**26 values * 4 bytes * 8 = 2 GiB of sort buffers. The sketch's
# rank-error budget is DEFAULT_EPSILON unless a library caller sets one.
EXACT_PATH_MAX = 1 << 26
DEFAULT_EPSILON = 1e-3


def _integral(value) -> bool:
    """The package's one integer rule: whether value is a number that int()
    leaves unchanged, and not a bool."""
    try:
        return not isinstance(value, (bool, np.bool_)) and int(value) == value
    except (TypeError, ValueError, OverflowError):  # None, NaN, inf, ...
        return False


def _check_ks(ks: Iterable[int]) -> tuple[int, ...]:
    if isinstance(ks, (str, bytes)) or not isinstance(ks, Iterable):  # "50" reads as p5, p0
        raise ValidationError(f"percentiles must be an iterable of integers, got {type(ks).__name__}")
    out = []
    for k in ks:  # read once, so a generator serves
        if not _integral(k) or not 1 <= k <= 99:
            raise ValidationError(f"percentile {k!r} outside 1..99")
        out.append(int(k))
    if not out:
        raise ValidationError("percentile list must not be empty")
    if len(set(out)) != len(out):
        raise ValidationError("duplicate percentiles requested")
    return tuple(out)


_PERCENTILE_NAME = re.compile(r"p(0?[1-9]|[1-9][0-9])")


def _percentile_of(name: str) -> int | None:
    """The percentile a summary name stands for, else None: the one parser of
    summary names. "median" is 50 and "pK" is K for one or two ASCII digits
    naming 1..99, so "p5" and "p05" are one summary and "p050" is none."""
    if name == "median":
        return 50
    match = _PERCENTILE_NAME.fullmatch(name)
    return int(match[1]) if match else None


def _scan_percentiles(names: Iterable[str], grid: Iterable[int] = ()) -> tuple[int, ...]:
    """The one rule for the percentiles a run scans, ascending: DEFAULT_KS,
    ``grid`` and each percentile a summary name asks for. ValidationError for
    the first of ``names`` that is neither "mean" nor a percentile name."""
    ks = set(DEFAULT_KS).union(grid)
    for name in names:
        k = _percentile_of(name)
        if k is not None:
            ks.add(k)
        elif name != "mean":
            raise ValidationError(f"no summary named {name!r}")
    return tuple(sorted(ks))


def percentiles_of_sorted(sorted_values: np.ndarray, ks: Sequence[int]) -> np.ndarray:
    """Percentiles of an ascending float32 or float64 array, +inf tolerated.

    Only the bracketing order statistics are cast to float64, exactly, so a
    float32 array gives the percentiles of its float64 copy.
    """
    n = sorted_values.size
    ks_arr = np.asarray(ks, dtype=np.float64)
    h = (n - 1) * ks_arr / 100.0
    lo = np.floor(h).astype(np.int64)
    hi = np.ceil(h).astype(np.int64)
    g = h - lo
    a = sorted_values[lo].astype(np.float64)
    b = sorted_values[hi].astype(np.float64)
    # Interpolate only where the bracket is a proper finite gap; b == a and
    # inf brackets both collapse to the lower order statistic.
    with np.errstate(invalid="ignore"):
        interp = a + g * (b - a)
    out = np.where((g == 0) | (a == b) | ~np.isfinite(a), a, interp)
    return out


@dataclass(frozen=True)
class SummarySet:
    """Mean plus a percentile grid for one checkpoint's loss distribution."""

    checkpoint_id: str
    mean: float
    percentiles: Mapping[int, float]
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValidationError(f"{self.checkpoint_id}: count must be >= 1")
        ks = _check_ks(self.percentiles)
        pct = {k: float(self.percentiles[k]) for k in sorted(ks)}
        for k, v in pct.items():
            if math.isnan(v):
                raise ValidationError(f"{self.checkpoint_id}: percentile p{k} is NaN")
        values = list(pct.values())
        for left, right, k in zip(values, values[1:], list(pct)[1:]):
            if right < left:
                raise ValidationError(
                    f"{self.checkpoint_id}: percentiles not non-decreasing at p{k}"
                )
        if not self.mean >= 0:
            raise ValidationError(f"{self.checkpoint_id}: mean must be >= 0")
        object.__setattr__(self, "percentiles", pct)
        object.__setattr__(self, "mean", float(self.mean))

    @property
    def ks(self) -> tuple[int, ...]:
        return tuple(self.percentiles)

    def restrict(self, ks: Sequence[int]) -> "SummarySet":
        """The same summary over ``ks``; ValidationError naming those of ``ks``
        it lacks. A subset of checked percentiles needs no new check."""
        ks = _check_ks(ks)
        missing = [k for k in ks if k not in self.percentiles]
        if missing:
            raise ValidationError(
                f"{self.checkpoint_id}: summary lacks percentiles {missing}"
            )
        out = copy.copy(self)
        pct = {k: v for k, v in self.percentiles.items() if k in ks}
        object.__setattr__(out, "percentiles", pct)
        return out

    def value(self, name: str) -> float:
        """Resolve a summary by name: "mean", "median", or "pK" (e.g. "p95")."""
        if name == "mean":
            return self.mean
        k = _percentile_of(name)
        if k in self.percentiles:
            return self.percentiles[k]
        raise ValidationError(
            f"checkpoint {self.checkpoint_id!r} has no summary named {name!r}"
        )


def summarize_exact(losses: LossVector, ks: Sequence[int] = DEFAULT_KS) -> SummarySet:
    """Exact mean and percentiles of one loss vector.

    Sorts the float32 values; the cast to float64 is exact and monotone, so
    this equals sorting a float64 copy, at half the sort's cost and with no
    float64 copy. The mean is the float64 sum in sorted order. Fine up to
    EXACT_PATH_MAX values. A +inf mean is documented behavior, not an error
    (dumps may carry the +inf sentinel).
    """
    return summarize_sorted(losses.checkpoint_id, np.sort(losses.losses), ks)


def summarize_sorted(
    checkpoint_id: str, ascending: np.ndarray, ks: Sequence[int] = DEFAULT_KS
) -> SummarySet:
    """summarize_exact of losses sorted by the caller, float32 or float64.

    The mean is ``ascending.astype(np.float64).mean()`` bit for bit, summed
    without the float64 copy.
    """
    ks = _check_ks(ks)
    pct = dict(zip(ks, percentiles_of_sorted(ascending, ks).tolist()))
    mean = float(float64_sum(ascending)) / ascending.size
    return SummarySet(checkpoint_id, mean, pct, ascending.size)


def summarize_chunks(
    checkpoint_id: str,
    chunks: Iterable[np.ndarray],
    ks: Sequence[int] = DEFAULT_KS,
    epsilon: float = DEFAULT_EPSILON,
) -> SummarySet:
    """Sketch-backed summary of an iterable of loss chunks.

    The exact path sorts everything; this one keeps memory bounded and is
    what the CLI uses past EXACT_PATH_MAX. The mean stays exact.
    """
    ks = _check_ks(ks)
    sketch = build_sketch(chunks, epsilon)
    if sketch.count == 0:
        raise ValidationError(f"{checkpoint_id}: no values streamed")
    # query() is monotone in k, so the percentiles are non-decreasing and
    # each one is the same whichever others are requested with it.
    return SummarySet(
        checkpoint_id=checkpoint_id,
        mean=sketch.total / sketch.count,
        percentiles=dict(zip(ks, sketch.query(ks).tolist())),
        count=sketch.count,
    )
