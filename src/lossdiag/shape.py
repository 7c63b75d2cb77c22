"""Location/scale-free views of a loss distribution's shape.

Two tools: standardized percentile profiles (each percentile re-expressed
as IQR units above the median, which makes checkpoints with different loss
scales comparable) and band tables (what fraction of token losses falls
into fixed nat ranges, i.e. where the probability mass sits). Also the
percentiles a profile grid needs and each family's tail statistic.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DegenerateInputError, ValidationError
from .quantiles import SummarySet, _check_ks
from .store import LossVector

# Percentile grid for profiles; includes the quartiles used as anchors.
PROFILE_GRID: tuple[int, ...] = tuple(range(5, 100, 5))

# Default band bounds in nats; bands are [0, 0.1), [0.1, 0.5), ..., [10, inf).
DEFAULT_BAND_BOUNDS: tuple[float, ...] = (0.1, 0.5, 1.5, 5.0, 10.0)


@dataclass(frozen=True)
class PercentileProfile:
    """Percentiles standardized to (p_k - p50) / (p75 - p25) on a fixed grid."""

    checkpoint_id: str
    grid: tuple[int, ...]
    values: Mapping[int, float]
    iqr: float

    def as_array(self) -> np.ndarray:
        return np.array([self.values[k] for k in self.grid], dtype=np.float64)


def _check_grid(grid: Sequence[int]) -> tuple[int, ...]:
    """The one profile-grid rule: a percentile list, checked as any, that
    holds the quartiles; ValidationError naming what is wrong."""
    grid = _check_ks(grid)
    for needed in (25, 50, 75):
        if needed not in grid:
            raise ValidationError(f"profile grid must contain {needed}")
    return grid


def profile_percentiles(grid: Sequence[int]) -> tuple[int, ...]:
    """The grid plus p95, which family_tail_stats reads; ValidationError on a
    grid that standardize_profile would refuse."""
    grid = _check_grid(grid)
    return grid if 95 in grid else (*grid, 95)


def standardize_profile(summary: SummarySet, grid: Sequence[int] = PROFILE_GRID) -> PercentileProfile:
    """Standardize a summary's percentiles; needs p25/p50/p75 on the grid.

    Raises DegenerateInputError, naming the quartiles, when the IQR is zero
    or infinite (a constant-loss checkpoint has no shape to standardize, and
    neither has one with +inf on a quarter of its tokens); never silently
    returns NaN.
    """
    grid = _check_grid(grid)
    pct = summary.restrict(grid).percentiles
    p25, p50, p75 = pct[25], pct[50], pct[75]
    iqr = p75 - p25
    if not iqr > 0 or not math.isfinite(iqr):
        # Name the quartiles: with both at +inf, p75 - p25 is nan.
        quartiles = f"p25 = p75 = {p25}" if p25 == p75 else f"p25 = {p25}, p75 = {p75}"
        raise DegenerateInputError(
            f"{summary.checkpoint_id}: {quartiles}, no finite positive IQR; "
            "profile undefined"
        )
    values = {k: (pct[k] - p50) / iqr for k in grid}
    # Pin the anchors so the defining identities hold bitwise: the formula
    # can miss p75-tilde - p25-tilde == 1 by one ulp.
    values[50] = 0.0
    values[75] = (p75 - p50) / iqr
    values[25] = values[75] - 1.0
    return PercentileProfile(
        checkpoint_id=summary.checkpoint_id, grid=grid, values=values, iqr=iqr
    )


def _stack(profiles: Sequence[PercentileProfile], grid: tuple[int, ...]) -> np.ndarray:
    for p in profiles:
        if p.grid != grid:
            raise ValidationError(f"profile grids differ: {grid} vs {p.grid}")
    return np.stack([p.as_array() for p in profiles])


def _difference(a: np.ndarray, b) -> np.ndarray:
    """a - b, with equal entries, equal infinities included, exactly 0."""
    with np.errstate(invalid="ignore"):  # inf - inf, zeroed below
        d = a - b
    d[a == b] = 0.0
    return d


def profile_distance(
    a: PercentileProfile | Sequence[PercentileProfile],
    b: PercentileProfile | Sequence[PercentileProfile],
) -> float | np.ndarray:
    """Euclidean distance between profiles on their shared grid.

    Each side is one profile or a sequence of them, as ``k`` is in
    ``QuantileSketch.query``: two single profiles give a float, anything
    else a ``(len(a), len(b))`` array, bit-equal to ``np.linalg.norm`` of
    each pair's difference. Equal entries, equal infinities included,
    contribute exactly 0, so a profile's distance to itself is 0 even with
    a +inf tail; +inf against a finite value gives inf.
    """
    single = isinstance(a, PercentileProfile) and isinstance(b, PercentileProfile)
    left = [a] if isinstance(a, PercentileProfile) else list(a)
    right = [b] if isinstance(b, PercentileProfile) else list(b)
    if not left or not right:
        raise ValidationError("need at least one profile on each side")
    grid = left[0].grid
    rows, cols = _stack(left, grid), _stack(right, grid)
    out = np.empty((len(left), len(right)))
    for i, row in enumerate(rows):
        d = _difference(row, cols)
        # A stacked vector.vector matmul runs the same dot as np.linalg.norm,
        # so each entry is bit-equal to it.
        out[i] = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])
    return float(out[0, 0]) if single else out


def family_tail_stats(
    families: Sequence[str],
    summaries: Sequence[SummarySet],
    profiles: Sequence[PercentileProfile],
) -> list[tuple[str, int, float, float]]:
    """(family, checkpoints, mean, spread) of the standardized tail point
    (p95 - p50) / IQR, per family in name order.

    ``summaries[i]`` carries p95, belongs to ``families[i]`` and has profile
    ``profiles[i]``. The spread is the population standard deviation; a tail
    equal to the mean, +inf included, deviates by exactly 0, so +inf tails
    alone have spread 0 and +inf mixed with finite tails has spread inf.
    """
    tails: dict[str, list[float]] = {}
    for family, s, p in zip(families, summaries, profiles):
        tails.setdefault(family, []).append((s.percentiles[95] - s.percentiles[50]) / p.iqr)
    stats = []
    for family in sorted(tails):
        t = np.array(tails[family])
        mean = t.mean()
        d = _difference(t, mean)
        stats.append((family, t.size, float(mean), float(np.sqrt((d * d).mean()))))
    return stats


@dataclass(frozen=True)
class BandTable:
    """Percentage of token losses per nat band; bands partition [0, inf)."""

    checkpoint_id: str
    bounds: tuple[float, ...]
    mass: tuple[float, ...]  # one entry per band, in percent

    @property
    def bands(self) -> tuple[tuple[float, float], ...]:
        edges = (0.0,) + self.bounds + (math.inf,)
        return tuple(zip(edges[:-1], edges[1:]))


def _check_bounds(bounds: Sequence[float]) -> tuple[float, ...]:
    bounds = tuple(bounds)
    for b in bounds:
        if isinstance(b, bool) or not isinstance(b, numbers.Real):
            raise ValidationError(f"band bound {b!r} is not a number")
    try:
        out = tuple(float(b) for b in bounds)
    except OverflowError:  # an int past the float range
        raise ValidationError("band bounds must be finite") from None
    if not out:
        raise ValidationError("need at least one band bound")
    if out[0] <= 0:
        raise ValidationError("band bounds must be positive")
    if any(hi <= lo for lo, hi in zip(out, out[1:])):
        raise ValidationError("band bounds must be strictly increasing")
    if not all(math.isfinite(b) for b in out):
        raise ValidationError("band bounds must be finite")
    return out


def _float32_thresholds(bounds: tuple[float, ...]) -> np.ndarray:
    """Smallest float32 >= each bound (+inf past the float32 maximum).

    For a float32 x, ``x >= t`` then holds exactly when ``float64(x) >= b``,
    so comparing against t counts as a float64 histogram would.
    """
    with np.errstate(over="ignore"):
        t = np.array(bounds, dtype=np.float32)
        low = t.astype(np.float64) < np.array(bounds)
        t[low] = np.nextafter(t[low], np.float32(np.inf))
    return t


def _band_table(checkpoint_id: str, bounds: tuple[float, ...], n: int, at_or_above) -> BandTable:
    """Table of ``n`` losses from the count at or above each bound's threshold."""
    counts = -np.diff([n, *at_or_above, 0])
    # Every loss is >= 0 (NaN rejected), so each lands in exactly one band.
    return BandTable(checkpoint_id, bounds, tuple(100.0 * c / n for c in counts))


class BandCounter:
    """Band counts of unsorted losses, accumulated chunk by chunk; exact, so
    chunking never changes the table. band_masses counts a whole vector as
    one chunk; bands_of_sorted gives the same table for sorted losses.

    Chunks are float32 losses; each band count is the difference of two
    counts of values at or above a bound, taken at the bound's exact
    float32 threshold.
    """

    def __init__(self, checkpoint_id: str, bounds: Sequence[float]):
        self.checkpoint_id = checkpoint_id
        self.bounds = _check_bounds(bounds)
        self._thresholds = _float32_thresholds(self.bounds)
        self._n = 0
        self._at_or_above = np.zeros(len(self.bounds), dtype=np.int64)

    def extend(self, chunk: np.ndarray) -> None:
        x = np.asarray(chunk, dtype=np.float32)
        self._n += x.size
        self._at_or_above += [np.count_nonzero(x >= t) for t in self._thresholds]

    def table(self) -> BandTable:
        return _band_table(self.checkpoint_id, self.bounds, self._n, self._at_or_above)


def bands_of_sorted(checkpoint_id: str, ascending: np.ndarray, bounds: Sequence[float]) -> BandTable:
    """band_masses of ascending float32 losses, one binary search per bound."""
    bounds = _check_bounds(bounds)
    x = np.asarray(ascending, dtype=np.float32)
    at_or_above = x.size - np.searchsorted(x, _float32_thresholds(bounds), side="left")
    return _band_table(checkpoint_id, bounds, x.size, at_or_above)


def band_masses(
    losses: LossVector, bounds: Sequence[float] = DEFAULT_BAND_BOUNDS
) -> BandTable:
    """Histogram of losses over [0,b1), [b1,b2), ..., [bn,inf), in percent.

    Each band is closed below and open above; +inf losses land in the last
    band. Masses sum to 100 up to float rounding.
    """
    counter = BandCounter(losses.checkpoint_id, bounds)
    counter.extend(losses.losses)
    return counter.table()

