"""Mergeable streaming quantile sketch with a deterministic rank-error bound.

Structure: a hierarchy of buffers ("levels"), where every item stored at
level L stands for 2**L original items. When a level reaches capacity its
buffer is sorted and halved: alternating elements survive with doubled
weight and move up one level. Keeping the even- or odd-indexed half of a
sorted buffer of weight-w items perturbs the rank of any query point by at
most w, so a stream of n items suffers a total worst-case rank error of

    sum over levels of (compactions at L) * 2**L
        <= levels * n / (capacity - 1)

Choosing capacity = ceil(MAX_LEVELS / epsilon) + 1 therefore guarantees an
additive rank error of at most epsilon * n for any stream shorter than
2**MAX_LEVELS, with no randomness anywhere: rebuilding a sketch from the
same stream is bit-identical. The surviving-half parity alternates per
level, which cancels most of the realized error in practice.

Levels store values in the dtype they were fed: a float32 stream stays
float32 and any other input is cast to float64. The cast from float32 is
exact and keeps order, so both dtypes store and answer the same values;
only the answers of query() are cast to float64. A level that holds both
dtypes, as after merging a float32 sketch with a float64 one, is promoted
to float64 when its arrays are next joined, compacted or queried.

Memory is bounded by capacity * (number of occupied levels) values, i.e.
independent of n up to the log factor. The bound is the worst case, a full
buffer on every level: at epsilon = 1e-3 on 1e7 values it is 64,001 values
on each of 9 levels, about 2.3 MB in float32 (4.6 MB in float64). A
1e7-value stream fed in 2**20-value chunks actually leaves 149,785 values
(about 0.6 MB in float32).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError

# Levels cover streams up to 2**64 items; the capacity rule keeps the error
# bound valid even if every level compacts as often as possible.
MAX_LEVELS = 64

# float64_sum casts at most this many values at a time.
_SUM_BLOCK = 1 << 16


def float64_sum(values: np.ndarray) -> np.float64:
    """``values.astype(np.float64).sum()`` bit for bit, one block at a time.

    numpy sums a float64 array pairwise, splitting n values at n/2 rounded
    down to a multiple of 8 (Higham, SIAM J. Sci. Comput. 1993). Following
    that split down to blocks of _SUM_BLOCK values and summing each block
    as numpy would keeps every partial sum, so a float32 array is summed in
    float64 without a float64 copy of it.
    """
    n = values.size
    if n <= _SUM_BLOCK:
        return values.astype(np.float64, copy=False).sum()
    half = n // 2 - n // 2 % 8
    return float64_sum(values[:half]) + float64_sum(values[half:])


class QuantileSketch:
    """Bounded-memory quantile summary; build with extend(), combine with merge()."""

    __slots__ = ("epsilon", "count", "total", "_cap", "_levels", "_parity")

    def __init__(self, epsilon: float):
        if not 0.0 < epsilon <= 0.01:
            raise ValidationError(f"epsilon must be in (0, 0.01], got {epsilon!r}")
        self.epsilon = float(epsilon)
        self.count = 0
        # Exact float64 sum of everything ingested, for an exact mean.
        self.total = 0.0
        self._cap = math.ceil(MAX_LEVELS / self.epsilon) + 1
        self._levels: list[list[np.ndarray]] = [[]]
        self._parity: list[int] = [0]

    def extend(self, values) -> None:
        """Ingest a chunk of values (any array-like; +inf allowed, NaN not).

        A float32 chunk is kept as float32; anything else is cast to float64.
        """
        arr = np.asarray(values)
        if arr.dtype != np.float32:
            arr = arr.astype(np.float64, copy=False)
        arr = arr.ravel()
        if arr.size == 0:
            return
        # A NaN makes the sum NaN; so does +inf with -inf, the one case
        # that needs the scan for NaN.
        with np.errstate(invalid="ignore"):
            total = float(float64_sum(arr))
        if math.isnan(total) and np.isnan(arr).any():
            raise ValidationError("sketch input contains NaN")
        # Feed at most one capacity's worth at a time so level 0 never grows
        # past 2 * capacity regardless of the chunk size handed to us. A full
        # slice is compacted (copied) at once; a shorter one may wait at
        # level 0, so it is copied in case the caller reuses its array.
        for off in range(0, arr.size, self._cap):
            part = arr[off : off + self._cap]
            self._push(0, part if part.size == self._cap else part.copy())
        self.count += int(arr.size)
        self.total += total

    def _push(self, level: int, arr: np.ndarray) -> None:
        while level >= len(self._levels):
            self._levels.append([])
            self._parity.append(0)
        arrays = self._levels[level]
        arrays.append(arr)
        if len(arrays) > 8:  # join small chunks, so the size below stays a short sum
            arrays[:] = [np.concatenate(arrays)]
        # _compact's push of its promoted half compacts each higher level it fills.
        if sum(map(len, arrays)) >= self._cap:
            self._compact(level)

    def _compact(self, level: int) -> None:
        buf = np.concatenate(self._levels[level])
        buf.sort()
        even = buf.size - buf.size % 2
        # An odd last value stays behind; the rest is halved and promoted.
        self._levels[level] = [buf[even:].copy()] if even < buf.size else []
        promoted = buf[self._parity[level] : even : 2].copy()
        self._parity[level] ^= 1
        self._push(level + 1, promoted)

    def query(self, k: float | Sequence[float]) -> float | np.ndarray:
        """Value whose rank is within +-epsilon*count of k*count/100.

        ``k`` is one percentile or a sequence of them, as in np.percentile;
        a sequence gives an array and costs one sort of the stored values.
        """
        ks = np.asarray(k, dtype=np.float64)
        if not ((ks >= 0.0) & (ks <= 100.0)).all():
            raise ValidationError(f"percentile {k!r} outside 0..100")
        if self.count == 0:
            raise ValidationError("cannot query an empty sketch")
        parts = []
        weights = []
        for level, arrays in enumerate(self._levels):
            if not arrays:
                continue
            vals = np.concatenate(arrays)
            parts.append(vals)
            weights.append(np.full(vals.size, 1 << level, dtype=np.int64))
        vals = np.concatenate(parts)
        wts = np.concatenate(weights)
        order = np.argsort(vals, kind="stable")
        cum = np.cumsum(wts[order])
        # The weights sum to count, so a target in [0, count] always lands
        # on a stored value; one below the first weight lands on the first.
        idx = np.searchsorted(cum, ks * self.count / 100.0, side="left")
        out = vals[order[idx]].astype(np.float64)
        return float(out) if out.ndim == 0 else out

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Combine two sketches; inputs are left untouched.

        The result carries the tighter epsilon of the two. Levels of a float32
        and a float64 sketch are combined in float64. Merging is
        commutative and associative in its guarantee (the worst-case error
        bound holds for any merge order), not in exact output bits.
        """
        if not isinstance(other, QuantileSketch):
            raise ValidationError("can only merge with another QuantileSketch")
        out = QuantileSketch(min(self.epsilon, other.epsilon))
        for src in (self, other):
            for level, arrays in enumerate(src._levels):
                for arr in arrays:
                    out._push(level, arr.copy())
        out.count = self.count + other.count
        out.total = self.total + other.total
        return out

    def memory_values(self) -> int:
        """Number of stored values (for the fixed-memory contract tests)."""
        return sum(a.size for arrays in self._levels for a in arrays)


def build_sketch(chunks: Iterable, epsilon: float) -> QuantileSketch:
    """Build a sketch from an iterable of value chunks."""
    sk = QuantileSketch(epsilon)
    for chunk in chunks:
        sk.extend(chunk)
    return sk
