"""Deterministic rank-error guarantees of the streaming quantile sketch."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
import oracles
from lossdiag import DEFAULT_KS, QuantileSketch, ValidationError, build_sketch


def _rank_error(sorted_vals, value, k):
    """Distance of value's rank bracket from the target rank, in items."""
    n = sorted_vals.size
    target = k * n / 100.0
    below = np.searchsorted(sorted_vals, value, side="left")
    at_or_below = np.searchsorted(sorted_vals, value, side="right")
    if below <= target <= at_or_below:
        return 0.0
    return min(abs(below - target), abs(at_or_below - target))


class TestRankError:
    def test_bound_holds_on_mixed_stream(self):
        epsilon = 5e-3
        rng = np.random.default_rng(101)
        vals = np.concatenate(
            [
                rng.lognormal(0.0, 1.0, 400_000),
                rng.uniform(0.0, 0.1, 300_000),
                rng.gamma(0.7, 3.0, 300_000),
            ]
        )
        sk = build_sketch(np.array_split(vals, 57), epsilon)
        assert sk.count == vals.size
        srt = np.sort(vals)
        for k in range(1, 100):
            err = _rank_error(srt, sk.query(k), k)
            assert err <= epsilon * vals.size, (k, err)

    def test_inf_values_pass_through(self):
        vals = np.concatenate([np.full(100, np.inf), np.linspace(0, 1, 9_900)])
        sk = build_sketch([vals], 1e-2)
        assert sk.query(50) <= 1.0
        assert sk.query(100) == np.inf


class TestBatchedQuery:
    @settings(max_examples=60, deadline=None)
    @given(
        helpers.loss_streams(),
        st.lists(st.floats(0.0, 100.0), max_size=5),
    )
    @example([np.float32([0.75])], [])
    @example([np.full(20_000, 2.5, np.float32)], [])
    @example([np.full(9, np.inf, np.float32), np.float32([])], [])
    @example(np.array_split(np.float32([0.5, 1.0, 1.0, np.inf] * 4_000), 7), [])
    def test_bit_equal_to_per_k_reference(self, chunks, extra_ks):
        sk = build_sketch(chunks, 1e-2)
        ks = list(range(101)) + extra_ks
        got = sk.query(ks)
        want = [oracles.sketch_query_by_k(sk, k) for k in ks]
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]

    def test_scalar_gives_float_and_sequence_gives_array(self):
        sk = build_sketch([np.arange(1000.0)], 1e-2)
        assert type(sk.query(50)) is float
        assert type(sk.query(np.int64(50))) is float
        got = sk.query((25, 50))
        assert isinstance(got, np.ndarray) and got.shape == (2,)
        assert got.tolist() == [sk.query(25), sk.query(50)]
        with pytest.raises(ValidationError, match="outside"):
            sk.query([50, 101])


class TestDeterminism:
    def test_rebuild_is_bit_identical(self):
        rng = np.random.default_rng(7)
        vals = rng.lognormal(0.0, 1.5, 200_000)
        a = build_sketch(np.array_split(vals, 11), 1e-3)
        b = build_sketch(np.array_split(vals, 11), 1e-3)
        assert a.memory_values() == b.memory_values()
        for k in (1, 5, 25, 50, 75, 95, 99):
            assert a.query(k) == b.query(k)

    def test_chunking_does_not_change_count(self):
        vals = np.arange(10_000, dtype=np.float64)
        a = build_sketch([vals], 1e-2)
        b = build_sketch(np.array_split(vals, 97), 1e-2)
        assert a.count == b.count == vals.size


class TestMerge:
    def test_merged_bound_and_count(self):
        epsilon = 5e-3
        rng = np.random.default_rng(13)
        left = rng.lognormal(0.0, 1.0, 300_000)
        right = rng.uniform(5.0, 6.0, 200_000)
        a = build_sketch([left], epsilon)
        b = build_sketch([right], epsilon)
        merged = a.merge(b)
        assert merged.count == left.size + right.size
        srt = np.sort(np.concatenate([left, right]))
        for k in (5, 25, 50, 75, 95):
            err = _rank_error(srt, merged.query(k), k)
            assert err <= epsilon * merged.count, (k, err)

    def test_inputs_untouched(self):
        a = build_sketch([np.linspace(0, 1, 50_000)], 1e-2)
        b = build_sketch([np.linspace(1, 2, 50_000)], 1e-2)
        before = [a.query(k) for k in (25, 50, 75)]
        a.merge(b)
        assert [a.query(k) for k in (25, 50, 75)] == before

    @settings(max_examples=30, deadline=None)
    @given(helpers.loss_streams(), helpers.loss_streams())
    def test_merged_total_is_sum_of_totals(self, left, right):
        a = build_sketch(left, 1e-2)
        b = build_sketch(right, 1e-2)
        merged = a.merge(b)
        assert merged.total == a.total + b.total
        assert merged.count == a.count + b.count

    def test_tighter_epsilon_wins(self):
        a = QuantileSketch(1e-2)
        b = QuantileSketch(1e-3)
        a.extend([1.0])
        b.extend([2.0])
        assert a.merge(b).epsilon == 1e-3

    def test_merge_type_check(self):
        with pytest.raises(ValidationError):
            QuantileSketch(1e-2).merge("not a sketch")


def _bits(sketch):
    """Everything a sketch reports, with floats as hex strings."""
    return (
        [v.hex() for v in sketch.query(DEFAULT_KS).tolist()],
        sketch.total.hex(),
        sketch.count,
        sketch.memory_values(),
    )


class TestFloat32Storage:
    """A float32 stream is stored as float32 and answers as its float64 copy."""

    @settings(max_examples=60, deadline=None)
    @given(helpers.loss_streams())
    @example([np.full(20_000, 2.5, np.float32)])  # constant
    @example([np.float32([np.inf] * 7 + [0.5] * 6_400)] * 3)  # 6,407: cap is 6,401
    @example(np.array_split(np.float32([0.5, 1.0, 1.0, np.inf] * 4_000), 7))
    def test_float32_and_float64_feeds_are_bit_equal(self, chunks):
        narrow = [np.asarray(c, np.float32) for c in chunks]
        wide = [c.astype(np.float64) for c in narrow]
        a, b = build_sketch(narrow, 1e-2), build_sketch(wide, 1e-2)
        assert _bits(a) == _bits(b)
        assert {arr.dtype for level in a._levels for arr in level} <= {np.dtype(np.float32)}
        assert a.query(DEFAULT_KS).dtype == np.float64
        assert type(a.query(50)) is float

    @settings(max_examples=30, deadline=None)
    @given(helpers.loss_streams(), helpers.loss_streams())
    def test_mixed_merge_equals_float64_merge(self, left, right):
        narrow = [np.asarray(c, np.float32) for c in left]
        wide = [c.astype(np.float64) for c in narrow]
        other = build_sketch([np.asarray(c, np.float64) for c in right], 1e-2)
        mixed = build_sketch(narrow, 1e-2).merge(other)
        assert _bits(mixed) == _bits(build_sketch(wide, 1e-2).merge(other))
        assert _bits(other.merge(build_sketch(narrow, 1e-2))) == _bits(
            other.merge(build_sketch(wide, 1e-2))
        )
        assert mixed.query(DEFAULT_KS).dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_reused_chunk_buffer_does_not_change_the_sketch(self, dtype):
        # 1,000-value chunks never fill level 0 (capacity 6,401) alone, so
        # each waits there after extend() returns while the buffer is reused.
        rng = np.random.default_rng(9)
        chunks = [rng.lognormal(0.0, 1.0, 1_000).astype(dtype) for _ in range(20)]
        reused, buf = QuantileSketch(1e-2), np.empty(1_000, dtype)
        for chunk in chunks:
            buf[:] = chunk
            reused.extend(buf)
        assert _bits(reused) == _bits(build_sketch(chunks, 1e-2))


class TestMemory:
    def test_stored_values_grow_logarithmically(self):
        epsilon = 1e-2
        sk = QuantileSketch(epsilon)
        cap = math.ceil(64 / epsilon) + 1
        n = 2_000_000
        rng = np.random.default_rng(3)
        for _ in range(20):
            sk.extend(rng.random(n // 20))
        assert sk.memory_values() <= cap * (math.log2(n) + 2)

    def test_one_value_chunks_leave_few_arrays_per_level(self):
        # A level's size is the sum over its arrays, taken on every push; a
        # level holding one array per tiny chunk would make that quadratic.
        sk = QuantileSketch(1e-2)
        values = np.random.default_rng(4).random(20_000)
        for v in values:
            sk.extend([v])
        assert max(len(arrays) for arrays in sk._levels) <= 8
        assert abs(sk.query(50) - np.median(values)) <= 0.02


class TestValidation:
    def test_epsilon_range(self):
        for eps in (0.0, -1.0, 0.5):
            with pytest.raises(ValidationError):
                QuantileSketch(eps)

    def test_nan_rejected(self):
        sk = QuantileSketch(1e-2)
        with pytest.raises(ValidationError, match="NaN"):
            sk.extend([1.0, float("nan")])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("extra", [(), (np.inf,), (np.inf, -np.inf)])
    def test_nan_rejected_in_either_dtype_and_leaves_the_sketch_as_it_was(
        self, dtype, extra
    ):
        sk = QuantileSketch(1e-2)
        sk.extend(np.array([0.5, 2.0], dtype))
        with pytest.raises(ValidationError, match="sketch input contains NaN"):
            sk.extend(np.array([1.0, np.nan, *extra, 3.0], dtype))
        assert (sk.count, sk.total, sk.memory_values()) == (2, 2.5, 2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_plus_and_minus_inf_in_one_chunk_are_accepted(self, dtype):
        # Their sum is NaN, as a NaN's would be; the chunk holds no NaN.
        sk = QuantileSketch(1e-2)
        sk.extend(np.array([np.inf, 1.0, -np.inf], dtype))
        assert sk.count == 3 and sk.memory_values() == 3
        assert math.isnan(sk.total)
        assert list(sk.query([0, 50, 100])) == [-np.inf, 1.0, np.inf]

    def test_query_bounds_and_empty(self):
        sk = QuantileSketch(1e-2)
        with pytest.raises(ValidationError, match="empty"):
            sk.query(50)
        sk.extend([1.0])
        with pytest.raises(ValidationError):
            sk.query(101)
        with pytest.raises(ValidationError):
            sk.query(-1)
