"""Exact summaries and the streaming summary path."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
import oracles
from lossdiag import (
    DEFAULT_KS,
    LossVector,
    SummarySet,
    ValidationError,
    build_sketch,
    summarize_chunks,
    summarize_exact,
    summarize_sorted,
)
from lossdiag.render import summary_table
from lossdiag.sketch import float64_sum


def _vector(values):
    return LossVector("v", np.asarray(values, dtype=np.float32))


def _random_losses(rng):
    size = int(rng.integers(1, 400))
    kind = rng.integers(3)
    if kind == 0:
        vals = rng.lognormal(0.0, 1.0, size)
    elif kind == 1:
        # Heavy duplication exercises the tie branches.
        vals = rng.integers(0, 4, size).astype(np.float64) / 2.0
    else:
        vals = rng.gamma(1.5, 1.0, size)
        if size > 2:
            vals[rng.integers(size)] = np.inf
    return vals.astype(np.float32)


class TestExactPercentiles:
    def test_three_values(self):
        s = summarize_exact(_vector([1.0, 2.0, 3.0]), ks=(25, 50, 75))
        assert s.percentiles[50] == 2.0
        assert s.percentiles[25] == 1.5
        assert s.percentiles[75] == 2.5
        assert s.mean == 2.0
        assert s.count == 3

    def test_matches_sort_oracle_everywhere(self):
        rng = np.random.default_rng(11)
        ks = tuple(range(1, 100))
        for _ in range(100):
            vals = _random_losses(rng)
            s = summarize_exact(_vector(vals), ks=ks)
            for k in ks:
                assert s.percentiles[k] == oracles.percentile_by_sort(vals, k)

    def test_lognormal_hundred_thousand(self):
        rng = np.random.default_rng(5)
        vals = rng.lognormal(0.0, 1.2, 100_000).astype(np.float32)
        s = summarize_exact(_vector(vals))
        for k in (1, 25, 50, 75, 99):
            assert s.percentiles[k] == oracles.percentile_by_sort(vals, k)

    def test_inf_brackets_do_not_produce_nan(self):
        # Both bracketing order statistics +inf: value is +inf, never NaN.
        s = summarize_exact(_vector([1.0, np.inf, np.inf]), ks=(75, 99))
        assert s.percentiles[75] == np.inf
        assert s.percentiles[99] == np.inf

    def test_interpolation_toward_inf_is_inf(self):
        s = summarize_exact(_vector([1.0, np.inf]), ks=(50,))
        assert s.percentiles[50] == np.inf
        assert s.mean == np.inf  # documented: +inf mean, not an error

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.sampled_from((0.0, 0.5, 1.25, np.inf))
            | st.floats(min_value=0.0, allow_infinity=False, width=32),
            min_size=1,
            max_size=300,
        )
    )
    @example([np.inf])
    @example([0.75])
    @example([2.5] * 17)
    @example([np.inf] * 9)
    @example([1.0, np.inf, np.inf, 0.0, 0.0])
    def test_bit_equal_to_float64_sort(self, values):
        ks = tuple(range(1, 100))
        s = summarize_exact(_vector(values), ks=ks)
        mean, pct = oracles.summary_by_float64_sort(np.float32(values), ks)
        assert s.mean.hex() == mean.hex()
        assert [s.percentiles[k].hex() for k in ks] == [pct[k].hex() for k in ks]

    def test_bit_equal_to_float64_sort_at_a_million(self):
        rng = np.random.default_rng(31)
        vals = rng.lognormal(0.0, 1.5, 1_000_000).astype(np.float32)
        vals[::10] = vals[1::10]  # exact ties
        vals[::997] = np.inf
        s = summarize_exact(_vector(vals))
        mean, pct = oracles.summary_by_float64_sort(vals, s.ks)
        assert s.mean.hex() == mean.hex()
        assert s.percentiles == pct

    def test_sorted_input_gives_the_same_summary(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            vals = _random_losses(rng)
            want = summarize_exact(_vector(vals))
            assert summarize_sorted("v", np.sort(vals)) == want
            assert summarize_sorted("v", np.sort(vals).astype(np.float64)) == want

    def test_percentile_validation(self):
        with pytest.raises(ValidationError):
            summarize_exact(_vector([1.0]), ks=())
        with pytest.raises(ValidationError):
            summarize_exact(_vector([1.0]), ks=(0,))
        with pytest.raises(ValidationError):
            summarize_exact(_vector([1.0]), ks=(100,))
        with pytest.raises(ValidationError):
            summarize_exact(_vector([1.0]), ks=(50, 50))

    @pytest.mark.parametrize("k", [np.nan, np.inf, None, True, np.True_, "50", 50.5],
                             ids=["nan", "inf", "none", "bool", "np-bool", "str", "fraction"])
    def test_a_percentile_that_is_not_an_integer_is_refused(self, k):
        # Before one integer rule: ValueError, OverflowError, TypeError, and p1 for a bool.
        with pytest.raises(ValidationError, match=f"^percentile {re.escape(repr(k))} outside 1..99$"):
            summarize_exact(_vector([1.0]), ks=[k])
        with pytest.raises(ValidationError, match="outside 1..99"):
            SummarySet("a", 1.0, {k: 1.0}, 3)

    def test_integral_floats_and_numpy_integers_are_percentiles(self):
        want = summarize_exact(_vector([1.0, 2.0]), ks=(5, 50))
        assert summarize_exact(_vector([1.0, 2.0]), ks=(5.0, np.int64(50))) == want

    @pytest.mark.parametrize("ks, kind", [(50, "int"), (None, "NoneType"), ("50", "str"),
                                          (b"\x05\x32", "bytes")],
                             ids=["int", "none", "str", "bytes"])
    def test_a_percentile_list_that_is_not_one_is_refused_by_name(self, ks, kind):
        # Before: a bare TypeError for a non-iterable, "50" read as p5 and p0,
        # and b"\x05\x32" as p5 and p50.
        with pytest.raises(ValidationError, match=f"^percentiles must be an iterable of integers, got {kind}$"):
            summarize_exact(_vector([1.0]), ks)

    def test_a_generator_of_percentiles_is_read_once(self):
        want = summarize_exact(_vector([1.0, 2.0]), ks=(5, 50))
        assert summarize_exact(_vector([1.0, 2.0]), ks=(k for k in (5, 50))) == want
        s = SummarySet("c", mean=1.0, percentiles={5: 0.5, 50: 1.0, 75: 2.0}, count=4)
        assert s.restrict(k for k in (5, 50)).ks == (5, 50)


class TestFloat64Sum:
    @settings(max_examples=60, deadline=None)
    @given(
        size=st.integers(1, 300_000)
        | st.sampled_from((2**16 - 1, 2**16, 2**16 + 1, 2**17 + 3, 300_000)),
        seed=st.integers(0, 2**32 - 1),
        inf_share=st.sampled_from((0.0, 1e-4, 1.0)),
        dtype=st.sampled_from((np.float32, np.float64)),
    )
    @example(size=2**16 + 1, seed=0, inf_share=1e-4, dtype=np.float32)
    @example(size=2**16 - 1, seed=0, inf_share=0.0, dtype=np.float32)
    @example(size=299_999, seed=1, inf_share=0.0, dtype=np.float32)
    def test_bit_equal_to_sum_of_float64_copy(self, size, seed, inf_share, dtype):
        rng = np.random.default_rng(seed)
        vals = rng.lognormal(0.0, 2.0, size).astype(np.float32)
        vals[rng.random(size) < inf_share] = np.inf
        vals = vals.astype(dtype)
        got = float64_sum(vals)
        assert type(got) is np.float64
        assert got.hex() == vals.astype(np.float64).sum().hex()


class TestSummarySet:
    def test_value_lookup_aliases(self):
        s = SummarySet("c", mean=1.708, percentiles={50: 0.525, 95: 7.82}, count=10)
        assert s.value("mean") == 1.708
        assert s.value("median") == 0.525
        assert s.value("p95") == 7.82
        with pytest.raises(ValidationError, match="'c'.*'p99'"):
            s.value("p99")

    def test_non_monotone_percentiles_rejected(self):
        with pytest.raises(ValidationError, match="non-decreasing"):
            SummarySet("c", mean=1.0, percentiles={50: 2.0, 75: 1.0}, count=1)

    def test_nan_percentile_rejected_naming_checkpoint_and_percentile(self):
        with pytest.raises(ValidationError, match="a: percentile p50 is NaN"):
            SummarySet("a", 1.0, {50: np.nan, 95: 2.0}, 3)
        with pytest.raises(ValidationError, match="p95 is NaN"):
            SummarySet("a", 1.0, {50: 1.0, 95: np.float32("nan")}, 3)

    def test_bad_count_and_mean(self):
        with pytest.raises(ValidationError):
            SummarySet("c", mean=1.0, percentiles={50: 1.0}, count=0)
        with pytest.raises(ValidationError):
            SummarySet("c", mean=-0.5, percentiles={50: 1.0}, count=1)

    def test_restrict_to_missing_percentiles_names_them(self):
        s = SummarySet("c", mean=1.0, percentiles={25: 0.5, 50: 1.0, 75: 2.0}, count=4)
        with pytest.raises(ValidationError, match=r"^c: summary lacks percentiles \[90\]$"):
            s.restrict([50, 90])
        with pytest.raises(ValidationError, match=r"lacks percentiles \[95, 5\]$"):
            s.restrict([95, 50, 5])
        with pytest.raises(ValidationError, match="duplicate percentiles requested"):
            s.restrict([50, 50])

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.floats(0.0, 50.0, width=32) | st.just(np.inf), min_size=1, max_size=80),
        ks=st.lists(st.sampled_from(DEFAULT_KS), min_size=1, unique=True),
    )
    def test_restricted_summary_equals_one_built_directly(self, values, ks):
        losses = _vector(values)
        full = summarize_exact(losses)
        restricted = full.restrict(ks)
        direct = summarize_exact(losses, ks)
        assert restricted == direct
        assert restricted.ks == direct.ks == tuple(sorted(ks))
        built = SummarySet("v", full.mean, {k: full.percentiles[k] for k in ks}, full.count)
        assert restricted == built and restricted.ks == built.ks
        assert full.ks == DEFAULT_KS  # the original keeps its grid

    def test_report_row_rendering(self):
        s = SummarySet("student-top5", mean=1.708, percentiles={50: 0.525, 95: 7.82}, count=4)
        text = summary_table([s])
        assert text.splitlines()[0] == "checkpoint_id,mean,p50,p95,count"
        assert text.splitlines()[1] == "student-top5,1.708,0.525,7.82,4"


class TestStreamingSummary:
    def test_constant_stream(self):
        chunks = [np.full(1000, 0.7) for _ in range(5)]
        s = summarize_chunks("c", chunks, ks=(5, 50, 95))
        assert s.count == 5000
        np.testing.assert_allclose(s.mean, 0.7, rtol=1e-12)
        assert all(v == 0.7 for v in s.percentiles.values())

    def test_mean_is_exact_and_ranks_within_epsilon(self):
        rng = np.random.default_rng(23)
        vals = rng.lognormal(0.0, 1.0, 100_000)
        epsilon = 1e-3
        s = summarize_chunks("c", np.array_split(vals, 13), epsilon=epsilon)
        np.testing.assert_allclose(s.mean, vals.mean(), rtol=1e-12)
        srt = np.sort(vals)
        n = vals.size
        for k, v in s.percentiles.items():
            below = np.searchsorted(srt, v, side="left")
            at_or_below = np.searchsorted(srt, v, side="right")
            assert below / n <= k / 100 + epsilon
            assert at_or_below / n >= k / 100 - epsilon

    def test_finalized_percentiles_non_decreasing(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            vals = rng.lognormal(0.0, 2.0, 20_000)
            s = summarize_chunks("c", [vals])
            seq = [s.percentiles[k] for k in s.ks]
            assert all(a <= b for a, b in zip(seq, seq[1:]))

    def test_empty_stream_rejected(self):
        with pytest.raises(ValidationError, match="no values"):
            summarize_chunks("c", [])

    @settings(max_examples=60, deadline=None)
    @given(helpers.loss_streams())
    @example([np.float32([0.75])])
    @example([np.full(9, np.inf, np.float32), np.float32([])])
    @example(np.array_split(np.float32([0.5, 1.0, 1.0, np.inf] * 4_000), 7))
    def test_bit_equal_to_chunk_sum_and_per_k_queries(self, chunks):
        s = summarize_chunks("c", chunks, epsilon=1e-2)
        assert s.mean.hex() == oracles.mean_by_chunk_sum(chunks).hex()
        sk = build_sketch(chunks, 1e-2)
        assert s.percentiles == {
            k: oracles.sketch_query_by_k(sk, k) for k in s.ks
        }
