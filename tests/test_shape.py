"""Standardized percentile profiles and loss-band mass tables."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from lossdiag import (
    DEFAULT_BAND_BOUNDS,
    PROFILE_GRID,
    DegenerateInputError,
    LossVector,
    SummarySet,
    ValidationError,
    band_masses,
    family_tail_stats,
    profile_distance,
    profile_percentiles,
    standardize_profile,
    summarize_exact,
)
from lossdiag import render
from lossdiag.shape import BandCounter, PercentileProfile, bands_of_sorted

F32_MAX = float(np.finfo(np.float32).max)


def _summary(checkpoint_id, percentiles, mean=1.0, count=1000):
    return SummarySet(checkpoint_id, mean, percentiles, count)


def _random_summary(rng, checkpoint_id="r"):
    # Non-decreasing percentiles with a strictly positive IQR.
    steps = rng.uniform(0.01, 0.5, len(PROFILE_GRID))
    vals = np.cumsum(steps) + rng.uniform(0.0, 2.0)
    return _summary(checkpoint_id, dict(zip(PROFILE_GRID, vals)))


class TestStandardize:
    def test_uniform_losses_profile(self):
        losses = LossVector("uni", np.linspace(0.0, 1.0, 10_001))
        prof = standardize_profile(summarize_exact(losses, PROFILE_GRID))
        # Uniform on [0,1]: p_k = k/100, median 0.5, IQR 0.5.
        assert prof.values[50] == 0.0
        assert prof.values[75] == pytest.approx(0.5, abs=1e-6)
        assert prof.values[25] == pytest.approx(-0.5, abs=1e-6)
        assert prof.values[5] == pytest.approx(-0.9, abs=1e-6)
        assert prof.values[95] == pytest.approx(0.9, abs=1e-6)

    def test_anchor_identities_exact(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            prof = standardize_profile(_random_summary(rng))
            assert prof.values[50] == 0.0
            assert prof.values[75] - prof.values[25] == 1.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            base = _random_summary(rng)
            scale = float(rng.uniform(0.1, 30.0))
            shift = float(rng.uniform(0.0, 10.0))
            moved = _summary(
                "moved",
                {k: scale * v + shift for k, v in base.percentiles.items()},
                mean=scale * base.mean + shift,
            )
            d = standardize_profile(base).as_array() - standardize_profile(moved).as_array()
            assert np.max(np.abs(d)) <= 1e-9

    def test_zero_iqr_rejected(self):
        flat = _summary("flat", {k: 2.0 for k in PROFILE_GRID})
        with pytest.raises(DegenerateInputError, match="flat"):
            standardize_profile(flat)

    def test_inf_quartiles_are_named(self):
        # With p25 = p75 = +inf the IQR is inf - inf; the message names the
        # quartiles rather than printing that nan.
        values = {k: (1.0 if k < 25 else math.inf) for k in PROFILE_GRID}
        with pytest.raises(DegenerateInputError, match="p25 = p75 = inf") as info:
            standardize_profile(_summary("trunc", values))
        assert "nan" not in str(info.value)
        values = {k: (0.5 if k <= 25 else math.inf) for k in PROFILE_GRID}
        with pytest.raises(DegenerateInputError, match="p25 = 0.5, p75 = inf"):
            standardize_profile(_summary("trunc", values))

    def test_grid_needs_quartiles(self):
        s = _random_summary(np.random.default_rng(0))
        with pytest.raises(ValidationError, match="50"):
            standardize_profile(s, grid=(25, 75, 95))

    def test_summary_must_cover_grid(self):
        s = _summary("sparse", {25: 1.0, 50: 2.0, 75: 3.0})
        with pytest.raises(ValidationError, match="sparse"):
            standardize_profile(s, grid=PROFILE_GRID)

    @pytest.mark.parametrize(
        "grid, message",
        [((25, 50, 50, 75), "duplicate percentiles requested"),
         ((0, 25, 50, 75), "percentile 0 outside 1..99")],
        ids=["repeated", "out-of-range"],
    )
    def test_grid_is_checked_like_a_percentile_list(self, grid, message):
        s = _summary("s", {k: float(k) for k in (25, 50, 75)})
        with pytest.raises(ValidationError, match=message):
            standardize_profile(s, grid=grid)


class TestProfileDistance:
    def test_metric_properties(self):
        rng = np.random.default_rng(41)
        a, b, c = (
            standardize_profile(_random_summary(rng, n)) for n in ("a", "b", "c")
        )
        assert profile_distance(a, a) == 0.0
        assert profile_distance(a, b) == profile_distance(b, a)
        assert profile_distance(a, c) <= profile_distance(a, b) + profile_distance(b, c) + 1e-12

    def test_grid_mismatch(self):
        s = _random_summary(np.random.default_rng(2))
        full = standardize_profile(s)
        coarse = standardize_profile(s, grid=(25, 50, 75))
        with pytest.raises(ValidationError, match="grids differ"):
            profile_distance(full, coarse)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        g=st.integers(3, 60),
        n=st.integers(1, 12),
        m=st.integers(1, 12),
        magnitude=st.sampled_from((1e-3, 1.0, 1e3)),
        inf_share=st.sampled_from((0.0, 0.05, 0.5)),
    )
    def test_matrix_bit_equal_to_per_pair_norm(self, seed, g, n, m, magnitude, inf_share):
        rng = np.random.default_rng(seed)
        grid = tuple(range(g))
        pool = []
        for i in range(n + m):
            vals = rng.normal(0.0, magnitude, g)
            vals[rng.random(g) < inf_share] = math.inf
            pool.append(PercentileProfile(f"c{i}", grid, dict(zip(grid, vals)), 1.0))
        # Repeats put equal rows, and so equal infinities, on both sides.
        left = [pool[i] for i in rng.integers(0, len(pool), n)]
        right = [pool[i] for i in rng.integers(0, len(pool), m)]
        got = profile_distance(left, right)
        want = np.array([[oracles.profile_distance_by_pair(a, b) for b in right] for a in left])
        assert got.shape == (n, m)
        assert np.array_equal(got, want, equal_nan=True)
        a, b = left[0], right[0]
        one = profile_distance(a, b)
        assert type(one) is float
        assert one == oracles.profile_distance_by_pair(a, b) == got[0, 0]

    def test_one_against_many_is_a_row(self):
        rng = np.random.default_rng(5)
        a, b, c = (
            standardize_profile(_random_summary(rng, n)) for n in ("a", "b", "c")
        )
        row = profile_distance(a, [a, b, c])
        assert row.shape == (1, 3)
        assert row.tolist() == [[0.0, profile_distance(a, b), profile_distance(a, c)]]
        with pytest.raises(ValidationError, match="at least one"):
            profile_distance(a, [])

    def test_inf_tail_distance_is_defined(self):
        # 8% +inf sentinels put p95 at +inf; inf - inf used to make the
        # distance of such a profile to itself NaN.
        losses = np.concatenate([np.linspace(0.1, 5.0, 92), np.full(8, np.inf)])
        tail = standardize_profile(summarize_exact(LossVector("t", losses), PROFILE_GRID))
        finite = standardize_profile(_random_summary(np.random.default_rng(3)))
        assert tail.values[95] == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert profile_distance(tail, tail) == 0.0
            assert profile_distance(tail, finite) == math.inf
            assert profile_distance([tail, finite], [tail, finite]).tolist() == [
                [0.0, math.inf], [math.inf, 0.0]
            ]


class TestProfilePercentiles:
    def test_adds_p95_once(self):
        assert profile_percentiles((5, 25, 50, 75)) == (5, 25, 50, 75, 95)
        assert profile_percentiles([75, 50, 25]) == (75, 50, 25, 95)
        assert profile_percentiles(PROFILE_GRID) == PROFILE_GRID

    @pytest.mark.parametrize(
        "grid, message",
        [((0, 25, 50, 75), "percentile 0 outside 1..99"),
         ((25, 50, 75, 100), "percentile 100 outside 1..99"),
         ((10, 10, 25, 50, 75), "duplicate percentiles requested"),
         ((25, 50, 75, 95, 95), "duplicate percentiles requested"),
         ((10, 20), "profile grid must contain 25"),
         ((25, 75, 95), "profile grid must contain 50")],
    )
    def test_bad_grid_is_refused(self, grid, message):
        with pytest.raises(ValidationError) as info:
            profile_percentiles(grid)
        assert str(info.value) == message


def _tail_inputs(families, p95s):
    # p25, p50, p75 = 1, 2, 3, so each standardized tail is (p95 - 2) / 2.
    summaries = [
        _summary(f"c{i}", {25: 1.0, 50: 2.0, 75: 3.0, 95: p95}) for i, p95 in enumerate(p95s)
    ]
    profiles = [standardize_profile(s, (25, 50, 75)) for s in summaries]
    return list(families), summaries, profiles


class TestFamilyTailStats:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(3.0, 1e12), min_size=1, max_size=12))
    def test_finite_tails_match_numpy(self, p95s):
        stats = family_tail_stats(*_tail_inputs(["fam"] * len(p95s), p95s))
        tails = np.array([(p95 - 2.0) / 2.0 for p95 in p95s])
        assert stats == [("fam", len(p95s), float(tails.mean()), float(tails.std()))]

    def test_all_inf_tails_have_zero_spread(self):
        stats = family_tail_stats(*_tail_inputs("fff", [math.inf] * 3))
        assert stats == [("f", 3, math.inf, 0.0)]

    def test_inf_and_finite_tails_have_inf_spread(self):
        stats = family_tail_stats(*_tail_inputs("fff", [math.inf, 4.0, math.inf]))
        assert stats == [("f", 3, math.inf, math.inf)]

    def test_families_come_out_in_name_order(self):
        stats = family_tail_stats(*_tail_inputs("bcab", [4.0, 6.0, 8.0, 10.0]))
        assert stats == [("a", 1, 3.0, 0.0), ("b", 2, 2.5, 1.5), ("c", 1, 2.0, 0.0)]


def _band_fixture():
    """1000 losses with a pinned per-band census (263/204/210/258/61/4)."""
    counts = (263, 204, 210, 258, 61, 4)
    edges = (0.0,) + DEFAULT_BAND_BOUNDS + (14.0,)
    parts = []
    for (lo, hi), n in zip(zip(edges[:-1], edges[1:]), counts):
        width = hi - lo
        # Stay well inside the half-open band so the float32 cast inside
        # LossVector cannot push a value across an edge.
        parts.append(np.linspace(lo + 0.05 * width, hi - 0.05 * width, n))
    return LossVector("teacher", np.concatenate(parts)), counts


class TestBandMasses:
    def test_single_value_lands_in_one_band(self):
        table = band_masses(LossVector("one", [0.3]))
        assert table.mass == (0.0, 100.0, 0.0, 0.0, 0.0, 0.0)
        assert table.bands[1] == (0.1, 0.5)

    def test_masses_sum_to_100(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            losses = LossVector("r", rng.lognormal(0.0, 1.2, 5_000))
            assert abs(sum(band_masses(losses).mass) - 100.0) <= 1e-9

    def test_inf_goes_to_last_band(self):
        table = band_masses(LossVector("inf", [0.2, np.inf, np.inf, np.inf]))
        assert table.mass[-1] == 75.0

    def test_bands_closed_below(self):
        # 1.5 is exact in float32, so this probes the edge rule itself.
        table = band_masses(LossVector("edge", [1.5]))
        assert table.bands[3] == (1.5, 5.0)
        assert table.mass[3] == 100.0

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(53)
        losses = LossVector("r", rng.gamma(1.3, 2.0, 4_000))
        table = band_masses(losses)
        edges = (0.0,) + DEFAULT_BAND_BOUNDS + (math.inf,)
        for (lo, hi), mass in zip(zip(edges[:-1], edges[1:]), table.mass):
            n = sum(1 for v in losses.losses if lo <= v < hi or v == hi == math.inf)
            assert mass == 100.0 * n / losses.count

    def test_pinned_census_renders_one_decimal(self):
        losses, counts = _band_fixture()
        table = band_masses(losses)
        assert table.mass == tuple(c / 10 for c in counts)
        lines = render.band_table([table]).splitlines()
        assert lines[1] == "teacher,26.3,20.4,21.0,25.8,6.1,0.4"

    @settings(max_examples=200, deadline=None)
    @given(
        bounds=st.lists(
            st.floats(min_value=1e-30, max_value=1e300), min_size=1, max_size=6, unique=True
        ).map(sorted),
        extra=st.lists(st.floats(min_value=0.0, width=32), max_size=50),
        split=st.integers(min_value=0, max_value=200),
    )
    @example(bounds=[0.1, 1.5], extra=[], split=0)
    @example(bounds=[F32_MAX, 3.4028235e38, 1e39], extra=[], split=3)
    def test_counter_matches_float64_histogram_at_edges(self, bounds, extra, split):
        # Values at float32(bound) and one float32 step either side of it,
        # where a float32 comparison against the rounded bound would err.
        with np.errstate(over="ignore"):
            at = np.float32(bounds)
            near = [np.nextafter(at, np.float32(0)), at, np.nextafter(at, np.float32(np.inf))]
        values = np.concatenate([*near, np.float32(extra), [0.0, np.inf]]).astype(np.float32)
        counter = BandCounter("c", bounds)
        counter.extend(values[:split])
        counter.extend(values[split:])
        counts = oracles.band_counts_by_histogram(values, bounds)
        assert counter.table().mass == tuple(100.0 * c / values.size for c in counts)
        assert band_masses(LossVector("c", values), bounds) == counter.table()
        assert bands_of_sorted("c", np.sort(values), bounds) == counter.table()

    def test_bounds_validation(self):
        losses = LossVector("v", [1.0])
        for bad in ((), (0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, math.inf)):
            with pytest.raises(ValidationError):
                band_masses(losses, bounds=bad)

    @pytest.mark.parametrize("bound", [None, True, np.True_, "0.5"],
                             ids=["none", "bool", "np-bool", "str"])
    def test_a_bound_that_is_not_a_number_is_refused(self, bound):
        # Before: TypeError for None, and a bool or a numeric string taken as a bound.
        with pytest.raises(ValidationError, match=f"^band bound {re.escape(repr(bound))} is not a number$"):
            band_masses(LossVector("v", [1.0]), bounds=(bound,))
        with pytest.raises(ValidationError, match="is not a number"):
            BandCounter("v", (0.1, bound))

    def test_a_bound_past_the_float_range_is_not_finite(self):
        with pytest.raises(ValidationError, match="^band bounds must be finite$"):
            band_masses(LossVector("v", [1.0]), bounds=(1, 10**400))


# Two checkpoint families with a deliberately different tail shape. Both
# share the profile through p75; the second family's p80..p95 sit higher.
# Within a family only the p95 coordinate varies, placed at m and m +- s*sqrt(1.5)
# so the family's p95-tilde mean is m and its population std is exactly s.
_BODY = (-0.85, -0.72, -0.62, -0.53, -0.45, -0.36, -0.27, -0.18, -0.09,
         0.0, 0.1, 0.2, 0.31, 0.42, 0.55)
_SCRATCH_TAIL = (1.0, 1.3, 1.7)
_TRUNC_TAIL = (1.35, 1.75, 2.25)
FAMILY_P95 = {"scratch": (2.24, 0.14), "truncation": (3.54, 0.19)}
_PLACEMENTS = {
    "scratch": ((0.9, 0.8), (1.05, 0.65), (0.78, 0.6)),
    "truncation": ((1.2, 0.7), (0.95, 0.9), (1.3, 0.55)),
}


def family_profiles():
    """{family: [PercentileProfile, ...]} built from affine-placed summaries."""
    spread = math.sqrt(1.5)
    out = {}
    for family, tail in (("scratch", _SCRATCH_TAIL), ("truncation", _TRUNC_TAIL)):
        m, s = FAMILY_P95[family]
        profiles = []
        for i, ((mu, sigma), offset) in enumerate(
            zip(_PLACEMENTS[family], (-spread, 0.0, spread))
        ):
            shape = _BODY + tail + (m + s * offset,)
            pct = {k: mu + sigma * t for k, t in zip(PROFILE_GRID, shape)}
            summary = _summary(f"{family}-{i}", pct, mean=mu)
            profiles.append(standardize_profile(summary))
        out[family] = profiles
    return out


class TestFamilySeparation:
    def test_p95_stats_recover_placement(self):
        for family, profiles in family_profiles().items():
            m, s = FAMILY_P95[family]
            tail = np.array([p.values[95] for p in profiles])
            assert abs(tail.mean() - m) <= 1e-9
            assert abs(tail.std() - s) <= 1e-9

    def test_families_separate_in_profile_space(self):
        profiles = family_profiles()
        within = []
        for members in profiles.values():
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    within.append(profile_distance(members[i], members[j]))
        cross = [
            profile_distance(a, b)
            for a in profiles["scratch"]
            for b in profiles["truncation"]
        ]
        within_mean = float(np.mean(within))
        cross_mean = float(np.mean(cross))
        assert abs(within_mean - 0.25) <= 0.05
        assert abs(cross_mean - 1.51) <= 0.05
        assert cross_mean > 4 * within_mean
