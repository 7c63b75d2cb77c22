"""Summary/metric correlation, selection rules and crossings."""

import math
import re

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lossdiag import (
    DegenerateInputError,
    MetricSeries,
    SelectionRule,
    SummarySet,
    ValidationError,
    crossing_step,
    default_rules,
    pearson,
    percentile_sweep,
    select,
    spearman,
)
from lossdiag.correlate import _average_ranks

import helpers
import oracles


@st.composite
def _tied_values(draw):
    """A shuffled list in which each of a few values, 0.0 and -0.0 among the
    candidates, appears one to four times: ties at any rank."""
    pool = draw(st.lists(
        st.sampled_from([0.0, -0.0, 1.0]) | st.floats(allow_nan=False, allow_infinity=False),
        min_size=1, max_size=12,
    ))
    values = [v for v in pool for _ in range(draw(st.integers(1, 4)))]
    return draw(st.permutations(values))


class TestCorrelations:
    def test_exact_linear_relation(self):
        x = [0.3, 1.1, 2.4, 3.0, 5.5]
        y = [2 * v + 1 for v in x]
        assert pearson(x, y) == pytest.approx(1.0, abs=1e-12)
        assert spearman(x, y) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_nonlinear_relation(self):
        x = np.linspace(0.0, 3.0, 20)
        y = np.exp(x)
        assert spearman(x, y) == pytest.approx(1.0, abs=1e-12)
        assert pearson(x, y) < 0.95

    def test_hand_worked_spearman(self):
        # Ranks of (6, 4, 5) are (3, 1, 2); Pearson of (1,2,3) vs (3,1,2)
        # is -0.5.
        assert spearman([1.0, 2.0, 3.0], [6.0, 4.0, 5.0]) == pytest.approx(-0.5)

    def test_matches_scipy(self):
        rng = np.random.default_rng(61)
        for trial in range(30):
            n = int(rng.integers(3, 50))
            x = rng.normal(size=n)
            y = rng.normal(size=n) + 0.5 * x
            if trial % 4 == 0 and n >= 5:
                x[1] = x[0]  # tie path for the rank transform
            assert pearson(x, y) == pytest.approx(
                scipy.stats.pearsonr(x, y).statistic, abs=1e-12
            )
            assert spearman(x, y) == pytest.approx(
                scipy.stats.spearmanr(x, y).statistic, abs=1e-12
            )

    @settings(max_examples=300, deadline=None)
    @given(_tied_values())
    @example([0.0, -0.0, 0.0, -0.0, 1.0])
    @example([2.0] * 7)
    def test_average_ranks_are_scipys_bit_for_bit(self, values):
        x = np.array(values, dtype=np.float64)
        want = scipy.stats.rankdata(x, method="average")
        assert _average_ranks(x).tobytes() == want.astype(np.float64).tobytes()

    def test_affine_and_monotone_invariance(self):
        rng = np.random.default_rng(67)
        x = rng.normal(size=25)
        y = rng.normal(size=25)
        r = pearson(x, y)
        assert pearson(3.0 * x + 7.0, y) == pytest.approx(r, abs=1e-12)
        assert pearson(-2.0 * x, y) == pytest.approx(-r, abs=1e-12)
        rho = spearman(x, y)
        assert spearman(np.exp(x), y) == pytest.approx(rho, abs=1e-12)

    def test_degenerate_and_invalid_input(self):
        with pytest.raises(DegenerateInputError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateInputError):
            spearman([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
        with pytest.raises(ValidationError):
            pearson([1.0, 2.0], [3.0, 4.0])
        with pytest.raises(ValidationError):
            pearson([1.0, 2.0, 3.0], [1.0, 2.0])
        with pytest.raises(ValidationError):
            pearson([1.0, 2.0, math.nan], [1.0, 2.0, 3.0])
        with pytest.raises(ValidationError):
            spearman([1.0, 2.0, 3.0], [1.0, math.inf, 3.0])


def _sweep_table(rng, m=8):
    table = {}
    for i in range(m):
        p50 = float(rng.uniform(0.5, 1.5))
        p95 = p50 + float(rng.uniform(0.5, 3.0))
        table[f"c{i:02d}"] = SummarySet(
            f"c{i:02d}", float(rng.uniform(1.0, 2.0)), {50: p50, 95: p95}, 100
        )
    return table


class TestPercentileSweep:
    def test_metric_equal_to_p50_gives_unit_row(self):
        table = _sweep_table(np.random.default_rng(71))
        metric = MetricSeries("m", {cid: s.percentiles[50] for cid, s in table.items()})
        rows = {row.summary: row for row in percentile_sweep(table, metric)}
        assert rows["p50"].pearson_r == pytest.approx(1.0, abs=1e-12)
        assert rows["p50"].spearman_rho == pytest.approx(1.0, abs=1e-12)

    def test_rows_match_direct_recomputation(self):
        table = _sweep_table(np.random.default_rng(73))
        ids = sorted(table)
        metric = MetricSeries("judge", {cid: float(v) for cid, v in
                                        zip(ids, np.random.default_rng(74).normal(size=len(ids)))})
        rows = percentile_sweep(table, metric)
        assert [row.summary for row in rows] == ["mean", "p50", "p95"]
        y = [metric.values[cid] for cid in ids]
        for row in rows:
            x = [table[cid].value(row.summary) for cid in ids]
            assert row.pearson_r == pearson(x, y)
            assert row.spearman_rho == spearman(x, y)

    def test_needs_three_checkpoints(self):
        table = _sweep_table(np.random.default_rng(0), m=2)
        metric = MetricSeries("m", {cid: 1.0 for cid in table})
        with pytest.raises(ValidationError):
            percentile_sweep(table, metric)

    def test_metric_must_cover_table(self):
        table = _sweep_table(np.random.default_rng(1), m=4)
        metric = MetricSeries("m", {"c00": 1.0, "c01": 2.0, "c02": 3.0})
        with pytest.raises(ValidationError, match="c03"):
            percentile_sweep(table, metric)

    def test_frozen_distillation_sweep(self):
        table = helpers.load_summary_fixture(helpers.FIXTURES / "sweep_summaries.csv")
        judge = helpers.load_metric_fixture(helpers.FIXTURES / "sweep_judge.csv", "judge")
        rows = {row.summary: row for row in percentile_sweep(table, judge)}
        assert rows["p50"].pearson_r == pytest.approx(-0.935, abs=1e-3)
        assert rows["p50"].spearman_rho == pytest.approx(-0.911, abs=1e-3)
        assert rows["mean"].pearson_r == pytest.approx(-0.217, abs=1e-3)
        assert rows["mean"].spearman_rho == pytest.approx(-0.186, abs=1e-3)


# Few distinct values, so ties and equal infinities are common.
_CE_VALUES = st.sampled_from([0.0, 0.5, 1.0, 2.0, math.inf])
_METRIC_VALUES = st.sampled_from([-math.inf, -1.0, 0.0, 1.0, math.inf])


@st.composite
def _selection_tables(draw):
    """(table, judge score per id) over distinct ids drawn in any order; each
    summary carries p5, p50, p95 and p99."""
    ids = draw(st.lists(st.text("abc", min_size=1, max_size=3), min_size=1, max_size=8,
                        unique=True))
    table = {}
    for cid in ids:
        values = sorted(draw(st.lists(_CE_VALUES, min_size=4, max_size=4)))
        table[cid] = SummarySet(cid, draw(_CE_VALUES), dict(zip((5, 50, 95, 99), values)), 10)
    return table, {cid: draw(_METRIC_VALUES) for cid in ids}


class TestSelection:
    @settings(max_examples=200, deadline=None)
    @given(_selection_tables())
    def test_matches_brute_force(self, drawn):
        table, judge = drawn
        rules = [SelectionRule("mean", "mean", "min"), SelectionRule("p50", "p50", "min"),
                 SelectionRule("p95", "p95", "min"), SelectionRule("judge", "judge", "max"),
                 SelectionRule("judge-low", "judge", "min")]
        rows = select(table, rules, metrics={"judge": MetricSeries("judge", judge)}).rows
        ids = sorted(table)
        for rule, row in zip(rules, rows, strict=True):
            column = [
                judge[cid] if rule.column == "judge" else table[cid].value(rule.column)
                for cid in ids
            ]
            best = oracles.select_by_pairs(column, rule.direction)
            assert (row.rule, row.checkpoint_id, row.value) == (rule.name, ids[best], column[best])

    # What each spelling stands for, written out by hand.
    SPELLINGS = {"mean": "mean", "median": 50, "p50": 50, "p5": 5, "p05": 5,
                 "p95": 95, "p99": 99, "judge": "judge"}

    @settings(max_examples=200, deadline=None)
    @given(drawn=_selection_tables(),
           names=st.lists(st.sampled_from(["mean", "median", "p50", "p5", "p05", "p95", "p99"]),
                          min_size=1, max_size=8),
           with_judge=st.booleans())
    @example(drawn=({"a": SummarySet("a", 1.0, {5: 0.1, 50: 0.5, 95: 0.9, 99: 1.5}, 10)},
                    {"a": 1.0}),
             names=["p5", "p05", "mean", "mean"], with_judge=False)
    @example(drawn=({"a": SummarySet("a", 1.0, {5: 0.1, 50: 0.5, 95: 0.9, 99: 1.5}, 10)},
                    {"a": 1.0}),
             names=["median", "p50"], with_judge=True)
    def test_default_rules_give_one_row_per_summary_however_spelled(
        self, drawn, names, with_judge
    ):
        table, judge = drawn
        metrics = {"judge": MetricSeries("judge", judge)} if with_judge else {}
        given_names = [*names, *metrics]
        rows = select(table, default_rules(given_names, metrics), metrics).rows
        first: dict = {}
        for name in given_names:
            first.setdefault(self.SPELLINGS[name], name)
        ids = sorted(table)
        want = []
        for name in first.values():
            if name == "judge":
                column, direction = [judge[cid] for cid in ids], "max"
            else:
                column, direction = [table[cid].value(name) for cid in ids], "min"
            best = oracles.select_by_pairs(column, direction)
            want.append((name, ids[best], column[best]))
        assert [(r.rule, r.checkpoint_id, r.value) for r in rows] == want

    def test_single_checkpoint_wins_everything(self):
        table = {"only": SummarySet("only", 1.2, {50: 0.8}, 10)}
        rules = [SelectionRule("best-mean", "mean", "min"),
                 SelectionRule("best-median", "p50", "min")]
        result = select(table, rules)
        assert all(row.checkpoint_id == "only" for row in result.rows)

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(79)
        table = _sweep_table(rng, m=12)
        metric = MetricSeries("judge", {cid: float(rng.normal()) for cid in table})
        rules = [SelectionRule("a", "mean", "min"),
                 SelectionRule("b", "p95", "min"),
                 SelectionRule("c", "judge", "max")]
        result = select(table, rules, metrics={"judge": metric})
        # min/max return the first winner in iteration order, so feeding
        # sorted ids reproduces the smaller-id tie-break.
        expect = {
            "a": min(sorted(table), key=lambda c: table[c].mean),
            "b": min(sorted(table), key=lambda c: table[c].percentiles[95]),
            "c": max(sorted(table), key=lambda c: metric.values[c]),
        }
        for row in result.rows:
            assert row.checkpoint_id == expect[row.rule]

    def test_ties_break_to_smaller_id(self):
        table = {
            "b": SummarySet("b", 1.0, {50: 0.5}, 10),
            "a": SummarySet("a", 1.0, {50: 0.7}, 10),
            "c": SummarySet("c", 2.0, {50: 0.5}, 10),
        }
        result = select(table, [SelectionRule("mean", "mean", "min"),
                                SelectionRule("median", "p50", "min")])
        assert result.rows[0].checkpoint_id == "a"
        assert result.rows[1].checkpoint_id == "b"

    def test_all_inf_family_selects_smallest_id(self):
        table = {
            cid: SummarySet(cid, np.inf, {50: 0.5 + i, 99: np.inf}, 10)
            for i, cid in enumerate(("c", "a", "b"))
        }
        rows = select(table, [SelectionRule("mean", "mean", "min"),
                              SelectionRule("p99", "p99", "min")]).rows
        assert [(r.checkpoint_id, r.value) for r in rows] == [
            ("a", np.inf), ("a", np.inf)]

    def test_mixed_family_with_infinities(self):
        table = {
            "a": SummarySet("a", np.inf, {50: 0.5, 99: np.inf}, 10),
            "b": SummarySet("b", 9.0, {50: 0.5, 99: 40.0}, 10),
            "c": SummarySet("c", np.inf, {50: 0.4, 99: np.inf}, 10),
            "d": SummarySet("d", 3.0, {50: 0.6, 99: 30.0}, 10),
        }
        metrics = {
            "up": MetricSeries("up", {"a": 1.0, "b": np.inf, "c": np.inf, "d": 2.0}),
            "down": MetricSeries("down", {"a": -np.inf, "b": -1.0, "c": -np.inf,
                                          "d": -np.inf}),
        }
        rules = [SelectionRule("mean", "mean", "min"),
                 SelectionRule("p99", "p99", "min"),
                 SelectionRule("p50", "p50", "min"),
                 SelectionRule("up", "up", "max"),
                 SelectionRule("down", "down", "max")]
        rows = select(table, rules, metrics=metrics).rows
        assert [(r.checkpoint_id, r.value) for r in rows] == [
            ("d", 3.0), ("d", 30.0), ("c", 0.4), ("b", np.inf), ("b", -1.0)]

    def test_nan_metric_rejected_so_select_cannot_pick_it(self):
        with pytest.raises(ValidationError, match="'j' of checkpoint 'a' is NaN"):
            MetricSeries("j", {"a": np.nan, "b": 5.0})

    @pytest.mark.parametrize("name", ["median", "p05", "mean"])
    def test_metric_may_not_take_a_summary_name(self, name):
        with pytest.raises(ValidationError) as info:
            MetricSeries(name, {"a": 1.0, "b": 2.0})
        assert str(info.value) == f"metric {name!r} has the name of a summary"

    def test_select_cannot_swap_a_summary_for_a_metric(self):
        # A metric named "median" would otherwise answer the median rule.
        table = {"a": SummarySet("a", 1.0, {50: 0.5}, 10),
                 "b": SummarySet("b", 1.0, {50: 0.7}, 10)}
        with pytest.raises(ValidationError, match="has the name of a summary"):
            select(table, [SelectionRule("median", "median", "min")],
                   {"median": MetricSeries("median", {"a": 9.0, "b": 1.0})})

    def test_metric_key_must_be_its_series_name(self):
        # Under the key "median" the judge would answer the median rule (b).
        table = {"a": SummarySet("a", 1.0, {50: 0.5}, 10),
                 "b": SummarySet("b", 1.0, {50: 0.7}, 10)}
        with pytest.raises(ValidationError) as info:
            select(table, [SelectionRule("median", "median", "min")],
                   {"median": MetricSeries("judge", {"a": 9.0, "b": 1.0})})
        assert str(info.value) == "metric key 'median' is not its series' name 'judge'"

    def test_row_carries_pick_and_metric_value(self):
        table = _sweep_table(np.random.default_rng(83), m=4)
        metric = MetricSeries("judge", {cid: 1.0 + i for i, cid in enumerate(sorted(table))})
        result = select(table, [SelectionRule("j", "judge", "max")],
                        metrics={"judge": metric})
        row = result.rows[0]
        assert row.checkpoint_id == "c03"
        assert row.value == 4.0

    def test_default_rule_directions(self):
        rules = default_rules(["mean", "p50", "judge"], metric_names=["judge"])
        assert [(r.column, r.direction) for r in rules] == [
            ("mean", "min"), ("p50", "min"), ("judge", "max")]

    def test_metric_missing_several_checkpoints_names_them_all(self):
        table = {cid: SummarySet(cid, 1.0, {50: 0.5}, 10) for cid in ("c", "a", "b", "d")}
        metric = MetricSeries("judge", {"b": 1.0, "x": 2.0})
        with pytest.raises(ValidationError) as exc:
            select(table, [SelectionRule("j", "judge", "max")], metrics={"judge": metric})
        assert str(exc.value) == "metric 'judge' missing checkpoints ['a', 'c', 'd']"

    def test_validation(self):
        with pytest.raises(ValidationError, match="metric 'm' has no entries"):
            MetricSeries("m", {})
        with pytest.raises(ValidationError):
            select({}, [SelectionRule("a", "mean", "min")])
        with pytest.raises(ValidationError):
            select({"x": SummarySet("x", 1.0, {50: 1.0}, 5)}, [])
        with pytest.raises(ValidationError):
            SelectionRule("bad", "mean", "sideways")

    def test_frozen_truncation_selection(self):
        table = helpers.load_summary_fixture(
            helpers.FIXTURES / "truncation_summaries.csv")
        judge = helpers.load_metric_fixture(
            helpers.FIXTURES / "truncation_judge.csv", "judge")
        rules = [SelectionRule("best-mean", "mean", "min"),
                 SelectionRule("best-median", "p50", "min"),
                 SelectionRule("best-judge", "judge", "max")]
        rows = {r.rule: r for r in select(table, rules, metrics={"judge": judge}).rows}
        assert rows["best-mean"].checkpoint_id == "teacher"
        assert rows["best-mean"].value == 1.442
        assert rows["best-median"].checkpoint_id == "student-top5"
        assert rows["best-median"].value == 0.525
        assert rows["best-judge"].checkpoint_id == "student-top5"
        assert rows["best-judge"].value == 2.06


class TestCrossingStep:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 12), st.sampled_from([0.0, 0.5, math.inf])
                      | st.floats(allow_nan=False)),
            min_size=1, max_size=8,
        ),
        st.data(),
    )
    def test_matches_brute_force(self, series, data):
        # References are often one of the values: equality is not a crossing.
        reference = data.draw(
            st.sampled_from([v for _, v in series])
            | st.sampled_from([0.5, math.inf, -math.inf])
            | st.floats(allow_nan=False)
        )
        steps = [step for step, _ in series]
        repeated = [step for step in steps if steps.count(step) > 1]
        if repeated:
            with pytest.raises(ValidationError, match=f"^duplicate step {min(repeated)} in series$"):
                crossing_step(series, reference)
            with pytest.raises(ValidationError):
                oracles.crossing_by_min_step(series, reference)
        else:
            assert crossing_step(series, reference) == oracles.crossing_by_min_step(
                series, reference)

    def test_first_strict_crossing(self):
        series = [(25_000, 0.70), (50_000, 0.65), (75_000, 0.58)]
        assert crossing_step(series, 0.609) == 75_000

    def test_no_crossing_returns_none(self):
        series = [(1, 0.9), (2, 0.8), (3, 0.7)]
        assert crossing_step(series, 0.65) is None
        assert crossing_step(series, -math.inf) is None

    def test_equality_is_not_a_crossing(self):
        assert crossing_step([(1, 0.5), (2, 0.5)], 0.5) is None
        assert crossing_step([(1, 0.5), (2, 0.49)], 0.5) == 2

    def test_input_order_is_irrelevant(self):
        series = [(75_000, 0.58), (25_000, 0.70), (50_000, 0.65)]
        assert crossing_step(series, 0.609) == 75_000

    def test_errors(self):
        with pytest.raises(ValidationError):
            crossing_step([], 1.0)
        with pytest.raises(ValidationError, match="duplicate step 1 in series"):
            crossing_step([(2, 0.3), (1, 0.5), (1, 0.4)], 1.0)
        with pytest.raises(ValidationError, match="^crossing reference is NaN$"):
            crossing_step([(1, 0.5), (2, 0.4)], math.nan)

    @pytest.mark.parametrize(
        "series, message",
        [([(1, math.nan), (2, 0.5)], "series value at step 1 is NaN"),  # returned 2
         ([(1.5, 0.3)], "series step must be an integer, got 1.5"),  # returned 1
         ([(True, 0.3)], "series step must be an integer, got True")],  # returned 1
        ids=["nan-value", "fractional-step", "bool-step"],
    )
    def test_nan_value_and_non_integral_step_are_refused(self, series, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            crossing_step(series, 1.0)

    def test_integral_float_step_and_inf_value_pass(self):
        assert crossing_step([(2.0, 0.5), (1, math.inf)], 1.0) == 2

    def test_frozen_training_trajectory(self):
        series = helpers.load_trajectory_fixture(
            helpers.FIXTURES / "trajectory_median.csv")
        assert crossing_step(series, 2.46) == 379_000

