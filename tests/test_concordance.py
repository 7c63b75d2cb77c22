"""Cross-summary ranking agreement: concordance and its tie conventions."""

import math
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lossdiag import SummarySet, ValidationError, concordance, kendall_tau

import oracles


def _table(columns, names=("mean", "p50")):
    """Build {id: SummarySet} from per-summary value columns.

    Ids are zero-padded so sorted(table) matches column index order.
    """
    m = len(columns[0])
    table = {}
    for i in range(m):
        mean = 0.0
        pct = {}
        for name, col in zip(names, columns):
            if name == "mean":
                mean = col[i]
            else:
                pct[int(name[1:])] = col[i]
        if not pct:
            pct = {50: 1.0}
        table[f"ckpt{i:02d}"] = SummarySet(f"ckpt{i:02d}", mean, pct, count=10)
    return table


def _random_columns(rng, m, n_cols):
    # Percentile columns must be non-decreasing within a checkpoint, so draw
    # the first column and add non-negative increments for the rest.
    base = rng.uniform(0.1, 4.0, m)
    cols = [base]
    for _ in range(n_cols - 1):
        cols.append(cols[-1] + rng.uniform(0.0, 1.0, m))
    return [list(c) for c in cols]


class TestAgainstPairOracle:
    def test_random_tables(self):
        rng = np.random.default_rng(42)
        for trial in range(50):
            m = int(rng.integers(2, 13))
            n_cols = int(rng.integers(2, 5))
            cols = _random_columns(rng, m, n_cols)
            if trial % 3 == 0:
                # Inject ties so the tie path is exercised too.
                for col in cols:
                    col[0] = col[-1]
            names = ("mean", "p25", "p50", "p95")[:n_cols]
            rep = concordance(_table(cols, names), names)
            total, conc, tied = oracles.concordance_by_pairs(cols)
            assert rep.total_pairs == total
            assert rep.concordant_pairs == conc
            assert rep.tied_pairs == tied
            assert rep.pi == conc / total

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 4).flatmap(lambda n: st.lists(
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, math.inf]), min_size=n, max_size=n),
        min_size=2, max_size=10,
    )))
    @example([[math.inf] * 4, [math.inf] * 4, [1.0, 1.0, math.inf, math.inf]])
    def test_tables_with_equal_infinities(self, rows):
        # One row per checkpoint: its mean, then its percentiles in order.
        names = ("mean", "p25", "p50", "p95")[:len(rows[0])]
        cols = [list(col) for col in zip(*([r[0], *sorted(r[1:])] for r in rows))]
        rep = concordance(_table(cols, names), names)
        total, conc, tied = oracles.concordance_by_pairs(cols)
        assert (rep.total_pairs, rep.concordant_pairs, rep.tied_pairs) == (total, conc, tied)
        assert rep.pi == conc / total

    def test_two_checkpoints_agreeing(self):
        cols = [[1.0, 2.0], [3.0, 5.0], [0.2, 0.9]]
        rep = concordance(_table(cols, ("mean", "p95", "p50")), ("mean", "p95", "p50"))
        assert rep.total_pairs == 1
        assert rep.pi == 1.0
        assert rep.tied_pairs == 0


class TestTieConventions:
    def test_doubly_tied_pair_is_concordant(self):
        cols = [[1.0, 1.0], [2.0, 2.0]]
        rep = concordance(_table(cols), ("mean", "p50"))
        assert rep.pi == 1.0
        assert rep.tied_pairs == 1

    def test_inf_ties_are_ties(self):
        # inf - inf is NaN; two +inf means must still compare as a tie.
        cols = [[np.inf, np.inf, 1.0], [2.0, 2.0, 1.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = concordance(_table(cols), ("mean", "p50"))
        assert (rep.total_pairs, rep.concordant_pairs, rep.tied_pairs) == (3, 3, 1)
        assert oracles.concordance_by_pairs(cols) == (3, 3, 1)

    def test_one_sided_tie_is_discordant(self):
        cols = [[1.0, 1.0], [2.0, 3.0]]
        rep = concordance(_table(cols), ("mean", "p50"))
        assert rep.pi == 0.0
        assert rep.concordant_pairs == 0
        assert rep.tied_pairs == 1


class TestTwoSummaryIdentity:
    def test_pi_matches_tau_without_ties(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            m = int(rng.integers(3, 12))
            cols = _random_columns(rng, m, 2)
            rep = concordance(_table(cols), ("mean", "p50"))
            tau = kendall_tau(cols[0], cols[1])
            assert abs(rep.pi - (1.0 + tau) / 2.0) <= 1e-12


class TestStructuralProperties:
    def test_monotone_transform_preserves_pi(self):
        rng = np.random.default_rng(17)
        cols = _random_columns(rng, 10, 2)
        before = concordance(_table(cols), ("mean", "p50")).pi
        warped = [list(np.exp(cols[0])), cols[1]]
        after = concordance(_table(warped), ("mean", "p50")).pi
        assert after == before

    def test_adding_a_summary_never_raises_pi(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            cols = _random_columns(rng, 9, 3)
            names = ("mean", "p50", "p95")
            table = _table(cols, names)
            small = concordance(table, names[:2]).pi
            full = concordance(table, names).pi
            assert full <= small + 1e-15

    def test_pi_bounded_by_pairwise_minimum(self):
        rng = np.random.default_rng(29)
        cols = _random_columns(rng, 11, 4)
        names = ("mean", "p25", "p50", "p95")
        rep = concordance(_table(cols, names), names)
        assert rep.pi <= min(rep.pairwise.values()) + 1e-15


class TestDisagreementRendering:
    def test_four_local_swaps_give_141_of_153(self):
        # 18 checkpoints, three columns ranked identically, then four swaps
        # of positions two apart on the p95 column. Each such swap flips
        # exactly three pair orderings, so pi = (153 - 12) / 153.
        m = 18
        mean = [1.0 + 0.10 * i for i in range(m)]
        p50 = [0.5 + 0.05 * i for i in range(m)]
        p95 = [2.0 + 0.10 * i for i in range(m)]
        for lo in (0, 4, 8, 12):
            p95[lo], p95[lo + 2] = p95[lo + 2], p95[lo]
        names = ("mean", "p50", "p95")
        rep = concordance(_table([mean, p50, p95], names), names, family="scratch")
        assert rep.total_pairs == 153
        assert rep.concordant_pairs == 141
        assert rep.tied_pairs == 0
        assert f"{rep.pi:.2f}" == "0.92"
        assert rep.family == "scratch"


class TestKendallTau:
    def test_identity_and_reversal(self):
        x = list(range(8))
        assert kendall_tau(x, x) == 1.0
        assert kendall_tau(x, x[::-1]) == -1.0

    def test_matches_scipy_without_ties(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(3, 40))
            a = rng.permutation(n).astype(float)
            b = rng.permutation(n).astype(float)
            ref = scipy.stats.kendalltau(a, b).statistic
            assert abs(kendall_tau(a, b) - ref) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 12).flatmap(lambda m: st.lists(
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, math.inf]), min_size=m, max_size=m),
        min_size=2, max_size=2,
    )))
    @example([[math.inf, math.inf, 1.0], [2.0, 2.0, 1.0]])
    @example([[1.0, 1.0], [1.0, 1.0]])
    def test_tau_and_concordance_count_the_oracles_agreeing_pairs(self, cols):
        # Few distinct values, so ties and equal +inf values are common.
        n, agree, _ = oracles.concordance_by_pairs(cols)
        tau = kendall_tau(*cols)
        assert tau == (2 * agree - n) / n
        rep = concordance(_table(cols), ("mean", "p50"))
        assert (rep.total_pairs, rep.concordant_pairs) == (n, agree)
        assert round((1 + tau) * n / 2) == agree
        assert round(rep.pairwise[("mean", "p50")] * n) == agree

    def test_tied_inf_pair_in_identical_rankings(self):
        assert kendall_tau([np.inf, np.inf, 1.0], [2.0, 2.0, 1.0]) == 1.0

    def test_nan_is_refused_not_tied(self):
        # _sign_matrix tied NaN with every value: [nan, 1, 2] vs [1, 2, 3]
        # read -0.333.
        with pytest.raises(ValidationError, match="^kendall_tau input a contains NaN$"):
            kendall_tau([np.nan, 1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValidationError, match="^kendall_tau input b contains NaN$"):
            kendall_tau([1.0, 2.0, 3.0], [1.0, 2.0, np.nan])

    def test_validation(self):
        with pytest.raises(ValidationError):
            kendall_tau([1.0], [2.0])
        with pytest.raises(ValidationError):
            kendall_tau([1.0, 2.0], [1.0, 2.0, 3.0])


class TestValidation:
    def test_needs_two_summaries(self):
        cols = [[1.0, 2.0]]
        with pytest.raises(ValidationError):
            concordance(_table(cols, ("mean",)), ("mean",))

    def test_duplicate_summaries(self):
        cols = _random_columns(np.random.default_rng(0), 4, 2)
        for names in (("mean", "mean"), ("mean", "median", "p50"), ("mean", "p5", "p05")):
            # Two names of one summary are a duplicate, as one name twice is.
            with pytest.raises(ValidationError, match="duplicate"):
                concordance(_table(cols), names)

    def test_needs_two_checkpoints(self):
        table = {"only": SummarySet("only", 1.0, {50: 1.0}, count=5)}
        with pytest.raises(ValidationError) as info:
            concordance(table, ("mean", "p50"))
        assert str(info.value) == "need at least two checkpoints"
        with pytest.raises(ValidationError) as info:
            concordance(table, ("mean", "p50"), family="fam")
        assert str(info.value) == "family 'fam': need at least two checkpoints"

    def test_missing_summary_names_checkpoint(self):
        cols = _random_columns(np.random.default_rng(1), 3, 2)
        with pytest.raises(ValidationError, match="ckpt00"):
            concordance(_table(cols), ("mean", "p95"))
