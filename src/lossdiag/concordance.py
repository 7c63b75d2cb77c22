"""Agreement between checkpoint rankings induced by different loss summaries.

Given a set S of summaries (e.g. mean, median, p95) over one family of
checkpoints, the concordance is the fraction of unordered checkpoint pairs
on which every summary in S orders the pair the same way. A pair where some
summary ties counts as concordant only if *all* summaries tie on it; ties
are detected by exact float equality and reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .quantiles import SummarySet, _percentile_of


@dataclass(frozen=True)
class ConcordanceReport:
    family: str
    summaries: tuple[str, ...]
    checkpoint_ids: tuple[str, ...]
    total_pairs: int
    concordant_pairs: int
    tied_pairs: int
    pi: float
    pairwise: Mapping[tuple[str, str], float]


def _sign_matrix(values: np.ndarray) -> np.ndarray:
    # (m, m) matrix of sign(v_i - v_j) for one summary column, by comparison:
    # the difference of two +inf values is NaN, not a tie.
    col, row = values[:, None], values[None, :]
    return (col > row).astype(np.int8) - (col < row)


def _check_rankings(names: Sequence[str], n_checkpoints: int, family: str = "") -> None:
    """What concordance refuses before it reads a summary value. Two names of
    one summary are duplicates: "median,p50" and "p5,p05" as "mean,mean".
    A non-empty ``family`` is named in the refusal of too few checkpoints."""
    if len(names) < 2:
        raise ValidationError("need at least two summaries to compare rankings")
    if len({_percentile_of(name) or name for name in names}) != len(names):
        raise ValidationError("duplicate summary names")
    if n_checkpoints < 2:
        where = f"family {family!r}: " if family else ""
        raise ValidationError(f"{where}need at least two checkpoints")


def concordance(
    table: Mapping[str, SummarySet],
    summaries: Sequence[str],
    family: str = "",
) -> ConcordanceReport:
    """Concordance pi(S) over all unordered checkpoint pairs.

    Also reports pi for every two-element subset of ``summaries``; pi(S) can
    never exceed the smallest of those.
    """
    names = tuple(summaries)
    ids = tuple(sorted(table))
    _check_rankings(names, len(ids), family)

    # value() raises with the checkpoint and summary name if one is missing.
    cols = np.array([[table[cid].value(name) for name in names] for cid in ids])

    m = len(ids)
    iu = np.triu_indices(m, k=1)
    signs = np.stack([_sign_matrix(cols[:, j])[iu] for j in range(len(names))])

    agree_all = (signs == signs[0]).all(axis=0)
    tied_any = (signs == 0).any(axis=0)
    total = signs.shape[1]
    concordant = int(agree_all.sum())
    tied = int(tied_any.sum())

    pairwise: dict[tuple[str, str], float] = {}
    for a, b in combinations(range(len(names)), 2):
        match = (signs[a] == signs[b]).sum()
        pairwise[(names[a], names[b])] = float(match / total)

    return ConcordanceReport(
        family=family,
        summaries=names,
        checkpoint_ids=ids,
        total_pairs=total,
        concordant_pairs=concordant,
        tied_pairs=tied,
        pi=concordant / total,
        pairwise=pairwise,
    )


def kendall_tau(a: Sequence[float], b: Sequence[float]) -> float:
    """Kendall rank correlation by direct pair enumeration.

    A pair is concordant when sign(a_i - a_j) == sign(b_i - b_j); with no
    ties this is the textbook tau-a, and the convention extends it so that
    pi = (1 + tau) / 2 holds exactly for two summaries even in the presence
    of ties (a doubly tied pair counts as concordant).
    """
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("inputs must be one-dimensional and equally long")
    if x.size < 2:
        raise ValidationError("need at least two observations")
    for name, values in (("a", x), ("b", y)):
        if np.isnan(values).any():  # _sign_matrix would tie NaN with every value
            raise ValidationError(f"kendall_tau input {name} contains NaN")
    iu = np.triu_indices(x.size, k=1)
    sx = _sign_matrix(x)[iu]
    sy = _sign_matrix(y)[iu]
    agree = int((sx == sy).sum())
    total = sx.size
    return (agree - (total - agree)) / total
