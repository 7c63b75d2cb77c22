"""Loaders for the frozen CSV fixtures under tests/fixtures, and a
hypothesis strategy for chunked loss streams."""

import csv
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from lossdiag import MetricSeries, SummarySet

FIXTURES = Path(__file__).parent / "fixtures"

# distill-demo's flags for the shared demo_dir workspace; README's quick tour
# builds its demo/ workspace with the same line.
DEMO_FLAGS = ("--vocab", "32", "--length", "30000", "--eval-length", "10000",
              "--steps", "2000", "--k", "2,4,8,full")


def load_summary_fixture(path):
    """Read a checkpoint_id,mean,p<k>...,count table into SummarySet objects."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    out = {}
    for row in rows:
        pct = {
            int(name[1:]): float(value)
            for name, value in row.items()
            if name.startswith("p")
        }
        out[row["checkpoint_id"]] = SummarySet(
            checkpoint_id=row["checkpoint_id"],
            mean=float(row["mean"]),
            percentiles=pct,
            count=int(row["count"]),
        )
    return out


def load_metric_fixture(path, name):
    """Read a checkpoint_id,<name> table into a MetricSeries."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return MetricSeries(name=name, values={r["checkpoint_id"]: float(r[name]) for r in rows})


def load_trajectory_fixture(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return [(int(r["step"]), float(r["median"])) for r in rows]


@st.composite
def loss_streams(draw):
    """A float32 or float64 loss stream cut into chunks at arbitrary points.

    Values are lognormal, or drawn from a few distinct values (exact ties;
    one value makes a constant stream), with a share of +inf sentinels.
    Chunks may be empty; a stream may hold a single value.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(1, 30_000))
    distinct = draw(st.sampled_from((0, 1, 2, 7)))
    inf_share = draw(st.sampled_from((0.0, 0.01, 0.3, 1.0)))
    if distinct:
        vals = rng.lognormal(0.0, 1.0, distinct)[rng.integers(0, distinct, size)]
    else:
        vals = rng.lognormal(0.0, 1.5, size)
    vals[rng.random(size) < inf_share] = np.inf
    cuts = np.sort(rng.integers(0, size + 1, draw(st.integers(0, 40))))
    return np.split(vals.astype(draw(st.sampled_from((np.float32, np.float64)))), cuts)
