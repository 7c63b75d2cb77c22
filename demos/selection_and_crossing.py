"""Which loss summary predicts downstream quality, and who gets selected?

Given a family of checkpoints with loss summaries and one external quality
metric, three questions come up over and over: which summary correlates
with the metric, which checkpoint does each selection rule pick, and when
does a run first beat a reference. This script walks all three.
"""

import numpy as np

from lossdiag import (
    MetricSeries,
    SelectionRule,
    SummarySet,
    crossing_step,
    percentile_sweep,
    render,
    select,
)

rng = np.random.default_rng(59)

# Twelve checkpoints. The median improves monotonically with quality; the
# mean is contaminated by a tail that varies independently (a few hard
# prompts dominate it), so it correlates poorly with the judge.
table = {}
judge = {}
for i in range(12):
    cid = f"run-a-{i:02d}"
    skill = i / 11
    p50 = 1.4 - 0.9 * skill + rng.normal(0, 0.01)
    tail = rng.uniform(4.0, 9.0)
    mean = p50 + 0.12 * tail
    p95 = p50 + tail
    table[cid] = SummarySet(cid, mean, {50: p50, 95: p95}, 50_000)
    judge[cid] = 6.0 + 3.0 * skill + rng.normal(0, 0.15)

metric = MetricSeries("judge", judge)

# The sweep makes the contamination visible in one table.
print(render.sweep_table(percentile_sweep(table, metric)))

# Selection rules disagree accordingly: minimizing the mean can land on a
# different checkpoint than minimizing the median or maximizing the judge.
rules = [
    SelectionRule("best-mean", "mean", "min"),
    SelectionRule("best-median", "p50", "min"),
    SelectionRule("best-judge", "judge", "max"),
]
print(render.selection_table(select(table, rules, metrics={"judge": metric})))

# Crossing steps compare sample efficiency between runs: the first logged
# step at which a run's median dips below the reference value.
baseline_final = 0.62
trajectory = [(step, 1.4 * np.exp(-step / 60_000) + 0.45) for step in
              range(5_000, 200_001, 5_000)]
step = crossing_step(trajectory, baseline_final)
print(f"median first beats the baseline's final value ({baseline_final}) "
      f"at step {step}")
