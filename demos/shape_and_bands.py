"""Comparing loss distributions across scale: profiles and bands.

Checkpoints trained with different data or budgets sit at different loss
scales, so raw percentiles are incomparable. Standardizing each profile by
its own median and IQR removes location and scale; what remains is shape.
Band tables are the complementary absolute view: how many tokens fall into
each fixed loss range.
"""

import numpy as np

from lossdiag import (
    LossVector,
    band_masses,
    profile_distance,
    render,
    standardize_profile,
    summarize_exact,
)

rng = np.random.default_rng(83)


def checkpoint(cid, scale, tail_sigma):
    # Body plus a tail whose heaviness is controlled independently of scale.
    body = rng.lognormal(np.log(scale), 0.55, 30_000)
    tail = rng.lognormal(np.log(scale * 4), tail_sigma, 1_500)
    return LossVector(cid, np.concatenate([body, tail]))


# Two families: "narrow" and "heavy" differ in tail shape. Within each
# family the members differ only in overall scale (4x apart!).
vectors = [
    checkpoint("narrow-small", 0.3, 0.3),
    checkpoint("narrow-large", 1.2, 0.3),
    checkpoint("heavy-small", 0.3, 1.1),
    checkpoint("heavy-large", 1.2, 1.1),
]
summaries = [summarize_exact(v) for v in vectors]
profiles = [standardize_profile(s) for s in summaries]

# After standardizing, family members land on nearly the same profile and
# the families stay apart; scale is gone from the comparison.
print(render.profile_table(profiles))
print("profile distances:")
print(render.distance_table(profiles))

names = [p.checkpoint_id for p in profiles]
within = profile_distance(profiles[0], profiles[1])
cross = profile_distance(profiles[0], profiles[2])
print(f"within-family distance: {within:.3f}, cross-family: {cross:.3f}")
print()

# Band tables keep absolute units: percent of tokens per fixed nat range.
tables = [band_masses(v) for v in vectors]
print(render.band_table(tables))

# Deltas between two checkpoints show where the mass moved.
delta = np.subtract(tables[3].mass, tables[0].mass)
moved = ", ".join(f"{lo:g}..{hi:g}: {d:+.1f}" for (lo, hi), d in zip(tables[0].bands, delta))
print(f"mass shift {names[0]} -> {names[3]} (percentage points): {moved}")
