"""Distribution-level diagnostics for per-token language-model losses.

Per-token cross-entropy dumps go in; what comes out is everything needed to
compare checkpoints beyond the mean: exact and sketched percentile
summaries, cross-summary concordance, standardized distribution shapes and
loss-band masses, summary-vs-metric correlation and selection, and a small
synthetic distillation lab that reproduces the mean/median divergence of
top-K-trained students end to end.
"""

from __future__ import annotations

import os
import sys

# lossdiag's parallelism is its own workers and its one BLAS call is too small
# to thread, so unless numpy is already loaded or a BLAS thread variable is set,
# OpenBLAS runs single-threaded instead of starting a pool that only spins.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OPENBLAS_DEFAULT_NUM_THREADS",
                     "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .concordance import ConcordanceReport, concordance, kendall_tau
from .correlate import (
    MetricSeries,
    SelectionRule,
    SelectionTable,
    SweepRow,
    crossing_step,
    default_rules,
    pearson,
    percentile_sweep,
    select,
    spearman,
)
from .errors import (
    BadMagicError,
    CountMismatchError,
    DegenerateInputError,
    DivergenceError,
    LossDiagError,
    ManifestError,
    StoreFormatError,
    TruncatedDumpError,
    UsageError,
    ValidationError,
)
from .quantiles import (
    DEFAULT_KS,
    EXACT_PATH_MAX,
    SummarySet,
    summarize_chunks,
    summarize_exact,
    summarize_sorted,
)
from .shape import (
    DEFAULT_BAND_BOUNDS,
    PROFILE_GRID,
    BandTable,
    PercentileProfile,
    band_masses,
    family_tail_stats,
    profile_distance,
    profile_percentiles,
    standardize_profile,
)
from .sketch import QuantileSketch, build_sketch
from .store import (
    CheckpointMeta,
    LossVector,
    Manifest,
    dump_manifest,
    iter_loss_chunks,
    load_manifest,
    peek_dump_count,
    read_loss_dump,
    write_loss_dump,
)

__version__ = "0.1.0"

# The distillation lab is imported on first use (PEP 562): only distill-demo
# and the lab's own callers need it, and it is the slowest module to import.
_DISTILL_NAMES = (
    "TabularLM", "LabConfig", "LabCheckpoint", "DoseResult",
    "synth_corpus", "true_chain", "zipf_weights", "fit_teacher", "softmax",
    "log_softmax", "topk_renormalize", "kl",
    "distill_student", "converged_student",
    "per_token_ce", "next_token_accuracy", "chain_fidelity", "dose_response",
    "lab_checkpoints",
)


def __getattr__(name):
    if name in _DISTILL_NAMES:
        from importlib import import_module

        return getattr(import_module(".distill", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    # store
    "LossVector", "write_loss_dump", "read_loss_dump", "iter_loss_chunks",
    "peek_dump_count", "CheckpointMeta", "Manifest", "load_manifest",
    "dump_manifest",
    # quantiles
    "DEFAULT_KS", "EXACT_PATH_MAX", "SummarySet", "summarize_exact",
    "summarize_sorted", "summarize_chunks",
    # sketch
    "QuantileSketch", "build_sketch",
    # concordance
    "ConcordanceReport", "concordance", "kendall_tau",
    # shape
    "PROFILE_GRID", "DEFAULT_BAND_BOUNDS", "PercentileProfile",
    "standardize_profile", "profile_distance", "BandTable", "band_masses",
    "profile_percentiles", "family_tail_stats",
    # correlate
    "MetricSeries", "pearson", "spearman", "SweepRow", "percentile_sweep",
    "SelectionRule", "SelectionTable", "select", "default_rules",
    "crossing_step",
    # distill
    *_DISTILL_NAMES,
    # errors
    "LossDiagError", "UsageError", "ValidationError", "StoreFormatError",
    "BadMagicError", "TruncatedDumpError", "CountMismatchError",
    "ManifestError", "DegenerateInputError", "DivergenceError",
]
