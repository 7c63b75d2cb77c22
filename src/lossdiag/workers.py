"""How many workers a parallel stage runs.

One policy serves the threads that scan checkpoints (``cli``) and the
processes that train distillation students (``distill``): one worker per
task, at most 8 and at most the CPUs this process may run on. A set
LOSSDIAG_THREADS replaces that default limit of 8 and the CPU count: it may
exceed both, and only the number of tasks still bounds it. BLAS itself runs
single-threaded (``__init__``).
"""

from __future__ import annotations

import os

from .errors import UsageError


def worker_count(n_tasks: int) -> int:
    raw = os.environ.get("LOSSDIAG_THREADS", "")
    if raw:
        try:
            limit = int(raw)
        except ValueError as exc:
            raise UsageError(f"LOSSDIAG_THREADS must be an integer, got {raw!r}") from exc
        if limit < 1:
            raise UsageError("LOSSDIAG_THREADS must be >= 1")
    elif hasattr(os, "sched_getaffinity"):  # the CPUs this process may use
        limit = min(8, len(os.sched_getaffinity(0)))
    else:
        limit = min(8, os.cpu_count() or 1)
    return max(1, min(limit, n_tasks))
