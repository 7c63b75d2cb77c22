"""Span tracing of lossdiag from outside the package, and the traced CLI runner.

A ``Tracer`` replaces functions, by name, in the namespaces lossdiag calls
them through. Each call of a wrapped function records one span: id, parent
id, name, thread, start, end, thread CPU seconds and an optional integer
(``info``). Spans stay in memory until the run ends.

A span's parent is the innermost open span on the same thread. A span
opened on a thread with no open span (a thread-pool worker) is attributed
to the root span, ``cli.main``.

Run as a script, this module is the traced CLI:

    python3 perfbench/tracing.py --spans OUT.json -- <lossdiag arguments>

It times ``import lossdiag.cli``, installs the wrappers, runs
``lossdiag.cli.main`` under a root span and writes the spans to OUT.json.
Its exit code is the CLI's.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict

# Span tuple fields.
ID, PARENT, NAME, THREAD, START, END, CPU, INFO = range(8)

ROOT = "cli.main"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_id = None
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, info=None):
        stack = self._stack()
        parent = stack[-1] if stack else self._root_id
        sid = next(self._ids)
        if name == ROOT and self._root_id is None:
            self._root_id = sid
        stack.append(sid)
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            c1 = time.thread_time()
            stack.pop()
            extra = info(*args, **kwargs) if info is not None else 0
            self.spans.append(
                (sid, parent, name, threading.get_ident(), t0, t1, c1 - c0, extra)
            )

    def wrap(self, name, fn, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, info)

        return traced

    def wrap_iterator(self, name, fn):
        """Wrap a function returning an iterator; each ``next`` is a span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = self.call(name, next, (it,), {})
                except StopIteration:
                    return
                yield item

        return traced

    def patch(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _layer(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


def _functions(module, home: str = "lossdiag."):
    """Public functions bound in ``module`` that are defined under ``home``."""
    for attr, fn in list(vars(module).items()):
        if (
            not attr.startswith("_")
            and callable(fn)
            and not isinstance(fn, type)
            and getattr(fn, "__module__", "").startswith(home)
        ):
            yield attr, fn


def _file_bytes(path, *args, **kwargs) -> int:
    return os.path.getsize(path)


def _sketch_size(sketch, *args, **kwargs) -> int:
    return sketch.memory_values()


def install_cli(tracer: Tracer) -> None:
    """Wrap the functions ``lossdiag.cli`` and ``lossdiag.distill`` call."""
    import lossdiag.cli as cli
    import lossdiag.distill as distill
    import lossdiag.render as render
    import lossdiag.store as store
    from lossdiag.sketch import QuantileSketch

    special = {"iter_loss_chunks", "read_loss_dump"}
    for module in (cli, distill):
        for attr, fn in _functions(module):
            if attr not in special and fn.__module__ != "lossdiag.cli":
                tracer.patch(module, attr, tracer.wrap(f"{_layer(fn)}.{attr}", fn))
    # Reads: whole-array reads carry their file size; streamed reads are
    # timed per chunk, inside whichever summary consumes them.
    tracer.patch(
        cli, "read_loss_dump",
        tracer.wrap("store.read_loss_dump", cli.read_loss_dump, _file_bytes),
    )
    tracer.patch(
        cli, "iter_loss_chunks",
        tracer.wrap_iterator("store.iter_loss_chunks", cli.iter_loss_chunks),
    )
    # load_manifest checks every dump through the store's own binding.
    tracer.patch(
        store, "peek_dump_count",
        tracer.wrap("store.peek_dump_count", store.peek_dump_count),
    )
    # Renderers are reached through the module object, and the distance
    # table calls profile_distance once per checkpoint pair. fmt runs once
    # per cell, so a span there would cost more than the call it times.
    for attr, fn in _functions(render, "lossdiag.render"):
        if attr != "fmt":
            tracer.patch(render, attr, tracer.wrap(f"render.{attr}", fn))
    tracer.patch(
        render, "profile_distance",
        tracer.wrap("shape.profile_distance", render.profile_distance),
    )
    tracer.patch(
        QuantileSketch, "extend", tracer.wrap("sketch.extend", QuantileSketch.extend)
    )
    tracer.patch(
        QuantileSketch, "query",
        tracer.wrap("sketch.query", QuantileSketch.query, _sketch_size),
    )


def install_setup(tracer: Tracer) -> None:
    """Wrap the store writes the workspace generator makes."""
    import lossdiag.store as store

    for attr in ("write_loss_dump", "dump_manifest"):
        tracer.patch(store, attr, tracer.wrap(f"store.{attr}", getattr(store, attr)))


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def aggregate(spans) -> dict[str, float]:
    """Per-name calls, wall_s, cpu_s, wait_s and self_s, plus per-layer self_s.

    Self time is a span's duration minus the part of it that its children
    cover; children on other threads overlap one another, so the covered
    part is the union of their intervals, clipped to the parent.
    """
    by_id = {s[ID]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        parent = by_id.get(s[PARENT])
        if parent is not None:
            children[s[PARENT]].append(
                (max(s[START], parent[START]), min(s[END], parent[END]))
            )
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        wall = s[END] - s[START]
        self_s = wall - _covered(i for i in children[s[ID]] if i[1] > i[0])
        name = s[NAME]
        out[f"{name}.calls"] += 1
        out[f"{name}.wall_s"] += wall
        out[f"{name}.cpu_s"] += s[CPU]
        out[f"{name}.wait_s"] += wall - s[CPU]
        out[f"{name}.self_s"] += self_s
        out[f"{name.split('.')[0]}.self_s"] += self_s
    return dict(out)


def info_total(spans, name) -> int:
    return sum(s[INFO] for s in spans if s[NAME] == name)


def sketch_values(spans) -> int:
    """Values held by the sketches at query time, summed over sketches.

    Each summary builds one sketch and queries it inside its own span, so
    query spans grouped by parent are the queries of one sketch.
    """
    held: dict[int, int] = {}
    for s in spans:
        if s[NAME] == "sketch.query":
            held[s[PARENT]] = max(held.get(s[PARENT], 0), s[INFO])
    return sum(held.values())


def _main(argv=None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(description="Run the lossdiag CLI under the tracer.")
    parser.add_argument("--spans", required=True, help="write spans JSON here")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    t0 = time.perf_counter()
    import lossdiag.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install_cli(tracer)
    rc = tracer.call(ROOT, lossdiag.cli.main, (cli_args,), {})
    tracer.restore()
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(_main())
