"""lossdiag benchmark: the CLI on seed-generated workspaces, checked by oracles.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source tree that holds ``src/lossdiag``; the
benchmark imports and runs that tree's code (``PYTHONPATH=src``) and needs
no install or build. It reads and writes only under ``.perfbench/`` at the
tree's root, and removes its own directory there when it ends.

Workloads (fixed sizes; ``--seed`` picks the generated losses and metrics):

* ``report-large``: ``lossdiag report`` over 8 checkpoints x 1e7 float32
  losses in 2 families; one family carries +inf sentinels, so no
  ``--metric`` (pearson refuses an +inf mean). The exact path at scale.
* ``sketch-stream``: ``lossdiag summarize --sketch`` on the same workspace;
  chunked reads and the quantile sketch, no sort.
* ``report-many``: ``lossdiag report --metric judge`` over 256 checkpoints
  x 1e5 losses in 16 families; every 64th dump is a text dump. Per-file
  and per-checkpoint costs: manifest, text parsing, concordance, sweep,
  profile distances, rendering.
* ``distill-default``: ``lossdiag distill-demo`` at its defaults (the seed
  does not change it). Corpus sampling, the GD loop and dump writes.

``--trace 0`` measures fresh ``lossdiag`` processes with tracing off and
reports the end-to-end metrics: median wall, CPU (user+sys) and peak RSS of
one invocation, each from the child's own rusage, and ``setup_s``, the
median time of generating the workspace (through ``write_loss_dump`` and
``dump_manifest``) over several generations. ``distill-default`` reads no
workspace; its set-up is a fresh interpreter importing ``lossdiag.cli``.
One untimed warm-up invocation precedes the timed ones on workloads that
read dumps, so the page cache is warm.

``--trace 1`` reports per-layer metrics from ``perfbench/tracing.py``: one
traced set-up, then traced CLI runs, alternating with untraced ones until
``--seconds`` have passed (at least two of each). Counts must repeat
exactly across the traced runs; times are medians. ``trace.overhead_s`` is
the traced minus the untraced median wall of one invocation.
``store.write_loss_dump`` and ``store.dump_manifest`` include the traced
set-up's calls.

Every invocation is checked: exit code 0, every expected output file
present, oracle checks (``perfbench/oracle.py``) passed and output bytes
equal to the first invocation's. A failed check counts in ``failed``;
``failed / attempted`` is the run's error rate. The line before the result
is a run record: machine, versions, sizes, output digests and, with
tracing, calls per checkpoint. The last line is the result JSON.

``--smoke`` shrinks every input for the self-tests:
``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPS = 3  # setup_s is the median of this many generations
INVOKE_TIMEOUT_S = 150
MIN_TRACED_RUNS = 2

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

PER_LAYER = (
    ("store.read_loss_dump.calls", "count"),
    ("store.read_loss_dump.wall_s", "s"),
    ("store.read_loss_dump.cpu_s", "s"),
    ("store.read_loss_dump.wait_s", "s"),
    ("store.read_bytes", "bytes"),
    ("store.peek_dump_count.calls", "count"),
    ("store.peek_dump_count.wall_s", "s"),
    ("store.load_manifest.wall_s", "s"),
    ("store.iter_loss_chunks.wall_s", "s"),
    ("store.write_loss_dump.calls", "count"),
    ("store.write_loss_dump.wall_s", "s"),
    ("store.dump_manifest.wall_s", "s"),
    ("quantiles.summarize_exact.calls", "count"),
    ("quantiles.summarize_exact.wall_s", "s"),
    ("quantiles.summarize_exact.cpu_s", "s"),
    ("quantiles.summarize_exact.wait_s", "s"),
    ("quantiles.summarize_chunks.self_s", "s"),
    ("sketch.extend.calls", "count"),
    ("sketch.extend.wall_s", "s"),
    ("sketch.query.calls", "count"),
    ("sketch.query.wall_s", "s"),
    ("sketch.memory_values", "count"),
    ("shape.band_masses.calls", "count"),
    ("shape.band_masses.wall_s", "s"),
    ("shape.band_masses.cpu_s", "s"),
    ("shape.profile_distance.calls", "count"),
    ("shape.profile_distance.wall_s", "s"),
    ("render.self_s", "s"),
    ("concordance.concordance.wall_s", "s"),
    ("correlate.percentile_sweep.wall_s", "s"),
    ("correlate.select.wall_s", "s"),
    ("distill.synth_corpus.calls", "count"),
    ("distill.synth_corpus.wall_s", "s"),
    ("distill.fit_teacher.wall_s", "s"),
    ("distill.per_token_ce.wall_s", "s"),
    ("distill.dose_response.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main.wall_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
)

# Counts a later change may lower; the run record gives them per checkpoint.
PER_CHECKPOINT = (
    "store.read_loss_dump.calls",
    "store.peek_dump_count.calls",
    "quantiles.summarize_exact.calls",
    "sketch.query.calls",
)

REPORT_FILES = (
    "summary.csv", "concordance.csv", "selection.csv", "profiles.csv",
    "distances.csv", "bands.csv", "family_stats.csv", "report.md", "scatter.svg",
)
DISTILL_KS = ("2", "4", "8", "16", "full")
SMOKE_DISTILL_ARGS = (
    "--vocab", "32", "--length", "30000", "--eval-length", "10000",
    "--steps", "2000", "--k", "2,4,8,16,full",
)
CLI_CODE = "import sys; from lossdiag.cli import main; sys.exit(main())"


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass(frozen=True)
class Workload:
    name: str
    spec: object  # workspace.WorkspaceSpec, or None when the CLI reads no input
    argv: Callable[[Path, Path], list[str]]  # (manifest, out dir) -> CLI args
    outputs: tuple[str, ...]  # files each invocation leaves in the out dir
    check: Callable[[Path, object], list[str]]  # (out dir, refs) -> problems
    references: Callable[[Path], object]  # manifest -> oracle references


def workloads(smoke: bool) -> dict[str, Workload]:
    from perfbench import oracle
    from perfbench.workspace import Family, WorkspaceSpec

    large = WorkspaceSpec(
        tag=1,
        families=(Family("dense"), Family("trunc", inf_share=1e-3)),
        steps=4,
        values=50_000 if smoke else 10_000_000,
    )
    many = WorkspaceSpec(
        tag=2,
        families=tuple(Family(f"f{i:02d}") for i in range(4 if smoke else 16)),
        steps=4 if smoke else 16,
        values=2_000 if smoke else 100_000,
        text_every=8 if smoke else 64,
        metrics=("judge", "acc"),
    )

    def report(out: Path, refs) -> list[str]:
        return oracle.check_exact_summary(out / "summary.csv", refs) + oracle.check_bands(
            out / "bands.csv", refs
        )

    distill_outputs = ("dose.csv", "manifest.yaml", "dumps/teacher.bin") + tuple(
        f"dumps/student-k{k}-{source}.bin" for k in DISTILL_KS for source in ("trained", "oracle")
    )
    return {
        "report-large": Workload(
            "report-large", large,
            lambda m, out: ["report", "--manifest", str(m), "--out-dir", str(out)],
            REPORT_FILES, report,
            lambda m: oracle.references(m, exact=True, sketch=False),
        ),
        "sketch-stream": Workload(
            "sketch-stream", large,
            lambda m, out: ["summarize", "--sketch", "--manifest", str(m),
                            "--out", str(out / "summary.csv")],
            ("summary.csv",),
            lambda out, refs: oracle.check_sketch_summary(out / "summary.csv", refs),
            lambda m: oracle.references(m, exact=False, sketch=True),
        ),
        "report-many": Workload(
            "report-many", many,
            lambda m, out: ["report", "--manifest", str(m), "--out-dir", str(out),
                            "--metric", "judge"],
            REPORT_FILES + ("sweep.csv", "sweep.svg"), report,
            lambda m: oracle.references(m, exact=True, sketch=False),
        ),
        "distill-default": Workload(
            "distill-default", None,
            lambda m, out: ["distill-demo", "--out", str(out / "dose.csv")]
            + (list(SMOKE_DISTILL_ARGS) if smoke else []),
            distill_outputs,
            lambda out, refs: oracle.check_distill(out, full_config=not smoke),
            lambda m: None,
        ),
    }


# --- processes ---------------------------------------------------------


@dataclass
class Invocation:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # The CLI's own thread policy is part of what is measured.
    env.pop("LOSSDIAG_THREADS", None)
    return env


def invoke(cmd: list[str], cwd: Path, log: Path) -> Invocation:
    """Run one child to completion; time it and read its own rusage."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out, stderr=out)
        timer = threading.Timer(INVOKE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
    )


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class Session:
    """One benchmark run: a work directory, invocations and their checks."""

    def __init__(self, workload: Workload, work: Path):
        self.workload = workload
        self.work = work
        self.manifest = work / "ws" / "manifest.yaml"
        self.refs = None
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.digest = None
        self._serial = 0

    def run(self, traced: bool) -> tuple[Invocation, dict | None]:
        """One CLI invocation into a fresh out dir; checks it, then removes it."""
        self._serial += 1
        out = self.work / f"out-{self._serial}"
        out.mkdir()
        args = self.workload.argv(self.manifest, out)
        spans_path = self.work / f"spans-{self._serial}.json"
        if traced:
            cmd = [sys.executable, str(ROOT / "perfbench" / "tracing.py"),
                   "--spans", str(spans_path), "--", *args]
        else:
            cmd = [sys.executable, "-c", CLI_CODE, *args]
        log = self.work / f"log-{self._serial}.txt"
        inv = invoke(cmd, self.work, log)
        problems = self._check(inv, out, log)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems[:5]
        shutil.rmtree(out)
        spans = None
        if traced and spans_path.exists():
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
            spans_path.unlink()
        log.unlink()
        return inv, spans

    def _check(self, inv: Invocation, out: Path, log: Path) -> list[str]:
        if inv.returncode != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-400:]
            return [f"exit code {inv.returncode}: {tail}"]
        missing = [name for name in self.workload.outputs if not (out / name).is_file()]
        if missing:
            return [f"missing outputs {missing}"]
        problems = self.workload.check(out, self.refs)
        got = digest(out)
        if self.digest is None:
            self.digest = got
        elif got != self.digest:
            problems.append(f"output bytes differ from the first invocation ({got[:12]})")
        return problems


# --- set-up ------------------------------------------------------------


def set_up(session: Session, seed: int, reps: int) -> list[float]:
    """Generate the workspace ``reps`` times; returns each generation's seconds."""
    from perfbench import workspace

    times = []
    for _ in range(reps):
        if session.workload.spec is None:
            # No input to generate: a fresh interpreter readies the CLI.
            inv = invoke([sys.executable, "-c", "import lossdiag.cli"], session.work,
                         session.work / "setup-log.txt")
            if inv.returncode != 0:
                raise HarnessError("cannot import lossdiag.cli")
            times.append(inv.wall_s)
            continue
        shutil.rmtree(session.manifest.parent, ignore_errors=True)
        t0 = time.perf_counter()
        workspace.generate(session.workload.spec, seed, session.manifest.parent)
        times.append(time.perf_counter() - t0)
    return times


def input_size(session: Session) -> dict:
    spec = session.workload.spec
    if spec is None:
        return {"checkpoints": 0, "values": 0, "bytes": 0, "text_dumps": 0}
    dumps = list((session.manifest.parent / "dumps").iterdir())
    return {
        "checkpoints": spec.checkpoints,
        "values": spec.checkpoints * spec.values,
        "bytes": sum(p.stat().st_size for p in dumps),
        "text_dumps": sum(p.suffix == ".txt" for p in dumps),
    }


# --- the two modes -------------------------------------------------------


def measure(session: Session, seed: int, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics, and the samples behind them for the run record."""
    setup = set_up(session, seed, SETUP_REPS)
    session.refs = session.workload.references(session.manifest)
    if session.workload.spec is not None:
        session.run(traced=False)  # warm-up: page cache and bytecode
    samples = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        inv, _ = session.run(traced=False)
        samples.append(inv)
    columns = {
        name: [getattr(s, name) for s in samples] for name in ("wall_s", "cpu_s", "peak_rss_mb")
    }
    columns["setup_s"] = setup
    metrics = {name: statistics.median(values) for name, values in columns.items()}
    return metrics, {"samples": columns}


def layer_metrics(spans: dict, setup_spans: list) -> dict[str, float]:
    from perfbench import tracing

    child = [tuple(s) for s in spans["spans"]]
    agg = tracing.aggregate(child)
    for key, value in tracing.aggregate(setup_spans).items():
        agg[key] = agg.get(key, 0.0) + value
    agg["store.read_bytes"] = tracing.info_total(child, "store.read_loss_dump")
    agg["sketch.memory_values"] = tracing.sketch_values(child)
    agg["cli.import_s"] = spans["import_s"]
    return agg


def trace(session: Session, seed: int, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics, and calls per checkpoint for the run record."""
    from perfbench import tracing

    setup_tracer = tracing.Tracer()
    tracing.install_setup(setup_tracer)
    try:
        set_up(session, seed, 1)
    finally:
        setup_tracer.restore()
    session.refs = session.workload.references(session.manifest)
    session.run(traced=False)  # warm-up
    plain, traced, runs = [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_TRACED_RUNS or time.perf_counter() - start < seconds:
        plain.append(session.run(traced=False)[0])
        inv, spans = session.run(traced=True)
        if spans is None:  # the traced CLI failed; counted in session.failed
            break
        traced.append(inv)
        runs.append(layer_metrics(spans, setup_tracer.spans))
    if not runs:
        raise HarnessError("no traced run completed: " + "; ".join(session.problems[:2]))

    for name, unit in PER_LAYER:
        seen = {run.get(name, 0) for run in runs}
        if unit in ("count", "bytes") and len(seen) > 1:
            session.problems.append(f"count {name} differs between traced runs: {sorted(seen)}")
            session.failed += 1
    metrics = {
        name: statistics.median(run.get(name, 0.0) for run in runs) for name, _ in PER_LAYER
    }
    metrics["trace.overhead_s"] = statistics.median(
        i.wall_s for i in traced
    ) - statistics.median(i.wall_s for i in plain)
    checkpoints = session.workload.spec.checkpoints if session.workload.spec else 0
    per_checkpoint = {
        name: metrics[name] / checkpoints for name in PER_CHECKPOINT
    } if checkpoints else {}
    return metrics, {"per_checkpoint": per_checkpoint}


# --- run record ----------------------------------------------------------


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        return None
    return ref


def run_record(session: Session, seed: int, smoke: bool) -> dict:
    import numpy as np

    h = hashlib.sha256()
    for path in sorted((SRC / "lossdiag").rglob("*.py")):
        h.update(path.read_bytes())
    size = input_size(session)
    return {
        "workload": session.workload.name,
        "seed": seed,
        "smoke": smoke,
        "nproc": os.cpu_count(),
        "mem_total_kb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 1024,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "src_sha256": h.hexdigest(),
        "threads": max(1, min(8, size["checkpoints"])),  # the CLI's default policy
        "input": size,
        "outputs_sha256": session.digest,
        "error_rate": session.failed / max(1, session.attempted),
        "problems": session.problems[:10],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced input sizes, for the benchmark's self-tests")
    args = parser.parse_args(argv)

    if not (SRC / "lossdiag" / "cli.py").is_file():
        print(f"perfbench: no lossdiag source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import lossdiag

    if Path(lossdiag.__file__).resolve().parent != SRC / "lossdiag":
        print(f"perfbench: imported lossdiag from {lossdiag.__file__}", file=sys.stderr)
        return 2
    table = workloads(args.smoke)
    if args.workload not in table:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(table)}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    session = Session(table[args.workload], work)
    try:
        if args.trace:
            values, extra = trace(session, args.seed, args.seconds)
            units = PER_LAYER
        else:
            values, extra = measure(session, args.seed, args.seconds)
            units = END_TO_END
        record = run_record(session, args.seed, args.smoke) | extra
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": session.failed == 0 and session.attempted > 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
