"""The public import surface: ``lossdiag.__all__``, what the demos import
and what the benchmark's tracer patches.

The demos are parsed here, not run (several take seconds and one trains
students); CI runs them in a step of its own. So a deleted or renamed
export fails in tier-1, not only when a demo next runs. Likewise a
function the tracer patches by name fails here rather than in every
traced benchmark run. Importing the package also sets OpenBLAS's thread
count, unless the host chose it.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lossdiag
from lossdiag import BandTable, PercentileProfile, SummarySet, cli, distill, render, store
from lossdiag.sketch import QuantileSketch

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
# The variables the bundled OpenBLAS reads for its thread count.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OPENBLAS_DEFAULT_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
)


def _resolves(module, name):
    """Whether ``from module import name`` succeeds: an attribute, or else
    a submodule of that name."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def _demo_imports():
    """(demo file, module, name) for each ``from lossdiag... import name``."""
    for path in sorted(DEMOS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ImportFrom)
                and node.level == 0
                and node.module.split(".")[0] == "lossdiag"
            ):
                for alias in node.names:
                    if alias.name != "*":
                        yield path.name, node.module, alias.name


def test_every_exported_name_resolves():
    assert [n for n in lossdiag.__all__ if not hasattr(lossdiag, n)] == []


def _run_fresh(code, **preset):
    """Run ``code`` in a fresh interpreter that imports this tree's lossdiag,
    with no BLAS thread variable set but those in ``preset``; its stdout."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(preset, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# The package and the ten modules lossdiag.cli loads: all but the lab.
_CLI_MODULES = ["lossdiag", *(f"lossdiag.{name}" for name in (
    "cli", "concordance", "correlate", "errors", "quantiles", "render", "shape", "sketch",
    "store", "workers"))]


def test_cli_imports_without_the_distillation_lab():
    # The lab loads on first use of one of its names, for the package too.
    # Outside the standard library the CLI loads from files only the runtime
    # dependencies pyproject.toml declares, numpy and yaml (Cython's own
    # modules, which numpy creates, have no file).
    _run_fresh(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import lossdiag.cli\n"
        "assert 'lossdiag.distill' not in sys.modules, 'imported by lossdiag.cli'\n"
        "ours = sorted(m for m in sys.modules if m.partition('.')[0] == 'lossdiag')\n"
        f"assert ours == {_CLI_MODULES!r}, ours\n"
        "tops = {m.partition('.')[0] for m in set(sys.modules) - before\n"
        "        if getattr(sys.modules[m], '__file__', None)} - sys.stdlib_module_names\n"
        "assert tops == {'lossdiag', 'numpy', 'yaml'}, tops\n"
        "import lossdiag\n"
        "assert lossdiag.dose_response is sys.modules['lossdiag.distill'].dose_response\n"
    )


def _blas_env_after(code, **preset):
    """The four BLAS thread variables after ``code`` ran in a fresh
    interpreter, and its OS thread count where that can be read."""
    out = _run_fresh(
        f"{code}\n"
        "import json, os\n"
        "threads = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None\n"
        f"print(json.dumps([{{v: os.environ.get(v) for v in {BLAS_THREAD_VARS!r}}}, threads]))\n",
        **preset,
    )
    return json.loads(out)


_NO_BLAS_VARS = dict.fromkeys(BLAS_THREAD_VARS)


def test_importing_lossdiag_runs_blas_single_threaded():
    # The test process carries the rule itself (conftest imports lossdiag),
    # so only a fresh interpreter shows it.
    env, threads = _blas_env_after("import lossdiag.cli")
    assert env == _NO_BLAS_VARS | {"OPENBLAS_NUM_THREADS": "1"}
    if threads is not None and len(os.sched_getaffinity(0)) >= 2:
        assert threads == 1  # no OpenBLAS pool thread beside the main one


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_preset_blas_thread_variable_is_left_alone(var):
    env, _ = _blas_env_after("import lossdiag.cli", **{var: "2"})
    assert env == _NO_BLAS_VARS | {var: "2"}


def test_a_host_that_loaded_numpy_first_keeps_its_blas_threads():
    env, _ = _blas_env_after("import numpy\nimport lossdiag")
    assert env == _NO_BLAS_VARS


def test_every_demo_import_resolves():
    imports = list(_demo_imports())
    assert {demo for demo, _, _ in imports} == {p.name for p in DEMOS.glob("*.py")}
    assert [i for i in imports if not _resolves(i[1], i[2])] == []


# Exports that no code outside the tests reads, and why each stays.
_EXPORTS_READ_BY_TESTS_ONLY = {
    "distill_student": "the equality tests of _train_batch compare against it",
}

# Exports that only a demo reads besides the tests, and why each stays: a
# demo alone does not make a name surface, so each is listed here.
_EXPORTS_READ_BY_DEMOS_ONLY = {
    "kendall_tau": "ranking_agreement shows pi = (1 + tau) / 2 with it",
    "band_masses": "the band table of one in-memory vector; the CLI counts bands while it scans",
    "kl": "distillation_lab measures each trained student's row gap to its oracle with it",
}


def _names_read(paths):
    """Every name the files ``paths`` import, read, or read as an attribute."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_export_is_read_outside_the_tests():
    # The package itself (its __init__ aside) or the benchmark must read each
    # exported name, unless it is listed with a reason: a name only tests or
    # demos read is not surface.
    package = [p for p in (ROOT / "src" / "lossdiag").glob("*.py") if p.name != "__init__.py"]
    read = _names_read([*package, *(ROOT / "perfbench").glob("*.py")])
    demos = _names_read(DEMOS.glob("*.py"))
    unread = {n for n in lossdiag.__all__ if not n.startswith("__") and n not in read}
    assert {n for n in unread if n not in demos} == set(_EXPORTS_READ_BY_TESTS_ONLY)
    assert unread & demos == set(_EXPORTS_READ_BY_DEMOS_ONLY)


def _load_tracing():
    """perfbench/tracing.py, loaded by file path: perfbench is not a package
    the tests import."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_patches_resolve_and_restore():
    tracing = _load_tracing()
    owners = (cli, distill, render, store, QuantileSketch)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    try:
        tracing.install_cli(tracer)
        tracing.install_setup(tracer)
        # The distance table goes through the patched name: one batched call.
        grid = (25, 50, 75)
        profiles = [
            PercentileProfile(cid, grid, {25: -0.5, 50: 0.0, 75: 0.5}, 1.0)
            for cid in "abc"
        ]
        render.distance_table(profiles)
    finally:
        tracer.restore()
    assert [dict(vars(owner)) for owner in owners] == before
    assert tracing.aggregate(tracer.spans)["shape.profile_distance.calls"] == 1


def test_benchmark_tracer_sees_the_family_tail_statistic():
    # The tail statistic moved from cli into shape; the tracer wraps the
    # names cli imports, so the benchmark still times it.
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    selected, scans = [], []
    for i, cid in enumerate("abc"):
        selected.append(store.CheckpointMeta(cid, "fam", i, "token-ce", Path(f"{cid}.bin")))
        summary = SummarySet(cid, 1.0, {25: 1.0, 50: 2.0, 75: 3.0, 95: 4.0 + i}, 1)
        scans.append(cli.Scan(summary, BandTable(cid, (1.0,), (50.0, 50.0))))
    try:
        tracing.install_cli(tracer)
        cli._shape_tables(selected, scans, (25, 50, 75), 6)
    finally:
        tracer.restore()
    assert tracing.aggregate(tracer.spans)["shape.family_tail_stats.calls"] == 1
