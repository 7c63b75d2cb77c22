"""Self-tests of the benchmark harness (run: python3 -m pytest perfbench/tests)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lossdiag.cli import main as lossdiag_main
from perfbench import oracle, run, tracing, workspace

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = tuple(run.workloads(smoke=True))

SMALL = workspace.WorkspaceSpec(
    tag=9,
    families=(workspace.Family("a"), workspace.Family("b", inf_share=1e-3)),
    steps=3,
    values=20_000,
    text_every=4,
    metrics=("judge",),
)


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(RUN), *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-2].startswith("record ")
    return json.loads(lines[-2][len("record "):]), json.loads(lines[-1])


def _files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_generator_is_deterministic_per_seed_and_differs_across_seeds(tmp_path):
    for name, seed in (("a", 1), ("b", 1), ("c", 2)):
        workspace.generate(SMALL, seed, tmp_path / name)
    a, b, c = (_files(tmp_path / name) for name in "abc")
    assert a == b
    assert a.keys() == c.keys()
    assert all(a[name] != c[name] for name in a)


def test_generated_losses_carry_ties_and_sentinels(tmp_path):
    manifest = workspace.generate(SMALL, 4, tmp_path / "ws")
    dumps = oracle.manifest_dumps(manifest)
    assert sum(path.suffix == ".txt" for _, path in dumps) == 1
    for cid, path in dumps:
        x = workspace.read_values(path)
        assert x.size == SMALL.values
        finite = x[np.isfinite(x)]
        assert (finite >= 0).all()
        _, counts = np.unique(finite, return_counts=True)
        assert counts[counts > 1].sum() / x.size > 0.9 * workspace.TIE_SHARE
        assert np.isinf(x).any() == cid.startswith("b-")


def test_oracle_accepts_the_cli_and_rejects_a_changed_number(tmp_path):
    manifest = workspace.generate(SMALL, 5, tmp_path / "ws")
    out = tmp_path / "report"
    assert lossdiag_main(["report", "--manifest", str(manifest), "--out-dir", str(out)]) == 0
    refs = oracle.references(manifest, exact=True, sketch=False)
    assert oracle.check_exact_summary(out / "summary.csv", refs) == []
    assert oracle.check_bands(out / "bands.csv", refs) == []

    lines = (out / "summary.csv").read_text().splitlines()
    cells = lines[1].split(",")
    cells[3] = str(float(cells[3]) * 1.001)
    lines[1] = ",".join(cells)
    (out / "summary.csv").write_text("\n".join(lines) + "\n")
    assert len(oracle.check_exact_summary(out / "summary.csv", refs)) == 1


def test_sketch_oracle_windows_hold_the_exact_percentiles(tmp_path):
    manifest = workspace.generate(SMALL, 6, tmp_path / "ws")
    out = tmp_path / "summary.csv"
    args = ["summarize", "--sketch", "--manifest", str(manifest), "--out", str(out)]
    assert lossdiag_main(args) == 0
    refs = oracle.references(manifest, exact=True, sketch=True)
    assert oracle.check_sketch_summary(out, refs) == []
    for ref in refs:
        for (lo, hi), exact in zip(ref.windows, ref.percentiles):
            assert lo <= exact <= hi


def test_self_time_subtracts_the_union_of_children():
    # Root [0, 10] with two overlapping children on other threads and one
    # grandchild: root self = 10 - |[1, 6]| = 5, child self = 3 - 1 = 2.
    spans = [
        (1, None, "cli.main", 1, 0.0, 10.0, 1.0, 0),
        (2, 1, "quantiles.summarize_exact", 2, 1.0, 4.0, 2.0, 0),
        (3, 1, "quantiles.summarize_exact", 3, 3.0, 6.0, 2.5, 0),
        (4, 2, "store.read_loss_dump", 2, 2.0, 3.0, 0.5, 40),
    ]
    agg = tracing.aggregate(spans)
    assert agg["cli.main.self_s"] == pytest.approx(5.0)
    assert agg["quantiles.summarize_exact.calls"] == 2
    assert agg["quantiles.summarize_exact.self_s"] == pytest.approx(2.0 + 3.0)
    assert agg["quantiles.summarize_exact.wait_s"] == pytest.approx(6.0 - 4.5)
    assert agg["store.self_s"] == pytest.approx(1.0)
    assert tracing.info_total(spans, "store.read_loss_dump") == 40


@pytest.mark.parametrize("name", WORKLOADS)
def test_tracing_leaves_output_bytes_unchanged(name, tmp_path):
    session = run.Session(run.workloads(smoke=True)[name], tmp_path)
    run.set_up(session, seed=3, reps=1)
    session.refs = session.workload.references(session.manifest)
    session.run(traced=False)
    _, spans = session.run(traced=True)
    assert spans is not None and spans["spans"]
    assert session.problems == []
    assert (session.attempted, session.failed) == (2, 0)


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_has_no_errors_and_every_end_to_end_metric(name):
    record, result = bench("--workload", name, "--seed", "7", "--seconds", "0.2",
                           "--trace", "0", "--smoke")
    assert result["correct"] and result["failed"] == 0, record["problems"]
    assert record["error_rate"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert len(record["outputs_sha256"]) == 64


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_counts_repeat_across_runs(name):
    runs = [
        bench("--workload", name, "--seed", "8", "--seconds", "0", "--trace", "1", "--smoke")
        for _ in range(2)
    ]
    for record, result in runs:
        assert result["correct"], record["problems"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.PER_LAYER)
    counts = [
        {k: v["value"] for k, v in result["metrics"].items()
         if k.endswith(".calls") or v["unit"] in ("count", "bytes")}
        for _, result in runs
    ]
    assert counts[0] == counts[1]
    assert runs[0][0]["outputs_sha256"] == runs[1][0]["outputs_sha256"]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_fails_without_printing_a_result_where_the_source_is_missing(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report-many", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
