"""End-to-end CLI behavior on a shared tiny distill-demo workspace."""

import json
import os
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossdiag import (
    DEFAULT_BAND_BOUNDS,
    DEFAULT_KS,
    BandTable,
    CheckpointMeta,
    LossVector,
    Manifest,
    MetricSeries,
    StoreFormatError,
    SummarySet,
    band_masses,
    dump_manifest,
    load_manifest,
    percentile_sweep,
    read_loss_dump,
    read_metric_file,
    summarize_exact,
    write_loss_dump,
)
from lossdiag import cli, render, store
from lossdiag.cli import main
from lossdiag.workers import worker_count


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_text_dump(values, path):
    path.write_text("".join(f"{float(v)!r}\n" for v in values), encoding="utf-8")


def stderr_payload(err):
    lines = [line for line in err.splitlines() if line]
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert set(payload) == {"error", "message", "exit_code"}
    return payload


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        rc, out, err = run(capsys, )
        assert rc == 1
        assert out == ""
        assert stderr_payload(err)["error"] == "UsageError"

    def test_unknown_flag_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "summarize", "--bogus")
        assert rc == 1
        assert stderr_payload(err)["exit_code"] == 1

    def test_missing_dump_is_data_error(self, capsys, tmp_path):
        missing = tmp_path / "missing.bin"
        rc, _, err = run(capsys, "summarize", str(missing))
        assert rc == 2
        payload = stderr_payload(err)
        assert payload["exit_code"] == 2
        assert "missing.bin" in payload["message"]

    def test_unknown_family_is_data_error(self, capsys, demo_dir):
        rc, _, err = run(
            capsys, "summarize",
            "--manifest", str(demo_dir / "manifest.yaml"),
            "--family", "nope",
        )
        assert rc == 2
        assert "nope" in stderr_payload(err)["message"]

    def test_family_without_manifest_is_usage_error(self, capsys, demo_dir):
        rc, _, err = run(
            capsys, "summarize", str(demo_dir / "dumps" / "teacher.bin"),
            "--family", "teacher",
        )
        assert rc == 1

    def test_bad_thread_env_is_usage_error(self, capsys, demo_dir, monkeypatch):
        dump = str(demo_dir / "dumps" / "teacher.bin")
        for bad in ("abc", "0"):
            monkeypatch.setenv("LOSSDIAG_THREADS", bad)
            rc, _, err = run(capsys, "summarize", dump)
            assert rc == 1
            assert "LOSSDIAG_THREADS" in stderr_payload(err)["message"]

    @settings(max_examples=100, deadline=None)
    @given(
        cpus=st.integers(min_value=1, max_value=64),
        n_tasks=st.integers(min_value=1, max_value=100),
        env=st.none() | st.integers(min_value=1, max_value=16),
    )
    def test_default_pool_follows_cpu_affinity(self, cpus, n_tasks, env):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
            if env is None:
                mp.delenv("LOSSDIAG_THREADS", raising=False)
            else:
                mp.setenv("LOSSDIAG_THREADS", str(env))
            limit = min(8, cpus) if env is None else env
            assert worker_count(n_tasks) == min(limit, n_tasks)

    def test_default_pool_without_affinity_uses_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.delenv("LOSSDIAG_THREADS", raising=False)
        assert worker_count(16) == 3

    def test_unexpected_exception_is_internal_error(self, capsys, demo_dir, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr("lossdiag.render.summary_table", boom)
        rc, _, err = run(capsys, "summarize", str(demo_dir / "dumps" / "teacher.bin"))
        assert rc == 3
        payload = stderr_payload(err)
        assert payload["error"] == "RuntimeError"
        assert payload["exit_code"] == 3


@pytest.mark.parametrize("argv", [
    ("summarize",),
    ("concord",),
    ("shape",),
    ("correlate", "--sweep", "--metric", "fidelity"),
    ("correlate", "--select", "mean,median,fidelity"),
    ("correlate", "--crossing", "--reference", "1.5"),
], ids=["summarize", "concord", "shape", "sweep", "select", "crossing"])
def test_empty_family_list_means_every_family(capsys, tmp_path, argv):
    # Two families of three steps each: every mode has input it accepts
    # (the demo's oracle family repeats step 0, which --crossing refuses).
    rng = np.random.default_rng(3)
    checkpoints = []
    for family in ("a", "b"):
        for step in (100, 200, 300):
            cid = f"{family}-{step}"
            path = tmp_path / f"{cid}.bin"
            write_loss_dump(LossVector(cid, rng.lognormal(300 / step - 1, 1.0, 2000)), path)
            checkpoints.append(CheckpointMeta(
                checkpoint_id=cid, family=family, step=step, objective="token-ce",
                loss_path=path, metrics={"fidelity": float(rng.random())}))
    dump_manifest(Manifest(version=1, checkpoints=tuple(checkpoints)), tmp_path / "m.yaml")
    manifest = ("--manifest", str(tmp_path / "m.yaml"))
    rc, every, err = run(capsys, *argv, *manifest)
    assert rc == 0, err
    rc, empty, err = run(capsys, *argv, *manifest, "--family=")
    assert rc == 0, err
    assert empty == every


class TestSummarize:
    def test_stdout_matches_library_call(self, capsys, demo_dir):
        dump = demo_dir / "dumps" / "teacher.bin"
        rc, out, err = run(capsys, "summarize", str(dump))
        assert rc == 0 and err == ""
        expected = render.summary_table([summarize_exact(read_loss_dump(dump))])
        assert out == expected

    def test_manifest_family_selection(self, capsys, demo_dir):
        rc, out, _ = run(
            capsys, "summarize",
            "--manifest", str(demo_dir / "manifest.yaml"),
            "--family", "teacher",
        )
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("teacher,")

    def test_runs_are_byte_deterministic(self, capsys, demo_dir):
        argv = ("summarize", "--manifest", str(demo_dir / "manifest.yaml"))
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_thread_count_does_not_change_output(self, capsys, demo_dir, monkeypatch):
        argv = ("summarize", "--manifest", str(demo_dir / "manifest.yaml"))
        monkeypatch.setenv("LOSSDIAG_THREADS", "1")
        _, serial, _ = run(capsys, *argv)
        monkeypatch.setenv("LOSSDIAG_THREADS", "4")
        _, threaded, _ = run(capsys, *argv)
        assert serial == threaded

    def test_one_thread_reusing_its_buffers_matches_library(
        self, capsys, tmp_path, monkeypatch
    ):
        # One scan thread sorts every dump in the same buffers, which grow to
        # the largest dump so far; a smaller dump must not see older values.
        rng = np.random.default_rng(5)
        paths = []
        for i, size in enumerate((300, 7, 1000, 40)):
            values = rng.lognormal(0.0, 1.0, size).astype(np.float32)
            values[::5] = np.inf
            paths.append(tmp_path / f"d{i}.bin")
            write_loss_dump(LossVector(f"d{i}", values), paths[-1])
        monkeypatch.setenv("LOSSDIAG_THREADS", "1")
        rc, out, _ = run(capsys, "summarize", *map(str, paths))
        assert rc == 0
        assert out == render.summary_table([summarize_exact(read_loss_dump(p)) for p in paths])

    def test_out_writes_file_instead_of_stdout(self, capsys, demo_dir, tmp_path):
        dump = demo_dir / "dumps" / "teacher.bin"
        target = tmp_path / "summary.csv"
        rc, out, _ = run(capsys, "summarize", str(dump), "--out", str(target))
        assert rc == 0
        assert out == ""
        _, stdout, _ = run(capsys, "summarize", str(dump))
        assert target.read_text(encoding="utf-8") == stdout

    def test_ks_controls_columns(self, capsys, demo_dir):
        dump = str(demo_dir / "dumps" / "teacher.bin")
        rc, out, _ = run(capsys, "summarize", dump, "--ks", "50,95")
        assert rc == 0
        assert out.splitlines()[0] == "checkpoint_id,mean,p50,p95,count"

    def test_exact_flag_matches_auto_on_small_dump(self, capsys, demo_dir):
        dump = str(demo_dir / "dumps" / "teacher.bin")
        _, auto, _ = run(capsys, "summarize", dump)
        _, exact, _ = run(capsys, "summarize", dump, "--exact")
        assert auto == exact

    def test_sketch_path_stays_within_tolerance(self, capsys, demo_dir):
        dump = demo_dir / "dumps" / "teacher.bin"
        rc, out, _ = run(capsys, "summarize", str(dump), "--sketch", "--ks", "50")
        assert rc == 0
        sketched = float(out.splitlines()[1].split(",")[2])
        losses = np.sort(read_loss_dump(dump).losses.astype(np.float64))
        # epsilon=1e-3 on n values: the reported value must sit within
        # 2*epsilon*n ranks of the true median. The bracket gets a 1e-5
        # relative slack because stdout rounds to six significant digits
        # (worst case 5e-6 relative, half a unit in the sixth digit).
        n = losses.size
        lo = losses[max(0, int(0.5 * n - 2e-3 * n) - 1)]
        hi = losses[min(n - 1, int(0.5 * n + 2e-3 * n) + 1)]
        assert lo * (1 - 1e-5) <= sketched <= hi * (1 + 1e-5)


class TestScan:
    """One chunk stream per dump feeds the band counter and the sort buffer."""

    @pytest.fixture
    def dumps(self, tmp_path):
        rng = np.random.default_rng(11)
        paths = []
        for i, size in enumerate((300, 7, 1000, 40)):
            values = rng.lognormal(0.0, 1.0, size).astype(np.float32)
            values[::6] = np.inf
            values[1::9] = values[2]  # exact ties
            binary, text = tmp_path / f"d{i}.bin", tmp_path / f"t{i}.txt"
            write_loss_dump(LossVector(binary.stem, values), binary)
            write_text_dump(values, text)
            paths += [binary, text]
        return paths

    def test_reused_buffers_fed_in_small_chunks_match_library(self, dumps, monkeypatch):
        # Chunks of 7 values fill each dump's slice of the thread's buffers,
        # which grow to the largest dump so far; every call runs in this one
        # thread, so a smaller dump must not see an older dump's values.
        monkeypatch.setattr(cli, "iter_loss_chunks", lambda p: store.iter_loss_chunks(p, 7))
        for path in dumps:
            losses = read_loss_dump(path)
            summary, bands = cli._scan(
                path, path.stem, losses.count, DEFAULT_KS, DEFAULT_BAND_BOUNDS
            )
            assert summary == summarize_exact(losses)
            assert bands == band_masses(losses)

    @pytest.mark.parametrize("mode", ["auto", "sketch"])
    @pytest.mark.parametrize("off", [-1, 1])
    def test_stream_longer_or_shorter_than_count_is_format_error(self, dumps, mode, off):
        cli._scan(dumps[4], "d2", 1000, DEFAULT_KS)  # leaves 1000 values in the buffers
        for path in dumps[6:]:  # 40 values, binary then text
            with pytest.raises(StoreFormatError, match=str(path)):
                cli._scan(path, path.stem, 40 + off, DEFAULT_KS, (1.0,), mode)


class TestDistillDemo:
    ARGS = ("--vocab", "16", "--length", "10000", "--eval-length", "10000",
            "--steps", "300", "--k", "2,full")

    def test_worker_processes_do_not_change_output(self, capsys, tmp_path, monkeypatch):
        # Unset is the default pool (one worker per usable CPU, up to 8);
        # 3 forces a pool on any host.
        outputs = {}
        for threads in ("1", None, "3"):
            if threads is None:
                monkeypatch.delenv("LOSSDIAG_THREADS", raising=False)
            else:
                monkeypatch.setenv("LOSSDIAG_THREADS", threads)
            out = tmp_path / str(threads)
            rc, _, err = run(capsys, "distill-demo", *self.ARGS, "--out", str(out / "dose.csv"))
            assert rc == 0, err
            outputs[threads] = {
                p.relative_to(out).as_posix(): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()
            }
        # dose.csv, manifest.yaml and teacher + trained + oracle per K.
        assert len(outputs["1"]) == 2 + 1 + 2 * 2
        assert outputs[None] == outputs["1"]
        assert outputs["3"] == outputs["1"]


class TestConcord:
    def test_families_with_pairs_only(self, capsys, demo_dir):
        rc, out, _ = run(capsys, "concord", "--manifest", str(demo_dir / "manifest.yaml"))
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("family,summaries,checkpoints,")
        # teacher family has one checkpoint, so only trained and oracle rows.
        assert [line.split(",")[0] for line in lines[1:]] == ["trained", "oracle"]

    def test_single_summary_is_usage_error(self, capsys, demo_dir):
        rc, _, err = run(
            capsys, "concord",
            "--manifest", str(demo_dir / "manifest.yaml"),
            "--summaries", "mean",
        )
        assert rc == 1


class TestShape:
    def test_out_dir_writes_four_csvs(self, capsys, demo_dir, tmp_path):
        out_dir = tmp_path / "shape"
        rc, out, _ = run(
            capsys, "shape",
            "--manifest", str(demo_dir / "manifest.yaml"),
            "--out-dir", str(out_dir),
        )
        assert rc == 0
        names = ("profiles.csv", "distances.csv", "bands.csv", "family_stats.csv")
        for name in names:
            assert (out_dir / name).is_file()
        printed = out.splitlines()
        assert printed == [str(out_dir / name) for name in names]

    def test_stdout_mode_emits_markdown_sections(self, capsys, demo_dir):
        rc, out, _ = run(capsys, "shape", "--manifest", str(demo_dir / "manifest.yaml"))
        assert rc == 0
        assert "## Standardized percentile profiles" in out
        assert "```csv" in out

    def test_grid_must_cover_quartiles(self, capsys, demo_dir):
        rc, _, err = run(
            capsys, "shape",
            "--manifest", str(demo_dir / "manifest.yaml"),
            "--grid", "25,75,95",
        )
        assert rc == 1
        assert "50" in stderr_payload(err)["message"]

    def test_custom_bands(self, capsys, demo_dir):
        rc, out, _ = run(
            capsys, "shape",
            "--manifest", str(demo_dir / "manifest.yaml"),
            "--bands", "1.0,5.0",
        )
        assert rc == 0
        assert "band[0;1)" in out and "band[5;inf)" in out


    @staticmethod
    def _family_stats(capsys, tmp_path, inf_shares):
        # One family whose checkpoints carry these shares of +inf; a share of
        # 5% or more makes p95, and so the standardized tail, +inf.
        rng = np.random.default_rng(8)
        checkpoints = []
        for i, share in enumerate(inf_shares):
            values = rng.lognormal(0.0, 1.0, 1000)
            values[: int(share * 1000)] = np.inf
            path = tmp_path / f"c{i}.bin"
            write_loss_dump(LossVector(f"c{i}", values), path)
            checkpoints.append(CheckpointMeta(
                checkpoint_id=f"c{i}", family="trunc", step=i,
                objective="topk-kl", loss_path=path))
        manifest = tmp_path / "manifest.yaml"
        dump_manifest(Manifest(version=1, checkpoints=tuple(checkpoints)), manifest)
        rc, _, err = run(
            capsys, "shape", "--manifest", str(manifest), "--out-dir", str(tmp_path / "out")
        )
        assert rc == 0, err
        return (tmp_path / "out" / "family_stats.csv").read_text(encoding="utf-8")

    def test_all_inf_tails_have_zero_spread(self, capsys, tmp_path):
        stats = self._family_stats(capsys, tmp_path, (0.08, 0.08, 0.08))
        assert stats.splitlines()[1] == "trunc,3,inf,0"

    def test_inf_and_finite_tails_have_inf_spread(self, capsys, tmp_path):
        stats = self._family_stats(capsys, tmp_path, (0.08, 0.0, 0.08))
        assert stats.splitlines()[1] == "trunc,3,inf,inf"

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(3.0, 1e12), min_size=1, max_size=12))
    def test_finite_tail_spread_is_numpy_std(self, p95s):
        # p25, p50, p75 = 1, 2, 3, so each standardized tail is (p95 - 2) / 2;
        # 17 significant digits render every float64 exactly.
        selected, scans = [], []
        for i, p95 in enumerate(p95s):
            cid = f"c{i}"
            selected.append(CheckpointMeta(cid, "fam", i, "token-ce", Path(f"{cid}.bin")))
            summary = SummarySet(cid, 1.0, {25: 1.0, 50: 2.0, 75: 3.0, 95: p95}, 1)
            scans.append((summary, BandTable(cid, (1.0,), (50.0, 50.0))))
        tails = np.array([(p95 - 2.0) / 2.0 for p95 in p95s])
        expected = render.family_stats_table(
            [("fam", len(p95s), float(tails.mean()), float(tails.std()))], 17
        )
        assert cli._shape_tables(selected, scans, (25, 50, 75), 17)["family_stats.csv"] == expected


class TestCorrelate:
    def test_sweep_matches_library_pipeline(self, capsys, demo_dir, tmp_path):
        manifest = str(demo_dir / "manifest.yaml")
        metric_file = tmp_path / "judge.csv"
        lines = ["checkpoint_id,judge"]
        ids = load_manifest(manifest).ids()
        for i, cid in enumerate(sorted(ids)):
            lines.append(f"{cid},{1.5 + 0.1 * i}")
        metric_file.write_text("\n".join(lines) + "\n", encoding="utf-8")

        rc, out, _ = run(
            capsys, "correlate", "--manifest", manifest,
            "--sweep", "--metric", "judge", "--metric-file", str(metric_file),
        )
        assert rc == 0
        table = {
            c.checkpoint_id: summarize_exact(read_loss_dump(c.loss_path, c.checkpoint_id))
            for c in load_manifest(manifest).checkpoints
        }
        metric = MetricSeries("judge", read_metric_file(metric_file))
        expected = render.sweep_table(percentile_sweep(table, metric))
        assert out == expected

    def test_sweep_needs_metric(self, capsys, demo_dir):
        rc, _, _ = run(
            capsys, "correlate", "--manifest", str(demo_dir / "manifest.yaml"), "--sweep"
        )
        assert rc == 1

    def test_modes_are_exclusive(self, capsys, demo_dir):
        manifest = str(demo_dir / "manifest.yaml")
        rc, _, _ = run(capsys, "correlate", "--manifest", manifest,
                       "--sweep", "--crossing", "--metric", "fidelity")
        assert rc == 1
        rc, _, _ = run(capsys, "correlate", "--manifest", manifest)
        assert rc == 1

    def test_select_uses_manifest_metrics(self, capsys, demo_dir):
        rc, out, _ = run(
            capsys, "correlate", "--manifest", str(demo_dir / "manifest.yaml"),
            "--select", "mean,median,fidelity",
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "rule,column,direction,checkpoint_id,value"
        directions = {line.split(",")[1]: line.split(",")[2] for line in lines[1:]}
        assert directions == {"mean": "min", "median": "min", "fidelity": "max"}

    def test_empty_select_is_usage_error(self, capsys, demo_dir):
        rc, _, _ = run(
            capsys, "correlate", "--manifest", str(demo_dir / "manifest.yaml"),
            "--select", "",
        )
        assert rc == 1

    def test_crossing_on_step_series(self, capsys, tmp_path):
        # Three snapshots of one run whose median falls below 0.6 at step 300.
        rng = np.random.default_rng(5)
        medians = (0.8, 0.65, 0.5)
        checkpoints = []
        for step, med in zip((100, 200, 300), medians):
            cid = f"run-{step}"
            path = tmp_path / f"{cid}.bin"
            write_loss_dump(LossVector(cid, rng.uniform(med - 0.1, med + 0.1, 10_001)), path)
            checkpoints.append(CheckpointMeta(
                checkpoint_id=cid, family="run", step=step,
                objective="token-ce", loss_path=path))
        manifest_path = tmp_path / "manifest.yaml"
        dump_manifest(Manifest(version=1, checkpoints=tuple(checkpoints)), manifest_path)

        rc, out, _ = run(
            capsys, "correlate", "--manifest", str(manifest_path),
            "--crossing", "--reference", "0.6",
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "family,summary,reference,crossing_step"
        assert lines[1] == "run,median,0.6,300"

    def test_nan_manifest_metric_is_data_error(self, capsys, tmp_path):
        # A NaN judge score would win every comparison in --select; it must
        # be refused when the manifest loads, naming where it came from.
        manifest_path = _judged_workspace(tmp_path, (2.0, float("nan"), 1.0))
        rc, _, err = run(
            capsys, "correlate", "--manifest", str(manifest_path), "--select", "judge",
        )
        assert rc == 2
        payload = stderr_payload(err)
        assert payload["error"] == "ManifestError"
        assert "metric 'judge' of checkpoint 'run-1' is NaN" in payload["message"]

    def test_nan_metric_file_value_is_data_error(self, capsys, tmp_path):
        manifest_path = _judged_workspace(tmp_path, (2.0, 1.5, 1.0))
        metric_file = tmp_path / "judge.csv"
        metric_file.write_text("run-0,2.0\nrun-1,nan\nrun-2,1.0\n", encoding="utf-8")
        rc, _, err = run(
            capsys, "correlate", "--manifest", str(manifest_path),
            "--sweep", "--metric", "judge", "--metric-file", str(metric_file),
        )
        assert rc == 2
        payload = stderr_payload(err)
        assert payload["error"] == "ValidationError"
        assert f"{metric_file}:2: metric of 'run-1' is NaN" in payload["message"]

    def test_non_utf8_metric_file_is_data_error(self, capsys, tmp_path):
        manifest_path = _judged_workspace(tmp_path, (2.0, 1.5, 1.0))
        metric_file = tmp_path / "judge.csv"
        metric_file.write_bytes(b"run-0,2.0\nrun-1,\xff\nrun-2,1.0\n")
        rc, _, err = run(
            capsys, "correlate", "--manifest", str(manifest_path),
            "--sweep", "--metric", "judge", "--metric-file", str(metric_file),
        )
        assert rc == 2
        payload = stderr_payload(err)
        assert payload["error"] == "ValidationError"
        assert f"{metric_file}: not UTF-8 text" in payload["message"]

    def test_crossing_needs_reference(self, capsys, demo_dir):
        rc, _, _ = run(
            capsys, "correlate", "--manifest", str(demo_dir / "manifest.yaml"),
            "--crossing",
        )
        assert rc == 1


def _judged_workspace(tmp_path, judge_scores):
    """One family of small dumps whose manifest carries the given judge scores."""
    rng = np.random.default_rng(7)
    checkpoints = []
    for i, score in enumerate(judge_scores):
        cid = f"run-{i}"
        path = tmp_path / f"{cid}.bin"
        write_loss_dump(LossVector(cid, rng.uniform(0.1, 2.0 + i, 1001)), path)
        checkpoints.append(CheckpointMeta(
            checkpoint_id=cid, family="run", step=100 * i, objective="token-ce",
            loss_path=path, metrics={"judge": score}))
    manifest_path = tmp_path / "manifest.yaml"
    dump_manifest(Manifest(version=1, checkpoints=tuple(checkpoints)), manifest_path)
    return manifest_path


REPORT_FILES = (
    "summary.csv", "concordance.csv", "selection.csv", "sweep.csv",
    "profiles.csv", "distances.csv", "bands.csv", "family_stats.csv",
)


class TestReport:
    def test_writes_all_sections(self, capsys, demo_dir, tmp_path):
        out_dir = tmp_path / "report"
        rc, out, _ = run(
            capsys, "report", "--manifest", str(demo_dir / "manifest.yaml"),
            "--out-dir", str(out_dir), "--metric", "fidelity",
        )
        assert rc == 0
        for name in REPORT_FILES + ("report.md", "sweep.svg", "scatter.svg"):
            assert (out_dir / name).is_file(), name
        printed = set(out.splitlines())
        assert str(out_dir / "report.md") in printed

    def test_csv_only_format(self, capsys, demo_dir, tmp_path):
        out_dir = tmp_path / "csv-only"
        rc, _, _ = run(
            capsys, "report", "--manifest", str(demo_dir / "manifest.yaml"),
            "--out-dir", str(out_dir), "--formats", "csv",
        )
        assert rc == 0
        assert not (out_dir / "report.md").exists()
        assert not (out_dir / "scatter.svg").exists()
        assert (out_dir / "summary.csv").is_file()

    def test_unknown_format_is_usage_error(self, capsys, demo_dir, tmp_path):
        rc, _, _ = run(
            capsys, "report", "--manifest", str(demo_dir / "manifest.yaml"),
            "--out-dir", str(tmp_path / "x"), "--formats", "pdf",
        )
        assert rc == 1

    def test_report_md_embeds_the_csvs(self, capsys, demo_dir, tmp_path):
        out_dir = tmp_path / "md"
        rc, _, _ = run(
            capsys, "report", "--manifest", str(demo_dir / "manifest.yaml"),
            "--out-dir", str(out_dir),
        )
        assert rc == 0
        doc = (out_dir / "report.md").read_text(encoding="utf-8")
        summary_csv = (out_dir / "summary.csv").read_text(encoding="utf-8")
        assert doc.startswith("# Loss diagnostics report\n")
        assert summary_csv in doc

    def test_single_checkpoint_family_skips_concordance(self, capsys, demo_dir, tmp_path):
        out_dir = tmp_path / "teacher-only"
        rc, _, _ = run(
            capsys, "report", "--manifest", str(demo_dir / "manifest.yaml"),
            "--out-dir", str(out_dir), "--family", "teacher",
        )
        assert rc == 0
        assert (out_dir / "summary.csv").is_file()
        assert not (out_dir / "concordance.csv").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--grid", "10,10,25,50,75"), "duplicate percentiles requested"),
            (("--grid", "0,25,50,75"), "percentile 0 outside 1..99"),
            (("--bands", "0,1"), "band bounds must be positive"),
        ],
        ids=["duplicate-grid", "out-of-range-grid", "bad-bands"],
    )
    def test_bad_grid_or_bands_is_data_error(self, capsys, demo_dir, tmp_path, flags, message):
        rc, _, err = run(
            capsys, "report", "--manifest", str(demo_dir / "manifest.yaml"),
            "--out-dir", str(tmp_path / "bad"), *flags,
        )
        assert rc == 2
        assert message in stderr_payload(err)["message"]

    def test_reads_each_dump_once(self, capsys, demo_dir, tmp_path, monkeypatch):
        checkpoints = load_manifest(demo_dir / "manifest.yaml").checkpoints
        reads, whole_reads, summaries, peeks = [], [], [], []

        def counted(fn, calls, key):
            def wrapper(*args, **kwargs):
                calls.append(key(args[0]))
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "read_loss_dump", counted(
            cli.read_loss_dump, whole_reads, Path))
        monkeypatch.setattr(cli, "iter_loss_chunks", counted(cli.iter_loss_chunks, reads, Path))
        monkeypatch.setattr(cli, "summarize_sorted", counted(
            cli.summarize_sorted, summaries, str))
        # The manifest check counts each dump; the scan reuses that count.
        for module in (store, cli):
            monkeypatch.setattr(module, "peek_dump_count", counted(
                module.peek_dump_count, peeks, Path))
        rc, _, _ = run(
            capsys, "report", "--manifest", str(demo_dir / "manifest.yaml"),
            "--out-dir", str(tmp_path / "report"), "--metric", "fidelity",
        )
        assert rc == 0
        assert Counter(reads) == Counter(c.loss_path for c in checkpoints)
        assert whole_reads == []  # the exact path fills its buffer from the stream
        assert Counter(summaries) == Counter(c.checkpoint_id for c in checkpoints)
        assert Counter(peeks) == Counter(c.loss_path for c in checkpoints)

    def test_empty_family_list_reports_every_family(self, capsys, demo_dir, tmp_path):
        written = {}
        for name, flags in (("all", ()), ("empty", ("--family", ""))):
            out_dir = tmp_path / name
            rc, _, _ = run(
                capsys, "report", "--manifest", str(demo_dir / "manifest.yaml"),
                "--out-dir", str(out_dir), "--metric", "fidelity", *flags,
            )
            assert rc == 0
            written[name] = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert written["empty"] == written["all"]

    def test_sketch_path_streams_and_keeps_exact_bands(
        self, capsys, demo_dir, tmp_path, monkeypatch
    ):
        argv = ("report", "--manifest", str(demo_dir / "manifest.yaml"), "--formats", "csv")
        rc, _, _ = run(capsys, *argv, "--out-dir", str(tmp_path / "exact"))
        assert rc == 0
        whole_reads = []

        def no_whole_read(*args, **kwargs):
            whole_reads.append(args[0])
            return read_loss_dump(*args, **kwargs)

        monkeypatch.setattr(cli, "read_loss_dump", no_whole_read)
        monkeypatch.setattr(cli, "EXACT_PATH_MAX", 100)
        rc, _, _ = run(capsys, *argv, "--out-dir", str(tmp_path / "sketch"))
        assert rc == 0
        assert whole_reads == []
        exact_bands = (tmp_path / "exact" / "bands.csv").read_text(encoding="utf-8")
        assert (tmp_path / "sketch" / "bands.csv").read_text(encoding="utf-8") == exact_bands
