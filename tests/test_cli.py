"""End-to-end CLI behavior on a shared tiny distill-demo workspace."""

import csv
import io
import json
import os
import re
import shlex
import shutil
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
import oracles
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
    ValidationError,
    band_masses,
    dump_manifest,
    load_manifest,
    percentile_sweep,
    read_loss_dump,
    summarize_exact,
    write_loss_dump,
)
from lossdiag import cli, distill, render, store
from lossdiag.cli import main
from lossdiag.workers import worker_count


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def subcommand_parsers():
    """Each subcommand's parser, by name."""
    return next(a for a in cli.build_parser()._actions if a.dest == "command").choices


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
    ("correlate", "--select", "mean,median", "--metric", "fidelity"),
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

    @pytest.mark.parametrize("sketch", [False, True], ids=["exact", "sketch"])
    @pytest.mark.parametrize("bounds", [None, DEFAULT_BAND_BOUNDS], ids=["no-bands", "bands"])
    def test_returns_one_record_read_by_name(self, dumps, sketch, bounds):
        scan = cli._scan(dumps[0], "d0", 300, DEFAULT_KS, bounds, sketch)
        assert isinstance(scan, cli.Scan)
        assert scan.summary.checkpoint_id == "d0" and scan.summary.count == 300
        if bounds is None:
            assert scan.bands is None
        else:
            assert scan.bands == band_masses(read_loss_dump(dumps[0]))

    def test_reused_buffers_fed_in_small_chunks_match_library(self, dumps, monkeypatch):
        # Chunks of 7 values fill each dump's slice of the thread's buffers,
        # which grow to the largest dump so far; every call runs in this one
        # thread, so a smaller dump must not see an older dump's values.
        monkeypatch.setattr(store, "DEFAULT_CHUNK", 7)
        for path in dumps:
            losses = read_loss_dump(path)
            summary, bands = cli._scan(
                path, path.stem, losses.count, DEFAULT_KS, DEFAULT_BAND_BOUNDS
            )
            assert summary == summarize_exact(losses)
            assert bands == band_masses(losses)

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.sampled_from((0.0, 0.1, 0.5, 1.5, np.inf))
            | st.floats(min_value=0.0, max_value=20.0, width=32),
            min_size=1,
            max_size=3_000,
        ),
        bounds=st.sampled_from((DEFAULT_BAND_BOUNDS, (0.5,), (1e-3, 1.5, 19.0))),
    )
    @example(values=[np.inf], bounds=DEFAULT_BAND_BOUNDS)
    @example(values=[0.5] * 17, bounds=(0.5,))
    @example(values=[1.0, np.inf, np.inf, 0.0, 0.1], bounds=DEFAULT_BAND_BOUNDS)
    def test_exact_scan_matches_float64_oracles(self, values, bounds):
        values = np.float32(values)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.bin"
            write_loss_dump(LossVector("d", values), path)
            summary, bands = cli._scan(path, "d", values.size, DEFAULT_KS, bounds, sketch=False)
        mean, pct = oracles.summary_by_float64_sort(values, DEFAULT_KS)
        assert summary.mean.hex() == mean.hex()
        assert [summary.percentiles[k].hex() for k in DEFAULT_KS] == [
            pct[k].hex() for k in DEFAULT_KS
        ]
        counts = oracles.band_counts_by_histogram(values, bounds)
        assert bands.mass == tuple(100.0 * c / values.size for c in counts)

    @pytest.mark.parametrize("sketch", [False, True], ids=["auto", "sketch"])
    @pytest.mark.parametrize("off", [-1, 1])
    def test_stream_longer_or_shorter_than_count_is_format_error(self, dumps, sketch, off):
        cli._scan(dumps[4], "d2", 1000, DEFAULT_KS)  # leaves 1000 values in the buffers
        for path in dumps[6:]:  # 40 values, binary then text
            with pytest.raises(StoreFormatError, match=str(path)):
                cli._scan(path, path.stem, 40 + off, DEFAULT_KS, (1.0,), sketch)


class TestFlagsBeforeStreams:
    """What the flags and the manifest decide is refused before any dump is
    streamed (and before distill-demo trains anything): exit 2 for bad data,
    1 for bad usage."""

    @pytest.fixture
    def refused(self, capsys, demo_dir, tmp_path, monkeypatch):
        streams, labs = [], []

        def counted(path):
            streams.append(path)
            return store.iter_loss_chunks(path)

        monkeypatch.setattr(cli, "iter_loss_chunks", counted)
        monkeypatch.setattr(distill, "dose_response", lambda config: labs.append(config))

        def check(command, *flags, message, code=2, manifest=demo_dir / "manifest.yaml"):
            out_dir = tmp_path / "out"
            argv = [*command, *flags]
            if manifest is not None and command[0] != "distill-demo":
                argv += ["--manifest", str(manifest)]
            if command[0] in ("report", "shape"):
                argv += ["--out-dir", str(out_dir)]
            if command[0] == "distill-demo":
                argv += ["--out", str(out_dir / "dose.csv")]
            rc, _, err = run(capsys, *argv)
            assert rc == code
            assert stderr_payload(err)["message"] == message
            assert streams == [] and labs == []
            assert not out_dir.exists()

        return check

    @pytest.fixture
    def edited_manifest(self, demo_dir, tmp_path):
        """Writes the demo manifest's checkpoints, edited, to a new manifest."""
        checkpoints = load_manifest(demo_dir / "manifest.yaml").checkpoints

        def write(edit):
            path = tmp_path / "edited.yaml"
            dump_manifest(Manifest(version=1, checkpoints=tuple(edit(checkpoints))), path)
            return path

        return write

    @pytest.mark.parametrize(
        "ks, message",
        [("0,50", "percentile 0 outside 1..99"),
         ("50,50", "duplicate percentiles requested")],
        ids=["out-of-range", "duplicate"],
    )
    def test_bad_ks(self, refused, ks, message):
        refused(("summarize",), "--ks", ks, message=message)

    @pytest.mark.parametrize("command", ["shape", "report"])
    @pytest.mark.parametrize(
        "bands, message",
        [("0,1", "band bounds must be positive"),
         ("2,1", "band bounds must be strictly increasing")],
        ids=["non-positive", "decreasing"],
    )
    def test_bad_bands(self, refused, command, bands, message):
        refused((command,), "--bands", bands, message=message)

    @pytest.mark.parametrize(
        "command, name",
        [(("concord", "--summaries", "mean,pxx"), "pxx"),
         (("report", "--summaries", "mean,pxx"), "pxx"),
         (("correlate", "--crossing", "--summary", "pxx", "--reference", "1"), "pxx"),
         (("correlate", "--select", "mean,pxx"), "pxx"),
         (("concord", "--summaries", "mean,p050"), "p050"),
         (("concord", "--summaries", "mean,p+50"), "p+50"),
         (("concord", "--summaries", "mean,p 95"), "p 95"),
         (("concord", "--summaries", "mean,p5_0"), "p5_0"),
         (("concord", "--summaries", "mean,p\u0665\u0660"), "p\u0665\u0660")],
        ids=["concord", "report", "crossing", "select", "three-digits", "signed",
             "inner-space", "underscore", "non-ascii-digits"],
    )
    def test_unknown_summary_name(self, refused, command, name):
        # Any percentile name is scanned (p97 included), so only a name that
        # is neither "mean" nor a percentile name is refused.
        refused(command, message=f"no summary named {name!r}")

    @pytest.mark.parametrize(
        "command",
        [("report",), ("correlate", "--sweep"), ("correlate", "--select", "mean")],
        ids=["report", "sweep", "select"],
    )
    def test_unknown_metric(self, refused, command):
        refused(command, "--metric", "nosuch",
                message="no checkpoint carries metric 'nosuch'")

    @pytest.mark.parametrize(
        "command",
        [("report",), ("correlate", "--sweep"), ("correlate", "--select", "mean")],
        ids=["report", "sweep", "select"],
    )
    @pytest.mark.parametrize("name", ["median", "p05", "mean"])
    def test_metric_with_a_summary_name(self, refused, edited_manifest, command, name):
        # Even a manifest that carries the metric cannot make a summary's
        # name a second, metric column.
        manifest = edited_manifest(lambda checkpoints: [
            replace(c, metrics={name: c.metrics["fidelity"]}) for c in checkpoints
        ])
        refused(command, "--metric", name, manifest=manifest,
                message=f"metric {name!r} has the name of a summary")

    @pytest.mark.parametrize(
        "command",
        [("report", "--metric", "judge"),
         ("correlate", "--sweep", "--metric", "judge"),
         ("correlate", "--select", "mean", "--metric", "judge")],
        ids=["report", "sweep", "select"],
    )
    def test_metric_missing_a_selected_checkpoint(self, refused, edited_manifest, command):
        # Every checkpoint but the teacher carries judge.
        manifest = edited_manifest(lambda checkpoints: [
            c if c.checkpoint_id == "teacher" else replace(c, metrics={"judge": 1.0})
            for c in checkpoints
        ])
        refused(command, manifest=manifest,
                message="metric 'judge' missing checkpoints ['teacher']")

    @pytest.mark.parametrize(
        "command",
        [("summarize",), ("concord",), ("shape",), ("report",), ("distill-demo",),
         ("correlate", "--sweep", "--metric", "fidelity")],
        ids=["summarize", "concord", "shape", "report", "distill-demo", "correlate"],
    )
    def test_precision_below_one(self, refused, command):
        refused(command, "--precision", "0", message="precision must be >= 1")

    def test_precision_past_what_formatting_takes(self, refused):
        # '%' formatting refuses a precision past a C int; render refuses it first.
        refused(("summarize",), "--precision", "2147483648", message="precision must be < 2**31")

    @pytest.mark.parametrize(
        "command, message",
        [(("concord", "--summaries", "mean,mean"), "duplicate summary names"),
         (("report", "--summaries", "mean,mean"), "duplicate summary names"),
         (("concord", "--summaries", "mean,median,p50"), "duplicate summary names"),
         (("report", "--summaries", "mean,median,p50"), "duplicate summary names"),
         (("concord", "--summaries", "mean,p5,p05"), "duplicate summary names"),
         (("report", "--summaries", "mean,p5,p05"), "duplicate summary names"),
         (("report", "--summaries", "mean,fidelity"), "no summary named 'fidelity'"),
         (("report", "--summaries", "mean,fidelity", "--family", "teacher"),
          "no summary named 'fidelity'"),
         (("correlate", "--select", "mean,fidelity"), "no summary named 'fidelity'"),
         (("concord", "--family", "teacher"), "family 'teacher': need at least two checkpoints"),
         (("concord", "--family", "teacher,trained"),
          "family 'teacher': need at least two checkpoints"),
         (("concord", "--summaries", "mean,mean", "--family", "teacher"),
          "duplicate summary names"),
         (("correlate", "--sweep", "--metric", "fidelity", "--family", "teacher"),
          "sweep needs at least three checkpoints"),
         (("correlate", "--crossing", "--reference", "nan", "--family", "teacher"),
          "crossing reference is NaN")],
        ids=["concord-duplicate", "report-duplicate", "concord-median-alias",
             "report-median-alias", "concord-zero-padded", "report-zero-padded",
             "report-metric", "report-metric-single-family", "select-metric",
             "concord-single", "concord-single-of-two", "concord-duplicate-single",
             "sweep-single", "crossing-nan-reference"],
    )
    def test_what_the_analysis_would_refuse(self, refused, command, message):
        refused(command, message=message)

    def test_no_family_of_two_to_concord(self, refused, edited_manifest):
        manifest = edited_manifest(lambda checkpoints: checkpoints[:1])
        refused(("concord",), manifest=manifest,
                message="no family holds two or more checkpoints")

    @pytest.mark.parametrize(
        "command, message",
        [(("summarize", "--ks", "5,x"), "bad integer list '5,x'"),
         (("shape", "--bands", "1,x"), "bad float list '1,x'"),
         (("report", "--summaries", "mean"), "report needs at least two summary names"),
         (("distill-demo", "--k", "2,x"), "bad K value 'x'"),
         (("distill-demo", "--k", ","), "--k needs at least one value"),
         (("correlate", "--sweep"), "--sweep requires --metric"),
         (("correlate", "--select="), "--select needs at least one column"),
         (("correlate", "--crossing"), "--crossing requires --reference"),
         (("correlate", "--crossing", "--reference", "5", "--metric", "fidelity"),
          "--metric is not read by --crossing"),
         (("correlate", "--select", "mean", "--reference", "5"),
          "--reference requires --crossing"),
         (("correlate", "--sweep", "--metric", "fidelity", "--summary", "pxx",
           "--reference", "nan"), "--reference requires --crossing"),
         (("correlate", "--select", "mean", "--summary", "p95"),
          "--summary requires --crossing"),
         (("correlate",), "one of the arguments --sweep --select --crossing is required"),
         (("correlate", "--sweep", "--crossing"),
          "argument --crossing: not allowed with argument --sweep")],
        ids=["int-list", "float-list", "report-one-summary",
             "k-token", "k-empty", "sweep-no-metric", "select-empty",
             "crossing-no-reference", "crossing-metric", "select-reference",
             "sweep-summary-and-reference", "select-summary", "no-mode", "two-modes"],
    )
    def test_usage_errors(self, refused, tmp_path, command, message):
        # The manifest does not exist: usage errors come before it is read.
        refused(command, code=1, manifest=tmp_path / "missing.yaml", message=message)

    def test_summarize_needs_paths_or_manifest(self, refused):
        refused(("summarize",), code=1, manifest=None,
                message="give dump paths and/or --manifest")

    def test_summarize_refuses_one_id_for_two_dumps(self, refused, demo_dir, tmp_path):
        teacher = demo_dir / "dumps" / "teacher.bin"
        copy = tmp_path / "copy" / "teacher.bin"
        copy.parent.mkdir()
        shutil.copyfile(teacher, copy)
        refused(("summarize", str(teacher), str(copy)), manifest=None,
                message=f"dumps {str(teacher)!r} and {str(copy)!r} share id 'teacher'")
        listed = load_manifest(demo_dir / "manifest.yaml").select(["teacher"])[0].loss_path
        refused(("summarize", str(copy)),
                message=f"dumps {str(copy)!r} and {str(listed)!r} share id 'teacher'")


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


    def test_defaults_come_from_lab_config_when_the_command_runs(
        self, capsys, tmp_path, monkeypatch
    ):
        # The lab's names are read at call time, so a patched
        # distill.dose_response is the one called.
        from lossdiag import distill

        seen = []

        def stop(config):
            seen.append(config)
            raise ValidationError("stop")

        monkeypatch.setattr(distill, "dose_response", stop)
        out = str(tmp_path / "dose.csv")
        assert run(capsys, "distill-demo", "--out", out)[0] == 2
        assert run(capsys, "distill-demo", "--out", out, "--vocab", "32", "--steps", "2")[0] == 2
        assert seen == [
            distill.LabConfig(),
            distill.LabConfig(vocab=32, steps=2),
        ]

    @pytest.mark.parametrize("flag,value", [
        ("--zipf", "1.1"), ("--alpha", "0.1"), ("--lr", "2"), ("--seed", "7"),
        ("--concentration", "4.5"), ("--epsilon-q", "1e-6"),
    ])
    def test_removed_flags_are_unrecognized(self, capsys, tmp_path, flag, value):
        rc, _, err = run(capsys, "distill-demo", "--out", str(tmp_path / "d.csv"), flag, value)
        assert rc == 1
        payload = stderr_payload(err)
        assert payload["error"] == "UsageError"
        assert payload["message"] == f"unrecognized arguments: {flag} {value}"
        assert not (tmp_path / "d.csv").exists()

    def test_a_k_list_without_full_is_refused_where_the_config_is_built(
        self, capsys, tmp_path, monkeypatch
    ):
        from lossdiag import distill

        runs = []
        monkeypatch.setattr(distill, "dose_response", runs.append)
        rc, _, err = run(capsys, "distill-demo", "--out", str(tmp_path / "d.csv"), "--k", "2,4")
        assert rc == 2
        assert stderr_payload(err) == {
            "error": "ValidationError", "message": 'ks must include "full"', "exit_code": 2}
        assert runs == []
        assert not any(tmp_path.iterdir())

    def test_the_vocab_as_a_k_duplicates_full(self, capsys, tmp_path):
        # K = vocab is the teacher's own row, as "full" is.
        rc, _, err = run(capsys, "distill-demo", "--out", str(tmp_path / "d.csv"),
                         "--vocab", "8", "--k", "2,8,full", "--steps", "300",
                         "--length", "10000", "--eval-length", "10000")
        assert rc == 2
        assert stderr_payload(err) == {
            "error": "ValidationError", "message": "duplicate K 'full'", "exit_code": 2}
        assert not any(tmp_path.iterdir())

    def test_dose_rows_match_summarize_on_the_manifest(self, capsys, tmp_path):
        # The two outputs of one run: dose.csv from the lab's records, and
        # summarize reading the dumps the manifest lists.
        out = tmp_path / "dose.csv"
        rc, _, err = run(capsys, "distill-demo", "--vocab", "8", "--k", "2,full", "--steps", "300",
                         "--length", "10000", "--eval-length", "10000", "--out", str(out))
        assert rc == 0, err
        rc, text, err = run(capsys, "summarize", "--manifest", str(tmp_path / "manifest.yaml"),
                            "--family", "trained,oracle", "--ks", "50,95")
        assert rc == 0, err
        dose = {
            f"student-k{row['k']}-{row['source']}": [row["mean"], row["median"], row["p95"]]
            for row in csv.DictReader(io.StringIO(out.read_text(encoding="utf-8")))
        }
        summarized = {
            row["checkpoint_id"]: [row["mean"], row["p50"], row["p95"]]
            for row in csv.DictReader(io.StringIO(text))
        }
        assert len(dose) == 4
        assert dose == summarized

    def test_size_below_its_floor_is_refused_before_training(self, capsys, tmp_path):
        rc, _, err = run(capsys, "distill-demo", "--out", str(tmp_path / "d.csv"),
                         "--eval-length", "500")
        assert rc == 2
        assert stderr_payload(err)["message"] == (
            "eval_length must be an integer >= 10000, got 500")
        assert not any(tmp_path.iterdir())


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
        assert rc == 2
        assert stderr_payload(err)["message"] == "profile grid must contain 50"

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
            scans.append(cli.Scan(summary, BandTable(cid, (1.0,), (50.0, 50.0))))
        tails = np.array([(p95 - 2.0) / 2.0 for p95 in p95s])
        expected = render.family_stats_table(
            [("fam", len(p95s), float(tails.mean()), float(tails.std()))], 17
        )
        assert cli._shape_tables(selected, scans, (25, 50, 75), 17)["family_stats.csv"] == expected


class TestCorrelate:
    def test_sweep_matches_library_pipeline(self, capsys, demo_dir):
        manifest = str(demo_dir / "manifest.yaml")
        rc, out, _ = run(
            capsys, "correlate", "--manifest", manifest, "--sweep", "--metric", "fidelity",
        )
        assert rc == 0
        checkpoints = load_manifest(manifest).checkpoints
        table = {
            c.checkpoint_id: summarize_exact(read_loss_dump(c.loss_path, c.checkpoint_id))
            for c in checkpoints
        }
        metric = MetricSeries("fidelity", {c.checkpoint_id: c.metrics["fidelity"]
                                           for c in checkpoints})
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
            "--select", "mean,median", "--metric", "fidelity",
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "rule,column,direction,checkpoint_id,value"
        # The metric's row follows the summaries', as in report's selection.csv.
        assert [line.split(",")[1:3] for line in lines[1:]] == [
            ["mean", "min"], ["median", "min"], ["fidelity", "max"]]

    def test_a_metric_named_like_a_summary_is_not_a_column(self, capsys, demo_dir, tmp_path):
        # A manifest metric called "median" leaves the median column the CE
        # median, in correlate --select and in report's selection.csv alike.
        manifest = load_manifest(demo_dir / "manifest.yaml")
        renamed = tmp_path / "renamed.yaml"
        dump_manifest(replace(manifest, checkpoints=tuple(
            replace(c, metrics={"median": c.metrics["fidelity"]})
            for c in manifest.checkpoints)), renamed)
        outputs = {}
        for path in (demo_dir / "manifest.yaml", renamed):
            rc, select_out, err = run(capsys, "correlate", "--manifest", str(path),
                                      "--select", "mean,median")
            assert rc == 0, err
            out_dir = tmp_path / path.stem
            rc, _, err = run(capsys, "report", "--manifest", str(path),
                             "--out-dir", str(out_dir))
            assert rc == 0, err
            outputs[path.stem] = (select_out, (out_dir / "selection.csv").read_text("utf-8"))
        assert outputs["renamed"] == outputs["manifest"]
        assert outputs["manifest"][0].splitlines()[2].startswith("median,median,min,")

    def test_empty_select_is_usage_error(self, capsys, demo_dir):
        rc, _, _ = run(
            capsys, "correlate", "--manifest", str(demo_dir / "manifest.yaml"),
            "--select", "",
        )
        assert rc == 1

    @staticmethod
    def _step_series(tmp_path):
        """Three snapshots of one run, each uniform on its median +- 0.1."""
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
        return manifest_path

    def test_crossing_on_step_series(self, capsys, tmp_path):
        # The median falls below 0.6 at step 300.
        rc, out, _ = run(
            capsys, "correlate", "--manifest", str(self._step_series(tmp_path)),
            "--crossing", "--reference", "0.6",
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "family,summary,reference,crossing_step"
        assert lines[1] == "run,median,0.6,300"

    def test_crossing_on_a_percentile_outside_the_default_grid(self, capsys, tmp_path):
        # p97 (about the median + 0.094) falls below 0.6 at step 300 too; a
        # named percentile is scanned whether or not DEFAULT_KS holds it.
        rc, out, err = run(
            capsys, "correlate", "--manifest", str(self._step_series(tmp_path)),
            "--crossing", "--summary", "p97", "--reference", "0.6",
        )
        assert rc == 0, err
        assert out.splitlines()[1:] == ["run,p97,0.6,300"]

    def test_nan_manifest_metric_is_data_error(self, capsys, tmp_path):
        # A NaN judge score would win every comparison in --select; it must
        # be refused when the manifest loads, naming where it came from. The
        # writer refuses NaN too, so the YAML text is edited by hand.
        manifest_path = _judged_workspace(tmp_path, (2.0, 1.5, 1.0))
        text = manifest_path.read_text(encoding="utf-8")
        assert text.count("judge: 1.5\n") == 1
        manifest_path.write_text(text.replace("judge: 1.5\n", "judge: .nan\n"), encoding="utf-8")
        rc, _, err = run(
            capsys, "correlate", "--manifest", str(manifest_path),
            "--select", "mean", "--metric", "judge",
        )
        assert rc == 2
        payload = stderr_payload(err)
        assert payload["error"] == "ManifestError"
        assert "metric 'judge' of checkpoint 'run-1' is NaN" in payload["message"]

    def test_crossing_on_demo_manifest_names_family_and_step(
        self, capsys, demo_dir, monkeypatch
    ):
        # Every trained student of the demo sits at step --steps (2000), so
        # the "trained" series repeats a step; the error must say where, and
        # the manifest alone decides it, so no dump is streamed.
        streams = []
        monkeypatch.setattr(cli, "iter_loss_chunks", streams.append)
        rc, out, err = run(
            capsys, "correlate", "--manifest", str(demo_dir / "manifest.yaml"),
            "--crossing", "--reference", "1.5",
        )
        assert rc == 2
        assert out == ""
        payload = stderr_payload(err)
        assert payload["error"] == "ValidationError"
        assert payload["message"] == "family 'trained': duplicate step 2000 in series"
        assert streams == []

    def test_crossing_needs_reference(self, capsys, demo_dir):
        rc, _, _ = run(
            capsys, "correlate", "--manifest", str(demo_dir / "manifest.yaml"),
            "--crossing",
        )
        assert rc == 1


    def test_sweep_refusal_names_the_summary_and_metric(self, capsys, tmp_path):
        # Every checkpoint has +inf mean CE: the mean column has no Pearson r.
        rng = np.random.default_rng(11)
        checkpoints = []
        for i in range(4):
            values = rng.uniform(0.1, 2.0 + i, 200)
            values[::10] = np.inf
            path = tmp_path / f"c{i}.bin"
            write_loss_dump(LossVector(f"c{i}", values), path)
            checkpoints.append(CheckpointMeta(
                checkpoint_id=f"c{i}", family="trunc", step=i, objective="topk-kl",
                loss_path=path, metrics={"judge": 1.0 + i}))
        manifest = tmp_path / "manifest.yaml"
        dump_manifest(Manifest(version=1, checkpoints=tuple(checkpoints)), manifest)
        rc, _, err = run(
            capsys, "correlate", "--manifest", str(manifest), "--sweep", "--metric", "judge",
        )
        assert rc == 2
        assert stderr_payload(err)["message"] == (
            "sweep of mean against 'judge': first vector contains non-finite values"
        )


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

    def test_single_checkpoint_family_takes_any_selection_columns(
        self, capsys, demo_dir, tmp_path
    ):
        # With no family to concord, --summaries only names selection
        # columns: a repeated summary is accepted, and --metric adds its own.
        out_dir = tmp_path / "teacher-only"
        rc, _, err = run(
            capsys, "report", "--manifest", str(demo_dir / "manifest.yaml"),
            "--out-dir", str(out_dir), "--family", "teacher",
            "--summaries", "mean,mean", "--metric", "accuracy",
        )
        assert rc == 0, err
        rows = (out_dir / "selection.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert [row.split(",")[:4] for row in rows] == [
            ["mean", "mean", "min", "teacher"],
            ["accuracy", "accuracy", "max", "teacher"],
        ]

    @pytest.mark.parametrize(
        "command, rules",
        [(("report", "--family", "teacher", "--summaries", "mean,mean",
           "--metric", "fidelity"), ["mean", "fidelity"]),
         (("report", "--family", "teacher", "--summaries", "mean,mean"), ["mean"]),
         (("report", "--family", "teacher", "--summaries", "median,p50"), ["median"]),
         (("report", "--family", "teacher", "--summaries", "p5,p05,mean"), ["p5", "mean"]),
         (("correlate", "--select", "mean,mean"), ["mean"]),
         (("correlate", "--select", "median,p50"), ["median"]),
         (("correlate", "--select", "p5,p05,mean,mean"), ["p5", "mean"])],
        ids=["report-with-metric", "report-summaries", "report-median-p50", "report-p5-p05",
             "correlate", "correlate-median-p50", "correlate-p5-p05"],
    )
    def test_a_repeated_selection_column_writes_one_row(
        self, capsys, demo_dir, tmp_path, command, rules
    ):
        argv = [*command, "--manifest", str(demo_dir / "manifest.yaml")]
        if command[0] == "report":
            argv += ["--out-dir", str(tmp_path)]
        rc, out, err = run(capsys, *argv)
        assert rc == 0, err
        if command[0] == "report":
            out = (tmp_path / "selection.csv").read_text(encoding="utf-8")
        assert [row.split(",")[0] for row in out.splitlines()[1:]] == rules

    @pytest.mark.parametrize(
        "command",
        [("concord", "--family", "trained,trained"),
         ("correlate", "--crossing", "--reference", "5", "--family", "teacher,teacher")],
        ids=["concord", "crossing"],
    )
    def test_a_repeated_family_writes_one_row(self, capsys, demo_dir, command):
        rc, out, err = run(capsys, *command, "--manifest", str(demo_dir / "manifest.yaml"))
        assert rc == 0, err
        family = command[-1].split(",")[0]
        assert [row.split(",")[0] for row in out.splitlines()[1:]] == [family]

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

    @pytest.mark.parametrize("command", ["report", "shape"])
    @pytest.mark.parametrize(
        "grid, message",
        [("0,25,50,75", "percentile 0 outside 1..99"),
         ("10,10,25,50,75", "duplicate percentiles requested"),
         ("10,20", "profile grid must contain 25")],
        ids=["out-of-range-grid", "duplicate-grid", "no-quartiles"],
    )
    def test_bad_grid_fails_before_any_dump_is_streamed(
        self, capsys, demo_dir, tmp_path, monkeypatch, command, grid, message
    ):
        streams = []

        def counted(path):
            streams.append(path)
            return store.iter_loss_chunks(path)

        monkeypatch.setattr(cli, "iter_loss_chunks", counted)
        rc, _, err = run(
            capsys, command, "--manifest", str(demo_dir / "manifest.yaml"),
            "--out-dir", str(tmp_path / "out"), "--grid", grid,
        )
        assert rc == 2
        assert stderr_payload(err)["message"] == message
        assert streams == []
        assert not (tmp_path / "out").exists()

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

    def test_builds_one_summary_set_per_checkpoint(
        self, capsys, demo_dir, tmp_path, monkeypatch
    ):
        # summary.csv's grid is a subset of the scanned one, so restricting a
        # summary to it makes no new SummarySet and checks nothing again.
        built = []
        post_init = SummarySet.__post_init__

        def counted(self):
            built.append(self.checkpoint_id)
            post_init(self)

        monkeypatch.setattr(SummarySet, "__post_init__", counted)
        rc, _, _ = run(
            capsys, "report", "--manifest", str(demo_dir / "manifest.yaml"),
            "--out-dir", str(tmp_path / "report"), "--metric", "fidelity",
        )
        assert rc == 0
        checkpoints = load_manifest(demo_dir / "manifest.yaml").checkpoints
        assert Counter(built) == Counter(c.checkpoint_id for c in checkpoints)

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
        argv = ("report", "--manifest", str(demo_dir / "manifest.yaml"))
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


class TestCliSurface:
    """Every subcommand's option strings, in parser order: a flag added or
    removed shows up here as a visible diff."""

    OPTIONS = {
        "summarize": ["-h", "--help", "--manifest", "--family", "--ks", "--sketch",
                      "--precision", "--out"],
        "concord": ["-h", "--help", "--manifest", "--family", "--summaries",
                    "--precision", "--out"],
        "shape": ["-h", "--help", "--manifest", "--family", "--grid", "--bands",
                  "--out-dir", "--precision"],
        "correlate": ["-h", "--help", "--manifest", "--family", "--sweep", "--select",
                      "--crossing", "--metric", "--summary", "--reference",
                      "--precision", "--out"],
        "distill-demo": ["-h", "--help", "--vocab", "--length", "--steps", "--eval-length",
                         "--k", "--out", "--precision"],
        "report": ["-h", "--help", "--manifest", "--out-dir", "--family", "--summaries",
                   "--metric", "--grid", "--bands", "--precision"],
    }

    def test_every_subcommand_has_exactly_these_options(self):
        assert {
            name: [flag for action in parser._actions for flag in action.option_strings]
            for name, parser in subcommand_parsers().items()
        } == self.OPTIONS

    @pytest.mark.parametrize("argv, unknown", [
        (("summarize", "--exact"), "--exact"),
        (("summarize", "--epsilon", "1e-3"), "--epsilon"),  # 1e-3 is taken as a path
        (("concord", "--ks", "50"), "--ks 50"),
        (("correlate", "--sweep", "--metric", "fidelity", "--ks", "50"), "--ks 50"),
        (("correlate", "--select", "mean", "--metric-file", "x"), "--metric-file x"),
    ], ids=["summarize-exact", "summarize-epsilon", "concord-ks", "correlate-ks",
            "correlate-metric-file"])
    def test_removed_flags_are_unrecognized(self, capsys, demo_dir, argv, unknown):
        # Summary names decide the scanned percentiles, dump size and
        # --sketch decide the scan path, and metrics come from the manifest.
        rc, out, err = run(capsys, *argv, "--manifest", str(demo_dir / "manifest.yaml"))
        assert rc == 1
        assert out == ""
        assert stderr_payload(err)["message"] == f"unrecognized arguments: {unknown}"


class TestReadmeFlags:
    def test_every_flag_the_readme_names_is_a_cli_option(self):
        # Removing or renaming a flag must take its documentation with it.
        readme = Path(__file__).resolve().parents[1] / "README.md"
        lines = readme.read_text(encoding="utf-8").splitlines()
        text = "\n".join(line for line in lines if "pip install" not in line)
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))
        options = {
            flag for parser in subcommand_parsers().values()
            for action in parser._actions for flag in action.option_strings
        }
        assert "--manifest" in named
        assert sorted(named - options) == []

    def test_every_readme_command_runs(self, capsys, demo_dir, tmp_path):
        # README's distill-demo line builds demo_dir; every other lossdiag line
        # runs against a copy of it in place of demo/.
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(r"^```sh\n(.*?)^```", readme.read_text(encoding="utf-8"),
                            re.M | re.S)
        lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
        commands = [shlex.split(line)[1:] for line in lines if line.startswith("lossdiag ")]
        demo = ["distill-demo", *helpers.DEMO_FLAGS, "--out", "demo/dose.csv"]
        assert [argv for argv in commands if argv[0] == "distill-demo"] == [demo]
        shutil.copytree(demo_dir, tmp_path / "demo")
        for argv in commands:
            if argv != demo:
                argv = [str(tmp_path / a) if a.startswith("demo/") else a for a in argv]
                rc, _, err = run(capsys, *argv)
                assert rc == 0, (argv, err)
