"""Release gates: one test per shipping criterion, with runtime budgets.

Each test pins the numbers and tolerances the package commits to; `pytest
-v` prints one pass/fail line per criterion. Tolerances are part of the
contract, so do not loosen them here without changing the contract.
"""

import math
import time

import numpy as np
import pytest

from lossdiag import (
    LossVector,
    SelectionRule,
    SummarySet,
    TabularLM,
    band_masses,
    build_sketch,
    concordance,
    crossing_step,
    distill_student,
    dose_response,
    kendall_tau,
    kl,
    read_loss_dump,
    select,
    softmax,
    standardize_profile,
    summarize_exact,
    topk_renormalize,
    write_loss_dump,
    percentile_sweep,
)
from lossdiag import render
from lossdiag.cli import main
from lossdiag.distill import _tie_classes
from lossdiag.shape import PROFILE_GRID

import helpers
import oracles


class Budget:
    """Asserts on exit that the body ran within its time budget."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.seconds, (
                f"exceeded {self.seconds}s budget: {elapsed:.1f}s"
            )
        return False


def test_criterion_1_dump_round_trip_is_bit_exact(tmp_path):
    with Budget(10):
        rng = np.random.default_rng(1001)
        path = tmp_path / "dump.bin"
        for trial in range(1000):
            size = int(10 ** rng.uniform(0.0, 5.0))
            values = rng.lognormal(0.0, 1.5, size).astype(np.float32)
            if trial % 7 == 0:
                values[rng.integers(0, size, size=max(1, size // 50))] = np.inf
            vector = LossVector(f"t{trial}", values)
            write_loss_dump(vector, path)
            back = read_loss_dump(path, f"t{trial}")
            assert back.losses.tobytes() == vector.losses.tobytes()


def test_criterion_2_percentiles_match_sort_oracle_and_sketch_bound():
    with Budget(60):
        rng = np.random.default_rng(1002)
        every_k = tuple(range(1, 100))
        for trial in range(100):
            size = int(10 ** rng.uniform(0.0, 6.0))
            values = rng.lognormal(0.0, 1.0, size).astype(np.float32)
            if trial % 9 == 0:
                values[rng.integers(0, size, size=max(1, size // 100))] = np.inf
            summary = summarize_exact(LossVector(f"s{trial}", values), every_k)
            data = sorted(float(v) for v in values)
            for k in every_k:
                assert summary.percentiles[k] == oracles.percentile_of_sorted_list(data, k)

        epsilon = 1e-3
        big = np.random.default_rng(1003).lognormal(0.0, 1.2, 10_000_000)
        sketch = build_sketch(np.array_split(big, 100), epsilon)
        data = np.sort(big)
        n = data.size
        for k in (5, 25, 50, 75, 95):
            value = sketch.query(k)
            target = k * n / 100.0
            below = np.searchsorted(data, value, side="left")
            at_or_below = np.searchsorted(data, value, side="right")
            if not below <= target <= at_or_below:
                error = min(abs(below - target), abs(at_or_below - target))
                assert error <= epsilon * n, (k, error)


def _summary_table(columns, names):
    table = {}
    for i in range(len(columns[0])):
        mean = 0.0
        pct = {}
        for name, col in zip(names, columns):
            if name == "mean":
                mean = col[i]
            else:
                pct[int(name[1:])] = col[i]
        table[f"c{i:02d}"] = SummarySet(f"c{i:02d}", mean, pct or {50: 1.0}, 10)
    return table


def test_criterion_3_concordance_equals_pair_enumeration():
    with Budget(10):
        rng = np.random.default_rng(1004)
        all_names = ("mean", "p25", "p50", "p95")
        for trial in range(200):
            m = int(rng.integers(2, 13))
            n_cols = int(rng.integers(2, 5))
            cols = [list(rng.uniform(0.1, 4.0, m))]
            for _ in range(n_cols - 1):
                cols.append([v + float(rng.uniform(0.0, 1.0)) for v in cols[-1]])
            if trial % 4 == 0:
                for col in cols:
                    col[0] = col[-1]
            names = all_names[:n_cols]
            report = concordance(_summary_table(cols, names), names)
            total, concordant, tied = oracles.concordance_by_pairs(cols)
            assert (report.total_pairs, report.concordant_pairs, report.tied_pairs) == (
                total, concordant, tied)
            assert report.pi == concordant / total

        for _ in range(50):
            m = int(rng.integers(3, 13))
            a = list(rng.permutation(m).astype(float))
            b = list(rng.permutation(m).astype(float))
            pi = concordance(_summary_table([a, b], ("mean", "p50")), ("mean", "p50")).pi
            assert abs(pi - (1.0 + kendall_tau(a, b)) / 2.0) <= 1e-12

        # 18 strictly ranked checkpoints with four local order swaps on one
        # column: 12 of 153 pairs flip, and the headline number prints 0.92.
        mean = [1.0 + 0.10 * i for i in range(18)]
        p50 = [0.5 + 0.05 * i for i in range(18)]
        p95 = [2.0 + 0.10 * i for i in range(18)]
        for lo in (0, 4, 8, 12):
            p95[lo], p95[lo + 2] = p95[lo + 2], p95[lo]
        names = ("mean", "p50", "p95")
        report = concordance(_summary_table([mean, p50, p95], names), names)
        assert (report.concordant_pairs, report.total_pairs) == (141, 153)
        assert f"{report.pi:.2f}" == "0.92"


def test_criterion_4_shape_identities_and_band_rendering():
    with Budget(10):
        rng = np.random.default_rng(1005)
        for _ in range(100):
            steps = rng.uniform(0.01, 0.5, len(PROFILE_GRID))
            vals = np.cumsum(steps) + rng.uniform(0.0, 2.0)
            summary = SummarySet("r", 1.0, dict(zip(PROFILE_GRID, vals)), 100)
            profile = standardize_profile(summary)
            assert profile.values[50] == 0.0
            assert profile.values[75] - profile.values[25] == 1.0

            scale = float(rng.uniform(0.1, 30.0))
            shift = float(rng.uniform(0.0, 10.0))
            moved = SummarySet(
                "m", scale * summary.mean + shift,
                {k: scale * v + shift for k, v in summary.percentiles.items()}, 100)
            gap = profile.as_array() - standardize_profile(moved).as_array()
            assert np.max(np.abs(gap)) <= 1e-9

        for _ in range(20):
            losses = LossVector("b", rng.lognormal(0.0, 1.3, 4_000))
            assert abs(sum(band_masses(losses).mass) - 100.0) <= 1e-9

        counts = (263, 204, 210, 258, 61, 4)
        edges = (0.0, 0.1, 0.5, 1.5, 5.0, 10.0, 14.0)
        parts = [
            np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), c)
            for (lo, hi), c in zip(zip(edges[:-1], edges[1:]), counts)
        ]
        table = band_masses(LossVector("teacher", np.concatenate(parts)))
        row = render.band_table([table]).splitlines()[1]
        assert row == "teacher,26.3,20.4,21.0,25.8,6.1,0.4"


def test_criterion_5_correlation_and_selection_fixtures():
    with Budget(5):
        table = helpers.load_summary_fixture(helpers.FIXTURES / "sweep_summaries.csv")
        judge = helpers.load_metric_fixture(helpers.FIXTURES / "sweep_judge.csv", "judge")
        rows = {row.summary: row for row in percentile_sweep(table, judge)}
        assert abs(rows["p50"].pearson_r - (-0.935)) <= 1e-3
        assert abs(rows["p50"].spearman_rho - (-0.911)) <= 1e-3
        assert abs(rows["mean"].pearson_r - (-0.217)) <= 1e-3
        assert abs(rows["mean"].spearman_rho - (-0.186)) <= 1e-3

        table = helpers.load_summary_fixture(
            helpers.FIXTURES / "truncation_summaries.csv")
        judge = helpers.load_metric_fixture(
            helpers.FIXTURES / "truncation_judge.csv", "judge")
        rules = [SelectionRule("best-mean", "mean", "min"),
                 SelectionRule("best-median", "p50", "min"),
                 SelectionRule("best-judge", "judge", "max")]
        picks = {r.rule: r for r in select(table, rules, metrics={"judge": judge}).rows}
        assert picks["best-mean"].checkpoint_id == "teacher"
        assert picks["best-mean"].value == 1.442
        assert picks["best-median"].checkpoint_id == "student-top5"
        assert picks["best-median"].value == 0.525
        assert picks["best-judge"].checkpoint_id == "student-top5"
        assert picks["best-judge"].value == 2.06


def test_criterion_6_kl_gradient_matches_finite_differences(monkeypatch):
    # The step the lab trains with, read off two runs of distill_student k
    # and k + 1 steps long, against the finite-difference gradient of the KL
    # it descends. K alternates so both layouts of _descend_rows step.
    monkeypatch.setenv("LOSSDIAG_THREADS", "1")  # no worker pool
    with Budget(10):
        rng = np.random.default_rng(1006)
        per_class = set()
        for trial in range(100):
            v = int(rng.integers(2, 17))
            teacher = TabularLM(np.log(rng.gamma(0.7, 1.0, (v, v))), rng.dirichlet(np.ones(v)))
            top = 2 if trial % 2 == 0 else "full"
            lr = float(rng.uniform(0.5, 8.0))
            k = int(rng.integers(1, 6))
            targets = np.stack([topk_renormalize(row, top) for row in teacher.probs()])
            row_w = lr * teacher.context_weights
            per_class.add(_tie_classes(row_w[:, None] * targets) is not None)
            before = distill_student(teacher, top, k, lr).logits
            after = distill_student(teacher, top, k + 1, lr).logits
            for c in range(v):
                applied = (before[c] - after[c]) / row_w[c]

                def objective(logits, target=targets[c]):
                    return kl(target, softmax(np.asarray(logits)))

                numeric = np.array(oracles.central_difference(objective, before[c], h=1e-5))
                rel = np.linalg.norm(applied - numeric) / np.linalg.norm(numeric)
                assert rel <= 1e-6, (trial, c)
            # KL gradients sum to zero per row, which lets the loop skip the
            # max-shift before exp.
            bound = 1e-9 * (1 + np.abs(after).max(axis=1))
            assert (np.abs(after.sum(axis=1)) <= bound).all(), trial
        assert per_class == {True, False}


def test_criterion_7_dose_response_signature_on_default_config():
    with Budget(300):
        result = dose_response()
        summaries = {(c.k, c.family): c.summary for c in result.checkpoints}
        oracle = {k: summaries[k, "oracle"] for k in result.config.ks}
        trained = {k: summaries[k, "trained"] for k in result.config.ks}

        # Truncation signature on the converged floor.
        assert oracle[4].value("median") < oracle["full"].value("median")
        assert oracle[4].mean > oracle["full"].mean

        # Training reaches the floor within 5% relative on both summaries.
        for k in result.config.ks:
            assert abs(trained[k].mean - oracle[k].mean) <= 0.05 * oracle[k].mean, k
            median = oracle[k].value("median")
            assert abs(trained[k].value("median") - median) <= 0.05 * median, k

        # Some truncated student beats the teacher's median while losing on
        # the mean: the summary disagreement the lab exists to exhibit.
        teacher_median = summaries[None, "teacher"].value("median")
        teacher_mean = summaries[None, "teacher"].mean
        assert any(
            trained[k].value("median") < teacher_median and trained[k].mean > teacher_mean
            for k in result.config.ks
        )


def test_criterion_8_crossing_examples():
    with Budget(1):
        assert crossing_step(
            [(25_000, 0.70), (50_000, 0.65), (75_000, 0.58)], 0.609) == 75_000
        assert crossing_step([(1, 0.9), (2, 0.8), (3, 0.7)], 0.65) is None
        series = helpers.load_trajectory_fixture(
            helpers.FIXTURES / "trajectory_median.csv")
        assert crossing_step(series, 2.46) == 379_000


def _charts_from_csv(summary_csv, sweep_csv):
    """Reference SVGs drawn from the rendered CSV text, cell by cell."""
    charts = {}
    ks, rs, rhos = [], [], []
    for line in sweep_csv.splitlines()[1:]:
        name, r, rho = line.split(",")
        if name != "mean":
            ks.append(float(name[1:]))
            rs.append(float(r))
            rhos.append(float(rho))
    charts["sweep.svg"] = render.svg_chart(
        [("pearson_r", ks, rs), ("spearman_rho", ks, rhos)],
        x_label="percentile", y_label="correlation with metric", kind="line")
    lines = summary_csv.splitlines()
    header = lines[0].split(",")
    mean_i, med_i = header.index("mean"), header.index("p50")
    rows = [line.split(",") for line in lines[1:]]
    points = [(float(row[med_i]), float(row[mean_i])) for row in rows]
    points = [(x, y) for x, y in points if math.isfinite(x) and math.isfinite(y)]
    charts["scatter.svg"] = render.svg_chart(
        [("checkpoints", [x for x, _ in points], [y for _, y in points])],
        x_label="median CE", y_label="mean CE", kind="scatter")
    return charts


@pytest.mark.parametrize(
    "grid, bands, precision, names",
    [
        ((), (), (), "mean,median,p95"),
        (("--grid", "10,25,50,75,90"), ("--bands", "0.5,2"), ("--precision", "3"),
         "mean,median,p95"),
        # p97 is outside DEFAULT_KS: summary names decide what is scanned.
        ((), (), (), "mean,median,p97"),
    ],
    ids=["default-flags", "grid-bands-precision", "p97-summaries"],
)
def test_criterion_9_report_matches_standalone_subcommands(
    demo_dir, tmp_path, capsys, grid, bands, precision, names
):
    with Budget(30):
        manifest = str(demo_dir / "manifest.yaml")
        report_dir = tmp_path / "report"
        rc = main(["report", "--manifest", manifest, "--out-dir", str(report_dir),
                   "--summaries", names, "--metric", "fidelity", *grid, *bands, *precision])
        capsys.readouterr()
        assert rc == 0

        def stdout_of(*argv):
            rc = main([*argv, *precision])
            out = capsys.readouterr().out
            assert rc == 0
            return out

        standalone = {
            "summary.csv": stdout_of("summarize", "--manifest", manifest),
            "concordance.csv": stdout_of("concord", "--manifest", manifest,
                                         "--summaries", names),
            "selection.csv": stdout_of(
                "correlate", "--manifest", manifest,
                "--select", names, "--metric", "fidelity"),
            "sweep.csv": stdout_of(
                "correlate", "--manifest", manifest,
                "--sweep", "--metric", "fidelity"),
        }
        shape_dir = tmp_path / "shape"
        rc = main(["shape", "--manifest", manifest, "--out-dir", str(shape_dir),
                   *grid, *bands, *precision])
        capsys.readouterr()
        assert rc == 0
        for name in ("profiles.csv", "distances.csv", "bands.csv", "family_stats.csv"):
            standalone[name] = (shape_dir / name).read_text(encoding="utf-8")

        for name, expected in standalone.items():
            produced = (report_dir / name).read_text(encoding="utf-8")
            assert produced == expected, f"{name} differs between report and subcommand"

        reference = _charts_from_csv(standalone["summary.csv"], standalone["sweep.csv"])
        for name, expected in reference.items():
            produced = (report_dir / name).read_text(encoding="utf-8")
            assert produced == expected, f"{name} differs from the CSV-drawn chart"
