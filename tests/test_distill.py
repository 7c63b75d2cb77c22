"""Tabular top-K distillation lab: math helpers, training, oracle, sweep."""

import math
import re
import sys
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from lossdiag import (
    DivergenceError,
    LabConfig,
    TabularLM,
    ValidationError,
    chain_fidelity,
    converged_student,
    distill_student,
    dose_response,
    fit_teacher,
    kl,
    log_softmax,
    next_token_accuracy,
    per_token_ce,
    softmax,
    summarize_exact,
    synth_corpus,
    topk_renormalize,
    true_chain,
    zipf_weights,
)
from lossdiag import distill
from lossdiag.distill import _teacher_targets, _train_batch, check_distribution, lab_checkpoints
from lossdiag.store import (
    CheckpointMeta,
    LossVector,
    Manifest,
    dump_manifest,
    load_manifest,
    write_loss_dump,
)

import oracles


def _random_dist(rng, v):
    p = rng.gamma(0.7, 1.0, v)
    return p / p.sum()


class TestCheckDistribution:
    def test_rejections(self):
        for bad in ([0.5], [[0.5, 0.5]], [0.5, math.nan], [0.5, math.inf],
                    [-0.1, 1.1], [0.5, 0.6]):
            with pytest.raises(ValidationError):
                check_distribution(bad)

    def test_passthrough(self):
        out = check_distribution([0.25, 0.75])
        assert out.dtype == np.float64
        assert out.tolist() == [0.25, 0.75]


class TestSoftmax:
    def test_matches_scipy(self):
        rng = np.random.default_rng(3)
        z = rng.normal(scale=3.0, size=(5, 9))
        assert np.allclose(softmax(z), scipy.special.softmax(z, axis=-1), atol=1e-14)
        assert np.allclose(log_softmax(z), scipy.special.log_softmax(z, axis=-1), atol=1e-12)

    def test_stable_under_large_logits(self):
        z = np.array([1000.0, 1001.0, 999.0])
        p = softmax(z)
        assert np.isfinite(p).all()
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.isfinite(log_softmax(z)).all()


# K values of the wrong kind: a string, None, NaN, inf and bools. Every K check refuses them.
BAD_K_KINDS = ("x", None, math.nan, math.inf, True, np.True_)


def _names_k(k):
    return rf"^K must be 'full' or an integer in 1\.\.\d+, got {re.escape(repr(k))}$"


class TestTopKRenormalize:
    def test_full_k_is_identity(self):
        rng = np.random.default_rng(11)
        p = _random_dist(rng, 10)
        assert np.allclose(topk_renormalize(p, 10), p, atol=1e-14)
        assert np.array_equal(topk_renormalize(p, "full"), topk_renormalize(p, 10))

    def test_hand_case(self):
        out = topk_renormalize([0.5, 0.3, 0.2], 2)
        assert out[2] == 0.0
        assert out[0] == pytest.approx(0.625, abs=1e-12)
        assert out[1] == pytest.approx(0.375, abs=1e-12)

    def test_tie_breaks_to_lower_index(self):
        out = topk_renormalize([0.4, 0.3, 0.3], 2)
        assert out[2] == 0.0
        assert out[1] > 0.0

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            v = int(rng.integers(2, 40))
            k = int(rng.integers(1, v + 1))
            p = _random_dist(rng, v)
            ours = topk_renormalize(p, k)
            ref = oracles.topk_by_sort(list(p), k)
            assert np.allclose(ours, ref, atol=1e-12)
            assert [x == 0.0 for x in ours] == [x == 0.0 for x in ref]

    def test_idempotent(self):
        p = _random_dist(np.random.default_rng(17), 12)
        once = topk_renormalize(p, 4)
        twice = topk_renormalize(once, 4)
        assert np.allclose(once, twice, rtol=1e-14)

    def test_k_validation(self):
        p = [0.5, 0.5]
        for k in (0, 3, 1.5, -1):
            with pytest.raises(ValidationError):
                topk_renormalize(p, k)
        for k in BAD_K_KINDS:
            with pytest.raises(ValidationError, match=_names_k(k)):
                topk_renormalize(p, k)


class TestKL:
    def test_self_divergence_is_zero(self):
        p = _random_dist(np.random.default_rng(19), 8)
        assert kl(p, p) == 0.0

    def test_hand_case(self):
        assert kl([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_support_violation_is_inf(self):
        assert kl([0.5, 0.5], [1.0, 0.0]) == math.inf

    def test_matches_bignum_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            v = int(rng.integers(2, 30))
            p = _random_dist(rng, v)
            q = _random_dist(rng, v)
            assert kl(p, q) == pytest.approx(oracles.kl_mp(p, q), rel=1e-12)

    def test_nonnegative_and_zero_only_at_equality(self):
        rng = np.random.default_rng(29)
        p = _random_dist(rng, 6)
        q = p.copy()
        q[0] += 1e-6
        q /= q.sum()
        assert kl(p, q) > 0.0
        for _ in range(10):
            assert kl(_random_dist(rng, 6), _random_dist(rng, 6)) >= 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            kl([0.5, 0.5], [0.4, 0.3, 0.3])


class TestTabularLM:
    def test_requires_square_logits(self):
        with pytest.raises(ValidationError):
            TabularLM(logits=np.zeros((2, 3)))
        with pytest.raises(ValidationError):
            TabularLM(logits=np.zeros(4))

    def test_nan_and_plus_inf_rejected_minus_inf_allowed(self):
        with pytest.raises(ValidationError):
            TabularLM(logits=np.array([[0.0, math.nan], [0.0, 0.0]]))
        with pytest.raises(ValidationError):
            TabularLM(logits=np.array([[0.0, math.inf], [0.0, 0.0]]))
        model = TabularLM(logits=np.array([[0.0, -math.inf], [0.0, 0.0]]))
        assert model.probs()[0].tolist() == [1.0, 0.0]

    def test_row_without_a_finite_logit_rejected(self):
        with pytest.raises(ValidationError, match="logits row 1 has no finite entry"):
            TabularLM(logits=np.array([[0.0, 0.0], [-math.inf, -math.inf]]))

    def test_weights_validation(self):
        z = np.zeros((2, 2))
        with pytest.raises(ValidationError):
            TabularLM(logits=z, context_weights=np.array([1.0]))
        with pytest.raises(ValidationError):
            TabularLM(logits=z, context_weights=np.array([-0.1, 1.1]))
        with pytest.raises(ValidationError):
            TabularLM(logits=z, context_weights=np.array([math.inf, 0.0]))

    def test_weights_default_to_uniform(self):
        model = TabularLM(logits=np.zeros((4, 4)))
        assert np.array_equal(model.context_weights, np.full(4, 0.25))
        with pytest.raises(ValueError):
            model.context_weights[0] = 1.0

    def test_arrays_frozen(self):
        model = TabularLM(logits=np.zeros((2, 2)), context_weights=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            model.logits[0, 0] = 1.0
        with pytest.raises(ValueError):
            model.context_weights[0] = 1.0

    def test_prob_views_consistent(self):
        rng = np.random.default_rng(43)
        model = TabularLM(logits=rng.normal(size=(5, 5)))
        assert model.vocab_size == 5
        assert np.allclose(model.probs(), np.exp(model.log_probs()), atol=1e-14)
        assert np.allclose(model.probs().sum(axis=1), 1.0, atol=1e-12)


class TestWorldGenerators:
    def test_zipf_weights(self):
        w = zipf_weights(3, 1.0)
        assert np.allclose(w, np.array([6.0, 3.0, 2.0]) / 11.0, atol=1e-15)
        assert (np.diff(zipf_weights(50, 1.1)) < 0).all()
        with pytest.raises(ValidationError):
            zipf_weights(10, 0.0)

    def test_true_chain_is_deterministic_and_valid(self):
        base1, rows1 = true_chain(5, 16, 1.1)
        base2, rows2 = true_chain(5, 16, 1.1)
        assert np.array_equal(base1, base2)
        assert np.array_equal(rows1, rows2)
        assert np.array_equal(base1, zipf_weights(16, 1.1))
        for row in rows1:
            check_distribution(row)

    def test_corpus_reproducible_and_in_range(self):
        a = synth_corpus(9, 8, 1.1, 10_000)
        b = synth_corpus(9, 8, 1.1, 10_000)
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() < 8
        held_out = synth_corpus(9, 8, 1.1, 10_000, split=1)
        assert not np.array_equal(a, held_out)

    def test_corpus_validation(self):
        with pytest.raises(ValidationError):
            synth_corpus(1, 4, 1.1, 10_000)
        with pytest.raises(ValidationError):
            synth_corpus(1, 8, 1.1, 500)
        with pytest.raises(ValidationError):
            synth_corpus(1, 8, 1.1, 10_000, concentration=-1.0)

    @pytest.mark.parametrize("exponent", [math.nan, math.inf, -math.inf, -1.0])
    def test_zipf_exponent_must_be_finite_and_positive(self, exponent):
        # NaN and inf weights would put the whole world on one token.
        for call in (lambda: zipf_weights(8, exponent),
                     lambda: synth_corpus(7, 8, exponent, 10_000)):
            with pytest.raises(ValidationError) as info:
                call()
            assert str(info.value) == f"zipf exponent must be finite and > 0, got {exponent!r}"

    @pytest.mark.parametrize("concentration", [math.nan, math.inf, -1.0])
    def test_concentration_must_be_finite_and_non_negative(self, concentration):
        # true_chain owns the rule; synth_corpus and lab_checkpoints reach it.
        for call in (lambda: true_chain(7, 8, 1.1, concentration),
                     lambda: synth_corpus(7, 8, 1.1, 10_000, concentration)):
            with pytest.raises(ValidationError) as info:
                call()
            assert str(info.value) == (
                f"concentration must be finite and >= 0, got {concentration!r}")

    def test_chain_with_a_zero_or_non_finite_probability_is_refused(self):
        # Each finite setting below gave a stream of one distinct token, the
        # overflowing one after a numpy warning; the rule bounds neither
        # setting, so a tiny but positive chain still passes.
        for exponent, concentration in ((1e6, 4.5), (1.1, 1e6), (1.1, 200.0)):
            config = LabConfig(zipf_exponent=exponent, concentration=concentration, steps=1,
                               length=10_000, eval_length=10_000)
            for call in (lambda: true_chain(7, 8, exponent, concentration),
                         lambda: synth_corpus(7, 8, exponent, 10_000, concentration),
                         lambda: dose_response(config)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ValidationError) as info:
                        call()
                assert str(info.value) == (
                    f"zipf exponent {exponent!r} and concentration {concentration!r} "
                    "give a zero or non-finite chain probability")
        base, rows = true_chain(7, 8, 300.0)
        assert base.min() > 0 and 0 < rows.min() < 1e-270


class TestFitTeacher:
    def test_hand_counted_bigram(self):
        model = fit_teacher(np.array([0, 1, 0, 1]), alpha=1.0, vocab=2)
        assert np.allclose(model.probs()[0], [0.25, 0.75], atol=1e-12)
        assert np.allclose(model.probs()[1], [2 / 3, 1 / 3], atol=1e-12)
        assert np.allclose(model.context_weights, [2 / 3, 1 / 3], atol=1e-15)

    def test_huge_alpha_approaches_uniform(self):
        stream = synth_corpus(2, 8, 1.1, 10_000)
        model = fit_teacher(stream, alpha=1e9, vocab=8)
        assert np.allclose(model.probs(), 1.0 / 8.0, atol=1e-6)

    def test_rows_are_distributions(self):
        stream = synth_corpus(3, 16, 1.1, 20_000)
        model = fit_teacher(stream, alpha=0.1, vocab=16)
        for row in model.probs():
            check_distribution(row)
        assert model.context_weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            fit_teacher(np.array([0, 1]), alpha=0.0, vocab=4)
        with pytest.raises(ValidationError):
            fit_teacher(np.array([3]), alpha=1.0, vocab=4)
        with pytest.raises(ValidationError):
            fit_teacher(np.array([0, -1]), alpha=1.0, vocab=4)
        with pytest.raises(ValidationError):
            fit_teacher(np.array([0, 5]), alpha=1.0, vocab=4)
        with pytest.raises(ValidationError, match="token ids must be integers"):
            fit_teacher(np.array([0.0, 1.6]), alpha=1.0, vocab=4)

    @pytest.mark.parametrize(
        "alpha, vocab",
        [(math.nan, 8), (math.inf, 8), (1e308, 8), (np.float64(1e308), 8),
         (sys.float_info.max / 3, 3),  # max / 3 rounds up: alpha * 3 overflows
         (10**400, 8)],  # an int past float64
        ids=["nan", "inf", "1e308", "np-1e308", "max-over-3", "int-10e400"],
    )
    def test_alpha_that_leaves_no_distribution_is_refused(self, alpha, vocab):
        stream = synth_corpus(2, 8, 1.1, 10_000) % vocab
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="alpha must be"):
                fit_teacher(stream, alpha, vocab)

    def test_alpha_whose_probabilities_underflow_is_refused(self):
        # 5e-324 over an unseen transition's count underflowed to probability
        # 0: a numpy warning, -inf logits and +inf held-out losses.
        stream = synth_corpus(7, 8, 1.1, 10_000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"^alpha 5e-324 gives a zero"):
                fit_teacher(stream, 5e-324, 8)
            assert np.isfinite(fit_teacher(stream, 1e-310, 8).logits).all()


@pytest.fixture(scope="module")
def small_world():
    stream = synth_corpus(21, 8, 1.1, 10_000)
    return fit_teacher(stream, alpha=0.1, vocab=8)


class TestSizeRule:
    """One rule for the lab's sizes and seed: an int or np.integer (not a
    bool) at or above the input's floor, else a ValidationError naming the
    input."""

    @pytest.mark.parametrize("call,message", [
        (lambda: LabConfig(vocab=16.5), "vocab must be an integer >= 8, got 16.5"),
        (lambda: LabConfig(vocab=4), "vocab must be an integer >= 8, got 4"),
        (lambda: LabConfig(steps=2.5), "steps must be an integer >= 1, got 2.5"),
        (lambda: LabConfig(steps=0), "steps must be an integer >= 1, got 0"),
        (lambda: LabConfig(length=True), "length must be an integer >= 10000, got True"),
        (lambda: LabConfig(eval_length=9999),
         "eval_length must be an integer >= 10000, got 9999"),
        (lambda: LabConfig(vocab=np.float64(64)),
         "vocab must be an integer >= 8, got np.float64(64.0)"),
        (lambda: fit_teacher(np.array([0, 1, 0]), 1.0, vocab=4.5),
         "vocab must be an integer >= 2, got 4.5"),
        (lambda: synth_corpus(7, 16.0, 1.1, 10_000), "vocab must be an integer >= 8, got 16.0"),
        (lambda: synth_corpus(7, 16, 1.1, 1e5), "length must be an integer >= 10000, got 100000.0"),
        (lambda: zipf_weights(4.5, 1.1), "vocab must be an integer >= 2, got 4.5"),
        (lambda: zipf_weights(1, 1.1), "vocab must be an integer >= 2, got 1"),
        (lambda: true_chain(5, 8.0, 1.1), "vocab must be an integer >= 2, got 8.0"),
        # A float or bool seed is not truncated to another seed's stream.
        (lambda: LabConfig(seed=7.9), "seed must be an integer >= 0, got 7.9"),
        (lambda: synth_corpus(7.9, 8, 1.1, 10_000), "seed must be an integer >= 0, got 7.9"),
        (lambda: synth_corpus(True, 8, 1.1, 10_000), "seed must be an integer >= 0, got True"),
        (lambda: synth_corpus(-1, 8, 1.1, 10_000), "seed must be an integer >= 0, got -1"),
        (lambda: true_chain(7.9, 8, 1.1), "seed must be an integer >= 0, got 7.9"),
    ])
    def test_refusals_name_the_input(self, call, message):
        with pytest.raises(ValidationError) as exc:
            call()
        assert str(exc.value) == message

    def test_train_batch_steps(self, small_world):
        targets = _teacher_targets(small_world, 2)[None]
        for steps in (2.5, np.bool_(True), "3"):
            with pytest.raises(ValidationError, match="^steps must be an integer >= 1, got "):
                _train_batch(targets, small_world.context_weights, steps, 1.0)

    def test_numpy_sizes_are_stored_as_ints(self, tmp_path):
        config = LabConfig(vocab=np.int64(8), ks=(2, "full"), steps=np.int32(20),
                           length=np.uint32(10_000), eval_length=np.int16(10_000), seed=np.uint8(3))
        sizes = ("vocab", "steps", "length", "eval_length", "seed")
        assert [type(getattr(config, name)) for name in sizes] == [int] * 5
        # The lab's manifest, written as distill-demo writes it, takes the steps.
        checkpoints = []
        for c, losses in lab_checkpoints(dose_response(config)):
            write_loss_dump(losses, tmp_path / f"{c.id}.bin")
            checkpoints.append(CheckpointMeta(c.id, c.family, c.step, c.objective,
                                              tmp_path / f"{c.id}.bin", c.metrics))
        dump_manifest(Manifest(version=1, checkpoints=tuple(checkpoints)), tmp_path / "m.yaml")
        steps = [c.step for c in load_manifest(tmp_path / "m.yaml").checkpoints]
        assert steps == [0, 20, 0, 20, 0]

    def test_numpy_integers_are_sizes(self):
        assert LabConfig(vocab=np.int64(32), steps=np.int32(5)).vocab == 32
        assert np.array_equal(zipf_weights(np.int64(3), 1.0), zipf_weights(3, 1.0))
        stream = synth_corpus(9, np.int64(8), 1.1, np.uint32(10_000))
        assert np.array_equal(stream, synth_corpus(9, 8, 1.1, 10_000))
        assert np.array_equal(synth_corpus(np.int64(9), 8, 1.1, 10_000), stream)
        assert LabConfig(seed=np.uint8(0)).seed == 0
        assert fit_teacher(stream, 1.0, vocab=np.int16(8)).vocab_size == 8


class TestDistillStudent:
    def test_full_k_converges_to_teacher(self, small_world):
        # Row gradients are scaled by context weight, so the rarest context
        # (weight ~6e-4 here) sets the budget: 20k steps at lr 16 bring even
        # that row within a 1e-3 total-variation ball of its target.
        student = distill_student(small_world, "full", steps=20_000, learning_rate=16.0)
        tv = 0.5 * np.abs(student.probs() - small_world.probs()).sum(axis=1)
        assert tv.max() <= 1e-3

    def test_more_steps_do_not_hurt(self, small_world):
        short = distill_student(small_world, 4, steps=50, learning_rate=4.0)
        long = distill_student(small_world, 4, steps=500, learning_rate=4.0)
        assert (oracles.distill_loss(small_world, long, 4)
                <= oracles.distill_loss(small_world, short, 4) + 1e-12)

    def test_teacher_without_context_weights_weights_rows_uniformly(self, small_world):
        bare = TabularLM(logits=small_world.logits)
        uniform = TabularLM(logits=small_world.logits, context_weights=np.full(8, 1 / 8))
        student = distill_student(bare, 2, steps=10, learning_rate=1.0)
        assert np.array_equal(student.context_weights, uniform.context_weights)
        expected = distill_student(uniform, 2, steps=10, learning_rate=1.0)
        assert np.array_equal(student.logits, expected.logits)

    def test_runaway_rate_raises(self, small_world):
        with pytest.raises(DivergenceError) as exc:
            distill_student(small_world, 2, steps=10, learning_rate=1e9)
        assert (exc.value.step, exc.value.row) == (1, 0)

    def test_hyperparameter_validation(self, small_world):
        with pytest.raises(ValidationError):
            distill_student(small_world, 2, steps=0, learning_rate=1.0)
        with pytest.raises(ValidationError):
            distill_student(small_world, 2, steps=10, learning_rate=0.0)
        with pytest.raises(ValidationError):
            distill_student(small_world, 2, steps=10, learning_rate=math.inf)
        with pytest.raises(ValidationError):
            distill_student(small_world, 9, steps=10, learning_rate=1.0)


class TestConvergedStudent:
    def test_epsilon_bounds(self, small_world):
        for eps in (0.0, 1e-5, -1e-9):
            with pytest.raises(ValidationError):
                converged_student(small_world, 2, epsilon_q=eps)

    def test_full_k_equals_teacher(self, small_world):
        student = converged_student(small_world, "full", epsilon_q=1e-9)
        assert np.allclose(student.probs(), small_world.probs(), atol=1e-12)

    def test_rows_sum_to_one_with_floor(self, small_world):
        student = converged_student(small_world, 2, epsilon_q=1e-6)
        probs = student.probs()
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        # Six of eight entries per row sit at the (renormalized) floor.
        for row in probs:
            floor = np.sort(row)[:6]
            assert np.allclose(floor, floor[0], rtol=1e-9)
            assert floor[0] == pytest.approx(1e-6, rel=1e-3)


def _flat_teacher(row):
    v = len(row)
    return TabularLM(logits=np.log(np.tile(row, (v, 1))))


def _oracle_summary(teacher, k, stream, epsilon_q=1e-9):
    """Held-out summary of the converged student, as dose_response's oracle rows."""
    ce = per_token_ce(converged_student(teacher, k, epsilon_q), stream)
    return summarize_exact(LossVector("oracle", ce.astype(np.float32)))


class TestConvergedOracle:
    def test_analytic_truncation_costs(self):
        # Every context shares the row (0.5, 0.3, 0.12, 0.08). Keeping K=2
        # renormalizes to (0.625, 0.375): a transition onto token 0 costs
        # -log 0.625 for the truncated student vs -log 0.5 for the teacher.
        teacher = _flat_teacher([0.5, 0.3, 0.12, 0.08])
        stream = np.zeros(1_000, dtype=np.int64)
        summary = _oracle_summary(teacher, 2, stream, epsilon_q=1e-6)
        assert summary.mean == pytest.approx(-math.log(0.625), abs=1e-5)
        assert summary.value("median") == pytest.approx(-math.log(0.625), abs=1e-5)
        teacher_ce = per_token_ce(teacher, stream)
        assert teacher_ce[0] == pytest.approx(-math.log(0.5), abs=1e-12)

    def test_vocab_sized_k_is_full(self):
        # K equal to the vocab keeps every token: the same student and the
        # same summary as K="full".
        teacher = _flat_teacher([0.5, 0.3, 0.12, 0.08])
        stream = np.random.default_rng(53).integers(0, 4, 1_000)
        four = converged_student(teacher, 4, epsilon_q=1e-9)
        full = converged_student(teacher, "full", epsilon_q=1e-9)
        assert np.array_equal(four.logits, full.logits)
        assert _oracle_summary(teacher, 4, stream) == _oracle_summary(teacher, "full", stream)


class TestPerTokenCE:
    def test_hand_case(self):
        model = _flat_teacher([0.5, 0.3, 0.12, 0.08])
        losses = per_token_ce(model, np.array([0, 1, 0]))
        assert losses == pytest.approx([-math.log(0.3), -math.log(0.5)], abs=1e-12)

    def test_zero_probability_transition_is_inf(self):
        model = TabularLM(logits=np.array([[0.0, -math.inf], [0.0, 0.0]]))
        losses = per_token_ce(model, np.array([0, 1]))
        assert losses[0] == math.inf

    def test_validation(self):
        model = _flat_teacher([0.5, 0.5])
        with pytest.raises(ValidationError):
            per_token_ce(model, np.array([0]))
        with pytest.raises(ValidationError):
            per_token_ce(model, np.array([0, 2]))
        with pytest.raises(ValidationError):
            per_token_ce(model, np.array([0, -1]))
        with pytest.raises(ValidationError, match="token ids must be integers"):
            per_token_ce(model, np.array([0.7, 1.6]))


class TestNextTokenAccuracy:
    def test_hand_case(self):
        model = TabularLM(logits=np.array([[1.0, 0.0], [0.0, 1.0]]))
        stream = np.array([0, 0, 1, 1, 0])
        assert next_token_accuracy(model, stream) == 0.5

    def test_blind_to_truncation(self):
        # Top-K keeps the argmax, so accuracy cannot see the dose at all.
        teacher = _flat_teacher([0.5, 0.3, 0.12, 0.08])
        rng = np.random.default_rng(47)
        stream = rng.integers(0, 4, 500)
        reference = next_token_accuracy(teacher, stream)
        for k in (1, 2, 3, "full"):
            student = converged_student(teacher, k, epsilon_q=1e-6)
            assert next_token_accuracy(student, stream) == reference

    def test_validation(self):
        # per_token_ce's stream rule; each of these would otherwise score
        # as a number (0.0 for the ids no row can predict).
        model = _flat_teacher([0.5, 0.5])
        for stream in ([1], [0, -1], [0, 2], [[0, 1], [1, 0]], [0.7, 1.6]):
            with pytest.raises(ValidationError):
                next_token_accuracy(model, np.array(stream))


class TestChainFidelity:
    def test_perfect_model_scores_one(self):
        _, rows = true_chain(5, 8, 1.1)
        model = TabularLM(logits=np.log(rows))
        assert chain_fidelity(model, rows) == pytest.approx(1.0, abs=1e-9)

    def test_truncation_lowers_fidelity(self, small_world):
        _, rows = true_chain(21, 8, 1.1)
        full = chain_fidelity(converged_student(small_world, "full", epsilon_q=1e-9), rows)
        cut = chain_fidelity(converged_student(small_world, 2, epsilon_q=1e-9), rows)
        assert cut < full

    def test_validation(self, small_world):
        with pytest.raises(ValidationError):
            chain_fidelity(small_world, np.zeros((4, 4)))


class TestLabConfig:
    def test_k_validation(self):
        with pytest.raises(ValidationError):
            LabConfig(ks=())
        with pytest.raises(ValidationError, match=r"^K must be 'full' or an integer in 1\.\.64, got 0$"):
            LabConfig(ks=(0, "full"))
        with pytest.raises(ValidationError, match="got 2.5"):
            LabConfig(ks=(2.5, "full"))
        with pytest.raises(ValidationError, match="got 128"):
            LabConfig(ks=(128, "full"))
        with pytest.raises(ValidationError):
            LabConfig(ks=(4, 4, "full"))
        for k in BAD_K_KINDS:
            with pytest.raises(ValidationError, match=_names_k(k)):
                LabConfig(ks=(k, "full"))

    def test_a_k_list_without_the_teacher_row_is_refused_when_built(self):
        with pytest.raises(ValidationError, match='^ks must include "full"$'):
            LabConfig(ks=(2, 4))
        with pytest.raises(ValidationError, match='^ks must include "full"$'):
            LabConfig(vocab=16, ks=(2, 8))
        assert LabConfig(vocab=16, ks=(2, 16)).ks == (2, 16)
        assert LabConfig(vocab=16, ks=(np.int64(16),)).ks == (16,)

    def test_the_vocab_and_full_are_one_k(self):
        # Both are the teacher's own row: accepted together, it trained twice.
        with pytest.raises(ValidationError, match="^duplicate K 'full'$"):
            LabConfig(vocab=8, ks=(2, 8, "full"))
        with pytest.raises(ValidationError, match="^duplicate K 8$"):
            LabConfig(vocab=8, ks=("full", 8))

    def test_each_integral_k_is_stored_as_an_int(self):
        # dose.csv prints str(k), and the checkpoint ids say "k2", not "k2.0".
        ks = LabConfig(ks=(2.0, np.int64(4), "full")).ks
        assert [(type(k), str(k)) for k in ks] == [(int, "2"), (int, "4"), (str, "full")]

    def test_defaults_are_frozen(self):
        config = LabConfig()
        assert (config.vocab, config.seed) == (64, 7)
        assert config.ks == (2, 4, 8, 16, "full")
        with pytest.raises(AttributeError):
            config.vocab = 32

    @pytest.mark.parametrize("vocab, ks", [
        (8, (2, 4, "full")), (9, (2, 4, 8, "full")), (16, (2, 4, 8, "full")),
        (17, (2, 4, 8, 16, "full")),
    ])
    def test_the_default_k_list_is_each_of_2_4_8_16_below_the_vocab(self, vocab, ks):
        assert LabConfig(vocab=vocab).ks == ks
        assert LabConfig(vocab=vocab, ks=None).ks == ks

    def test_a_given_k_list_is_checked_as_given(self):
        with pytest.raises(ValidationError, match=r"^K must be 'full' or an integer in 1\.\.8, got 16$"):
            LabConfig(vocab=8, ks=(2, 4, 8, 16, "full"))
        with pytest.raises(ValidationError, match="^duplicate K 'full'$"):
            LabConfig(vocab=16, ks=(2, 4, 8, 16, "full"))


TINY = LabConfig(
    vocab=8, zipf_exponent=1.1, length=10_000, alpha=0.1, ks=(2, "full"),
    steps=300, learning_rate=8.0, eval_length=10_000, epsilon_q=1e-6, seed=3,
)


class TestDoseResponse:
    def test_requires_teacher_anchor(self):
        with pytest.raises(ValidationError, match="full"):
            dose_response(LabConfig(ks=(2, 4)))

    def test_bad_epsilon_q_is_refused_before_any_training(self, monkeypatch):
        trainings = []

        def counted(*args):
            trainings.append(args)
            return _train_batch(*args)

        monkeypatch.setattr(distill, "_train_batch", counted)
        with pytest.raises(ValidationError, match=r"^epsilon_q must be in \(0, 1e-6\], got 0\.5$"):
            dose_response(replace(TINY, epsilon_q=0.5))
        assert trainings == []

    @pytest.mark.parametrize(
        "field, value, message",
        [("zipf_exponent", math.nan, "zipf exponent must be finite and > 0, got nan"),
         ("concentration", math.inf, "concentration must be finite and >= 0, got inf")],
    )
    def test_non_finite_world_setting_is_refused_before_any_training(
        self, monkeypatch, field, value, message
    ):
        trainings = []
        monkeypatch.setattr(distill, "_train_batch", lambda *args: trainings.append(args))
        with pytest.raises(ValidationError) as info:
            dose_response(replace(TINY, **{field: value}))
        assert str(info.value) == message
        assert trainings == []

    def test_vocab_sized_k_counts_as_full(self):
        dose_response(LabConfig(
            vocab=8, length=10_000, ks=(8,), steps=50, learning_rate=4.0,
            eval_length=10_000, seed=3,
        ))

    def test_structure(self):
        result = dose_response(TINY)
        assert [f.name for f in fields(result)] == ["config", "checkpoints", "eval_stream"]
        teacher, *students = result.checkpoints
        assert [(c.k, c.family) for c in result.checkpoints] == [
            (None, "teacher"),
            (2, "trained"), (2, "oracle"), ("full", "trained"), ("full", "oracle")]
        assert all(isinstance(c.model, TabularLM) for c in result.checkpoints)
        assert result.eval_stream.size == TINY.eval_length
        assert teacher.summary.count == TINY.eval_length - 1
        for c in students:
            assert math.isfinite(c.summary.value("median")) and c.summary.value("median") > 0
            assert c.summary.mean > 0
        oracle_by_k = {c.k: c.summary for c in students if c.family == "oracle"}
        # The signature effect survives even at this tiny scale.
        assert oracle_by_k[2].value("median") < oracle_by_k["full"].value("median")
        assert oracle_by_k[2].mean > oracle_by_k["full"].mean


class TestLabCheckpoints:
    def test_one_ce_vector_per_item_pulled(self, monkeypatch):
        result = dose_response(TINY)
        calls = []

        def counted(model, stream):
            calls.append(model)
            return per_token_ce(model, stream)

        monkeypatch.setattr(distill, "per_token_ce", counted)
        items = lab_checkpoints(result)
        assert calls == []
        record, losses = next(items)
        assert len(calls) == 1 and calls[0] is record.model
        assert record is result.checkpoints[0]
        assert (record.id, record.family, record.step, record.objective) == (
            "teacher", "teacher", 0, "token-ce")
        assert losses.checkpoint_id == record.id and losses.losses.dtype == np.float32
        assert summarize_exact(losses) == record.summary
        assert set(record.metrics) == {"accuracy", "fidelity"}
        rest = list(items)
        assert len(calls) == 1 + len(rest) == 1 + 2 * len(TINY.ks)
        assert [c for c, _ in rest] == list(result.checkpoints[1:])
        # The dumps carry the CE the records summarize.
        assert [(c.id, c.family, c.step, c.objective) for c, _ in rest] == [
            ("student-k2-trained", "trained", TINY.steps, "topk-kl:2"),
            ("student-k2-oracle", "oracle", 0, "topk-kl:2"),
            ("student-kfull-trained", "trained", TINY.steps, "topk-kl:full"),
            ("student-kfull-oracle", "oracle", 0, "topk-kl:full"),
        ]
        for c, losses in rest:
            assert summarize_exact(losses) == c.summary


class TestSamplerMatchesSearchsorted:
    @pytest.mark.parametrize(
        "seed,vocab,length,concentration,split",
        [
            (7, 64, 200_000, 4.5, 0),  # the lab's default training stream
            (7, 64, 100_000, 4.5, 1),  # and its held-out stream
            (1, 8, 10_000, 4.5, 0),
            (2, 8, 10_001, 0.0, 3),  # uniform noise; one past a block edge
            (3, 17, 12_289, 2.0, 1),
            (11, 100, 20_000, 6.0, 2),
        ],
    )
    def test_bitwise(self, seed, vocab, length, concentration, split):
        ours = synth_corpus(seed, vocab, 1.1, length, concentration, split)
        ref = oracles.corpus_by_searchsorted(seed, vocab, 1.1, length, concentration, split)
        assert ours.dtype == ref.dtype
        assert np.array_equal(ours, ref)


WORKERS = ["1", "2", "3"]


@pytest.fixture(scope="module")
def stacked_targets(small_world):
    return np.stack([_teacher_targets(small_world, k) for k in (1, 2, 5, 8)])


class TestShardedTraining:
    # A 300-step run whose row sums, tested once after the last step, stay
    # finite: no replay.
    STEPS = 300

    @pytest.mark.parametrize("workers", WORKERS)
    def test_matches_lockstep(self, small_world, stacked_targets, workers, monkeypatch):
        monkeypatch.setenv("LOSSDIAG_THREADS", workers)
        w = small_world.context_weights
        ours = _train_batch(stacked_targets, w, self.STEPS, 8.0)
        ref = oracles.train_by_lockstep(stacked_targets, w, self.STEPS, 8.0)
        assert np.array_equal(ours, ref)

    def test_stacked_equals_separate_runs(self, small_world, stacked_targets):
        w = small_world.context_weights
        batch = _train_batch(stacked_targets, w, self.STEPS, 8.0)
        for i, targets in enumerate(stacked_targets):
            alone = _train_batch(targets[None], w, self.STEPS, 8.0)
            assert np.array_equal(batch[i], alone[0])

    def test_one_worker_makes_no_pool(self, small_world, stacked_targets, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was created")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setenv("LOSSDIAG_THREADS", "1")
        _train_batch(stacked_targets, small_world.context_weights, 10, 8.0)


@st.composite
def _target_blocks(draw):
    """An (R, V) block of weighted targets drawn from a pool of at most 2V
    values, so ties are forced and classes fall on both sides of half."""
    r, v = draw(st.integers(1, 12)), draw(st.integers(1, 24))
    values = st.floats(0.0, 1e3) | st.sampled_from([0.0, -0.0, 5e-324])
    pool = draw(st.lists(values, min_size=1, max_size=2 * v))
    picks = draw(st.lists(st.sampled_from(pool), min_size=r * v, max_size=r * v))
    return np.array(picks, dtype=np.float64).reshape(r, v)


class TestTieClasses:
    @settings(max_examples=200, deadline=None)
    @given(_target_blocks())
    def test_matches_brute_force(self, block):
        ref = oracles.tie_classes_by_rows(block)
        classes = distill._tie_classes(block)
        if 2 * ref[2].size > block.size:
            assert classes is None
            return
        for ours, expected in zip(classes, ref):
            assert ours.dtype == expected.dtype
            # Every step gathers through slot and class_row: a strided view
            # (np.nonzero's rows) runs each gather slower.
            assert ours.flags.c_contiguous
            assert np.array_equal(ours.view(np.uint8), expected.view(np.uint8))

    def test_exactly_half_still_steps_per_class(self):
        slot, class_row, target = distill._tie_classes(np.array([[1.0, 0.0, 1.0, 0.0]]))
        assert slot.tolist() == [[1, 0, 1, 0]]
        assert class_row.tolist() == [0, 0] and target.tolist() == [0.0, 1.0]
        assert distill._tie_classes(np.array([[1.0, 0.0, 3.0, 0.0]])) is None  # 3 of 4
        assert distill._tie_classes(np.array([[-0.0, 0.0]])) is None  # bits, not values


@st.composite
def _tied_batches(draw):
    """(targets, weights, steps, learning_rate) for _train_batch, with ties
    of every kind the per-class loop groups: whole rows of one value, rows
    with no ties, top-K-like rows of a few values and zeros, zero columns,
    and one row's targets repeated in other rows under other weights. A
    batch of mostly tie-free rows has more classes than half its entries,
    so it steps every entry; the even mix steps per class."""
    kinds = draw(st.sampled_from([("tied", "distinct", "pooled"), ("distinct",) * 7 + ("tied",)]))
    v = draw(st.sampled_from([8, 13, 64, 130]))
    b = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Every row is a distribution over the columns not zeroed, as in the lab.
    live = np.sort(rng.choice(v, size=v - draw(st.integers(0, 3)), replace=False))
    targets = np.zeros((b, v, v))
    for row in targets.reshape(b * v, v):
        kind = draw(st.sampled_from(kinds))
        if kind == "tied":
            row[live] = 1.0 / live.size
        elif kind == "distinct":
            row[live] = _random_dist(rng, live.size)
        else:
            pool = rng.gamma(0.7, 1.0, draw(st.integers(1, 3)))
            kept = rng.choice(live, size=draw(st.integers(1, live.size)), replace=False)
            row[kept] = rng.choice(pool, size=kept.size)
            row /= row.sum()
    for _ in range(draw(st.integers(0, 4))):
        src, dst = rng.integers(0, b * v, size=2)
        targets.reshape(b * v, v)[dst] = targets.reshape(b * v, v)[src]
    if draw(st.booleans()):
        weights = np.full(v, 1.0 / v)
    else:
        weights = rng.gamma(0.5, 1.0, v) * (rng.random(v) > 0.1)
        weights /= max(weights.sum(), 1.0)
    steps = draw(st.integers(1, 40))
    learning_rate = draw(st.sampled_from([0.5, 8.0, 200.0, 1e4]))
    return targets, weights, steps, learning_rate


class TestTiedTargets:
    """One worker: the per-class and per-entry step loops against the
    reference. The worker sharding is covered by TestShardedTraining and
    TestExactDivergence."""

    @settings(max_examples=60, deadline=None)
    @given(_tied_batches())
    def test_matches_lockstep_bit_for_bit(self, batch):
        targets, weights, steps, lr = batch
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("LOSSDIAG_THREADS", "1")
            try:
                ref = oracles.train_by_lockstep(targets, weights, steps, lr)
            except DivergenceError as exc:
                with pytest.raises(DivergenceError) as ours:
                    _train_batch(targets, weights, steps, lr)
                assert (ours.value.step, ours.value.row) == (exc.step, exc.row)
                return
            assert np.array_equal(_train_batch(targets, weights, steps, lr), ref)


def _heavy_last_context(v=8):
    """Context weights that put 93% of the mass on the last context."""
    w = np.full(v, 0.01)
    w[-1] = 1.0 - 0.01 * (v - 1)
    return w


class TestExactDivergence:
    """The step, row and message of the every-step check, for any sharding.

    Ks index the students of one batch; with 8 contexts per student, student
    1's rows are the last shard for 2 and for 3 workers.
    """

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize(
        "ks,weights,lr,steps,expected",
        [
            # Runaway rate: every row fails at step 1.
            ((2, 8), None, 1e9, 600, (1, 0)),
            # Only student 1 (the last shard) diverges, at step 272: found by
            # the replay of a run that goes on well past it, ...
            ((1, 8), "heavy", 720.0, 600, (272, 7)),
            # ... of a run whose last step is the first to fail, ...
            ((1, 8), "heavy", 720.0, 273, (272, 7)),
            # ... and not at all in a run that stops one step before it.
            ((1, 8), "heavy", 720.0, 272, None),
            # Both diverge; the later shard's student fails first (335 < 1417).
            ((3, 7), "heavy", 710.0, 600, (335, 7)),
            ((7, 3), "heavy", 710.0, 600, (335, 7)),
        ],
        ids=["runaway", "later-shard-only", "later-shard-only-last-step",
             "later-shard-only-stops-before", "later-shard-first", "first-shard-first"],
    )
    def test_matches_every_step_check(
        self, small_world, workers, ks, weights, lr, steps, expected, monkeypatch
    ):
        targets = np.stack([_teacher_targets(small_world, k) for k in ks])
        w = small_world.context_weights if weights is None else _heavy_last_context()
        monkeypatch.setenv("LOSSDIAG_THREADS", workers)
        if expected is None:
            ours = _train_batch(targets, w, steps, lr)
            assert np.array_equal(ours, oracles.train_by_lockstep(targets, w, steps, lr))
            return
        with pytest.raises(DivergenceError) as ref:
            oracles.train_by_lockstep(targets, w, steps, lr)
        assert (ref.value.step, ref.value.row) == expected
        with pytest.raises(DivergenceError) as ours:
            _train_batch(targets, w, steps, lr)
        assert (ours.value.step, ours.value.row) == expected
        assert str(ours.value) == str(ref.value)

    def test_a_non_finite_logit_after_the_last_step_is_refused(self, monkeypatch):
        # An inf target leaves every row sum finite but a logit +inf: only
        # the end-of-run logits check sees it.
        monkeypatch.setenv("LOSSDIAG_THREADS", "1")
        targets = np.array([[[math.inf, 0.0], [0.5, 0.5]]])
        with pytest.raises(DivergenceError) as exc:
            _train_batch(targets, np.array([0.5, 0.5]), 1, 1.0)
        assert (exc.value.step, exc.value.row) == (0, 0)
