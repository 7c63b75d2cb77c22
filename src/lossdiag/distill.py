"""Tabular top-K distillation lab.

Reproduces, at desk scale, how distilling from a truncated teacher
distribution reshapes a student's per-token loss distribution: the student
gets *better* on typical tokens (median CE drops below the teacher's) while
tokens outside the teacher's top-K set become catastrophically unlikely,
dragging the mean CE up. Everything is bigram-sized so the converged
student has a closed form and claims can be checked exactly.

Pieces:

* distribution helpers: top-K renormalization and KL;
* a synthetic corpus with Zipfian marginals and much more concentrated
  conditionals (as in natural text), sampled from a fixed ground-truth
  bigram chain;
* an add-alpha bigram teacher fitted on the corpus;
* full-batch gradient-descent distillation of a zero-initialized student
  against top-K renormalized teacher rows, each context row weighted by its
  empirical frequency in the training stream. Context rows descend
  independently, so the rows of all students are split into contiguous
  shards, one per worker process (workers.worker_count), each running
  every step on its own; the result is bitwise the same for any number of
  workers. A shard tests its row sums after its last step, replaying its
  steps only on a failure (see _descend_rows for why that is sound);
* the converged-student oracle: top-K renormalized teacher rows with zeros
  replaced by a small floor epsilon_q (a literal zero would make mean CE
  +inf; the floor models the mass a finite training run leaves behind);
* dose_response: the K sweep, one LabCheckpoint per lab model holding the
  summary of its held-out CE and its metrics; lab_checkpoints: each record
  with that CE again, one vector at a time.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import DivergenceError, ValidationError
from .quantiles import SummarySet, _integral, summarize_exact
from .store import LossVector
from .workers import worker_count

DISTRIBUTION_TOL = 1e-9


def check_distribution(p) -> np.ndarray:
    """Validate and return a probability vector as float64."""
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValidationError("distribution must be a vector of length >= 2")
    if not np.isfinite(arr).all():
        raise ValidationError("distribution contains non-finite entries")
    if (arr < 0).any():
        raise ValidationError("distribution contains negative entries")
    total = float(arr.sum())
    if abs(total - 1.0) > DISTRIBUTION_TOL:
        raise ValidationError(f"distribution sums to {total!r}, not 1")
    return arr


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax over the last axis."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def topk_renormalize(p, k) -> np.ndarray:
    """Keep the K most probable entries, renormalized to sum to one.

    K as _resolve_k takes it ("full" keeps all). Ties at the K-th rank break
    toward the lower index (stable sort), so the kept set is deterministic.
    """
    arr = check_distribution(p)
    keep = np.argsort(-arr, kind="stable")[: _resolve_k(arr.size, k)]
    out = np.zeros_like(arr)
    out[keep] = arr[keep] / arr[keep].sum()
    return out


def kl(p, q) -> float:
    """KL(p || q) in nats; +inf when p puts mass where q has none."""
    p_arr = check_distribution(p)
    q_arr = check_distribution(q)
    if p_arr.size != q_arr.size:
        raise ValidationError("distributions have different lengths")
    mask = p_arr > 0
    if (q_arr[mask] == 0).any():
        return float("inf")
    s = float(np.sum(p_arr[mask] * (np.log(p_arr[mask]) - np.log(q_arr[mask]))))
    # Gibbs' inequality; float rounding can dip a hair below zero.
    return max(s, 0.0)


@dataclass(frozen=True)
class TabularLM:
    """A full conditional table: logits[c, x] scores token x after context c.

    ``context_weights`` are the empirical context frequencies of the stream
    the model was fitted on, uniform (1/V each) if none are given;
    distillation and chain_fidelity weight rows by them.
    """

    logits: np.ndarray
    context_weights: np.ndarray | None = None

    def __post_init__(self):
        z = np.ascontiguousarray(self.logits, dtype=np.float64)
        if z.ndim != 2 or z.shape[0] != z.shape[1]:
            raise ValidationError("logits must be a square (V, V) matrix")
        if np.isnan(z).any() or (z == np.inf).any():
            raise ValidationError("logits must not contain NaN or +inf")
        empty = np.flatnonzero((z == -np.inf).all(axis=1))
        if empty.size:  # softmax of the row would be 0/0
            raise ValidationError(f"logits row {int(empty[0])} has no finite entry")
        z.flags.writeable = False
        object.__setattr__(self, "logits", z)
        v = z.shape[0]
        w = self.context_weights
        w = np.full(v, 1.0 / v) if w is None else np.ascontiguousarray(w, dtype=np.float64)
        if w.shape != (v,):
            raise ValidationError("context_weights must have one entry per row")
        if (w < 0).any() or not np.isfinite(w).all():
            raise ValidationError("context_weights must be finite and >= 0")
        w.flags.writeable = False
        object.__setattr__(self, "context_weights", w)

    @property
    def vocab_size(self) -> int:
        return int(self.logits.shape[0])

    def probs(self) -> np.ndarray:
        return softmax(self.logits)

    def log_probs(self) -> np.ndarray:
        return log_softmax(self.logits)


def zipf_weights(vocab: int, exponent: float) -> np.ndarray:
    """Normalized 1/rank**exponent weights over token ids 0..vocab-1."""
    vocab = _check_size("vocab", vocab, 2)
    if not 0 < exponent < np.inf:  # NaN and inf give a one-token world
        raise ValidationError(f"zipf exponent must be finite and > 0, got {exponent!r}")
    w = np.arange(1, vocab + 1, dtype=np.float64) ** (-exponent)
    return w / w.sum()


# Conditional rows are the Zipfian backbone modulated by per-(context, token)
# lognormal factors: marginals stay Zipf-like while each row concentrates on
# a few context-preferred tokens, as next-token distributions do in text.
# Below ~2.0 the rows are flat enough that truncation barely moves the
# median and the dose-response signs become noise; 4.5 keeps them clean.
DEFAULT_CONCENTRATION = 4.5


def true_chain(
    seed: int,
    vocab: int,
    zipf_exponent: float,
    concentration: float = DEFAULT_CONCENTRATION,
) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth start probabilities and transition rows of the lab world.

    synth_corpus samples from exactly this chain, so the lab can score
    models against the truth (chain_fidelity), something real corpora
    never allow. A ValidationError names both settings when a probability is
    0 or not finite, as a huge finite setting makes it; exponent 300 over 8
    tokens passes, its smallest probabilities near 1e-276.
    """
    if not 0 <= concentration < np.inf:  # NaN and inf give a one-token world
        raise ValidationError(f"concentration must be finite and >= 0, got {concentration!r}")
    world = np.random.default_rng([_check_size("seed", seed, 0), 0x10])
    base = zipf_weights(vocab, zipf_exponent)
    noise = world.standard_normal((vocab, vocab))
    with np.errstate(over="ignore", invalid="ignore"):
        rows = base[None, :] * np.exp(concentration * noise)
        rows /= rows.sum(axis=1, keepdims=True)
    # Rows only: a zero start probability zeroes a column of them.
    _check_chain(rows, f"zipf exponent {zipf_exponent!r} and concentration {concentration!r} give")
    return base, rows


def _check_chain(probs: np.ndarray, source: str) -> None:
    """A ValidationError naming source unless every probability is finite and > 0."""
    if not ((probs > 0) & (probs < np.inf)).all():
        raise ValidationError(f"{source} a zero or non-finite chain probability")


_SAMPLE_BLOCK = 4096


def synth_corpus(
    seed: int,
    vocab: int,
    zipf_exponent: float,
    length: int,
    concentration: float = DEFAULT_CONCENTRATION,
    split: int = 0,
) -> np.ndarray:
    """Sample a token stream from a fixed ground-truth bigram chain.

    The chain itself depends only on (seed, vocab, zipf_exponent,
    concentration); ``split`` picks an independent sample stream from the
    same chain, which is how train and held-out streams share one world.
    Fixed arguments reproduce the stream bit-identically.
    """
    vocab = _check_size("vocab", vocab, 8)
    length = _check_size("length", length, 10_000)
    seed = _check_size("seed", seed, 0)
    base, rows = true_chain(seed, vocab, zipf_exponent, concentration)
    cum = np.cumsum(rows, axis=1)
    cum[:, -1] = 1.0  # so bisect_right of a draw from [0, 1) is below vocab
    start_cum = np.cumsum(base)
    start_cum[-1] = 1.0

    sampler = np.random.default_rng([seed, 0x51, int(split)])
    out = np.empty(length, dtype=np.int64)
    # bisect_right on a Python list runs the same binary search as
    # np.searchsorted(side="right") on one key, without numpy's per-call
    # overhead. Uniforms are drawn, and out written, a block at a time to
    # bound memory; block draws give the same numbers as one whole draw.
    rows_cum = cum.tolist()
    token = bisect_right(start_cum.tolist(), sampler.random())
    out[0] = token
    for lo in range(1, length, _SAMPLE_BLOCK):
        block = []
        for x in sampler.random(min(_SAMPLE_BLOCK, length - lo)).tolist():
            token = bisect_right(rows_cum[token], x)
            block.append(token)
        out[lo:lo + len(block)] = block
    return out


def _token_ids(stream, vocab: int) -> np.ndarray:
    """The lab's one token-stream rule: a 1-D integer array of at least two
    ids in 0..vocab-1, as int64. A float stream is refused, not truncated."""
    arr = np.asarray(stream)
    if arr.ndim != 1 or arr.size < 2:
        raise ValidationError("stream must be a 1-D array of at least two tokens")
    if arr.dtype.kind not in "iu":
        raise ValidationError(f"token ids must be integers, got dtype {arr.dtype}")
    if arr.min() < 0 or arr.max() >= vocab:
        raise ValidationError(f"token id out of range for vocab {vocab}")
    return arr.astype(np.int64, copy=False)


def fit_teacher(stream: np.ndarray, alpha: float, vocab: int) -> TabularLM:
    """Add-alpha smoothed bigram model of ``stream`` over ids 0..vocab-1.

    Row c is (count(c, x) + alpha) / (count(c, .) + alpha * V); a large
    alpha gives nearly uniform rows. alpha must be > 0 with alpha * V finite
    in float64, and no probability may underflow to 0: a NaN or infinite
    alpha, or one whose alpha * V overflows, would leave rows of NaN or of
    zeros, and 5e-324 -inf logits. The stream must pass _token_ids.
    The model carries the stream's empirical context frequencies.
    """
    v = _check_size("vocab", vocab, 2)
    # NaN fails > 0; a Python float product overflows to inf without a
    # numpy warning, and float() of an int past float64 raises.
    try:
        usable = alpha > 0 and float(alpha) * v < np.inf
    except OverflowError:
        usable = False
    if not usable:
        raise ValidationError(f"alpha must be > 0 with alpha * vocab finite, got {alpha!r}")
    arr = _token_ids(stream, v)
    prev, nxt = arr[:-1], arr[1:]
    counts = np.bincount(prev * v + nxt, minlength=v * v).astype(np.float64).reshape(v, v)
    probs = (counts + alpha) / (counts.sum(axis=1, keepdims=True) + alpha * v)
    weights = np.bincount(prev, minlength=v).astype(np.float64)
    weights /= weights.sum()
    _check_chain(probs, f"alpha {alpha!r} gives")
    return TabularLM(logits=np.log(probs), context_weights=weights)


def _teacher_targets(teacher: TabularLM, k: int) -> np.ndarray:
    probs = teacher.probs()
    return np.stack([topk_renormalize(row, k) for row in probs])


def _resolve_k(vocab: int, k) -> int:
    """The lab's one K rule: "full", or an integral number (not a bool) in 1..vocab."""
    if isinstance(k, str) and k == "full":
        return vocab
    if _integral(k) and 1 <= k <= vocab:
        return int(k)
    raise ValidationError(f"K must be 'full' or an integer in 1..{vocab}, got {k!r}")


def _check_size(name: str, value, floor: int) -> int:
    """The lab's one size and seed rule: an int or np.integer (not a bool) >= floor."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= floor:
        return int(value)
    raise ValidationError(f"{name} must be an integer >= {floor}, got {value!r}")


def _tie_classes(weighted_targets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The classes of equal target bits within each row of an (R, V) block,
    or None when they number more than half its entries.

    Returns slot, the class of each entry, shaped (R, V); class_row, the row
    of each class; and target, each class's weighted target. Classes are
    numbered row by row, in ascending bits within a row, so no class spans
    two rows. This is the lab's one layout rule: stepping per class adds two
    gathers a step, which cost what the per-class passes save when classes
    are half the entries (measured on shards of 32 to 12,800 entries); past
    that a block steps every entry, with no gather.
    """
    # Stable: the default quicksort of 64-bit keys pages in numpy's SIMD sort
    # code, about 0.3 MB of resident memory that the lab uses nowhere else.
    bits = weighted_targets.view(np.uint64)
    order = np.argsort(bits, axis=1, kind="stable")
    ranked = np.take_along_axis(bits, order, axis=1)
    starts = np.ones(bits.shape, dtype=bool)  # a class starts where the bits change
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=starts[:, 1:])
    target = ranked[starts].view(np.float64)
    if 2 * target.size > bits.size:
        return None
    # Not np.nonzero(starts)[0]: that is a strided view, and every step's
    # gather through class_row runs slower on it.
    class_row = np.flatnonzero(starts) // bits.shape[1]
    slot = np.empty_like(order)
    np.put_along_axis(slot, order, np.cumsum(starts).reshape(bits.shape) - 1, axis=1)
    return slot, class_row, target


def _full_layout(values: np.ndarray, slot: np.ndarray | None, out: np.ndarray) -> np.ndarray:
    """The (R, V) layout of values: gathered into out through slot, unless slot is None."""
    return values if slot is None else values.take(slot, out=out)


def _descend_rows(
    weighted_targets: np.ndarray, step_w: np.ndarray, steps: int
) -> tuple[np.ndarray, tuple[int, int] | None]:
    """Every GD step on a block of independent context rows.

    weighted_targets is (R, V), step_w is (R, 1); logits start at zero.
    Returns the final logits and None, or, at the first step whose row sum
    is non-finite, the logits so far and (step, row), row counted within
    the block. Module level, so spawned worker processes can import it.

    Entries of one row whose weighted targets have equal bits form a class.
    Tied entries start at 0.0 and every step gives them the same IEEE
    operations on the same operands (exp, times the row's scale, minus the
    target, subtracted from the logit), so they stay equal, and a step may
    update each class's logit once. Top-K rows tie a lot: V - K targets are
    0, and the add-alpha teacher gives every unseen transition one value.
    The row sum is not taken per class: each step gathers the class values
    back into the full (R, V) layout and sums that, so numpy's pairwise sum
    sees the same values in the same order as a step over every entry.
    _tie_classes picks per class or per entry; both give the same bits.

    The steps run unchecked and the last step's row sums are tested once;
    if one is not finite, the block runs again from zero, checking every
    step. That finds the step the every-step check would have stopped at,
    because a row whose sum is non-finite stays so at every later step:

    * NaN spreads: scale and every later logit of the row are NaN.
    * An inf element of q gives inf * 0 = NaN (scale is w / inf = 0).
    * An overflowing sum of finite q gives scale 0, so the update is
      logits += step_w * target >= 0; no logit shrinks and the next
      sum overflows again.
    """
    classes = _tie_classes(weighted_targets)
    slot, class_row, target = classes or (None, None, weighted_targets)
    logits = np.empty_like(target)
    # KL gradients sum to zero per row, so logits keep zero row sums and sit
    # tens of nats away from exp overflow: no max-shift needed. Runaway
    # learning rates overflow exp() to inf, which the row-sum check catches.
    q = np.empty_like(target)
    full_q = np.empty_like(weighted_targets) if classes else q
    acc = np.empty_like(step_w)
    scale = np.empty_like(acc)
    class_scale = np.empty_like(target) if classes else scale  # else broadcast per row
    # full_q is free at both exits, so the logits expand into it, not into a new array.
    with np.errstate(over="ignore", invalid="ignore"):
        for check in (False, True):
            logits.fill(0.0)
            for step in range(steps):
                np.exp(logits, out=q)
                if classes:  # mode="clip": with out=, "raise" copies through a buffer.
                    q.take(slot, out=full_q, mode="clip")
                np.add.reduce(full_q, axis=1, keepdims=True, out=acc)
                if check and not np.isfinite(acc).all():
                    fail = (step, int(np.flatnonzero(~np.isfinite(acc))[0]))
                    return _full_layout(logits, slot, full_q), fail
                # logits -= lr * w * (q/acc - target)
                np.divide(step_w, acc, out=scale)
                if classes:
                    scale.take(class_row, out=class_scale, mode="clip")
                np.multiply(q, class_scale, out=q)
                np.subtract(q, target, out=q)
                np.subtract(logits, q, out=logits)
            if np.isfinite(acc).all():
                break
    return _full_layout(logits, slot, full_q), None


def _train_batch(
    targets: np.ndarray, weights: np.ndarray, steps: int, learning_rate: float
) -> np.ndarray:
    """Full-batch GD on sum_c w_c * KL(target_c || softmax(logits_c)).

    targets has shape (B, V, V): B students trained at once, bitwise as if
    one at a time, from zero logits; release criterion 6 checks their steps
    against the finite-difference KL gradient. Raises DivergenceError after
    the last step, naming the step and context row of the first non-finite
    update as the every-step check does (see _descend_rows).

    Every context row of every student descends on its own, so the B*V rows
    are cut into contiguous shards, one per worker (workers.worker_count),
    and each shard runs the whole step loop with no synchronisation. The
    calling process runs the first shard and a pool of spawned processes
    the others; one worker means no pool. Spawned workers inherit the
    package's single-threaded BLAS rule (``__init__``) and import the main
    module, so a script that trains at import time needs the usual
    ``if __name__ == "__main__":`` guard.

    Sharding cannot change a bit: a class of tied entries, which a shard may
    step once (see _descend_rows), never spans two rows, each row's exp,
    pairwise sum, divide, multiply and subtract read only that row, and
    every shard starts on a row boundary. Threads would not help: the loop
    is per-call overhead on small arrays, which holds the GIL.
    """
    steps = _check_size("steps", steps, 1)
    if not learning_rate > 0 or not np.isfinite(learning_rate):
        raise ValidationError("learning_rate must be positive and finite")
    b, v, _ = targets.shape
    row_w = learning_rate * weights
    weighted_targets = (row_w.reshape(1, v, 1) * targets).reshape(b * v, v)
    step_w = np.tile(row_w, b).reshape(b * v, 1)
    n = worker_count(b * v)
    edges = [i * b * v // n for i in range(n + 1)]
    shards = [
        (weighted_targets[lo:hi], step_w[lo:hi], steps)
        for lo, hi in zip(edges, edges[1:])
    ]
    if n == 1:
        results = [_descend_rows(*shards[0])]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # spawn, not fork: forking a process that has threads can deadlock,
        # and the worker needs nothing but its arguments.
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(n - 1, mp_context=spawn) as pool:
            rest = pool.map(_descend_rows, *zip(*shards[1:]))
            results = [_descend_rows(*shards[0]), *rest]
    failures = [
        (fail[0], lo + fail[1])
        for lo, (_, fail) in zip(edges, results)
        if fail is not None
    ]
    if failures:
        step, flat_row = min(failures)
        raise DivergenceError(step=step, row=flat_row % v)
    logits = np.concatenate([shard for shard, _ in results]).reshape(b, v, v)
    if not np.isfinite(logits).all():
        row = int(np.argwhere(~np.isfinite(logits))[0][1])
        raise DivergenceError(step=steps - 1, row=row)
    return logits


def distill_student(
    teacher: TabularLM,
    k,
    steps: int,
    learning_rate: float,
) -> TabularLM:
    """Train a student on top-K renormalized teacher rows.

    Full-batch and zero-initialized, hence deterministic. Context rows are
    weighted by the teacher's context_weights.
    """
    k_eff = _resolve_k(teacher.vocab_size, k)
    targets = _teacher_targets(teacher, k_eff)[None]
    weights = teacher.context_weights
    logits = _train_batch(targets, weights, steps, learning_rate)
    return TabularLM(logits=logits[0], context_weights=weights)


def converged_student(teacher: TabularLM, k, epsilon_q: float) -> TabularLM:
    """Closed form of the student that training would converge to.

    Top-K renormalized teacher rows, with the exact zeros replaced by
    epsilon_q in (0, 1e-6] (the lab's default is LabConfig's) and the row
    renormalized. epsilon_q keeps the mean CE finite yet large, standing in
    for the residue a finite training run leaves outside the top-K set.
    """
    if not 0.0 < epsilon_q <= 1e-6:
        raise ValidationError(f"epsilon_q must be in (0, 1e-6], got {epsilon_q!r}")
    k_eff = _resolve_k(teacher.vocab_size, k)
    rows = _teacher_targets(teacher, k_eff)
    floored = np.where(rows == 0.0, epsilon_q, rows)
    floored /= floored.sum(axis=1, keepdims=True)
    return TabularLM(logits=np.log(floored), context_weights=teacher.context_weights)


def per_token_ce(model: TabularLM, stream: np.ndarray) -> np.ndarray:
    """-log q(x_t | x_{t-1}) for every transition in the stream (float64).

    The first token has no context, so a stream of T tokens yields T - 1
    losses; the stream must pass _token_ids. Zero-probability transitions
    yield +inf.
    """
    arr = _token_ids(stream, model.vocab_size)
    lp = model.log_probs()
    return -lp[arr[:-1], arr[1:]]


def next_token_accuracy(model: TabularLM, stream: np.ndarray) -> float:
    """Fraction of transitions where the model's argmax is the actual token.

    Every top-K truncation of a teacher keeps the teacher's argmax, so
    all students of one teacher share this number; it is the lab's stand-in
    for a summary that is blind to the dose-response effect. The stream
    must pass _token_ids, as per_token_ce's must.
    """
    arr = _token_ids(stream, model.vocab_size)
    pred = np.argmax(model.logits, axis=1)
    return float((pred[arr[:-1]] == arr[1:]).mean())


def chain_fidelity(model: TabularLM, rows: np.ndarray) -> float:
    """Agreement with ground-truth rows: 1 - weighted mean total variation.

    Rows are weighted by the model's context_weights, so the score reflects
    how faithfully the model reproduces the chain where it matters. 1 is a
    perfect match; truncation lowers it. This is the lab's analogue of an
    external quality judge, possible only because the generating chain is
    known.
    """
    truth = np.asarray(rows, dtype=np.float64)
    if truth.shape != model.logits.shape:
        raise ValidationError(
            f"truth shape {truth.shape} does not match vocab {model.vocab_size}"
        )
    for row in truth:
        check_distribution(row)
    tv = 0.5 * np.abs(model.probs() - truth).sum(axis=1)
    return float(1.0 - (model.context_weights * tv).sum())


@dataclass(frozen=True)
class LabConfig:
    """Defaults for the dose-response experiment.

    steps and learning_rate are calibrated jointly: gradient descent drains
    out-of-top-K probability toward zero, so too few steps leave trained
    rows leakier than the oracle floor epsilon_q and too many push them
    below it. The budget below lands every default K within a few percent
    of its oracle on mean and median held-out CE for the default seed.
    Every K-list rule is checked when the config is built.
    """

    vocab: int = 64
    zipf_exponent: float = 1.1
    length: int = 200_000
    alpha: float = 0.1
    ks: tuple = (2, 4, 8, 16, "full")
    steps: int = 85_000
    learning_rate: float = 16.0
    concentration: float = DEFAULT_CONCENTRATION
    eval_length: int = 100_000
    epsilon_q: float = 1e-6
    seed: int = 7

    def __post_init__(self):
        for name, floor in (("vocab", 8), ("length", 10_000), ("eval_length", 10_000),
                            ("steps", 1), ("seed", 0)):
            _check_size(name, getattr(self, name), floor)
        if not self.ks:
            raise ValidationError("ks must not be empty")
        # K = vocab is "full"; an integral K is stored as an int, so 2.0 prints as 2.
        seen = set()
        for k in self.ks:
            k_eff = _resolve_k(self.vocab, k)
            if k_eff in seen:
                raise ValidationError(f"duplicate K {k!r}")
            seen.add(k_eff)
        object.__setattr__(self, "ks", tuple(k if isinstance(k, str) else int(k) for k in self.ks))
        # The teacher's own row anchors the trained-vs-oracle table.
        if self.vocab not in seen:
            raise ValidationError('ks must include "full"')


@dataclass(frozen=True)
class LabCheckpoint:
    """One lab model as a checkpoint, with the summary of its float32
    held-out CE and its metrics; K is None for the teacher.

    Families: "teacher", "trained" (at the config's steps) and "oracle"
    (step 0). A student family shares one step, so `correlate --crossing`
    refuses it. Metrics: accuracy (equal across the students of one teacher,
    by construction) and fidelity to the generating chain (varies with K),
    the lab's external-judge analogue.
    """

    k: int | str | None
    id: str
    family: str
    step: int
    objective: str
    model: TabularLM = field(repr=False)
    summary: SummarySet
    metrics: Mapping[str, float]


@dataclass(frozen=True)
class DoseResult:
    config: LabConfig
    checkpoints: tuple[LabCheckpoint, ...]
    eval_stream: np.ndarray = field(repr=False)


def _held_out_ce(cid: str, model: TabularLM, stream: np.ndarray) -> LossVector:
    return LossVector(cid, per_token_ce(model, stream).astype(np.float32))


def dose_response(config: LabConfig = LabConfig()) -> DoseResult:
    """Train and oracle-solve a student per K; summarize held-out CE.

    Students for every K train in one batched loop (bitwise identical to
    separate runs). Records come in manifest order: the teacher, then per K
    its trained student and its oracle; one K ("full" or the vocab) is the
    teacher's row, as LabConfig requires.
    """
    # The training stream, the run's largest array, lives only as long as
    # fitting the teacher takes.
    train = synth_corpus(
        config.seed, config.vocab, config.zipf_exponent, config.length,
        config.concentration, split=0,
    )
    teacher = fit_teacher(train, config.alpha, vocab=config.vocab)
    del train
    held_out = synth_corpus(
        config.seed, config.vocab, config.zipf_exponent, config.eval_length,
        config.concentration, split=1,
    )

    k_effs = [_resolve_k(teacher.vocab_size, k) for k in config.ks]
    # Oracles first: they own the epsilon_q rule, refused before any training.
    oracles = [converged_student(teacher, k_eff, config.epsilon_q) for k_eff in k_effs]
    targets = np.stack([_teacher_targets(teacher, k_eff) for k_eff in k_effs])
    weights = teacher.context_weights
    logits = _train_batch(targets, weights, config.steps, config.learning_rate)

    models = [(None, "teacher", "teacher", 0, "token-ce", teacher)]
    for k, oracle, student in zip(config.ks, oracles, logits):
        models.append((k, f"student-k{k}-trained", "trained", config.steps,
                       f"topk-kl:{k}", TabularLM(student, weights)))
        models.append((k, f"student-k{k}-oracle", "oracle", 0, f"topk-kl:{k}", oracle))
    _, truth = true_chain(config.seed, config.vocab, config.zipf_exponent, config.concentration)
    checkpoints = tuple(
        LabCheckpoint(
            k, cid, family, step, objective, model,
            summarize_exact(_held_out_ce(cid, model, held_out)),
            {"accuracy": next_token_accuracy(model, held_out),
             "fidelity": chain_fidelity(model, truth)},
        )
        for k, cid, family, step, objective, model in models
    )
    return DoseResult(config, checkpoints, held_out)


def lab_checkpoints(result: DoseResult):
    """Each record with the float32 held-out CE its summary was made from,
    in manifest order. Each CE vector is computed when its item is pulled,
    so one is alive at a time."""
    for checkpoint in result.checkpoints:
        yield checkpoint, _held_out_ce(checkpoint.id, checkpoint.model, result.eval_stream)
