"""Independent reference implementations the tests compare against.

Everything here deliberately uses different machinery than the package
(pure-Python sorting and loops, bisect, mpmath bignums, finite
differences, float64 sorts and histograms where the package works in
float32), so a bug shared with the implementation under test cannot hide
on both sides of an assertion. The distillation references are the
package's earlier, slower code (np.searchsorted per token, one process
checking every GD step), which the faster code must match bit for bit; so
are the sketch references (one full sort per percentile, a Python sum
per chunk), the profile-distance reference (np.linalg.norm per pair) and
the CSV-cell reference (every cell scanned for quote characters, every
float formatted on its own) and the text-dump references (the file read
as text, float() per line). The distillation objective is a per-row loop
over the public helpers.
"""

import math
from bisect import bisect_left, bisect_right

import mpmath
import numpy as np

from lossdiag.distill import DEFAULT_CONCENTRATION, kl, topk_renormalize, true_chain
from lossdiag.errors import DivergenceError, StoreFormatError, ValidationError
from lossdiag.store import _checked_losses


def percentile_of_sorted_list(data, k):
    """Linear-interpolation percentile of an ascending Python list.

    Same definition the package pins (index h = (n-1)*k/100, interpolate
    between the bracketing order statistics) but evaluated with Python
    floats.
    """
    n = len(data)
    h = (n - 1) * k / 100
    lo = math.floor(h)
    g = h - lo
    a = data[lo]
    b = data[math.ceil(h)]
    if g == 0 or a == b or math.isinf(a):
        return a
    return a + g * (b - a)


def percentile_by_sort(values, k):
    """percentile_of_sorted_list on a fresh full sort of ``values``."""
    return percentile_of_sorted_list(sorted(float(v) for v in values), k)


def summary_by_float64_sort(values, ks):
    """(mean, {k: percentile}) computed from a float64 copy sorted as float64.

    The mean is numpy's float64 sum over that sorted copy divided by n (the
    reduction summarize_exact must match bit for bit); the percentiles come
    from percentile_of_sorted_list.
    """
    arr = np.sort(np.asarray(values, dtype=np.float64))
    data = arr.tolist()
    return float(arr.mean()), {k: percentile_of_sorted_list(data, k) for k in ks}


def band_counts_by_histogram(values, bounds):
    """Per-band counts from np.histogram over a float64 copy of ``values``."""
    edges = np.array((0.0, *bounds, math.inf))
    counts, _ = np.histogram(np.asarray(values, dtype=np.float64), bins=edges)
    return counts.tolist()


def rank_of(sorted_values, value):
    """(count strictly below, count at or below) of value."""
    return bisect_left(sorted_values, value), bisect_right(sorted_values, value)


def concordance_by_pairs(columns):
    """(total, concordant, tied) by explicit pair enumeration.

    columns: one equal-length list of floats per summary. A pair is
    concordant when every column gives it the same comparison sign; it is
    tied when any column gives sign zero.
    """
    m = len(columns[0])
    total = concordant = tied = 0
    for i in range(m):
        for j in range(i + 1, m):
            signs = []
            for col in columns:
                a, b = float(col[i]), float(col[j])
                signs.append((a > b) - (a < b))
            total += 1
            if all(s == signs[0] for s in signs):
                concordant += 1
            if any(s == 0 for s in signs):
                tied += 1
    return total, concordant, tied


def select_by_pairs(values, direction):
    """Index a selection rule picks from values listed in ascending id order.

    The first index that no value beats: every pair is compared, and
    "beats" is strictly less for "min", strictly greater for "max", so equal
    values (equal infinities among them) leave the smaller id the winner.
    """
    beats = (lambda a, b: a < b) if direction == "min" else (lambda a, b: a > b)
    for i, value in enumerate(values):
        if not any(beats(other, value) for other in values):
            return i
    raise AssertionError("no value is unbeaten")


def crossing_by_min_step(series, reference):
    """The smallest step whose value is strictly below reference, or None.

    Takes the minimum over the crossing steps instead of scanning in step
    order; a step given twice is a ValidationError.
    """
    steps = [step for step, _ in series]
    if len(set(steps)) != len(steps):
        raise ValidationError("duplicate step")
    below = [step for step, value in series if value < reference]
    return min(below) if below else None


def central_difference(f, x, h=1e-5):
    """Central finite-difference gradient of a scalar function of a vector."""
    x = [float(v) for v in x]
    grad = []
    for i in range(len(x)):
        up = list(x)
        dn = list(x)
        up[i] += h
        dn[i] -= h
        grad.append((f(up) - f(dn)) / (2 * h))
    return grad


def kl_mp(p, q, dps=50):
    """KL(p || q) in nats summed at dps decimal digits of precision."""
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for pi, qi in zip(p, q):
            if pi == 0:
                continue
            if qi == 0:
                return math.inf
            mp_p = mpmath.mpf(float(pi))
            mp_q = mpmath.mpf(float(qi))
            total += mp_p * (mpmath.log(mp_p) - mpmath.log(mp_q))
        return float(total)


def topk_by_sort(p, k):
    """Top-K renormalization via an index sort with explicit tie-break."""
    order = sorted(range(len(p)), key=lambda i: (-p[i], i))
    keep = order[:k]
    kept_mass = math.fsum(p[i] for i in keep)
    out = [0.0] * len(p)
    for i in keep:
        out[i] = p[i] / kept_mass
    return out


def corpus_by_searchsorted(seed, vocab, zipf_exponent, length,
                           concentration=DEFAULT_CONCENTRATION, split=0):
    """The token stream of synth_corpus, one np.searchsorted per token.

    The package's original sampler, kept verbatim (less validation) as
    the reference for the bisect sampler.
    """
    base, rows = true_chain(seed, vocab, zipf_exponent, concentration)
    cum = np.cumsum(rows, axis=1)
    cum[:, -1] = 1.0
    start_cum = np.cumsum(base)
    start_cum[-1] = 1.0

    sampler = np.random.default_rng([int(seed), 0x51, int(split)])
    u = sampler.random(length)
    out = np.empty(length, dtype=np.int64)
    token = int(np.searchsorted(start_cum, u[0], side="right"))
    out[0] = min(token, vocab - 1)
    for i in range(1, length):
        token = int(np.searchsorted(cum[out[i - 1]], u[i], side="right"))
        out[i] = token if token < vocab else vocab - 1
    return out


def distill_loss(teacher, student, k):
    """The training objective, context-weighted KL(top-K teacher || student),
    one Python loop step per context row."""
    vocab = teacher.vocab_size
    weights = teacher.context_weights
    targets, rows = teacher.probs(), student.probs()
    total = 0.0
    for c in range(vocab):
        total += weights[c] * kl(topk_renormalize(targets[c], k), rows[c])
    return float(total)


def train_by_lockstep(targets, weights, steps, learning_rate):
    """Full-batch GD on all (B, V, V) rows at once, checked every step.

    The package's original single-process trainer, kept verbatim (less
    validation) as the reference for the sharded one that checks at the end.
    """
    b, v, _ = targets.shape
    logits = np.zeros((b, v, v), dtype=np.float64)
    step_w = (learning_rate * weights).reshape(1, v, 1)
    weighted_targets = step_w * targets
    q = np.empty_like(logits)
    acc = np.empty((b, v, 1), dtype=np.float64)
    scale = np.empty_like(acc)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            np.exp(logits, out=q)
            q.sum(axis=2, keepdims=True, out=acc)
            if not np.isfinite(acc).all():
                row = int(np.argwhere(~np.isfinite(acc))[0][1])
                raise DivergenceError(step=step, row=row)
            np.divide(step_w, acc, out=scale)
            q *= scale
            q -= weighted_targets
            logits -= q
    if not np.isfinite(logits).all():
        row = int(np.argwhere(~np.isfinite(logits))[0][1])
        raise DivergenceError(step=steps - 1, row=row)
    return logits


def tie_classes_by_rows(weighted_targets):
    """(slot, class_row, target) of distill._tie_classes, by a set per row.

    Each row's distinct target bit patterns, in ascending order, are its
    classes, numbered on from the previous row's; slot gives each entry's
    class. Python ints and dicts, where the package sorts whole blocks.
    """
    bits = weighted_targets.view(np.uint64).tolist()
    slot, class_row, target = [], [], []
    for row, patterns in enumerate(bits):
        distinct = sorted(set(patterns))
        ids = {pattern: len(target) + i for i, pattern in enumerate(distinct)}
        slot.append([ids[pattern] for pattern in patterns])
        class_row += [row] * len(distinct)
        target += distinct
    return (np.array(slot, dtype=np.intp).reshape(weighted_targets.shape),
            np.array(class_row, dtype=np.intp),
            np.array(target, dtype=np.uint64).view(np.float64))


def sketch_query_by_k(sketch, k):
    """QuantileSketch.query for one percentile, re-sorting the whole sketch.

    The package's original per-k query, kept verbatim (less validation) as
    the reference for the batched one.
    """
    parts = []
    weights = []
    for level, arrays in enumerate(sketch._levels):
        if not arrays:
            continue
        vals = np.concatenate(arrays)
        parts.append(vals)
        weights.append(np.full(vals.size, 1 << level, dtype=np.int64))
    vals = np.concatenate(parts)
    wts = np.concatenate(weights)
    order = np.argsort(vals, kind="stable")
    cum = np.cumsum(wts[order])
    target = k * sketch.count / 100.0
    idx = int(np.searchsorted(cum, max(target, 1.0), side="left"))
    idx = min(idx, vals.size - 1)
    return float(vals[order][idx])


def mean_by_chunk_sum(chunks):
    """Streamed mean as the package first computed it: a float64 sum per
    chunk, accumulated in a Python float, divided by the count."""
    total = 0.0
    count = 0
    for chunk in chunks:
        arr = np.asarray(chunk, dtype=np.float64)
        total += float(arr.sum())
        count += arr.size
    return total / count


def profile_distance_by_pair(a, b):
    """One profile distance as the package first computed it: np.linalg.norm
    of the two arrays' difference, with equal entries (equal infinities
    included) set to exactly 0 first, the package's convention for +inf
    tails."""
    x, y = a.as_array(), b.as_array()
    with np.errstate(invalid="ignore"):
        d = np.where(x == y, 0.0, x - y)
    return float(np.linalg.norm(d))


def cell_by_char_scan(value, precision):
    """One CSV cell by a character scan: every cell, numbers included, is
    scanned for the characters RFC 4180 quotes, a carriage return among them."""
    if isinstance(value, bool):
        raise ValidationError(f"cannot render {value!r}")
    if isinstance(value, str):
        text = value
    elif isinstance(value, (int,)):
        text = str(value)
    else:
        text = float_by_format(float(value), precision)
    if any(ch in text for ch in ',"\n\r'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def float_by_format(value, precision):
    """One float cell as the package first rendered it: one format() call."""
    if precision < 1:
        raise ValidationError("precision must be >= 1")
    if math.isnan(value):
        raise ValidationError("refusing to render NaN")
    if value == 0.0:  # normalize -0.0
        value = 0.0
    return format(value, f".{precision}g")


def _text_lines(path):
    """The lines of a text dump, opened as UTF-8 text; yields from the open file.

    A byte that is not UTF-8 is read as a lone surrogate, so the error names
    the first line that holds one.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii() and any("\udc80" <= c <= "\udcff" for c in line):
                raise StoreFormatError(f"{path}:{lineno}: not UTF-8 text")
            yield line


def text_chunks_by_lines(path, chunk):
    """A text dump's float32 chunks as the package first read them: float()
    of each stripped non-blank line, ``chunk`` values at a time, each chunk
    validated by the store's own checker. A dump with no value is an empty
    dump, as to text_count_by_lines."""
    chunks, buf, seen = [], [], 0
    for lineno, line in enumerate(_text_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            buf.append(float(line))
        except ValueError:
            raise StoreFormatError(f"{path}:{lineno}: not a decimal loss: {line!r}")
        if len(buf) >= chunk:
            chunks.append(_checked_losses(buf, str(path), seen))
            seen += len(buf)
            buf = []
    if buf:
        chunks.append(_checked_losses(buf, str(path), seen))
    if not chunks:
        raise StoreFormatError(f"{path}: empty text dump")
    return chunks


def text_count_by_lines(path):
    """Non-blank lines of a text dump, counted on the decoded text."""
    count = sum(1 for line in _text_lines(path) if line.strip())
    if count == 0:
        raise StoreFormatError(f"{path}: empty text dump")
    return count
