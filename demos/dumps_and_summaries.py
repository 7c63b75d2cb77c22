"""Round-trip a loss dump and summarize it.

Per-token cross-entropy losses are the raw material for everything else in
lossdiag. This script writes a dump in the binary format, streams it back,
and prints the summary statistics that the rest of the toolkit consumes.
"""

import tempfile
from pathlib import Path

import numpy as np

from lossdiag import (
    LossVector,
    iter_loss_chunks,
    peek_dump_count,
    read_loss_dump,
    render,
    summarize_exact,
    write_loss_dump,
)

rng = np.random.default_rng(11)

# A realistic-looking loss stream: mostly easy tokens, a heavy right tail,
# and one +inf sentinel for a token the model assigned zero probability.
losses = rng.lognormal(-1.0, 1.2, 200_000).astype(np.float32)
losses[123_456] = np.inf
vector = LossVector("demo-ckpt", losses)

# The dump lives only as long as the directory; everything after works on `back`.
with tempfile.TemporaryDirectory(prefix="lossdiag-demo-") as workdir:
    path = Path(workdir) / "demo-ckpt.bin"
    write_loss_dump(vector, path)
    print(f"wrote {path} ({path.stat().st_size} bytes for {len(losses)} values)")

    # The count lives in the header, so checking a dump costs two small reads.
    print("header says:", peek_dump_count(path), "values")

    # Full read is bit-exact; chunked iteration never holds the whole payload.
    back = read_loss_dump(path)
    assert back.losses.tobytes() == vector.losses.tobytes()
    total = sum(part.size for part in iter_loss_chunks(path))
    print("chunked read saw:", total, "values")

# The mean is dragged by the tail (and here pinned to +inf by the sentinel),
# while the median and p95 describe where tokens actually sit.
summary = summarize_exact(back)
print()
print(render.summary_table([summary]))

# Splitting tokens into two groups shows where the mean lives: the tail
# group (which also carries the sentinel) owns it, the rest looks calm.
hard = back.losses >= 2.0
mean_hard = back.losses[hard].astype(np.float64).mean()
mean_rest = back.losses[~hard].astype(np.float64).mean()
print(f"{hard.sum() / hard.size:.1%} of tokens have loss >= 2 nats")
print(f"mean over those: {mean_hard:.3f}, over the rest: {mean_rest:.3f}")
