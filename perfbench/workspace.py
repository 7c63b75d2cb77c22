"""Seed-generated inputs for the benchmark workloads.

Every workspace is a directory holding loss dumps and a manifest, written
through lossdiag's own ``write_loss_dump``/``dump_manifest`` so that set-up
time covers the store's write path. The same (spec, seed) always yields the
same bytes; different seeds give different losses and metrics.

Loss values are lognormal mixtures. About ``TIE_SHARE`` of the values are
snapped to a 1/8-nat grid, so exact ties are common, and families marked
``inf_share`` carry +inf sentinels in every checkpoint (a truncated-support
student assigns zero probability to some tokens).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lossdiag import store

TIE_SHARE = 0.1
TIE_GRID = 8.0


@dataclass(frozen=True)
class Family:
    name: str
    inf_share: float = 0.0


@dataclass(frozen=True)
class WorkspaceSpec:
    """Shape of one generated workspace."""

    tag: int  # mixes into the RNG seed so distinct specs never share streams
    families: tuple[Family, ...]
    steps: int  # checkpoints per family
    values: int  # losses per checkpoint
    text_every: int = 0  # every Nth dump uses the text fallback (0: none)
    metrics: tuple[str, ...] = ()

    @property
    def checkpoints(self) -> int:
        return len(self.families) * self.steps


def _checkpoint_params(rng: np.random.Generator, step_frac: float):
    """Mixture parameters of one checkpoint; later steps shift mass down."""
    mu = np.array([0.2, 1.4], dtype=np.float32) - np.float32(0.3 * step_frac)
    mu += rng.normal(0.0, 0.05, 2).astype(np.float32)
    sigma = np.array([0.9, 0.6], dtype=np.float32) * np.float32(rng.uniform(0.9, 1.1))
    weight = 0.8 - 0.1 * step_frac + rng.uniform(-0.03, 0.03)
    return mu, sigma, weight


class Tokens:
    """Per-token draws shared by every checkpoint of a workspace.

    All checkpoints are evaluated on one token stream, so a token that is
    hard for one checkpoint is hard for the others: each checkpoint maps
    the same standard normal ``z`` through its own mixture. One 32-bit draw
    per token decides the rest: the high bits pick the mixture component,
    the low 12 bits the tie snap and the next 12 bits the +inf sentinel.
    """

    def __init__(self, seed: int, spec: WorkspaceSpec):
        rng = np.random.default_rng([seed, spec.tag])
        self.z = rng.standard_normal(spec.values, dtype=np.float32)
        bits = rng.integers(0, 1 << 32, spec.values, dtype=np.uint32)
        self.component = bits
        self.tie = np.flatnonzero((bits & 0xFFF) < int(TIE_SHARE * 4096))
        self.sentinel_draw = (bits >> 12) & 0xFFF


def losses(tokens: Tokens, seed: int, spec: WorkspaceSpec, index: int, inf_share: float) -> np.ndarray:
    """Float32 losses of checkpoint ``index``; deterministic per seed."""
    rng = np.random.default_rng([seed, spec.tag, index])
    step_frac = (index % spec.steps) / max(1, spec.steps - 1)
    mu, sigma, weight = _checkpoint_params(rng, step_frac)
    second = tokens.component >= np.uint32(weight * (1 << 32))
    x = tokens.z * np.where(second, sigma[1], sigma[0])
    x += np.where(second, mu[1], mu[0])
    np.exp(x, out=x)
    x[tokens.tie] = np.round(x[tokens.tie] * np.float32(TIE_GRID)) / np.float32(TIE_GRID)
    if inf_share:
        x[tokens.sentinel_draw < max(1, int(inf_share * 4096))] = np.inf
    return x


def checkpoint_id(spec: WorkspaceSpec, index: int) -> str:
    family = spec.families[index // spec.steps].name
    return f"{family}-s{index % spec.steps + 1:02d}"


def _metrics(rng: np.random.Generator, names, x: np.ndarray) -> dict[str, float]:
    finite = x[np.isfinite(x)]
    base = float(finite.mean())
    return {
        name: round(10.0 - base * (1.0 + 0.3 * i) + float(rng.normal(0.0, 0.2)), 6)
        for i, name in enumerate(names)
    }


def _write_text_dump(x: np.ndarray, path: Path) -> None:
    # repr of the float64 image of a float32 parses back to the same float32.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(map(repr, x.astype(np.float64).tolist())))
        fh.write("\n")


def generate(spec: WorkspaceSpec, seed: int, root: Path) -> Path:
    """Write the workspace under ``root``, which must not exist; return the manifest path."""
    dump_dir = root / "dumps"
    dump_dir.mkdir(parents=True)
    metric_rng = np.random.default_rng([seed, spec.tag, 1 << 20])
    tokens = Tokens(seed, spec)
    checkpoints = []
    for index in range(spec.checkpoints):
        family = spec.families[index // spec.steps]
        cid = checkpoint_id(spec, index)
        x = losses(tokens, seed, spec, index, family.inf_share)
        text = spec.text_every and index % spec.text_every == spec.text_every - 1
        path = dump_dir / (f"{cid}.txt" if text else f"{cid}.bin")
        if text:
            _write_text_dump(x, path)
        else:
            store.write_loss_dump(store.LossVector(cid, x), path)
        checkpoints.append(
            store.CheckpointMeta(
                checkpoint_id=cid,
                family=family.name,
                step=1000 * (index % spec.steps + 1),
                objective="token-ce" if not family.inf_share else "topk-kl",
                loss_path=path.resolve(),
                metrics=_metrics(metric_rng, spec.metrics, x),
            )
        )
    manifest = root / "manifest.yaml"
    store.dump_manifest(store.Manifest(version=1, checkpoints=tuple(checkpoints)), manifest)
    return manifest


def read_values(path: Path) -> np.ndarray:
    """Float32 losses of one dump, read with plain numpy (no lossdiag code)."""
    if path.suffix == ".txt":
        return np.loadtxt(path, dtype=np.float64).astype(np.float32)
    return np.fromfile(path, dtype="<f4", offset=16)
