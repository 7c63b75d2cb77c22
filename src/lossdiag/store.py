"""On-disk formats: per-token loss dumps, checkpoint manifests, metric files.

Binary dump layout (all little-endian):

    bytes 0..8    magic b"CELOSSv1"
    bytes 8..16   uint64 value count (>= 1)
    bytes 16..    count IEEE-754 float32 loss values

Loss values are nats, finite and >= 0; +inf is an allowed sentinel (a
truncated-support student assigns zero mass to some tokens). NaN and
negative values are rejected on construction, as are values too large for
float32, so writes and reads share one validation choke point.

A text fallback is accepted on read: one decimal loss per line, no header.
Files that begin with b"CELOSSv" followed by any other version byte are
rejected as bad magic rather than parsed as text.

Readers are safe to use from multiple threads on distinct files; the
returned containers are immutable (the numpy buffers are marked read-only).
"""

from __future__ import annotations

import csv
import io
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, TextIO

import numpy as np
import yaml

from .errors import (
    BadMagicError,
    CountMismatchError,
    ManifestError,
    StoreFormatError,
    TruncatedDumpError,
    ValidationError,
)

MAGIC = b"CELOSSv1"
MAGIC_PREFIX = b"CELOSSv"
HEADER_BYTES = 16
VALUE_BYTES = 4

# Streaming readers buffer this many values at a time; memory use is
# independent of the dump size.
DEFAULT_CHUNK = 1 << 20

# libyaml's parser when PyYAML was built with it: the same documents as
# SafeLoader (scalars resolve in the same Python code), several times
# faster. Writes keep PyYAML's own emitter: libyaml's wraps long quoted
# scalars and lays out empty or long mapping keys differently, so the
# manifest bytes would change.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _checked_losses(values, origin: str, offset: int = 0) -> np.ndarray:
    """``values`` as a contiguous float32 array of valid losses.

    Raises ValidationError naming the first NaN, negative or float32-overflowing
    value by its index; ``offset`` is the index of values[0].
    """
    given = np.asarray(values)
    with np.errstate(over="ignore"):
        arr = np.ascontiguousarray(given, dtype=np.float32)
    if arr.size == 0:
        raise ValidationError(f"{origin}: loss vector must hold at least one value")
    if not (arr >= 0).all():  # one pass: NaN fails this comparison too
        if np.isnan(arr).any():
            bad = offset + int(np.flatnonzero(np.isnan(arr))[0])
            raise ValidationError(f"{origin}: NaN loss at index {bad}")
        bad = offset + int(np.flatnonzero(arr < 0)[0])
        raise ValidationError(f"{origin}: negative loss at index {bad}")
    if given.dtype != np.float32 and np.isposinf(arr).any():
        # The cast turns values above the float32 maximum into +inf.
        over = np.flatnonzero(np.isposinf(arr) & ~np.isposinf(given))
        if over.size:
            bad = int(over[0])
            raise ValidationError(
                f"{origin}: loss {float(given.flat[bad])!r} at index {offset + bad} "
                "overflows float32"
            )
    return arr


@dataclass(frozen=True)
class LossVector:
    """Per-token CE losses of one checkpoint on one evaluation stream."""

    checkpoint_id: str
    losses: np.ndarray

    def __post_init__(self):
        arr = _checked_losses(self.losses, self.checkpoint_id or "loss vector")
        arr.flags.writeable = False
        object.__setattr__(self, "losses", arr)

    @property
    def count(self) -> int:
        return int(self.losses.size)


def write_loss_dump(vector: LossVector, path: str | Path) -> None:
    """Serialize ``vector`` to the binary dump format at ``path``."""
    path = Path(path)
    arr = vector.losses.astype("<f4", copy=False)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", arr.size))
        fh.write(arr.tobytes())


def _read_header(fh, path: Path) -> int:
    head = fh.read(HEADER_BYTES)
    if len(head) < HEADER_BYTES or head[:8] != MAGIC:
        raise BadMagicError(f"{path}: bad or truncated magic {head[:8]!r}")
    (count,) = struct.unpack("<Q", head[8:])
    if count == 0:
        raise StoreFormatError(f"{path}: header declares zero values")
    return count


def _looks_binary(path: Path) -> bool:
    with open(path, "rb") as fh:
        head = fh.read(len(MAGIC_PREFIX))
    return head[: len(MAGIC_PREFIX)] == MAGIC_PREFIX


def _iter_binary(path: Path, chunk: int) -> Iterator[np.ndarray]:
    """Payload blocks of ``chunk`` values."""
    with open(path, "rb") as fh:
        count = _read_header(fh, path)
        seen = 0
        while seen < count:
            want = min(chunk, count - seen)
            block = np.fromfile(fh, dtype="<f4", count=want)
            if block.size < want:
                raise TruncatedDumpError(
                    f"{path}: payload ends after {seen + block.size} of {count} values"
                )
            block = _checked_losses(block, str(path), seen)
            seen += block.size
            yield block
        if fh.read(1):
            raise CountMismatchError(
                f"{path}: payload continues past the declared count {count}"
            )


@contextmanager
def _open_text(path: Path) -> Iterator[TextIO]:
    """``path`` opened as UTF-8 text; undecodable bytes are a format error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise StoreFormatError(f"{path}: not UTF-8 text: {exc}") from exc


def _iter_text(path: Path, chunk: int) -> Iterator[np.ndarray]:
    with _open_text(path) as fh:
        buf: list[float] = []
        seen = 0
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                buf.append(float(line))
            except ValueError:
                raise StoreFormatError(f"{path}:{lineno}: not a decimal loss: {line!r}")
            if len(buf) >= chunk:
                yield _checked_losses(buf, str(path), seen)
                seen += len(buf)
                buf = []
        if buf:
            yield _checked_losses(buf, str(path), seen)


def iter_loss_chunks(path: str | Path, chunk: int = DEFAULT_CHUNK) -> Iterator[np.ndarray]:
    """Stream a dump as float32 chunks of at most ``chunk`` values.

    Works for both the binary format and the text fallback. This is the
    fixed-buffer path: peak memory does not depend on the dump size.
    """
    path = Path(path)
    if chunk < 1:
        raise ValidationError("chunk size must be >= 1")
    if _looks_binary(path):
        return _iter_binary(path, chunk)
    return _iter_text(path, chunk)


def read_loss_dump(path: str | Path, checkpoint_id: str | None = None) -> LossVector:
    """Read a whole dump into memory; inverse of write_loss_dump.

    The dump's chunks are joined, so reading holds it twice for a moment.
    """
    path = Path(path)
    chunks = list(iter_loss_chunks(path))
    if not chunks:  # a binary header declares at least one value
        raise StoreFormatError(f"{path}: empty text dump")
    if checkpoint_id is None:
        checkpoint_id = path.stem
    return LossVector(checkpoint_id=checkpoint_id, losses=np.concatenate(chunks))


def peek_dump_count(path: str | Path) -> int:
    """Value count of a dump without reading the payload (binary: header only)."""
    path = Path(path)
    if _looks_binary(path):
        with open(path, "rb") as fh:
            count = _read_header(fh, path)
        payload = path.stat().st_size - HEADER_BYTES
        if payload < count * VALUE_BYTES:
            raise TruncatedDumpError(
                f"{path}: payload holds {payload // VALUE_BYTES} of {count} values"
            )
        if payload > count * VALUE_BYTES:
            raise CountMismatchError(
                f"{path}: payload continues past the declared count {count}"
            )
        return count
    count = 0
    with _open_text(path) as fh:
        for line in fh:
            if line.strip():
                count += 1
    if count == 0:
        raise StoreFormatError(f"{path}: empty text dump")
    return count


@dataclass(frozen=True)
class CheckpointMeta:
    """One manifest entry: a checkpoint and where its losses live."""

    checkpoint_id: str
    family: str
    step: int
    objective: str
    loss_path: Path
    metrics: Mapping[str, float] = field(default_factory=dict)
    count: int | None = None


@dataclass(frozen=True)
class Manifest:
    version: int
    checkpoints: tuple[CheckpointMeta, ...]

    def ids(self) -> list[str]:
        return [c.checkpoint_id for c in self.checkpoints]

    def families(self) -> list[str]:
        seen: list[str] = []
        for c in self.checkpoints:
            if c.family not in seen:
                seen.append(c.family)
        return seen

    def get(self, checkpoint_id: str) -> CheckpointMeta:
        for c in self.checkpoints:
            if c.checkpoint_id == checkpoint_id:
                return c
        raise ManifestError(f"unknown checkpoint id {checkpoint_id!r}")

    def select(self, families: Iterable[str] | None = None) -> tuple[CheckpointMeta, ...]:
        """Checkpoints whose family tag is in ``families`` (None = all).

        Family groups that conceptually overlap (e.g. a teacher run shared by
        a distilled and a from-scratch analysis) are expressed by selecting
        multiple tags, since each checkpoint carries exactly one tag.
        """
        if families is None:
            return self.checkpoints
        wanted = set(families)
        unknown = wanted - set(self.families())
        if unknown:
            raise ManifestError(f"unknown family tag(s): {sorted(unknown)}")
        return tuple(c for c in self.checkpoints if c.family in wanted)


def _require(entry: dict, key: str, kind, where: str):
    if key not in entry:
        raise ManifestError(f"{where}: missing key {key!r}")
    value = entry[key]
    if kind is int and isinstance(value, bool):
        raise ManifestError(f"{where}: key {key!r} must be an integer")
    if not isinstance(value, kind):
        raise ManifestError(f"{where}: key {key!r} has type {type(value).__name__}")
    return value


def load_manifest(path: str | Path, check_dumps: bool = True) -> Manifest:
    """Parse and validate a checkpoint manifest (YAML; JSON is a subset).

    Layout::

        version: 1
        checkpoints:
          - id: run1-step50000
            family: distilled
            step: 50000
            objective: topk-kl
            loss: dumps/run1-step50000.bin
            metrics:          # optional
              judge: 2.01

    Loss paths are resolved relative to the manifest's directory. With
    ``check_dumps`` each dump is checked by ``peek_dump_count``: a binary
    header against its payload size, a text dump by counting all its lines.
    The count it returns is kept as ``CheckpointMeta.count``, so a reader of
    the manifest need not count again; without ``check_dumps`` it is None.
    It is measured, not declared, so ``dump_manifest`` does not write it.
    NaN metric values are rejected.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=_YAML_LOADER)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ManifestError(f"{path}: not parseable: {exc}") from exc
    if not isinstance(doc, dict):
        raise ManifestError(f"{path}: top level must be a mapping")
    version = _require(doc, "version", int, str(path))
    entries = _require(doc, "checkpoints", list, str(path))
    if not entries:
        raise ManifestError(f"{path}: checkpoints list is empty")

    base = path.parent
    seen: set[str] = set()
    checkpoints: list[CheckpointMeta] = []
    for i, entry in enumerate(entries):
        where = f"{path}: checkpoints[{i}]"
        if not isinstance(entry, dict):
            raise ManifestError(f"{where}: must be a mapping")
        cid = _require(entry, "id", str, where)
        if cid in seen:
            raise ManifestError(f"{where}: duplicate checkpoint id {cid!r}")
        seen.add(cid)
        family = _require(entry, "family", str, where)
        step = _require(entry, "step", int, where)
        if step < 0:
            raise ManifestError(f"{where}: step must be >= 0")
        objective = _require(entry, "objective", str, where)
        loss_rel = _require(entry, "loss", str, where)
        loss_path = (base / loss_rel).resolve()
        metrics_raw = entry.get("metrics") or {}
        if not isinstance(metrics_raw, dict):
            raise ManifestError(f"{where}: metrics must be a mapping")
        metrics: dict[str, float] = {}
        for name, value in metrics_raw.items():
            if not isinstance(name, str) or isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ManifestError(f"{where}: metric {name!r} must map a string to a number")
            metrics[name] = float(value)
            if np.isnan(metrics[name]):
                raise ManifestError(
                    f"{where}: metric {name!r} of checkpoint {cid!r} is NaN"
                )
        count = None
        if check_dumps:
            if not loss_path.exists():
                raise ManifestError(f"{where}: loss dump not found: {loss_path}")
            try:
                count = peek_dump_count(loss_path)
            except StoreFormatError as exc:
                raise ManifestError(f"{where}: bad loss dump: {exc}") from exc
        checkpoints.append(
            CheckpointMeta(
                checkpoint_id=cid,
                family=family,
                step=step,
                objective=objective,
                loss_path=loss_path,
                metrics=metrics,
                count=count,
            )
        )
    return Manifest(version=version, checkpoints=tuple(checkpoints))


def dump_manifest(manifest: Manifest, path: str | Path) -> None:
    """Write a manifest back out as YAML, loss paths relative to ``path``."""
    path = Path(path)
    entries = []
    for c in manifest.checkpoints:
        try:
            rel = c.loss_path.relative_to(path.parent.resolve())
        except ValueError:
            rel = c.loss_path
        entry: dict = {
            "id": c.checkpoint_id,
            "family": c.family,
            "step": c.step,
            "objective": c.objective,
            "loss": str(rel),
        }
        if c.metrics:
            entry["metrics"] = {k: float(v) for k, v in c.metrics.items()}
        entries.append(entry)
    doc = {"version": manifest.version, "checkpoints": entries}
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


def read_metric_file(path: str | Path) -> dict[str, float]:
    """Parse a two-column ``checkpoint_id,value`` file into a mapping.

    A first row whose second column is not numeric is treated as a header.
    NaN values are rejected.
    """
    path = Path(path)
    out: dict[str, float] = {}
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from exc
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if not rows:
        raise ValidationError(f"{path}: empty metric file")
    for lineno, row in enumerate(rows, start=1):
        if len(row) != 2:
            raise ValidationError(f"{path}:{lineno}: expected two columns, got {len(row)}")
        cid, raw = row[0].strip(), row[1].strip()
        try:
            value = float(raw)
        except ValueError:
            if lineno == 1:
                continue
            raise ValidationError(f"{path}:{lineno}: not a number: {raw!r}")
        if np.isnan(value):
            raise ValidationError(f"{path}:{lineno}: metric of {cid!r} is NaN")
        if cid in out:
            raise ValidationError(f"{path}:{lineno}: duplicate checkpoint id {cid!r}")
        out[cid] = value
    if not out:
        raise ValidationError(f"{path}: no metric rows")
    return out


def write_metric_file(values: Mapping[str, float], path: str | Path) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for cid in values:
        writer.writerow([cid, repr(float(values[cid]))])
    Path(path).write_text(buf.getvalue(), encoding="utf-8")
