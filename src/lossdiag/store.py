"""On-disk formats: per-token loss dumps and checkpoint manifests.

A checkpoint's metrics (judge scores, accuracies) live in its manifest entry;
there is no other metric source.

Binary dump layout (all little-endian):

    bytes 0..8    magic b"CELOSSv1"
    bytes 8..16   uint64 value count (>= 1)
    bytes 16..    count IEEE-754 float32 loss values

Loss values are nats, finite and >= 0; +inf is an allowed sentinel (a
truncated-support student assigns zero mass to some tokens). NaN and
negative values are rejected on construction, as are values too large for
float32, so writes and reads share one validation choke point.

A text fallback is accepted on read: one decimal loss per line, no header;
each non-blank line, stripped, must be something float() reads. Files that
begin with b"CELOSSv" followed by any other version byte are rejected as
bad magic rather than parsed as text.

The writer hands the file the payload array's own buffer. Each reader
opens a dump once, tells binary from text by its first bytes and checks a
binary header against the file size there, by one rule. A text dump is
read forward once, in blocks of whole lines. A block of plain
tokens (only the bytes of decimal numbers, "inf" and "nan"; no blank line)
is counted by its newlines and parsed by one numpy call that reads each
line with float(). Any other block goes through a loop over its lines,
split where a text open splits them. Either way the counts, values and
errors are those of float() on each stripped non-blank line of the file
opened as UTF-8 text, and an error names its line.

A stream checks DEFAULT_CHUNK values at a time, and a whole read joins the
checked chunks. Readers are thread-safe on distinct files; the returned
containers are immutable (the numpy buffers are marked read-only).
"""

from __future__ import annotations

import numbers
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping

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

# Text dumps are read in blocks of whole lines of about this many bytes.
_TEXT_BLOCK = 1 << 16

# The bytes of a decimal loss as float() reads it with nothing to strip:
# digits, '.', exponent and sign characters and the letters of "inf",
# "infinity" and "nan". A block of such lines, none empty, holds one token
# per line; any other byte (whitespace, CR, '#', '_', non-ASCII) or an
# empty line sends the block through the per-line loop.
_NUMERIC = b"0123456789.eE+-infinityan\n"

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
    """Serialize ``vector`` to the binary dump format at ``path``.

    The payload is written from the array's own buffer, with no bytes copy
    of it (on a little-endian host; a big-endian one writes a swapped copy).
    """
    path = Path(path)
    arr = vector.losses.astype("<f4", copy=False)
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<Q", arr.size))
        fh.write(memoryview(arr).cast("B"))


def _binary_count(fh, path: Path) -> int | None:
    """The header's count of the binary dump ``fh``, checked against its size.

    At least 1, or None for a text dump (``fh`` rewound; else past the header).
    """
    head = fh.read(HEADER_BYTES)
    if not head.startswith(MAGIC_PREFIX):
        fh.seek(0)
        return None
    if len(head) < HEADER_BYTES or head[:8] != MAGIC:
        raise BadMagicError(f"{path}: bad or truncated magic {head[:8]!r}")
    (count,) = struct.unpack("<Q", head[8:])
    if count == 0:
        raise StoreFormatError(f"{path}: header declares zero values")
    values, spare = divmod(os.fstat(fh.fileno()).st_size - HEADER_BYTES, VALUE_BYTES)
    if values < count:
        raise TruncatedDumpError(f"{path}: payload ends after {values} of {count} values")
    if values > count or spare:
        raise CountMismatchError(f"{path}: payload continues past the declared count {count}")
    return count


def _iter_binary(fh, path: Path, count: int, chunk: int) -> Iterator[np.ndarray]:
    """Payload blocks of ``chunk`` values; ``fh`` is just past the header."""
    for seen in range(0, count, chunk):
        want = min(chunk, count - seen)
        block = np.fromfile(fh, dtype="<f4", count=want)
        if block.size < want:  # the file shrank after its size was checked
            raise TruncatedDumpError(
                f"{path}: payload ends after {seen + block.size} of {count} values"
            )
        yield block


def _line_blocks(fh) -> Iterator[bytes]:
    """The rest of ``fh`` in blocks of whole lines, about _TEXT_BLOCK bytes each.

    Only the last block may lack its final newline, so an empty line is
    either a block's first byte or a b"\\n\\n" inside one block.
    """
    pieces: list[bytes] = []
    while data := fh.read(_TEXT_BLOCK):
        cut = data.rfind(b"\n") + 1
        if cut:
            pieces.append(data[:cut])
            yield b"".join(pieces)
            pieces = [data[cut:]]
        else:  # a line longer than a block
            pieces.append(data)
    tail = b"".join(pieces)
    if tail:
        yield tail


def _plain_lines(block: bytes) -> int | None:
    """Lines of ``block`` if each is a non-empty run of _NUMERIC bytes, else None."""
    if block.translate(None, _NUMERIC):
        return None
    newline = np.frombuffer(block, np.uint8) == ord("\n")
    if newline[0] or (newline[1:] & newline[:-1]).any():
        return None  # an empty line
    return int(np.count_nonzero(newline)) + (not newline[-1])


def _lines(block: bytes) -> list[str]:
    """The stripped lines of ``block``, split only where a text open splits.

    That is at "\\n", "\\r\\n" and "\\r", not also at "\\x0b", "\\x1c"-"\\x1e",
    "\\x85" and U+2028 as str.splitlines would. A byte that is not UTF-8
    decodes to a lone surrogate. The last item follows the last line end.
    """
    text = block.decode("utf-8", "surrogateescape")
    return list(map(str.strip, text.replace("\r\n", "\n").replace("\r", "\n").split("\n")))


def _check_utf8(path: Path, lineno: int, line: str) -> None:
    """Raise StoreFormatError if ``line`` holds a byte that is not UTF-8."""
    try:
        line.encode()
    except UnicodeEncodeError:
        raise StoreFormatError(f"{path}:{lineno}: not UTF-8 text") from None


def _text_values(fh, path: Path) -> Iterator[np.ndarray]:
    """A text dump's values as float64 arrays of any size, a block at a time.

    A plain block is split on its newlines and converted in one numpy call,
    which reads each bytes token with float(). Any other block goes through
    the per-line loop; at a line float() refuses, the values above it in the
    block are passed on before the error is raised, so the chunks they
    complete are checked first.
    """
    lineno = 0  # lines before the block
    for block in _line_blocks(fh):
        plain = _plain_lines(block)
        if plain is not None:
            try:
                values = np.array(block.split(), dtype=np.float64)
            except ValueError:  # "1e", "in" and the like
                pass
            else:
                lineno += plain
                yield values
                continue
        lines = _lines(block)
        parsed: list[float] = []
        for n, line in enumerate(lines, start=lineno + 1):
            if not line:
                continue
            try:
                parsed.append(float(line))
            except ValueError:
                yield np.array(parsed, dtype=np.float64)
                _check_utf8(path, n, line)
                raise StoreFormatError(f"{path}:{n}: not a decimal loss: {line!r}") from None
        lineno += len(lines) - 1
        yield np.array(parsed, dtype=np.float64)


def _rechunk(arrays: Iterable[np.ndarray], chunk: int) -> Iterator[np.ndarray]:
    """The values of ``arrays`` regrouped ``chunk`` at a time; the last group may be short."""
    held: list[np.ndarray] = []
    size = 0
    for values in arrays:
        held.append(values)
        size += values.size
        if size >= chunk:
            joined = np.concatenate(held)
            full = size - size % chunk
            for start in range(0, full, chunk):
                yield joined[start:start + chunk]
            held, size = [joined[full:]], size - full
    if size:
        yield np.concatenate(held)


def _count_text(fh, path: Path) -> int:
    """Non-blank lines of a text dump: newlines of plain blocks, else the per-line loop."""
    count = lineno = 0  # lines before the block
    for block in _line_blocks(fh):
        plain = _plain_lines(block)
        if plain is not None:
            count += plain
            lineno += plain
            continue
        lines = _lines(block)
        count += len(lines) - lines.count("")
        if not block.isascii():
            for n, line in enumerate(lines, start=lineno + 1):
                _check_utf8(path, n, line)
        lineno += len(lines) - 1
    return count


def _iter_dump(fh, path: Path, chunk: int) -> Iterator[np.ndarray]:
    """The checked chunks of the open dump ``fh``, binary or text by its first bytes."""
    with fh:
        count = _binary_count(fh, path)
        arrays = (_rechunk(_text_values(fh, path), chunk) if count is None
                  else _iter_binary(fh, path, count, chunk))
        seen = 0
        for values in arrays:
            yield _checked_losses(values, str(path), seen)
            seen += values.size
        if not seen:  # a binary header declares at least one value
            raise StoreFormatError(f"{path}: empty text dump")


def iter_loss_chunks(path: str | Path) -> Iterator[np.ndarray]:
    """Stream a dump as checked float32 chunks of DEFAULT_CHUNK values, read
    when the stream is made; the last chunk may be shorter.

    Works for the binary format and the text fallback; a text dump with no
    value is refused at the stream's end, as peek_dump_count refuses it.
    Peak memory does not depend on the dump size. The dump is opened here,
    so a missing file raises before any chunk is read, and a bad binary size
    before the first. The stream closes the dump when it ends, fails or is closed.
    """
    path = Path(path)
    return _iter_dump(open(path, "rb", buffering=0), path, DEFAULT_CHUNK)


def read_loss_dump(path: str | Path, checkpoint_id: str | None = None) -> LossVector:
    """Read a whole dump into memory; inverse of write_loss_dump.

    The stream's chunks (it refuses a dump with no value) are joined, so
    reading holds the dump twice for a moment.
    """
    path = Path(path)
    losses = np.concatenate(list(iter_loss_chunks(path)))
    losses.flags.writeable = False
    vector = object.__new__(LossVector)  # no __post_init__: each chunk was checked as read
    cid = path.stem if checkpoint_id is None else checkpoint_id
    vector.__dict__.update(checkpoint_id=cid, losses=losses)
    return vector


def peek_dump_count(path: str | Path) -> int:
    """Value count of a dump without parsing it.

    A binary dump's header is checked against the file size, by the stream's
    own rule; a text dump's non-blank lines are counted.
    """
    path = Path(path)
    with open(path, "rb", buffering=0) as fh:
        count = _binary_count(fh, path) or _count_text(fh, path)
    if count == 0:
        raise StoreFormatError(f"{path}: empty text dump")
    return count


@dataclass(frozen=True)
class CheckpointMeta:
    """One manifest entry: a checkpoint and where its losses live. A relative
    ``loss_path`` is read from the CWD, and ``dump_manifest`` writes it so."""

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

    def families(self) -> list[str]:
        return list(dict.fromkeys(c.family for c in self.checkpoints))

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


# The manifest layout's keys, top level and per entry; any other is refused.
_MANIFEST_KEYS = ("version", "checkpoints")
_ENTRY_KEYS = ("id", "family", "step", "objective", "loss", "metrics")


def _refuse_unknown_keys(mapping: dict, known: tuple[str, ...], where: str) -> None:
    for key in mapping:
        if key not in known:
            raise ManifestError(f"{where}: unknown key {key!r}")


def _require(entry: dict, key: str, kind, where: str):
    if key not in entry:
        raise ManifestError(f"{where}: missing key {key!r}")
    value = entry[key]
    if kind is int and isinstance(value, bool):
        raise ManifestError(f"{where}: key {key!r} must be an integer")
    if not isinstance(value, kind):
        raise ManifestError(f"{where}: key {key!r} has type {type(value).__name__}")
    return value


def _checked_entries(doc, origin: str) -> list[tuple[str, dict]]:
    """The manifest document rules, which the reader and the writer share.

    Version 1 and a non-empty checkpoint list; in each entry every key of the
    layout with its type, an id used once, a step >= 0 and metrics, None or a
    map of strings to real numbers (numpy's too) that are not NaN. A key
    outside the layout, at the top or in an entry, is refused. Returns each
    entry's location and its fields in layout order, metrics as floats.
    """
    if not isinstance(doc, dict):
        raise ManifestError(f"{origin}: top level must be a mapping")
    _refuse_unknown_keys(doc, _MANIFEST_KEYS, origin)
    version = _require(doc, "version", int, origin)
    if version != 1:
        raise ManifestError(f"{origin}: unsupported manifest version {version}")
    entries = _require(doc, "checkpoints", list, origin)
    if not entries:
        raise ManifestError(f"{origin}: checkpoints list is empty")

    seen: set[str] = set()
    checked = []
    for i, entry in enumerate(entries):
        where = f"{origin}: checkpoints[{i}]"
        if not isinstance(entry, dict):
            raise ManifestError(f"{where}: must be a mapping")
        _refuse_unknown_keys(entry, _ENTRY_KEYS, where)
        cid = _require(entry, "id", str, where)
        if cid in seen:
            raise ManifestError(f"{where}: duplicate checkpoint id {cid!r}")
        seen.add(cid)
        family = _require(entry, "family", str, where)
        step = _require(entry, "step", int, where)
        if step < 0:
            raise ManifestError(f"{where}: step must be >= 0")
        objective = _require(entry, "objective", str, where)
        loss = _require(entry, "loss", str, where)
        metrics_raw = entry.get("metrics")  # None is YAML's empty "metrics:"
        if not isinstance(metrics_raw, (Mapping, type(None))):
            raise ManifestError(f"{where}: metrics must be a mapping")
        metrics: dict[str, float] = {}
        for name, value in (metrics_raw or {}).items():
            if not isinstance(name, str) or isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ManifestError(f"{where}: metric {name!r} must map a string to a number")
            try:
                metrics[name] = float(value)
            except OverflowError:
                raise ManifestError(
                    f"{where}: metric {name!r} of checkpoint {cid!r} is too large for a float"
                ) from None
            if np.isnan(metrics[name]):
                raise ManifestError(f"{where}: metric {name!r} of checkpoint {cid!r} is NaN")
        checked.append((where, {"id": cid, "family": family, "step": step,
                                "objective": objective, "loss": loss, "metrics": metrics}))
    return checked


def load_manifest(path: str | Path) -> Manifest:
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

    The document must pass ``_checked_entries``. Loss paths are resolved
    relative to the manifest's directory, and every dump is checked and
    counted by ``peek_dump_count``. The count is kept as
    ``CheckpointMeta.count``, so a reader need not count again; it is
    measured, not declared, so ``dump_manifest`` does not write it. A bad
    loss path (a NUL byte, a symlink loop) or dump is refused.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=_YAML_LOADER)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ManifestError(f"{path}: not parseable: {exc}") from exc

    checkpoints: list[CheckpointMeta] = []
    for where, entry in _checked_entries(doc, str(path)):
        loss_path = path.parent / entry["loss"]
        try:
            loss_path = loss_path.resolve()
            count = peek_dump_count(loss_path)
        except (FileNotFoundError, NotADirectoryError) as exc:
            raise ManifestError(f"{where}: loss dump not found: {loss_path}") from exc
        except StoreFormatError as exc:
            raise ManifestError(f"{where}: bad loss dump: {exc}") from exc
        except (OSError, ValueError, RuntimeError) as exc:  # a NUL byte, a loop, a directory
            raise ManifestError(f"{where}: bad loss path {entry['loss']!r}: {exc}") from exc
        checkpoints.append(CheckpointMeta(
            entry["id"], entry["family"], entry["step"], entry["objective"],
            loss_path, entry["metrics"], count,
        ))
    return Manifest(version=1, checkpoints=tuple(checkpoints))


def dump_manifest(manifest: Manifest, path: str | Path) -> None:
    """Write a manifest as YAML; ``load_manifest`` opens the dumps it names.

    Each loss path, a ``Path`` or ``str``, is resolved from the CWD as every
    reader of a ``CheckpointMeta`` opens it (a NUL byte or a symlink loop is
    refused), and written relative to the manifest's directory, or absolute
    outside it. The document is held to ``load_manifest``'s rules
    (``_checked_entries``) before the file is opened, so a manifest the
    reader would refuse is refused here and nothing is written.
    """
    path = Path(path)
    root = path.parent.resolve()
    entries = []
    for i, c in enumerate(manifest.checkpoints):
        try:
            loss = Path(c.loss_path).resolve()
        except (OSError, ValueError, RuntimeError, TypeError) as exc:
            raise ManifestError(f"{path}: checkpoints[{i}]: bad loss path {c.loss_path!r}: {exc}") from exc
        if loss.is_relative_to(root):
            loss = loss.relative_to(root)
        entries.append({"id": c.checkpoint_id, "family": c.family, "step": c.step,
                        "objective": c.objective, "loss": str(loss), "metrics": c.metrics})
    checked = _checked_entries({"version": manifest.version, "checkpoints": entries}, str(path))
    # An entry without metrics is written without the key.
    entries = [{k: v for k, v in e.items() if k != "metrics" or v} for _, e in checked]
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump({"version": 1, "checkpoints": entries}, fh, sort_keys=False)

