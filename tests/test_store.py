"""Loss-dump format and manifest parsing."""

import builtins
import contextlib
import io
import json
import math
import re
import struct
import tempfile
import textwrap
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles

from lossdiag import (
    BadMagicError,
    CheckpointMeta,
    CountMismatchError,
    LossVector,
    Manifest,
    ManifestError,
    StoreFormatError,
    TruncatedDumpError,
    ValidationError,
    dump_manifest,
    iter_loss_chunks,
    load_manifest,
    peek_dump_count,
    read_loss_dump,
    summarize_chunks,
    write_loss_dump,
)
from lossdiag import cli, store
from lossdiag.store import MAGIC


def _random_losses(rng, size):
    vals = rng.gamma(1.2, 1.1, size=size).astype(np.float32)
    # Sprinkle the +inf sentinel in occasionally.
    if size > 3:
        vals[rng.integers(size)] = np.inf
    return vals


class TestLossVector:
    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="NaN loss at index 1"):
            LossVector("c", np.array([0.5, np.nan, 1.0]))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match="negative loss at index 0"):
            LossVector("c", np.array([-0.1, 1.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            LossVector("c", np.array([]))

    def test_rejects_float64_past_float32_maximum(self):
        with pytest.raises(ValidationError, match=r"c: loss 1e\+39 at index 2 overflows"):
            LossVector("c", np.array([0.5, np.inf, 1e39, 1e40]))
        with pytest.raises(ValidationError, match="index 1 overflows"):
            LossVector("c", [0.5, 3.5e38])
        with pytest.raises(ValidationError, match="index 0 overflows"):
            LossVector("c", 1e39)  # a scalar is read as one value

    def test_float64_that_rounds_to_float32_maximum_is_kept(self):
        top = float(np.finfo(np.float32).max)
        v = LossVector("c", np.array([np.nextafter(top, np.inf), np.inf]))
        assert v.losses.tolist() == [top, np.inf]

    def test_allows_inf_and_is_immutable(self):
        v = LossVector("c", np.array([0.0, np.inf]))
        assert v.count == 2
        with pytest.raises(ValueError):
            v.losses[0] = 1.0


class TestDumpRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        for i in range(20):
            vals = _random_losses(rng, int(rng.integers(1, 500)))
            path = tmp_path / f"d{i}.bin"
            write_loss_dump(LossVector(f"d{i}", vals), path)
            back = read_loss_dump(path)
            assert back.checkpoint_id == f"d{i}"
            assert back.losses.tobytes() == vals.tobytes()

    def test_single_value_file_is_twenty_bytes(self, tmp_path):
        # 8 magic + 8 count + 4 payload.
        path = tmp_path / "one.bin"
        write_loss_dump(LossVector("one", np.array([0.25])), path)
        assert path.stat().st_size == 20
        assert peek_dump_count(path) == 1

    def test_checkpoint_id_defaults_to_stem(self, tmp_path):
        path = tmp_path / "run7-step100.bin"
        write_loss_dump(LossVector("x", np.array([1.0])), path)
        assert read_loss_dump(path).checkpoint_id == "run7-step100"


class TestFormatErrors:
    def test_wrong_version_byte_is_bad_magic(self, tmp_path):
        # Same prefix, different version: must not fall back to text.
        path = tmp_path / "v9.bin"
        path.write_bytes(b"CELOSSv9" + struct.pack("<Q", 1) + struct.pack("<f", 1.0))
        with pytest.raises(BadMagicError):
            read_loss_dump(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(MAGIC + b"\x01\x00")
        with pytest.raises(BadMagicError):
            read_loss_dump(path)

    def test_zero_count_header(self, tmp_path):
        path = tmp_path / "zero.bin"
        path.write_bytes(MAGIC + struct.pack("<Q", 0))
        with pytest.raises(StoreFormatError, match="zero values"):
            read_loss_dump(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.bin"
        write_loss_dump(LossVector("t", np.arange(10, dtype=np.float32)), path)
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(TruncatedDumpError, match="9 of 10"):
            read_loss_dump(path)
        with pytest.raises(TruncatedDumpError):
            peek_dump_count(path)

    def test_payload_past_declared_count(self, tmp_path):
        path = tmp_path / "extra.bin"
        write_loss_dump(LossVector("t", np.arange(10, dtype=np.float32)), path)
        with open(path, "ab") as fh:
            fh.write(struct.pack("<f", 1.0))
        with pytest.raises(CountMismatchError):
            read_loss_dump(path)
        with pytest.raises(CountMismatchError):
            peek_dump_count(path)

    def test_header_past_payload_is_truncation_not_allocation(self, tmp_path):
        path = tmp_path / "huge.bin"
        path.write_bytes(MAGIC + struct.pack("<Q", 1 << 50) + struct.pack("<ff", 1.0, 2.0))
        with pytest.raises(TruncatedDumpError, match=f"after 2 of {1 << 50} values"):
            read_loss_dump(path)

    @pytest.mark.parametrize(
        "count, payload, error, message",
        [(10, 9 * 4, TruncatedDumpError, "payload ends after 9 of 10 values"),
         (10, 9 * 4 + 3, TruncatedDumpError, "payload ends after 9 of 10 values"),
         (10, 11 * 4, CountMismatchError, "payload continues past the declared count 10"),
         (10, 10 * 4 + 1, CountMismatchError, "payload continues past the declared count 10")],
        ids=["short", "short-ragged", "long", "long-ragged"],
    )
    def test_both_readers_refuse_a_bad_size_alike_at_open(
        self, tmp_path, monkeypatch, count, payload, error, message
    ):
        path = tmp_path / "sized.bin"
        path.write_bytes(MAGIC + struct.pack("<Q", count) + b"\0" * payload)
        with pytest.raises(error) as peeked:
            peek_dump_count(path)
        monkeypatch.setattr(store, "DEFAULT_CHUNK", 1)
        stream = iter_loss_chunks(path)
        with pytest.raises(error) as streamed:
            next(stream)  # refused before the first chunk
        assert str(peeked.value) == str(streamed.value) == f"{path}: {message}"

    def test_nan_payload_rejected_on_read(self, tmp_path):
        path = tmp_path / "nan.bin"
        path.write_bytes(MAGIC + struct.pack("<Q", 2) + struct.pack("<ff", 1.0, float("nan")))
        with pytest.raises(ValidationError, match="NaN"):
            read_loss_dump(path)


class TestTextFallback:
    def test_one_loss_per_line(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("0.5\n1.25\n\n2.0\n", encoding="utf-8")
        v = read_loss_dump(path)
        np.testing.assert_array_equal(v.losses, np.array([0.5, 1.25, 2.0], dtype=np.float32))
        assert peek_dump_count(path) == 3

    def test_junk_line_names_position(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("0.5\nhello\n", encoding="utf-8")
        with pytest.raises(StoreFormatError, match=r":2:"):
            read_loss_dump(path)

    def test_value_past_float32_maximum_is_rejected(self, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("0.5\ninf\n1e39\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="loss 1e\\+39 at index 2 overflows"):
            read_loss_dump(path)

    def test_empty_text_dump(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(StoreFormatError):
            peek_dump_count(path)

    @pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["empty", "blank-lines"])
    def test_read_of_empty_text_dump_is_format_error(self, tmp_path, text):
        # Every reader, the stream and a summary over it among them, names the file.
        path = tmp_path / "empty.txt"
        path.write_text(text, encoding="utf-8")
        readers = (peek_dump_count, read_loss_dump, lambda p: list(iter_loss_chunks(p)),
                   lambda p: summarize_chunks("x", iter_loss_chunks(p)))
        for read in readers:
            with pytest.raises(StoreFormatError, match=f"^{re.escape(str(path))}: empty text dump$"):
                read(path)

    def test_non_utf8_text_dump_is_format_error_exit_2(self, tmp_path, capsys):
        dump = tmp_path / "dumps" / "latin1.txt"
        dump.parent.mkdir()
        dump.write_bytes(b"0.5\n\xff1.0\n")
        readers = (peek_dump_count, read_loss_dump, lambda p: list(iter_loss_chunks(p)))
        for read in readers:
            with pytest.raises(StoreFormatError, match="not UTF-8 text"):
                read(dump)
        assert cli.main(["summarize", str(dump)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "StoreFormatError"
        path = _write_manifest(
            tmp_path,
            """\
            version: 1
            checkpoints:
              - {id: a, family: f, step: 0, objective: o, loss: dumps/latin1.txt}
            """,
        )
        with pytest.raises(ManifestError, match="bad loss dump: .*not UTF-8 text"):
            load_manifest(path)
        assert cli.main(["summarize", "--manifest", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ManifestError"


# Text-dump lines: numbers as writers print them, and what a hand-edited or
# foreign dump holds (whitespace, blank lines, comments, underscores,
# non-ASCII digits, two numbers on a line, line breaks that a text open does
# not split at, bytes that are not UTF-8).
_ODD_LINES = (
    "0", "1.5", "-0.0", "1e5", "2.5E-3", "1e400", "1e-400", "+.5", "5.", "0001",
    "inf", "Infinity", "INF", "-inf", "nan", "NaN", "1_0", "١٢",
    " 1.5", "1.5 ", "\t2", "\x0c3", "", "", "  ", "\t", "1.5 2.5", "#", "# 1",
    "1e", "in", "infinit", "e5", "1..2", "-1", "1.5\x00", " ",
    "1\x0b2", "1\x1c2", "1\x852", "1\u20282",
)
_TEXT_LINES = st.one_of(
    st.floats(0, 1e39).map(lambda v: repr(v).encode()),
    st.floats(0).map(lambda v: ("%.9g" % v).encode()),
    st.sampled_from([t.encode() for t in _ODD_LINES] + [b"\xff", b"1\xc3", b"\xe9"]),
)
_LINE_ENDS = st.sampled_from((b"\n",) * 6 + (b"\r\n", b"\r"))


@st.composite
def _text_dumps(draw):
    lines = draw(st.lists(_TEXT_LINES, max_size=12))
    ends = draw(st.lists(_LINE_ENDS, min_size=len(lines), max_size=len(lines)))
    data = b"".join(line + end for line, end in zip(lines, ends))
    if ends and draw(st.booleans()):
        data = data[: -len(ends[-1])]  # no final newline
    return data


def _outcome(read):
    """What ``read()`` returns, or the type and text of what it raises."""
    try:
        return "ok", read()
    except Exception as exc:
        return type(exc), str(exc)


def _chunk_bytes(chunks):
    return [(c.dtype.str, c.tobytes()) for c in chunks]


def _assert_reads_like_lines(path, chunk):
    """The store's chunks and count equal the per-line references, value,
    error type and message alike, and its three readers agree. A whole read
    is the streamed chunks joined, or the stream's error. The count is the
    number of values streamed; a dump it refuses the stream refuses too, and
    a dump with no value is an empty dump to all three, by one message."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(store, "DEFAULT_CHUNK", chunk)
        got = _outcome(lambda: _chunk_bytes(iter_loss_chunks(path)))
        whole = _outcome(lambda: read_loss_dump(path).losses.tobytes())
    want = _outcome(lambda: _chunk_bytes(oracles.text_chunks_by_lines(path, chunk)))
    assert got == want
    count = _outcome(lambda: peek_dump_count(path))
    assert count == _outcome(lambda: oracles.text_count_by_lines(path))
    if got[0] == "ok":
        assert whole == ("ok", b"".join(b for _, b in got[1]))
        assert count == ("ok", len(whole[1]) // 4)
    else:
        assert whole == got
    empty = (StoreFormatError, f"{path}: empty text dump")
    assert (got == empty) == (count == empty)


class TestTextDumpProperties:
    @settings(max_examples=400, deadline=None)
    @given(data=_text_dumps(), chunk=st.integers(1, 7), block=st.integers(1, 16))
    @example(data=b"1.5 2.5", chunk=1, block=16)
    @example(data=b"0.5\n1.5 2.5\n2\n", chunk=2, block=16)
    @example(data=b"1.5\n\n2.5\n", chunk=7, block=4)  # a block ends inside "\n\n"
    @example(data=b"\n1.5\n", chunk=1, block=1)
    @example(data=b"1.5\r\n2.5", chunk=3, block=2)
    @example(data=b"1.5\n2.5\xff\n", chunk=1, block=3)
    @example(data=b"3.40282357e+38\n\xff\n", chunk=1, block=1)  # checked before the bad byte
    @example(data=b"0.5\nhello\n\xff\n", chunk=1, block=16)  # junk above a bad byte
    @example(data=b"nan\n1\nhello\n", chunk=1, block=16)  # a full chunk's NaN first
    @example(data=b"nan\n1\nhello\n", chunk=7, block=16)  # the junk line first
    @example(data=b"0.5\n1.5\r", chunk=1, block=16)  # ends in a lone CR
    @example(data=b"", chunk=1, block=16)  # no value: an empty dump to every reader
    @example(data=b"\n\n", chunk=2, block=1)
    @example(data=b" \r\n\t\n", chunk=1, block=2)
    def test_blocks_read_like_the_per_line_loop(self, data, chunk, block):
        # Small read blocks put block boundaries at every place in the dump.
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(store, "_TEXT_BLOCK", block)
            path = Path(tmp) / "d.txt"
            path.write_bytes(data)
            _assert_reads_like_lines(path, chunk)

    @pytest.mark.parametrize("tail", [
        b"\xff\n", b" 1.5\n", b"\n\n", b"1.5 2.5\n", b"1e\n", b"-1\n", b"nan\n",
        b"1e400\n", b"#\n", b"",
    ])
    @pytest.mark.parametrize("at", [0, 9000, 70000, None])
    def test_a_late_odd_line_keeps_the_per_line_error(self, tmp_path, tail, at):
        # Past the first read block, an odd line sends its block through the
        # per-line loop; the error names the same line or index.
        rng = np.random.default_rng(5)
        plain = b"".join(repr(float(v)).encode() + b"\n" for v in rng.random(8000))
        cut = len(plain) if at is None else plain.index(b"\n", at) + 1 if at else 0
        path = tmp_path / "late.txt"
        path.write_bytes(plain[:cut] + tail + plain[cut:])
        for chunk in (1000, store.DEFAULT_CHUNK):
            _assert_reads_like_lines(path, chunk)

    def test_each_reader_opens_the_dump_once(self, tmp_path, monkeypatch):
        opened = []

        def counted_open(file, *args, **kwargs):
            opened.append(Path(file).name)
            return builtins.open(file, *args, **kwargs)

        monkeypatch.setattr(store, "open", counted_open, raising=False)
        write_loss_dump(LossVector("b", np.array([0.5, 1.5])), tmp_path / "b.bin")
        (tmp_path / "plain.txt").write_bytes(b"0.5\n1.5\n")
        (tmp_path / "crlf.txt").write_bytes(b"0.5\r\n1.5\r\n")  # the per-line loop
        for name in ("b.bin", "plain.txt", "crlf.txt"):
            opened.clear()
            assert peek_dump_count(tmp_path / name) == 2
            assert sum(c.size for c in iter_loss_chunks(tmp_path / name)) == 2
            assert opened == [name, name]

    def test_each_reader_reads_a_text_dump_once(self, tmp_path, monkeypatch):
        read = []

        class CountedFileIO(io.FileIO):
            def read(self, size=-1):
                data = super().read(size)
                read.append(len(data))
                return data

            def readinto(self, buffer):
                size = super().readinto(buffer)
                read.append(size)
                return size

        monkeypatch.setattr(store, "open", lambda file, *a, **k: CountedFileIO(file), raising=False)
        rng = np.random.default_rng(5)
        plain = b"".join(repr(float(v)).encode() + b"\n" for v in rng.random(8000))
        cut = plain.index(b"\n", 70000) + 1  # past the first read block
        path = tmp_path / "crlf.txt"
        path.write_bytes(plain[:cut] + b"1.5\r\n" + plain[cut:])
        for reader in (peek_dump_count, lambda p: sum(c.size for c in iter_loss_chunks(p))):
            read.clear()
            assert reader(path) == 8001
            assert sum(read) <= path.stat().st_size + store.HEADER_BYTES

    def test_missing_dump_raises_when_the_stream_is_made(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            iter_loss_chunks(tmp_path / "missing.txt")


class TestChunkedReads:
    def test_chunks_preserve_values_and_bound_size(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(2)
        vals = _random_losses(rng, 100)
        path = tmp_path / "c.bin"
        write_loss_dump(LossVector("c", vals), path)
        monkeypatch.setattr(store, "DEFAULT_CHUNK", 7)
        chunks = list(iter_loss_chunks(path))
        assert all(c.size <= 7 for c in chunks)
        np.testing.assert_array_equal(np.concatenate(chunks), vals)

    def test_a_dump_that_shrinks_while_streamed_is_refused(self, tmp_path, monkeypatch):
        path = tmp_path / "c.bin"
        write_loss_dump(LossVector("c", np.arange(10, dtype=np.float32)), path)
        monkeypatch.setattr(store, "DEFAULT_CHUNK", 4)
        chunks = iter_loss_chunks(path)
        assert next(chunks).tolist() == [0.0, 1.0, 2.0, 3.0]
        with open(path, "r+b") as fh:
            fh.truncate(store.HEADER_BYTES + 5 * store.VALUE_BYTES)
        with pytest.raises(TruncatedDumpError, match="payload ends after 5 of 10 values$"):
            list(chunks)

    def test_text_chunks(self, tmp_path, monkeypatch):
        path = tmp_path / "c.txt"
        path.write_text("".join(f"{i}.5\n" for i in range(25)), encoding="utf-8")
        monkeypatch.setattr(store, "DEFAULT_CHUNK", 10)
        chunks = list(iter_loss_chunks(path))
        assert [c.size for c in chunks] == [10, 10, 5]

    def test_errors_name_the_index_in_the_dump(self, tmp_path, monkeypatch):
        # Past the first 1 Mi-value chunk, the index counts from the dump's start.
        vals = np.ones(3_000_000, dtype=np.float32)
        vals[2_500_000] = np.nan
        path = tmp_path / "late-nan.bin"
        path.write_bytes(MAGIC + struct.pack("<Q", vals.size) + vals.tobytes())
        with pytest.raises(ValidationError, match="NaN loss at index 2500000$"):
            read_loss_dump(path)
        with pytest.raises(ValidationError, match="NaN loss at index 2500000$"):
            list(iter_loss_chunks(path))
        text = tmp_path / "late-negative.txt"
        text.write_text("0.5\n" * 25 + "-1.0\n", encoding="utf-8")
        monkeypatch.setattr(store, "DEFAULT_CHUNK", 10)
        with pytest.raises(ValidationError, match="negative loss at index 25$"):
            list(iter_loss_chunks(text))

    @pytest.mark.parametrize("name", ["d.bin", "d.txt"])
    def test_a_whole_read_checks_each_value_once(self, tmp_path, monkeypatch, name):
        values = np.arange(9999, dtype=np.float32) / 7
        path = tmp_path / name
        if path.suffix == ".bin":
            write_loss_dump(LossVector("d", values), path)
        else:
            path.write_text("".join(f"{v!r}\n" for v in values.tolist()), encoding="utf-8")
        checked, check = [], store._checked_losses

        def counted(given, *args):
            checked.append(np.asarray(given).size)
            return check(given, *args)

        monkeypatch.setattr(store, "_checked_losses", counted)
        monkeypatch.setattr(store, "DEFAULT_CHUNK", 1000)
        back = read_loss_dump(path)
        assert back.losses.tobytes() == values.tobytes()
        assert not back.losses.flags.writeable
        assert checked == [1000] * 9 + [999]

    def test_parallel_reads_match_serial(self, tmp_path):
        rng = np.random.default_rng(3)
        paths = []
        expected = []
        for i in range(8):
            vals = _random_losses(rng, 200)
            path = tmp_path / f"p{i}.bin"
            write_loss_dump(LossVector(f"p{i}", vals), path)
            paths.append(path)
            expected.append(vals)
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(read_loss_dump, paths))
        for v, vals in zip(got, expected):
            assert v.losses.tobytes() == vals.tobytes()


_F32_MAX = float(np.finfo(np.float32).max)
_F32_TINY = float(np.finfo(np.float32).smallest_subnormal)


class TestCopyFreeIO:
    """The writer's bytes are those of the plain copying implementation."""

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.sampled_from((-0.0, 0.0, _F32_TINY, 1e-40, 1.1754942e-38, np.inf, _F32_MAX))
            | st.floats(min_value=0.0, width=32),
            min_size=1,
            max_size=300,
        ),
        dtype=st.sampled_from((np.float32, np.float64)),
    )
    @example(values=[-0.0, _F32_TINY, np.inf, _F32_MAX], dtype=np.float32)
    def test_written_bytes_are_the_header_and_little_endian_values(self, values, dtype):
        arr = np.array(values, dtype=dtype)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.bin"
            write_loss_dump(LossVector("d", arr), path)
            data = path.read_bytes()
        assert data == MAGIC + struct.pack("<Q", arr.size) + arr.astype("<f4").tobytes()


def _write_manifest(tmp_path, body):
    tmp_path.mkdir(exist_ok=True)
    path = tmp_path / "manifest.yaml"
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return path


def _seed_dump(tmp_path, name, values=(0.5, 1.0)):
    (tmp_path / "dumps").mkdir(exist_ok=True)
    write_loss_dump(
        LossVector(name, np.asarray(values, dtype=np.float32)),
        tmp_path / "dumps" / f"{name}.bin",
    )


class TestManifest:
    def test_load_resolves_paths_and_metrics(self, tmp_path):
        _seed_dump(tmp_path, "a")
        _seed_dump(tmp_path, "b")
        path = _write_manifest(
            tmp_path,
            """\
            version: 1
            checkpoints:
              - id: a
                family: distilled
                step: 1000
                objective: topk-kl
                loss: dumps/a.bin
                metrics:
                  judge: 2.01
              - id: b
                family: scratch
                step: 2000
                objective: token-ce
                loss: dumps/b.bin
            """,
        )
        m = load_manifest(path)
        assert m.version == 1
        a, b = m.checkpoints
        assert (a.checkpoint_id, b.checkpoint_id) == ("a", "b")
        assert m.families() == ["distilled", "scratch"]
        assert a.metrics == {"judge": 2.01}
        assert a.loss_path == (tmp_path / "dumps" / "a.bin").resolve()
        assert [c.checkpoint_id for c in m.select(["scratch"])] == ["b"]

    def test_duplicate_id(self, tmp_path):
        _seed_dump(tmp_path, "a")
        path = _write_manifest(
            tmp_path,
            """\
            version: 1
            checkpoints:
              - {id: a, family: f, step: 0, objective: o, loss: dumps/a.bin}
              - {id: a, family: f, step: 1, objective: o, loss: dumps/a.bin}
            """,
        )
        with pytest.raises(ManifestError, match="duplicate checkpoint id"):
            load_manifest(path)

    def test_empty_checkpoint_list(self, tmp_path):
        path = _write_manifest(tmp_path, "version: 1\ncheckpoints: []\n")
        with pytest.raises(ManifestError, match="empty"):
            load_manifest(path)

    def test_missing_key_names_entry(self, tmp_path):
        path = _write_manifest(
            tmp_path,
            """\
            version: 1
            checkpoints:
              - {id: a, family: f, step: 0, loss: dumps/a.bin}
            """,
        )
        with pytest.raises(ManifestError, match=r"checkpoints\[0\].*objective"):
            load_manifest(path)

    @pytest.mark.parametrize("body, message", [
        ("  - {id: a, family: f, step: 0, objective: o, loss: dumps/a.bin, metric: {judge: 1}}\n",
         "checkpoints[0]: unknown key 'metric'"),
        ("  - {id: a, family: f, step: 0, stpe: 1, objective: o, loss: dumps/a.bin}\n",
         "checkpoints[0]: unknown key 'stpe'"),
        ("  - {id: a, family: f, step: 0, objective: o, loss: dumps/a.bin}\nsource: lab\n",
         "unknown key 'source'"),
    ], ids=["metric-for-metrics", "misspelt-step", "top-level"])
    def test_unknown_key_names_entry_and_key(self, tmp_path, body, message):
        # Each loaded with exit 0 while the manifest's key set was open.
        _seed_dump(tmp_path, "a")
        path = _write_manifest(tmp_path, "version: 1\ncheckpoints:\n" + body)
        with pytest.raises(ManifestError) as exc:
            load_manifest(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_negative_step(self, tmp_path):
        path = _write_manifest(
            tmp_path,
            """\
            version: 1
            checkpoints:
              - {id: a, family: f, step: -5, objective: o, loss: dumps/a.bin}
            """,
        )
        with pytest.raises(ManifestError, match="step"):
            load_manifest(path)

    def test_boolean_metric_rejected(self, tmp_path):
        path = _write_manifest(
            tmp_path,
            """\
            version: 1
            checkpoints:
              - {id: a, family: f, step: 0, objective: o, loss: dumps/a.bin,
                 metrics: {judge: true}}
            """,
        )
        with pytest.raises(ManifestError, match="metric"):
            load_manifest(path)

    def test_nan_metric_names_checkpoint_and_metric(self, tmp_path):
        path = _write_manifest(
            tmp_path,
            """\
            version: 1
            checkpoints:
              - {id: a, family: f, step: 0, objective: o, loss: dumps/a.bin,
                 metrics: {judge: .nan}}
            """,
        )
        with pytest.raises(ManifestError, match="metric 'judge' of checkpoint 'a' is NaN"):
            load_manifest(path)

    def test_missing_dump_checked(self, tmp_path):
        path = _write_manifest(
            tmp_path,
            """\
            version: 1
            checkpoints:
              - {id: a, family: f, step: 0, objective: o, loss: dumps/a.bin}
            """,
        )
        with pytest.raises(ManifestError, match="not found"):
            load_manifest(path)
        # A path through a file (NotADirectoryError) is not found either.
        (tmp_path / "dumps").write_bytes(b"")
        with pytest.raises(ManifestError, match="loss dump not found: .*a.bin$"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "loss, reason",
        [("a\0b.bin", "embedded null byte"), ("loop.bin", "(?i)symlink loop|symbolic links")],
        ids=["nul-byte", "symlink-loop"],
    )
    def test_unresolvable_loss_path_is_manifest_error_exit_2(self, tmp_path, capsys, loss, reason):
        (tmp_path / "loop.bin").symlink_to("loop.bin")
        path = _write_manifest(
            tmp_path,
            f"""\
            version: 1
            checkpoints:
              - {{id: a, family: f, step: 0, objective: o, loss: {json.dumps(loss)}}}
            """,
        )
        with pytest.raises(ManifestError) as info:
            load_manifest(path)
        where = f"{path}: checkpoints[0]: bad loss path {loss!r}: "
        assert str(info.value).startswith(where)
        assert re.search(reason, str(info.value)[len(where):])
        assert cli.main(["summarize", "--manifest", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ManifestError"

    def test_keeps_the_measured_dump_count(self, tmp_path):
        _seed_dump(tmp_path, "a", (0.5, 1.0, 2.0))
        (tmp_path / "dumps" / "b.txt").write_text("0.5\n\n1.5\n", encoding="utf-8")
        path = _write_manifest(
            tmp_path,
            """\
            version: 1
            checkpoints:
              - {id: a, family: f, step: 0, objective: o, loss: dumps/a.bin}
              - {id: b, family: f, step: 1, objective: o, loss: dumps/b.txt}
            """,
        )
        m = load_manifest(path)
        assert [c.count for c in m.checkpoints] == [3, 2]
        # Measured, not declared: a written manifest does not carry it.
        out = tmp_path / "written.yaml"
        dump_manifest(m, out)
        entries = yaml.safe_load(out.read_text(encoding="utf-8"))["checkpoints"]
        declared = {"id", "family", "step", "objective", "loss"}
        assert all(set(e) == declared for e in entries)

    def test_unknown_family_in_select(self, tmp_path):
        _seed_dump(tmp_path, "a")
        path = _write_manifest(
            tmp_path,
            """\
            version: 1
            checkpoints:
              - {id: a, family: f, step: 0, objective: o, loss: dumps/a.bin}
            """,
        )
        m = load_manifest(path)
        with pytest.raises(ManifestError, match="ghost"):
            m.select(["ghost"])

    def test_thirty_checkpoints_round_trip(self, tmp_path):
        for i in range(30):
            _seed_dump(tmp_path, f"c{i:02d}")
        entries = "\n".join(
            f"  - {{id: c{i:02d}, family: fam{i % 3}, step: {i * 1000}, "
            f"objective: o, loss: dumps/c{i:02d}.bin}}"
            for i in range(30)
        )
        path = _write_manifest(tmp_path, f"version: 1\ncheckpoints:\n{entries}\n")
        m = load_manifest(path)
        assert len(m.checkpoints) == 30
        assert m.families() == ["fam0", "fam1", "fam2"]

        out = tmp_path / "copy.yaml"
        dump_manifest(m, out)
        back = load_manifest(out)
        assert [c.checkpoint_id for c in back.checkpoints] == [
            c.checkpoint_id for c in m.checkpoints
        ]
        assert [c.loss_path for c in back.checkpoints] == [
            c.loss_path for c in m.checkpoints
        ]

    def test_not_yaml(self, tmp_path):
        path = tmp_path / "manifest.yaml"
        path.write_text("{unbalanced", encoding="utf-8")
        with pytest.raises(ManifestError):
            load_manifest(path)

    @pytest.mark.parametrize(
        "body, message",
        [("- a\n", "top level must be a mapping"),
         ("version: 1\ncheckpoints: [a]\n", "checkpoints[0]: must be a mapping"),
         ("version: 1\ncheckpoints:\n  - {id: a, family: f, step: 0, objective: o,"
          " loss: a.bin, metrics: [1]}\n", "checkpoints[0]: metrics must be a mapping"),
         ("version: 1\ncheckpoints:\n  - {id: a, family: f, step: true, objective: o,"
          " loss: a.bin}\n", "checkpoints[0]: key 'step' must be an integer"),
         ("version: 1\ncheckpoints:\n  - {id: a, family: f, step: '5', objective: o,"
          " loss: a.bin}\n", "checkpoints[0]: key 'step' has type str"),
         (f"version: 1\ncheckpoints:\n  - {{id: a, family: f, step: 0, objective: o,"
          f" loss: a.bin, metrics: {{judge: {10**400}}}}}\n",
          "checkpoints[0]: metric 'judge' of checkpoint 'a' is too large for a float")],
        ids=["top-level", "entry", "metrics", "bool-step", "string-step", "huge-int-metric"],
    )
    def test_malformed_structure_names_where(self, tmp_path, body, message):
        path = _write_manifest(tmp_path, body)
        with pytest.raises(ManifestError) as exc:
            load_manifest(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_dump_outside_the_manifest_directory_keeps_its_absolute_path(self, tmp_path):
        _seed_dump(tmp_path, "a")
        dump = (tmp_path / "dumps" / "a.bin").resolve()
        m = Manifest(version=1, checkpoints=(CheckpointMeta("a", "f", 0, "o", dump),))
        out = tmp_path / "elsewhere" / "manifest.yaml"
        out.parent.mkdir()
        dump_manifest(m, out)
        entry = yaml.safe_load(out.read_text(encoding="utf-8"))["checkpoints"][0]
        assert entry["loss"] == str(dump)
        assert load_manifest(out).checkpoints[0].loss_path == dump

    @pytest.mark.parametrize("given, written", [
        (lambda tmp: (tmp / "out" / "dumps" / "a.bin").resolve(), "dumps/a.bin"),
        (lambda tmp: Path("out/dumps/a.bin"), "dumps/a.bin"),
        (lambda tmp: "out/dumps/a.bin", "dumps/a.bin"),
        (lambda tmp: Path("dumps/a.bin"), None),
    ], ids=["absolute", "cwd-relative", "str", "outside"])
    def test_the_reader_opens_the_dump_the_writer_was_given(
        self, tmp_path, monkeypatch, given, written
    ):
        # A loss path is read from the CWD, as every reader of a
        # CheckpointMeta opens it; one outside the manifest's directory is
        # written absolute.
        monkeypatch.chdir(tmp_path)
        _seed_dump(tmp_path, "a")
        (tmp_path / "out").mkdir()
        _seed_dump(tmp_path / "out", "a", values=(0.5, 1.0, 1.5))
        loss = given(tmp_path)
        out = Path("out") / "manifest.yaml"
        dump_manifest(Manifest(1, (CheckpointMeta("a", "f", 0, "o", loss),)), out)
        dump = (tmp_path / loss).resolve()
        entry = yaml.safe_load(out.read_text(encoding="utf-8"))["checkpoints"][0]
        assert entry["loss"] == (written or str(dump))
        (back,) = load_manifest(out).checkpoints
        assert (back.loss_path, back.count) == (dump, peek_dump_count(loss))

    @pytest.mark.parametrize("loss", ["nul\0.bin", "loop.bin"], ids=["nul", "loop"])
    def test_a_loss_path_that_cannot_be_resolved_is_refused_by_the_writer(self, tmp_path, loss):
        (tmp_path / "loop.bin").symlink_to("loop.bin")
        out = tmp_path / "manifest.yaml"
        meta = CheckpointMeta("a", "f", 0, "o", tmp_path / loss)
        with pytest.raises(ManifestError, match=r": checkpoints\[0\]: bad loss path ") as exc:
            dump_manifest(Manifest(1, (meta,)), out)
        assert str(exc.value).startswith(f"{out}: ")
        assert not out.exists()

    @pytest.mark.parametrize("change,message", [
        (lambda m, c: replace(m, version=2), "unsupported manifest version 2"),
        (lambda m, c: replace(m, checkpoints=()), "checkpoints list is empty"),
        (lambda m, c: replace(m, checkpoints=(replace(c, step=-1),)),
         "checkpoints[0]: step must be >= 0"),
        (lambda m, c: replace(m, checkpoints=(replace(c, metrics={"m": math.nan}),)),
         "checkpoints[0]: metric 'm' of checkpoint 'a' is NaN"),
        (lambda m, c: replace(m, checkpoints=(c, replace(c, family="g"))),
         "checkpoints[1]: duplicate checkpoint id 'a'"),
    ])
    def test_writer_refuses_what_the_reader_refuses(self, tmp_path, change, message):
        _seed_dump(tmp_path, "a")
        meta = CheckpointMeta("a", "f", 0, "o", (tmp_path / "dumps" / "a.bin").resolve())
        good = Manifest(version=1, checkpoints=(meta,))
        out = tmp_path / "manifest.yaml"
        with pytest.raises(ManifestError) as exc:
            dump_manifest(change(good, meta), out)
        assert str(exc.value) == f"{out}: {message}"
        assert not out.exists()
        dump_manifest(good, out)
        assert load_manifest(out).checkpoints == (replace(meta, count=2),)

    @pytest.mark.parametrize("metrics", [[], 0, False, ""], ids=["list", "zero", "false", "empty-str"])
    def test_a_falsy_non_mapping_metrics_is_refused_by_reader_and_writer(self, tmp_path, metrics):
        _seed_dump(tmp_path, "a")
        meta = CheckpointMeta("a", "f", 0, "o", (tmp_path / "dumps" / "a.bin").resolve(), metrics)
        out = tmp_path / "manifest.yaml"
        with pytest.raises(ManifestError) as written:
            dump_manifest(Manifest(version=1, checkpoints=(meta,)), out)
        assert not out.exists()
        entry = {"id": "a", "family": "f", "step": 0, "objective": "o", "loss": "dumps/a.bin"}
        out.write_text(yaml.safe_dump({"version": 1, "checkpoints": [entry | {"metrics": metrics}]}),
                       encoding="utf-8")
        with pytest.raises(ManifestError) as read:
            load_manifest(out)
        assert str(read.value) == str(written.value) == f"{out}: checkpoints[0]: metrics must be a mapping"

    def test_a_missing_or_empty_metrics_is_no_metrics(self, tmp_path):
        _seed_dump(tmp_path, "a")
        meta = CheckpointMeta("a", "f", 0, "o", (tmp_path / "dumps" / "a.bin").resolve(), None)
        out = tmp_path / "manifest.yaml"
        dump_manifest(Manifest(version=1, checkpoints=(meta,)), out)
        assert "metrics" not in out.read_text(encoding="utf-8")
        assert load_manifest(out).checkpoints[0].metrics == {}
        out.write_text(out.read_text(encoding="utf-8") + "  metrics:\n", encoding="utf-8")
        assert load_manifest(out).checkpoints[0].metrics == {}


# Dumps a generated manifest entry can point at: two good ones and every
# way a dump can be bad. Loss paths are relative to the manifest.
_DUMP_BYTES = {
    "good.bin": MAGIC + struct.pack("<Q", 2) + struct.pack("<2f", 0.5, math.inf),
    "good.txt": b"0.5\n\n1.5\n",
    "truncated.bin": MAGIC + struct.pack("<Q", 3) + struct.pack("<2f", 0.5, 1.0),
    "longer.bin": MAGIC + struct.pack("<Q", 1) + struct.pack("<2f", 0.5, 1.0),
    "zero.bin": MAGIC + struct.pack("<Q", 0),
    "v9.bin": b"CELOSSv9" + struct.pack("<Q", 1) + struct.pack("<f", 1.0),
    "nan.bin": MAGIC + struct.pack("<Q", 1) + struct.pack("<f", math.nan),
    "empty.txt": b"",
    "blank.txt": b"\n \n",
    "junk.txt": b"0.5\nx\n",
}
_LOSS_PATHS = (*_DUMP_BYTES, "missing.bin", "loop.bin", "nul\0.bin", "", "sub",
               "good.bin/x", "sub/../good.bin")
_HUGE_INTS = (2**64, 10**400, -(10**400))
_ODD = (st.none() | st.booleans() | st.integers(-2, 2) | st.sampled_from(_HUGE_INTS)
        | st.floats() | st.text("ab./\0 ", max_size=3) | st.lists(st.integers(0, 1), max_size=1))
_DROP = object()


@st.composite
def _manifest_entries(draw):
    """A well-formed entry, or one with a key missing or holding an odd value."""
    entry = {
        "id": draw(st.text("ab", min_size=1, max_size=2)),
        "family": draw(st.sampled_from("fg")),
        "step": draw(st.integers(0, 3)),
        "objective": "o",
        "loss": draw(st.sampled_from(_LOSS_PATHS)),
    }
    metrics = draw(st.dictionaries(
        st.sampled_from(("judge", "n") * 4 + (1, None)),
        st.floats() | st.integers(-3, 3) | st.sampled_from((*_HUGE_INTS, True)),
        max_size=2,
    ))
    if metrics:
        entry["metrics"] = metrics
    odd = draw(st.sampled_from((None,) * 12 + (*entry, "metrics")))
    if odd is not None:
        value = draw(_ODD | st.just(_DROP))
        if value is _DROP:
            entry.pop(odd, None)
        else:
            entry[odd] = value
    return entry


@pytest.fixture(scope="module")
def dump_dir(tmp_path_factory):
    """Every dump of _DUMP_BYTES, a symlink loop and a subdirectory."""
    root = tmp_path_factory.mktemp("dumps")
    for name, data in _DUMP_BYTES.items():
        (root / name).write_bytes(data)
    (root / "loop.bin").symlink_to("loop.bin")
    (root / "sub").mkdir()
    return root


class TestManifestDataNeverInternalError:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(_manifest_entries(), min_size=1, max_size=3))
    @example([{"id": "a", "family": "f", "step": 0, "objective": "o", "loss": "nul\0.bin"}])
    @example([{"id": "a", "family": "f", "step": 0, "objective": "o", "loss": "loop.bin"}])
    @example([{"id": "a", "family": "f", "step": 0, "objective": "o", "loss": "good.bin",
               "metrics": {"judge": 10**400}}])
    def test_summarize_exits_0_or_names_the_bad_entry_or_dump(self, dump_dir, entries):
        manifest = dump_dir / "manifest.yaml"
        with open(manifest, "w", encoding="utf-8") as fh:
            yaml.safe_dump({"version": 1, "checkpoints": entries}, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["summarize", "--manifest", str(manifest)])
        assert rc in (0, 2), err.getvalue()
        if rc == 2:
            message = json.loads(err.getvalue())["message"]
            names = [f"checkpoints[{i}]" for i in range(len(entries))]
            for entry in entries:
                try:
                    names.append(str((dump_dir / entry["loss"]).resolve()))
                except (KeyError, TypeError, ValueError, RuntimeError):
                    pass  # the entry's own error names it
            assert any(name in message for name in names), message


_EXTRA_KEYS = (st.sampled_from(("metric", "stpe", "source", "Step", "id", "version", "metrics"))
               | st.text("ab:#- é\n", max_size=3) | st.integers(-2, 2) | st.booleans() | st.none())


class TestManifestKeySet:
    @settings(max_examples=60, deadline=None)
    @given(entries=st.integers(1, 3), data=st.data())
    def test_a_key_outside_the_layout_is_refused_by_reader_and_writer(self, dump_dir, entries, data):
        at = data.draw(st.integers(-1, entries - 1), label="at")  # -1 is the top level
        known = store._MANIFEST_KEYS if at < 0 else store._ENTRY_KEYS
        key = data.draw(_EXTRA_KEYS.filter(lambda k: k not in known), label="key")
        path = dump_dir / "keys.yaml"
        dump_manifest(Manifest(1, tuple(
            CheckpointMeta(f"c{i}", "f", i, "o", dump_dir / "good.bin", {"judge": 1.0} if i else {})
            for i in range(entries))), path)
        # The writer keeps to the layout, so the reader takes what it wrote.
        assert len(load_manifest(path).checkpoints) == entries
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
        (doc if at < 0 else doc["checkpoints"][at])[key] = 1
        path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
        where = str(path) if at < 0 else f"{path}: checkpoints[{at}]"
        with pytest.raises(ManifestError) as read:
            load_manifest(path)
        # The writer holds its document to the same rule before it writes.
        with pytest.raises(ManifestError) as written:
            store._checked_entries(doc, str(path))
        assert str(read.value) == str(written.value) == f"{where}: unknown key {key!r}"


# Strings PyYAML's two emitters disagree on: libyaml wraps long
# double-quoted (non-ASCII) scalars and lays out empty or long mapping keys
# differently. The rest are the usual quoting hazards.
_AWKWARD_IDS = (
    "a:b", "a: b", "it's", 'say "hi"', "  lead", "#hash", "- dash",
    "héllo wörld", "x" * 200, "é" * 200, "caf\u00e9 " * 30,
)


def _awkward_manifest(tmp_path):
    return Manifest(
        version=1,
        checkpoints=tuple(
            CheckpointMeta(
                checkpoint_id=cid,
                family=f"fam {cid[:3]}",
                step=i,
                objective=cid[::-1],
                loss_path=(tmp_path / "dumps" / f"d{i}.bin").resolve(),
                metrics={"": 1.0, "k" * 150: -0.0, cid: math.inf},
            )
            for i, cid in enumerate(_AWKWARD_IDS)
        ),
    )


class TestManifestYaml:
    def test_dump_bytes_are_the_pure_python_emitters(self, tmp_path):
        m = _awkward_manifest(tmp_path)
        out = tmp_path / "manifest.yaml"
        dump_manifest(m, out)
        doc = {
            "version": 1,
            "checkpoints": [
                {
                    "id": c.checkpoint_id,
                    "family": c.family,
                    "step": c.step,
                    "objective": c.objective,
                    "loss": f"dumps/d{i}.bin",
                    "metrics": dict(c.metrics),
                }
                for i, c in enumerate(m.checkpoints)
            ],
        }
        want = yaml.dump(doc, Dumper=yaml.SafeDumper, sort_keys=False)
        assert out.read_bytes() == want.encode("utf-8")

    def test_pure_python_loader_gives_equal_manifest(self, tmp_path, monkeypatch):
        m = _awkward_manifest(tmp_path)
        for i in range(len(_AWKWARD_IDS)):
            _seed_dump(tmp_path, f"d{i}")
        block = tmp_path / "manifest.yaml"
        dump_manifest(m, block)
        flow = _write_manifest(
            tmp_path / "json",
            """\
            {"version": 1, "checkpoints": [
              {"id": "j", "family": "f", "step": 7, "objective": "o",
               "loss": "../dumps/d0.bin", "metrics": {"judge": 2.5e-3, "n": 3}}]}
            """,
        )
        fast = [load_manifest(p) for p in (block, flow)]
        monkeypatch.setattr(store, "_YAML_LOADER", yaml.SafeLoader)
        slow = [load_manifest(p) for p in (block, flow)]
        assert fast == slow
        # A loaded manifest carries each dump's measured count.
        assert fast[0] == replace(m, checkpoints=tuple(replace(c, count=2) for c in m.checkpoints))

    def test_unparseable_is_manifest_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "manifest.yaml"
        # Broken YAML, and bytes that are not UTF-8.
        broken = b"version: 1\ncheckpoints: [{id: a\n"
        for body in (broken, b"version: 1\ncheckpoints: [\xff]\n"):
            path.write_bytes(body)
            with pytest.raises(ManifestError, match="not parseable"):
                load_manifest(path)
            assert cli.main(["summarize", "--manifest", str(path)]) == 2
            assert json.loads(capsys.readouterr().err)["error"] == "ManifestError"

    @pytest.mark.parametrize("version", [0, 2, 7])
    def test_only_version_1_loads(self, tmp_path, capsys, version):
        path = _write_manifest(
            tmp_path,
            f"""\
            version: {version}
            checkpoints:
            - {{id: a, family: f, step: 0, objective: o, loss: a.bin}}
            """,
        )
        message = f"{path}: unsupported manifest version {version}"
        with pytest.raises(ManifestError) as info:
            load_manifest(path)
        assert str(info.value) == message
        assert cli.main(["summarize", "--manifest", str(path)]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert (payload["error"], payload["message"]) == ("ManifestError", message)

