"""File formats: text and .npy matrices, label lists, PGM images."""

import os
import re
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cohpca import io
from cohpca.errors import DataError
from cohpca.io import (
    read_labels,
    read_matrix,
    read_pgm,
    write_labels,
    write_matrix,
    write_pgm,
)


# ---- matrices ----


def test_matrix_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((7, 5)) * np.logspace(-8, 8, 5)
    path = tmp_path / "a.txt"
    write_matrix(path, a)
    back = read_matrix(path)
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, a)  # 17 significant digits round trip


def test_matrix_single_entry(tmp_path):
    path = tmp_path / "one.txt"
    write_matrix(path, np.array([[3.5]]))
    np.testing.assert_array_equal(read_matrix(path), [[3.5]])


def test_matrix_rejects_non_finite_both_ways(tmp_path):
    path = tmp_path / "bad.txt"
    for v in (np.nan, np.inf, -np.inf):
        with pytest.raises(DataError, match="NaN or Inf"):
            write_matrix(path, np.array([[v]]))
    path.write_text("1 2\nnan 1.0\n")
    with pytest.raises(DataError, match="NaN or Inf"):
        read_matrix(path)


def test_matrix_writer_validates_shape(tmp_path):
    with pytest.raises(DataError, match="2-d"):
        write_matrix(tmp_path / "v.txt", np.arange(3.0))


def test_matrix_reader_rejects_malformed_files(tmp_path):
    cases = {
        "empty.txt": "",
        "short-header.txt": "3\n1 2 3\n",
        "word-header.txt": "two 3\n1 2 3\n",
        "zero-dim.txt": "0 3\n",
        "wrong-width.txt": "1 3\n1 2\n",
        "wrong-height.txt": "3 1\n1\n2\n",
        "non-numeric.txt": "1 2\n1 pear\n",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(DataError):
            read_matrix(path)


def test_matrix_reader_rejects_rows_beyond_the_header(tmp_path):
    path = tmp_path / "extra-rows.txt"
    path.write_text("2 2\n1 2\n3 4\n5 6\n")
    with pytest.raises(DataError, match=r"body shape \(3, 2\) does not match"):
        read_matrix(path)


def test_matrix_reader_stops_one_row_past_the_header(tmp_path):
    # one extra row is enough to see a longer body, comment lines between
    path = tmp_path / "long.txt"
    path.write_text("2 2\n" + "".join(f"{i} {i}\n# between\n\n" for i in range(7)))
    with pytest.raises(DataError, match=r"body shape \(3, 2\) does not match header 2 x 2 \(reading stopped at row 3\)"):
        read_matrix(path)


def test_matrix_reader_skips_comment_and_blank_lines_between_rows_and_warns_nothing(tmp_path):
    path = tmp_path / "comments.txt"
    path.write_text("2 3\n# first\n1 2 3\n\n   \n# second\n4 5 6\n# end\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(read_matrix(path), [[1, 2, 3], [4, 5, 6]])


def test_matrix_reader_rejects_a_header_its_file_cannot_fill_before_allocating(tmp_path):
    path = tmp_path / "huge-header.txt"
    path.write_text("1000000000000 3\n1 2 3\n")
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="huge-header.txt: header 1000000000000 x 3 needs more"):
            read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak / 1e6:.1f} MB"


def test_text_reader_makes_the_matrix_once_at_the_header_size(tmp_path):
    # a matrix grown row block by row block peaks at about 1.24x; made once,
    # the matrix and the finite check's mask of an eighth of its size remain
    a = np.random.default_rng(6).standard_normal((400, 5050))
    path = tmp_path / "big.txt"
    write_matrix(path, a)
    tracemalloc.start()
    try:
        read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * a.nbytes, f"peak {peak / a.nbytes:.3f}x of the matrix"


def test_matrix_reader_reports_the_path(tmp_path):
    path = tmp_path / "named.txt"
    path.write_text("bogus\n")
    with pytest.raises(DataError, match="named.txt"):
        read_matrix(path)


@pytest.mark.parametrize(
    "text",
    [b"+1 0_2\n1 2\n", b"1 2_0\n" + b"1 " * 20 + b"\n", b"2 1\xff\n1\n2\n"],
    ids=["plus-sign-and-digit-group", "digit-group", "byte-not-text"],
)
def test_matrix_header_dimensions_are_plain_decimal_digits(tmp_path, text):
    # int() alone reads the first two as 1 x 2 and 1 x 20 and takes the body
    path = tmp_path / "header.txt"
    path.write_bytes(text)
    with pytest.raises(DataError, match=re.escape(f"{path}: non-integer dimensions in header")):
        read_matrix(path)


# the extremes of float64 and values whose shortest repr is not 17 digits
EDGE_VALUES = [
    -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    1e-300, -1e-300, 1e300, -1e300, 0.1, 1 / 3, 0.0, -2.5, 123456789.0,
]


def per_value_bytes(a):
    # the reference writer: one f-string per value
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    lines += [" ".join(f"{v:.17g}" for v in row) for row in a]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize(
    "a",
    [
        np.array(EDGE_VALUES).reshape(2, 7),
        np.array([[-0.0]]),
        np.resize(EDGE_VALUES, (3, 600)) * np.linspace(-1.0, 1.0, 600),
    ],
    ids=["edges", "1x1", "3x600"],
)
def test_matrix_writer_bytes_match_the_per_value_reference(tmp_path, a):
    path = tmp_path / "a.txt"
    write_matrix(path, a)
    assert path.read_bytes() == per_value_bytes(a)
    back = read_matrix(path)
    np.testing.assert_array_equal(back, a)
    np.testing.assert_array_equal(np.signbit(back), np.signbit(a))


def test_matrix_writer_never_converts_the_whole_matrix(tmp_path):
    a = np.random.default_rng(5).standard_normal((400, 5050))
    tracemalloc.start()
    try:
        write_matrix(tmp_path / "big.txt", a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes / 4, f"peak {peak / 1e6:.1f} MB"


def assert_writes_the_reference(path, a):
    write_matrix(path, a)
    assert path.read_bytes() == per_value_bytes(a)
    np.testing.assert_array_equal(read_matrix(path).view(np.uint64), a.view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(a=arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 6)),
                elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_matrix_writer_matches_the_reference_on_any_finite_float(tmp_path_factory, a):
    # the strategy draws subnormals, +-0 and both ends of the range
    assert_writes_the_reference(tmp_path_factory.mktemp("any") / "a.txt", a)


def _neighbours(x):
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate([np.nextafter(x, 0), x, np.nextafter(x, np.inf)])


_RNG = np.random.default_rng(9)
_BITS = _RNG.integers(0, 2**64 - 1, size=(400, 500), dtype=np.uint64, endpoint=True).view(np.float64)


@pytest.mark.parametrize(
    "a",
    [
        _neighbours(10.0 ** np.arange(-323, 309)).reshape(3, -1),
        (2.0 ** np.arange(-1074, 1024)).reshape(2, -1),
        np.concatenate([_neighbours(c + s * np.arange(-40, 41)) for c, s in
                        ((2.0**53, 1), (1e16, 2), (1e17, 16))]).reshape(-1, 9),
        -_neighbours([1e-280, 1e280]).reshape(1, -1),
        np.where(np.isfinite(_BITS), _BITS, 0.5),
        _RNG.standard_normal((1, 9000)),
        _RNG.standard_normal((5000, 1)) * 1e-3,
        _RNG.standard_normal((7, 1001)) * 10.0 ** _RNG.integers(-20, 20, (7, 1001)),
        np.array([[1e15 + 0.25, 1e15 + 0.75, 0.5, 100.0, 123.456, -2.5e-5]]),
    ],
    ids=["pow10-neighbours", "pow2", "near-2**53-1e16-1e17", "1e-280-1e280", "uint64-bits",
         "1xn", "nx1", "rows-across-blocks", "ties-and-fixed-notation"],
)
def test_matrix_writer_matches_the_reference_at_the_edges(tmp_path, a):
    assert_writes_the_reference(tmp_path / "a.txt", a)


def test_matrix_writer_fallback_writes_the_reference(tmp_path, monkeypatch):
    # with every value a near-tie, every value takes the per-value format
    monkeypatch.setattr(io, "_NEAR_TIE", 1.0)
    a = np.resize(EDGE_VALUES, (3, 600)) * np.linspace(-1.0, 1.0, 600)
    assert_writes_the_reference(tmp_path / "a.txt", a)


@pytest.mark.parametrize("name", ["e.txt", "e.npy"])
@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_matrix_writer_rejects_empty_matrices(tmp_path, name, shape):
    path = tmp_path / name
    with pytest.raises(DataError, match=r"matrix must be 2-d and non-empty, got shape \(%d, %d\)" % shape):
        write_matrix(path, np.zeros(shape))
    assert not path.exists()


@pytest.mark.parametrize("body", ["2 3\n", "2 3\n\n  \n", "2 3\n# no rows\n"])
def test_matrix_reader_rejects_a_header_without_rows_and_warns_nothing(tmp_path, body):
    path = tmp_path / "header-only.txt"
    path.write_text(body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="header-only.txt: no matrix rows"):
            read_matrix(path)


def test_npy_matrix_round_trip_is_bit_exact(tmp_path):
    a = np.array(EDGE_VALUES).reshape(7, 2)
    path = tmp_path / "a.npy"
    write_matrix(path, a)
    assert path.read_bytes().startswith(b"\x93NUMPY")
    back = read_matrix(path)
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, a)
    np.testing.assert_array_equal(np.signbit(back), np.signbit(a))


def test_npy_writer_rejects_what_the_text_writer_rejects(tmp_path):
    with pytest.raises(DataError, match="2-d"):
        write_matrix(tmp_path / "v.npy", np.arange(3.0))
    with pytest.raises(DataError, match="NaN or Inf"):
        write_matrix(tmp_path / "n.npy", np.array([[np.inf]]))


def test_npy_reader_rejects_all_but_finite_2d_float64(tmp_path):
    cases = {
        "vector.npy": (np.arange(3.0), r"matrix must be 2-d and non-empty, got shape \(3,\)"),
        "cube.npy": (np.zeros((2, 2, 2)), "matrix must be 2-d"),
        "float32.npy": (np.ones((2, 2), np.float32), "matrix must be float64, got float32"),
        "int.npy": (np.ones((2, 2), np.int64), "matrix must be float64, got int64"),
        "empty.npy": (np.zeros((0, 3)), r"matrix must be 2-d and non-empty, got shape \(0, 3\)"),
        "nan.npy": (np.array([[1.0, np.nan]]), "matrix contains NaN or Inf"),
        "inf.npy": (np.array([[-np.inf]]), "matrix contains NaN or Inf"),
    }
    for name, (arr, message) in cases.items():
        path = tmp_path / name
        np.save(path, arr)
        with pytest.raises(DataError, match=f"{name}: {message}"):
            read_matrix(path)


def test_npy_reader_rejects_files_that_are_not_one_array(tmp_path):
    path = tmp_path / "objects.npy"
    np.save(path, np.array([[1.0, None]], dtype=object), allow_pickle=True)
    with pytest.raises(DataError, match="objects.npy: unparseable"):
        read_matrix(path)
    path = tmp_path / "text.npy"
    path.write_text("1 1\n2.0\n")
    with pytest.raises(DataError, match="text.npy: unparseable"):
        read_matrix(path)
    path = tmp_path / "truncated.npy"
    write_matrix(path, np.ones((3, 3)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(DataError, match="truncated.npy: unparseable"):
        read_matrix(path)
    path = tmp_path / "archive.npy"
    with open(path, "wb") as fh:
        np.savez(fh, a=np.ones((2, 2)))
    with pytest.raises(DataError, match="archive.npy: .*npz"):
        read_matrix(path)


# ---- text matrices in forked parts ----

# the split needs Linux and a second usable CPU; tests that assert it ran
# skip without them
SPLITS = sys.platform == "linux" and len(os.sched_getaffinity(0)) >= 2
needs_split = pytest.mark.skipif(not SPLITS, reason="no split without Linux and 2 usable CPUs")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def split(monkeypatch):
    """split(size) makes matrices of 2 * size values or more split in two
    parts, and returns the list that gets each split's result: False
    where the serial path reran."""
    outcomes = []
    real = io._in_children

    def in_children(jobs, receive):
        outcomes.append(real(jobs, receive))
        return outcomes[-1]

    def split_at(size):
        monkeypatch.setattr(io, "_PART_VALUES", size)
        monkeypatch.setattr(io, "_in_children", in_children)
        return outcomes

    return split_at


def read_outcome(path):
    """The values read, as bits, or the DataError message."""
    try:
        return read_matrix(path).view(np.uint64).tolist()
    except DataError as exc:
        return str(exc)


def cut_of(data):
    # where the reader cuts a text matrix in two parts: after the first
    # newline from the middle of the body on
    body = data.index(b"\n") + 1
    return data.index(b"\n", body + (len(data) - body) // 2) + 1


def count_rows(k, n, start=0, pad=b""):
    return b"".join(b" ".join(b"%d" % (start + i * n + j) for j in range(n)) + pad + b"\n" for i in range(k))


# 8 x 3 files, each with what the cut in two parts sees before and after it;
# the last four are input errors
SPLIT_FILES = {
    "comments-straddle": (
        b"8 3\n" + count_rows(4, 3) + b"# a comment\n\n   \n# another\n\n" + count_rows(4, 3, 12),
        b"# another\n", b"\n12 13 14\n",
    ),
    "crlf": ((b"8 3\n" + count_rows(8, 3)).replace(b"\n", b"\r\n"), b"12 13 14\r\n", b"15 16 17\r\n"),
    "non-utf8-comment": (
        b"8 3\n" + count_rows(6, 3) + b"# caf\xe9\n" + count_rows(2, 3, 18), b"12 13 14\n", b"15 16 17\n# caf\xe9",
    ),
    "columns-change": (
        b"8 3\n" + count_rows(4, 3, pad=b" " * 6) + count_rows(4, 4, 12), b"9 10 11      \n", b"12 13 14 15\n",
    ),
    "rows-beyond-header": (b"8 3\n" + count_rows(10, 3), b"15 16 17\n", b"18 19 20\n"),
    "garbage-after-row-m+1": (b"8 3\n" + count_rows(9, 3) + b"pear 1 2\n" * 3, b"18 19 20\n", b"21 22 23\n"),
    "non-utf8-value": (
        b"8 3\n" + count_rows(4, 3) + count_rows(4, 3, 12).replace(b"22", b"2\xff2"), b"12 13 14\n", b"15 16 17\n",
    ),
}


@needs_split
@pytest.mark.parametrize("name", SPLIT_FILES)
def test_split_reader_gives_the_serial_values_or_message(tmp_path, split, name):
    data, before, after = SPLIT_FILES[name]
    cut = cut_of(data)
    assert data[:cut].endswith(before) and data[cut:].startswith(after)
    path = tmp_path / "m.txt"
    path.write_bytes(data)
    serial = read_outcome(path)
    outcomes = split(12)
    assert read_outcome(path) == serial
    # the serial path reran exactly where it raised
    assert outcomes == [not isinstance(serial, str)]
    assert_no_child_left()


@needs_split
@pytest.mark.parametrize(
    "a",
    [
        np.resize(EDGE_VALUES, (3, 600)) * np.linspace(-1.0, 1.0, 600),
        _RNG.standard_normal((7, 1001)) * 10.0 ** _RNG.integers(-20, 20, (7, 1001)),
        _RNG.standard_normal((5000, 1)) * 1e-3,
    ],
    ids=["edges", "rows-across-blocks", "nx1"],
)
def test_split_writer_and_reader_give_the_serial_bytes_and_bits(tmp_path, split, a):
    outcomes = split(a.size // 2)
    assert_writes_the_reference(tmp_path / "a.txt", a)
    assert outcomes == [True, True]
    assert_no_child_left()


def fail_last_part(monkeypatch, name):
    # the children inherit the patch, and the serial path does not call it;
    # the first part arrives whole, so the writer has copied it to the file
    real = getattr(io, name)

    def fail(*args):
        last = args[1].start > 0 if name == "_format_part" else args[2] == len(args[0])
        if last:
            raise RuntimeError("the last part failed")
        return real(*args)

    monkeypatch.setattr(io, name, fail)


@needs_split
@pytest.mark.parametrize("failing", ["_format_part", "_load_part"])
def test_a_failed_child_reruns_the_serial_path(tmp_path, split, monkeypatch, failing):
    fail_last_part(monkeypatch, failing)
    a = _RNG.standard_normal((7, 1001))
    outcomes = split(a.size // 2)
    assert_writes_the_reference(tmp_path / "a.txt", a)
    assert outcomes == ([False, True] if failing == "_format_part" else [True, False])
    assert_no_child_left()


class InterruptedPipe:
    """A pipe whose read number `at` raises KeyboardInterrupt."""

    def __init__(self, pipe, at):
        self.pipe, self.at, self.closed = pipe, at, False

    def readinto(self, buffer):
        self.at -= 1
        if not self.at:
            raise KeyboardInterrupt
        return self.pipe.readinto(buffer)

    def close(self):
        self.pipe.close()
        self.closed = True


@needs_split
@pytest.mark.parametrize("direction", ["write", "read"])
@pytest.mark.parametrize("children", ["blocked-writing", "still-working"])
def test_an_interrupt_mid_drain_leaves_no_child_and_no_pipe(tmp_path, split, monkeypatch, direction, children):
    # each part is several times the 64 KiB a pipe holds, so the children
    # are blocked writing when the parent stops reading after the first read;
    # or they sleep, and only a kill lets the call return within the bound
    a = _RNG.standard_normal((200, 300))
    path = tmp_path / "a.txt"
    write_matrix(path, a)
    at = 2
    if children == "still-working":
        at = 1
        for name in ("_format_part", "_load_part"):
            monkeypatch.setattr(io, name, lambda *args: time.sleep(120))
    pipes = []
    real = io._fork

    def fork(job):
        pid, pipe = real(job)
        pipes.append(InterruptedPipe(pipe, at))
        return pid, pipes[-1]

    monkeypatch.setattr(io, "_fork", fork)
    split(a.size // 2)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        write_matrix(path, a) if direction == "write" else read_matrix(path)
    assert time.monotonic() - start < 60
    assert len(pipes) == 2 and all(p.closed for p in pipes)
    assert_no_child_left()


@needs_split
@settings(max_examples=60, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(b"0123456789 .-+e\n\r#x\xff")),
                      min_size=1, max_size=4))
def test_split_reader_agrees_with_the_serial_reader_on_edited_files(tmp_path_factory, edits):
    path = tmp_path_factory.mktemp("edit") / "m.txt"
    data = bytearray(b"6 4\n" + b"".join(b"%.17g %r -0.5 1e-300\n" % (i / 7, i * 1e6) for i in range(6)))
    for at, byte in edits:
        data[at % len(data)] = byte
    path.write_bytes(data)
    serial = read_outcome(path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io, "_PART_VALUES", 12)
        assert read_outcome(path) == serial
    assert_no_child_left()


# ---- labels ----


def test_labels_round_trip(tmp_path):
    path = tmp_path / "labels.txt"
    labels = np.array([0, 1, 1, 0, 3])
    write_labels(path, labels)
    back = read_labels(path)
    assert back.dtype == np.int64
    np.testing.assert_array_equal(back, labels)


def test_labels_skip_blank_lines_and_reject_junk(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0\n\n1\n")
    np.testing.assert_array_equal(read_labels(path), [0, 1])
    path.write_text("0\nx\n")
    with pytest.raises(DataError, match="label"):
        read_labels(path)


def test_labels_accept_integer_valued_floats(tmp_path):
    path = tmp_path / "labels.txt"
    write_labels(path, np.array([0.0, -1.0, 2.0]))
    assert path.read_text() == "0\n-1\n2\n"


@pytest.mark.parametrize(
    "labels, message",
    [
        ([0, 1.7, 2], "labels must be integers, got 1.7"),
        ([0.0, np.nan], "label list contains NaN or Inf"),
        ([1.0, -np.inf], "label list contains NaN or Inf"),
        ([[0, 1], [1, 0]], r"labels must be 1-d, got shape \(2, 2\)"),
        (3, r"labels must be 1-d, got shape \(\)"),
        (["a", "b"], "labels must be integers, got dtype <U1"),
        ([1 + 2j], "labels must be integers, got dtype complex128"),
        ([0.0, 1e300], r"labels must fit in int64, got 1e\+300"),
        ([0.0, 2.0**63], r"labels must fit in int64, got 9\.223372036854776e\+18"),
        ([-(2.0**64), 0.0], r"labels must fit in int64, got -1\.8446744073709552e\+19"),
        (np.array([0, 2**63], dtype=np.uint64),
         "labels must fit in int64, got 9223372036854775808"),
    ],
)
def test_labels_writer_rejects_what_it_would_truncate(tmp_path, labels, message):
    path = tmp_path / "labels.txt"
    with pytest.raises(DataError, match=message):
        write_labels(path, labels)
    assert not path.exists()


@pytest.mark.parametrize(
    "labels",
    [
        np.array([-(2**63), 2**63 - 1]),
        np.array([0, 2**63 - 1], dtype=np.uint64),
        np.array([-(2.0**63), 2.0**62]),
    ],
)
def test_labels_at_the_int64_limits_round_trip(tmp_path, labels):
    path = tmp_path / "labels.txt"
    write_labels(path, labels)
    back = read_labels(path)
    assert back.dtype == np.int64
    assert back.tolist() == [int(v) for v in labels]


def test_labels_reader_names_the_file_of_a_label_outside_int64(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text(f"0\n{2**63}\n")
    with pytest.raises(DataError, match=re.escape(f"{path}: label outside int64")):
        read_labels(path)


# ---- the integer rule of every reader ----


# each site's file around one token, the reader and the integer it yields,
# the message of a token that is not an integer, and that of a negative one
INTEGER_SITES = {
    "matrix-header": (
        "{} 1\n" + "0\n" * 7, lambda p: read_matrix(p).shape[0],
        "non-integer dimensions in header", "dimensions must be positive",
    ),
    "label-line": ("0\n{}\n", lambda p: read_labels(p)[1], "unparseable label file", None),
    "pgm-width": (
        "P2\n{} 1\n255\n" + "0 " * 7, lambda p: read_pgm(p).shape[1],
        "malformed PGM header", "image dimensions must be positive",
    ),
    "p2-pixel": (
        "P2\n1 1\n255\n{}\n", lambda p: read_pgm(p)[0, 0],
        "unparseable PGM pixel data", "image pixels must lie in 0..255",
    ),
}
# whitespace separates tokens at every site, so " 7" is the token 7
PLAIN_INTEGERS = {"7": 7, "-7": -7, " 7": 7}
# each token with its test id
TOKENS = {"7": "7", "-7": "-7", "+7": "+7", "1_0": "1_0", "\u0663": "arabic-3", "7.0": "7.0", " 7": "space-7"}


@pytest.mark.parametrize("token", TOKENS, ids=TOKENS.values())
@pytest.mark.parametrize("site", INTEGER_SITES)
def test_every_reader_takes_only_plain_decimal_integers(tmp_path, site, token):
    layout, read, not_an_integer, negative = INTEGER_SITES[site]
    path = tmp_path / "f"
    path.write_bytes(layout.format(token).encode())
    if token not in PLAIN_INTEGERS:
        with pytest.raises(DataError, match=re.escape(f"{path}: {not_an_integer}")):
            read(path)
    elif PLAIN_INTEGERS[token] < 0 and negative:
        with pytest.raises(DataError, match=re.escape(f"{path}: {negative}")):
            read(path)
    else:
        assert read(path) == PLAIN_INTEGERS[token]


# ---- PGM images ----


def test_pgm_round_trip_is_exact(tmp_path):
    img = np.arange(12, dtype=np.uint8).reshape(3, 4) * 20
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.dtype == np.uint8
    np.testing.assert_array_equal(back, img)
    assert path.read_bytes().startswith(b"P2\n4 3\n255\n")


def test_pgm_write_rounds_floats(tmp_path):
    path = tmp_path / "img.pgm"
    write_pgm(path, np.array([[0.4, 254.6]]))
    np.testing.assert_array_equal(read_pgm(path), [[0, 255]])


def test_pgm_writer_rejects_out_of_range():
    with pytest.raises(DataError, match="0..255"):
        write_pgm("/dev/null", np.array([[-1]]))
    with pytest.raises(DataError, match="0..255"):
        write_pgm("/dev/null", np.array([[256]]))
    with pytest.raises(DataError, match="2-d"):
        write_pgm("/dev/null", np.zeros(4))
    with pytest.raises(DataError, match="NaN or Inf"):
        write_pgm("/dev/null", np.array([[np.nan]]))
    with pytest.raises(DataError, match=r"image must be 2-d and non-empty, got shape \(0, 3\)"):
        write_pgm("/dev/null", np.zeros((0, 3)))


def test_pgm_reads_binary_p5(tmp_path):
    path = tmp_path / "bin.pgm"
    pixels = bytes([0, 50, 100, 150, 200, 255])
    path.write_bytes(b"P5\n3 2\n255\n" + pixels)
    img = read_pgm(path)
    np.testing.assert_array_equal(img, np.frombuffer(pixels, np.uint8).reshape(2, 3))


def test_pgm_header_comments_are_skipped(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_text("P2\n# made by hand\n2 1\n# maxval next\n255\n7 9\n")
    np.testing.assert_array_equal(read_pgm(path), [[7, 9]])


def test_pgm_reader_rejects_malformed_files(tmp_path):
    cases = {
        "magic.pgm": b"P6\n1 1\n255\n\x00",
        "truncated-header.pgm": b"P2\n2 2\n",
        "word-size.pgm": b"P2\ntwo 1\n255\n0\n",
        "zero-size.pgm": b"P2\n0 1\n255\n",
        "big-maxval.pgm": b"P2\n1 1\n65535\n0\n",
        "few-pixels.pgm": b"P2\n2 2\n255\n1 2 3\n",
        "bad-pixel.pgm": b"P2\n1 1\n255\nx\n",
        "over-maxval.pgm": b"P2\n1 1\n100\n101\n",
        "negative-pixel.pgm": b"P2\n2 1\n255\n-1 5\n",
        "plus-sign.pgm": b"P2\n2 1\n255\n3 +7\n",
        "plus-sign-width.pgm": b"P2\n+2 1\n255\n3 7\n",
        "digit-group-height.pgm": b"P2\n1 1_0\n255\n" + b"0 " * 10,
        "plus-sign-maxval.pgm": b"P2\n2 1\n+255\n3 7\n",
        "digit-group.pgm": b"P2\n2 1\n255\n1_0 5\n",
        "int64-overflow.pgm": b"P2\n1 1\n255\n99999999999999999999\n",
        "short-binary.pgm": b"P5\n2 2\n255\n\x00\x01",
    }
    for name, blob in cases.items():
        path = tmp_path / name
        path.write_bytes(blob)
        with pytest.raises(DataError):
            read_pgm(path)


def test_pgm_header_error_names_the_header(tmp_path):
    path = tmp_path / "header.pgm"
    path.write_bytes(b"P2\n+2 1_0\n255\n" + b"0 " * 20)
    with pytest.raises(DataError, match=re.escape("header.pgm: malformed PGM header b'P2 +2 1_0 255'")):
        read_pgm(path)


def test_pgm_low_maxval_is_accepted(tmp_path):
    path = tmp_path / "low.pgm"
    path.write_text("P2\n2 1\n3\n0 3\n")
    np.testing.assert_array_equal(read_pgm(path), [[0, 3]])
