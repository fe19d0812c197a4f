"""Matrix, label, and PGM image files.

Matrix format: a header line "m n", then m lines of n space-separated
decimal floats.  Each value is written as ``b"%.17g" % v`` would write
it, 17 significant digits, so a write/read round trip reproduces
float64 exactly.  The writer formats fixed-size blocks of values in
NumPy: it scales each value to a 17-digit integer in double-double
arithmetic, lays sign, digits, point and exponent out in a fixed-width
byte template and deletes the unused bytes.  The few values that path
cannot round with certainty (near-ties, and magnitudes outside
[1e-280, 1e280]) go through the per-value ``%`` format, so the bytes
are those of the per-value writer.  The reader makes the matrix
once, at the size its header gives.

On Linux, which has os.fork, a text matrix of at least 400 000
values is read and written in forked parts, min(usable CPUs, values //
200 000) of them: the reader cuts the body into byte ranges at
newlines and each child runs the serial np.loadtxt call on one; the
writer gives each child a run of blocks to format.  Each child sends
its part through a pipe, and the parent gathers the parts in row
order into the one m x n matrix, or copies them to the file.  Values,
bytes and errors are the serial path's: a child that fails, a part cut
short and parts that do not make m x n all rerun the serial path.
The parent peaks as on the serial path.  Other platforms, and
smaller matrices, take the serial path.

A path ending in ".npy" selects NumPy's binary format instead
(``np.save`` / ``np.load`` without pickles), which holds only float64
arrays and is bit-exact too.  Both directions apply the package's
matrix rule, 2-d, non-empty and finite; nothing downstream can cope
with NaN or Inf.

Label files carry one integer per line.  Images use PGM: the reader
accepts both ASCII (P2) and binary (P5) with maxval up to 255, the
writer emits P2 with maxval 255.  Both directions apply the image rule:
the matrix rule with every pixel in 0..maxval.

Every integer the readers take, the matrix header's m and n, a label,
the PGM header's width, height and maxval and a P2 pixel, is ASCII
digits after an optional minus sign; int() alone would also take a
plus sign, a digit group such as 1_0 and non-ASCII digits.
"""

import functools
import itertools
import mmap
import os
import re
import signal
import sys
import warnings
from fractions import Fraction
from io import BytesIO, TextIOWrapper

import numpy as np

from .errors import DataError, _as_image, _as_matrix, _labels

__all__ = [
    "write_matrix",
    "read_matrix",
    "write_labels",
    "read_labels",
    "write_pgm",
    "read_pgm",
]


def _is_npy(path):
    return os.fspath(path).endswith(".npy")


_INTEGER = re.compile(rb"-?[0-9]+")
# a value of a matrix body as np.loadtxt reads it, which the command line's reals follow
_REAL = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|(?ai:nan|inf|infinity))")


def _integers(tokens, message):
    """The byte-string tokens as ints; DataError(message) unless each is
    ASCII digits after an optional minus sign and within int()'s digit
    limit.  The minus passes so that the caller's range rule names it."""
    try:
        if all(map(_INTEGER.fullmatch, tokens)):
            return [int(t) for t in tokens]
    except ValueError:  # beyond int()'s digit limit
        pass
    raise DataError(message)


# ---- forked parts ----
#
# np.loadtxt and the block writer hold the interpreter lock, so only
# processes can share a large text matrix out among the CPUs.

# the fewest values worth a part.  On 2 vCPUs two parts broke even with
# the serial path at about 125 000 values each (a fork and exit cost about
# 2.5 ms), and won by 15-20% at 200 000
_PART_VALUES = 200_000
_COPY_BYTES = 2**20  # the writer copies each part to the file in pieces of this size
_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead to deadlocks in the child\.$"


def _part_count(values):
    """The number of forked parts a text matrix of this many values is
    read or written in; below 2 it is read or written in-process."""
    if sys.platform != "linux":  # fork, and the CPUs this process may use
        return 1
    return min(len(os.sched_getaffinity(0)), values // _PART_VALUES)


def _fork(job):
    """Fork a child that writes the buffers job() returns to a pipe and
    exits; return its pid and the pipe's read end.

    The fork is safe although OpenBLAS may have worker threads alive,
    which Python 3.12 warns of: the child calls no BLAS routine and takes
    no lock another thread could hold (glibc resets malloc's locks at a
    fork), and it leaves through os._exit, which flushes none of the
    parent's open files and runs no exit handler.  Any warning in the
    child is an error, so it exits non-zero and the serial path reruns.
    """
    r, w = os.pipe()
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(r)
            warnings.simplefilter("error")
            # the whole part first: a child that wrote as it went would stall
            # on the full pipe while the parent drains an earlier part
            buffers = job()
            with open(w, "wb") as out:
                for b in buffers:
                    out.write(b)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, open(r, "rb")


def _in_children(jobs, receive):
    """Run each job in a forked child and hand the children's pipes, in job
    order, to receive, which reads one part and says whether it was whole.

    True when every part was whole and every child exited 0.  False when a
    child or a part failed, or forking or a pipe raised OSError: the
    caller then reruns its serial path, whose values, bytes and errors are
    the ones it gives.  No child outlives the call: every read end is
    closed, and every child killed unless all parts arrived, then reaped,
    before it returns or raises; a child left blocked on a full pipe would
    hang the reaping.
    """
    children = []
    whole = False
    try:
        for job in jobs:
            children.append(_fork(job))
        whole = all(receive(pipe) for _, pipe in children)
    except OSError:
        pass  # a fork, pipe or file write failed: the serial path says how
    finally:
        for pid, pipe in children:
            pipe.close()
            if not whole:
                os.kill(pid, signal.SIGKILL)
        exited = [os.waitpid(pid, 0)[1] == 0 for pid, _ in children]
    return whole and all(exited)


# ---- the text matrix writer ----
#
# A value v with 1e-280 <= |v| <= 1e280 and decimal exponent k prints as
# the 17 digits of D = round(|v| 10^(16-k)), 1e16 <= D < 1e17, with a
# point and, outside -4 <= k <= 16, an exponent.  Each value gets a
# 48-byte template row, read as six words and filled from small tables:
#   word 0     sign, "0." and up to three zeros (-4 <= k < 0), pad, digit 0
#   words 1-4  a point slot before each of digits 1 to 16
#   word 5     "e", exponent sign, three exponent digits, separator, pad
# The bytes left 0 are deleted at the end.  Tables are built from bytes
# and only combined by AND and OR, so the byte order does not matter.

BLOCK_VALUES = 4096  # values per vector pass; 6144 ran 40% slower (4 MiB L2)
_K_MIN, _K_MAX = -281, 280  # every k of the range above, fix-ups included
_SPLIT = 2.0**27 + 1  # Veltkamp's constant for float64
_NEAR_TIE = 2.0**-40


def _powers():
    """10^(16-k) for k from _K_MIN to _K_MAX as double-doubles hi + lo,
    each part correctly rounded from the exact value."""
    exact = [Fraction(10) ** (16 - k) for k in range(_K_MIN, _K_MAX + 1)]
    hi = [float(p) for p in exact]
    return np.array(hi), np.array([float(p - Fraction(h)) for p, h in zip(exact, hi)])


def _groups():
    """Words 1-4 by 4-digit group, with a point in every slot; and, for
    group i, the place of its last nonzero digit among the 17, or 0."""
    # small dtypes: int64 temporaries here kept about 0.5 MB more resident
    digits = (np.arange(10000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10).astype(np.uint8)
    chars = np.full((10000, 8), ord("."), np.uint8)
    chars[:, 1::2] = ord("0") + digits
    last = ((digits != 0) * np.arange(1, 5, dtype=np.int8)).max(axis=1)
    last = np.where(last > 0, last + np.arange(0, 16, 4, dtype=np.int8)[:, None], 0)
    return chars.view(np.uint64).ravel(), last.astype(np.int8)


def _words(rows):
    """Rows of at most 8 bytes, padded with zeros, as uint64 words."""
    return np.frombuffer(b"".join(r.ljust(8, b"\0") for r in rows), np.uint64)


_POW_HI, _POW_LO = _powers()
_GROUP, _LAST = _groups()
# word 0 by 5 * sign + (number of zeros before digit 0), and by digit 0
_PREFIX = _words(s + b"0.000"[: z + 1] * (z > 0) for s in (b"", b"-") for z in range(5))
_FIRST = _words(b"\0" * 7 + b"%d" % d for d in range(10))
# ANDed with a group word, by 17 * c + d: keeps digits 1..c and the point
# after digit d (d = 16: no point)
_MASK = np.zeros((17, 17, 32), np.uint8)
_MASK[..., 1::2] = 255 * (np.arange(1, 17) <= np.arange(17)[:, None, None])
_MASK[..., 0::2] = 255 * (np.arange(16) == np.arange(17)[:, None])
_MASK = _MASK.view(np.uint64).reshape(17 * 17, 4)
# word 5 by k, with a space as the separator
_EXP = _words(
    (b"" if -4 <= k <= 16 else b"e%c" % b"+-"[k < 0] + (b"%02d" % abs(k)).rjust(3, b"\0")).ljust(5, b"\0")
    + b" "
    for k in range(_K_MIN, _K_MAX + 1)
)


def _scale(a, k):
    """a * 10^(16-k) as a double-double hi + lo, for a > 0.

    Dekker's product: a and 10^(16-k)'s high part are split into 26-bit
    halves so their product is exact as p + e without an FMA.  The low
    part's product joins e, and Fast2Sum renormalizes.  For the final k
    the result is below 1e17 < 2^57, so e is at most 2^3, a * lo-part at
    most 2^4, and the absolute error of hi + lo is below 2^-46: the
    table's own 2^-106 relative error, at most 2^-49 here, plus two
    roundings of terms below 2^5, each at most 2^-49.
    """
    hi_p, lo_p = np.take(_POW_HI, k - _K_MIN), np.take(_POW_LO, k - _K_MIN)
    p = a * hi_p
    t = _SPLIT * a
    a1 = t - (t - a)
    a2 = a - a1
    t = _SPLIT * hi_p
    b1 = t - (t - hi_p)
    b2 = hi_p - b1
    e = ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2
    e += a * lo_p
    hi = p + e
    return hi, e - (hi - p)


def _format_block(v, row_ends):
    """The bytes of b"%.17g" % x for each x of the 1-d v, each followed by
    a space, or by a newline at the indices row_ends."""
    a = np.abs(v)
    fast = (a >= 1e-280) & (a <= 1e280)
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _scale(a, k)
    # log10 can miss k by one next to a power of ten.  Test hi + lo, not hi
    # alone: 1e-280 scales to 1e16 - 0.43 as hi = 1e16, lo = -0.43
    off = (hi < 1e16) | ((hi == 1e16) & (lo < 0)) | (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    off = np.flatnonzero(off)
    k[off] += np.where(hi[off] <= 1e16, -1, 1)
    hi[off], lo[off] = _scale(a[off], k[off])
    # hi is an integer (>= 1e16 > 2^53).  Within _NEAR_TIE of a tie the
    # error bound leaves the rounding open: the per-value format decides
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    slow = np.abs(lo - np.floor(lo) - 0.5) < _NEAR_TIE
    slow |= (d < 10**16) | (d >= 10**17)
    slow |= ~fast & (v != 0)
    plain = slow | ~fast  # zeros print as "0", slow values are overwritten
    d[plain] = 0
    k[plain] = 0

    groups = np.empty((v.size, 4), np.intp)
    q, r = np.divmod(d, 10**8)
    q, groups[:, 1] = np.divmod(q, 10**4)
    first, groups[:, 0] = np.divmod(q, 10**4)
    groups[:, 2], groups[:, 3] = np.divmod(r, 10**4)
    last = np.take(_LAST[0], groups[:, 0])
    for i in (1, 2, 3):
        np.maximum(last, np.take(_LAST[i], groups[:, i]), out=last)
    # the point follows digit k in fixed notation, digit 0 in exponent
    # notation; it precedes the digits (point < 0) for -4 <= k < 0
    point = np.where((k >= -4) & (k <= 16), k, 0)
    dot = np.where((last > point) & (point >= 0), point, 16)

    words = np.empty((v.size, 6), np.uint64)
    prefix = 5 * np.signbit(v) + np.maximum(-point, 0)
    np.bitwise_or(np.take(_PREFIX, prefix), np.take(_FIRST, first), out=words[:, 0])
    mask = np.take(_MASK, 17 * np.maximum(last, point) + dot, axis=0)
    np.bitwise_and(np.take(_GROUP, groups), mask, out=words[:, 1:5])
    words[:, 5] = np.take(_EXP, k - _K_MIN)
    chars = words.view(np.uint8)  # byte 45 holds the separator
    chars[row_ends, 45] = ord("\n")
    for i in np.flatnonzero(slow):
        text = b"%.17g" % float(v[i])
        chars[i, :45] = 0
        chars[i, : len(text)] = np.frombuffer(text, np.uint8)
    return chars.tobytes().translate(None, b"\0")


def _block_bytes(a, start):
    """The text of the values of a from flat index start, one block."""
    n = a.shape[1]
    block = a.flat[start : start + BLOCK_VALUES]
    return _format_block(block, np.arange(n - 1 - start % n, block.size, n))


def _format_part(a, starts):
    """The byte count, then the text, of the blocks at starts."""
    text = [_block_bytes(a, start) for start in starts]
    return [np.array(sum(map(len, text)), np.int64), *text]


def _write_parts(fh, a):
    """Write the body of a in forked parts; False where the serial path
    must write it, with fh back at the start of the body."""
    parts = _part_count(a.size)
    if parts < 2:
        return False
    starts = range(0, a.size, BLOCK_VALUES)
    jobs = [
        functools.partial(_format_part, a, starts[i * len(starts) // parts : (i + 1) * len(starts) // parts])
        for i in range(parts)
    ]
    body = fh.tell()
    buffer = memoryview(bytearray(_COPY_BYTES))

    def copy(pipe):
        size = np.zeros(1, np.int64)
        if pipe.readinto(size) != size.nbytes:
            return False
        left = int(size[0])
        while left:
            got = pipe.readinto(buffer[: min(left, len(buffer))])
            if not got:
                return False
            fh.write(buffer[:got])
            left -= got
        return True

    if _in_children(jobs, copy):
        return True
    fh.seek(body)
    fh.truncate()
    return False


def write_matrix(path, a):
    a = _as_matrix(a)
    with open(path, "wb") as fh:
        if _is_npy(path):
            np.save(fh, a)
            return
        fh.write(b"%d %d\n" % a.shape)
        if not _write_parts(fh, a):
            for start in range(0, a.size, BLOCK_VALUES):
                fh.write(_block_bytes(a, start))


def _read_npy(path):
    try:
        data = np.load(path, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise DataError(f"{path}: unparseable .npy matrix: {exc}")
    if not isinstance(data, np.ndarray):
        data.close()
        raise DataError(f"{path}: expected one .npy array, got an .npz archive")
    # checked before the matrix rule, which would convert an int64 array
    if data.dtype != np.float64:
        raise DataError(f"{path}: matrix must be float64, got {data.dtype}")
    return data


def _load(fh, rows):
    """np.loadtxt on fh, at most rows data rows."""
    # max_rows counts data rows, and warns of each line it skips; a forked
    # part of only comment or blank lines warns that it has no data
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r"(Input line \d+|loadtxt: input) contained no data", UserWarning)
        return np.loadtxt(fh, dtype=np.float64, ndmin=2, max_rows=rows)


def _load_part(mm, start, stop, encoding, rows):
    """The shape, then the values, of the rows in mm[start:stop]."""
    # decoded as the serial path decodes the whole body: each range starts
    # after a newline byte, where no decoder holds state
    text = TextIOWrapper(BytesIO(mm[start:stop]), encoding, errors="replace")
    part = _load(text, rows)
    return [np.array(part.shape, np.int64), part]


def _read_parts(fh, body, m, n):
    """The m x n body from byte offset body of fh, parsed in forked parts
    cut at newlines; None where the serial path must read it."""
    parts = _part_count(m * n)
    if parts < 2:
        return None
    with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mm:
        end = len(mm)
        # tell() gave a byte offset, or, where the decoder held state (a
        # header ended by a lone CR), a cookie beyond any file size
        if body >= end:
            return None
        cuts = {body, end}
        for i in range(1, parts):
            newline = mm.find(b"\n", body + (end - body) * i // parts)
            if newline >= 0:
                cuts.add(newline + 1)
        cuts = sorted(cuts)
        if len(cuts) < 3:
            return None
        # m + 1 rows bound each child's parse as they bound the serial one
        jobs = [functools.partial(_load_part, mm, a, b, fh.encoding, m + 1) for a, b in zip(cuts, cuts[1:])]
        data = np.empty((m, n))
        filled = 0

        def fill(pipe):
            nonlocal filled
            shape = np.zeros(2, np.int64)
            if pipe.readinto(shape) != shape.nbytes:
                return False
            rows, cols = (int(k) for k in shape)
            # a part of only comment or blank lines has no rows and one column
            if rows and cols != n or not 0 <= rows <= m - filled:
                return False
            if pipe.readinto(data[filled : filled + rows]) != rows * n * data.itemsize:
                return False
            filled += rows
            return True

        if _in_children(jobs, fill) and filled == m:
            return data
    return None


def _read_text(path):
    # a byte that does not decode reads as U+FFFD, which no header or value takes
    with open(path, errors="replace") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise DataError(f"{path}: expected header 'm n', got {header!r}")
        message = f"{path}: non-integer dimensions in header {header!r}"
        m, n = _integers([t.encode() for t in header], message)
        if m < 1 or n < 1:
            raise DataError(f"{path}: dimensions must be positive, got {m} x {n}")
        # loadtxt only warns on a body without rows; find one first
        body = fh.tell()
        for line in iter(fh.readline, ""):
            if line.lstrip()[:1] not in ("", "#"):
                break
        else:
            raise DataError(f"{path}: no matrix rows after the header, expected {m} x {n}")
        # loadtxt allocates max_rows rows up front: reject first a header
        # that no file of this size can fill, a digit and a separator a value
        size = os.fstat(fh.fileno()).st_size
        if 2 * m * n - 1 > size:
            raise DataError(f"{path}: header {m} x {n} needs more than the file's {size} bytes")
        fh.seek(body)
        data = _read_parts(fh, body, m, n)
        if data is None:
            # made once at its size, never grown; one more row shows a longer body
            try:
                data = _load(fh, m + 1)
            except ValueError as exc:
                raise DataError(f"{path}: unparseable matrix body: {exc}")
    if data.shape != (m, n):
        unread = f" (reading stopped at row {m + 1})" if len(data) > m else ""
        raise DataError(f"{path}: body shape {data.shape} does not match header {m} x {n}{unread}")
    return data


def read_matrix(path):
    data = _read_npy(path) if _is_npy(path) else _read_text(path)
    return _as_matrix(data, f"{path}: matrix")


def write_labels(path, labels):
    labels = _labels(labels)
    with open(path, "w") as fh:
        for v in labels:
            fh.write(f"{int(v)}\n")


def read_labels(path):
    with open(path, "rb") as fh:
        lines = map(bytes.strip, fh.read().splitlines())
    labels = _integers([t for t in lines if t], f"{path}: unparseable label file")
    try:
        return np.array(labels, dtype=np.int64)
    except OverflowError as exc:
        raise DataError(f"{path}: label outside int64: {exc}")


def write_pgm(path, img):
    """Write a grayscale image (2-d array of 0..255, rounded to integers) as ASCII PGM."""
    img = np.rint(_as_image(img, 255)).astype(np.int64)
    with open(path, "w") as fh:
        fh.write("P2\n")
        fh.write(f"{img.shape[1]} {img.shape[0]}\n255\n")
        for row in img:
            fh.write(" ".join(str(v) for v in row) + "\n")


# a '#' that starts a token comments out the rest of its line
_PGM_TOKEN = re.compile(rb"#[^\n]*|\S+")


def read_pgm(path):
    """Read a P2 or P5 PGM image into a uint8 array."""
    with open(path, "rb") as fh:
        raw = fh.read()
    tokens = (t for t in _PGM_TOKEN.finditer(raw) if not t[0].startswith(b"#"))
    header = list(itertools.islice(tokens, 4))
    if len(header) < 4:
        raise DataError(f"{path}: truncated PGM header")
    magic, *size = (t[0] for t in header)
    if magic not in (b"P2", b"P5"):
        raise DataError(f"{path}: not a PGM file (magic {magic!r})")
    width, height, maxval = _integers(size, f"{path}: malformed PGM header {b' '.join((magic, *size))!r}")
    if width < 1 or height < 1:
        raise DataError(f"{path}: image dimensions must be positive")
    if not 0 < maxval <= 255:
        raise DataError(f"{path}: only maxval in 1..255 is supported, got {maxval}")
    end = header[3].end()
    if magic == b"P5":
        body = raw[end + 1 : end + 1 + width * height]
        if len(body) < width * height:
            raise DataError(f"{path}: truncated PGM pixel data")
        img = np.frombuffer(body, dtype=np.uint8, count=width * height)
    else:
        message = f"{path}: unparseable PGM pixel data"
        try:
            img = np.array(_integers(raw[end:].split(), message), dtype=np.int64)
        except OverflowError:  # beyond int64
            raise DataError(message)
        if img.size != width * height:
            raise DataError(f"{path}: expected {width * height} pixels, found {img.size}")
    return _as_image(img.reshape(height, width), maxval, f"{path}: image").astype(np.uint8)
