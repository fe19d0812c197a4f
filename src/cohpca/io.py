"""Matrix, label, and PGM image files.

Matrix format: a header line "m n", then m lines of n space-separated
decimal floats.  Values are written with 17 significant digits so a
write/read round trip reproduces float64 exactly.  The writer formats a
whole row with one bytes ``%`` call, converting one row at a time to
Python floats, so it never holds more than a row of them.  A path
ending in ".npy" selects NumPy's binary format instead (``np.save`` /
``np.load`` without pickles), which holds only 2-d float64 arrays and
is bit-exact too.  Readers reject NaN and Inf, as does the writer;
nothing downstream can cope with them.

Label files carry one integer per line.  Images use PGM: the reader
accepts both ASCII (P2) and binary (P5) with maxval up to 255, the
writer emits P2.
"""

import os

import numpy as np

from .errors import DataError

__all__ = [
    "write_matrix",
    "read_matrix",
    "write_labels",
    "read_labels",
    "write_pgm",
    "read_pgm",
]


def _check_finite(a, where):
    if not np.all(np.isfinite(a)):
        raise DataError(f"{where} contains NaN or Inf")


def _is_npy(path):
    return os.fspath(path).endswith(".npy")


def write_matrix(path, a):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DataError(f"matrix must be 2-d, got shape {a.shape}")
    _check_finite(a, "matrix")
    with open(path, "wb") as fh:
        if _is_npy(path):
            np.save(fh, a)
            return
        fh.write(b"%d %d\n" % a.shape)
        row_format = b" ".join([b"%.17g"] * a.shape[1]) + b"\n"
        for row in a:
            fh.write(row_format % tuple(row.tolist()))


def _read_npy(path):
    try:
        data = np.load(path, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise DataError(f"{path}: unparseable .npy matrix: {exc}")
    if not isinstance(data, np.ndarray):
        data.close()
        raise DataError(f"{path}: expected one .npy array, got an .npz archive")
    if data.ndim != 2:
        raise DataError(f"{path}: matrix must be 2-d, got shape {data.shape}")
    if data.dtype != np.float64:
        raise DataError(f"{path}: matrix must be float64, got {data.dtype}")
    if data.size == 0:
        m, n = data.shape
        raise DataError(f"{path}: dimensions must be positive, got {m} x {n}")
    return data


def _read_text(path):
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise DataError(f"{path}: expected header 'm n', got {header!r}")
        try:
            m, n = int(header[0]), int(header[1])
        except ValueError:
            raise DataError(f"{path}: non-integer dimensions in header {header!r}")
        if m < 1 or n < 1:
            raise DataError(f"{path}: dimensions must be positive, got {m} x {n}")
        try:
            data = np.loadtxt(fh, dtype=np.float64, ndmin=2)
        except ValueError as exc:
            raise DataError(f"{path}: unparseable matrix body: {exc}")
    if data.shape != (m, n):
        raise DataError(f"{path}: body shape {data.shape} does not match header {m} x {n}")
    return data


def read_matrix(path):
    data = _read_npy(path) if _is_npy(path) else _read_text(path)
    if not np.all(np.isfinite(data)):
        raise DataError(f"{path}: matrix contains NaN or Inf")
    return data


def write_labels(path, labels):
    labels = np.asarray(labels)
    with open(path, "w") as fh:
        for v in labels:
            fh.write(f"{int(v)}\n")


def read_labels(path):
    try:
        with open(path) as fh:
            return np.array([int(line) for line in fh if line.strip()], dtype=np.int64)
    except ValueError as exc:
        raise DataError(f"{path}: unparseable label file: {exc}")


def write_pgm(path, img):
    """Write a grayscale image (2-d array of 0..255) as ASCII PGM."""
    img = np.asarray(img)
    if img.ndim != 2:
        raise DataError(f"image must be 2-d, got shape {img.shape}")
    _check_finite(img, "image")
    if img.min() < 0 or img.max() > 255:
        raise DataError("pixel values must lie in 0..255")
    img = np.rint(img).astype(np.int64)
    with open(path, "w") as fh:
        fh.write("P2\n")
        fh.write(f"{img.shape[1]} {img.shape[0]}\n255\n")
        for row in img:
            fh.write(" ".join(str(v) for v in row) + "\n")


def _pgm_tokens(raw):
    # yields whitespace-separated header tokens, skipping '#' comments
    pos = 0
    while True:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            return
        yield start, raw[start:pos]


def read_pgm(path):
    """Read a P2 or P5 PGM image into a uint8 array."""
    with open(path, "rb") as fh:
        raw = fh.read()
    tokens = _pgm_tokens(raw)
    try:
        _, magic = next(tokens)
        (_, w_tok), (_, h_tok), (end, maxval_tok) = next(tokens), next(tokens), next(tokens)
    except StopIteration:
        raise DataError(f"{path}: truncated PGM header")
    if magic not in (b"P2", b"P5"):
        raise DataError(f"{path}: not a PGM file (magic {magic!r})")
    try:
        width, height, maxval = int(w_tok), int(h_tok), int(maxval_tok)
    except ValueError:
        raise DataError(f"{path}: malformed PGM header")
    if width < 1 or height < 1:
        raise DataError(f"{path}: image dimensions must be positive")
    if not 0 < maxval <= 255:
        raise DataError(f"{path}: only maxval in 1..255 is supported, got {maxval}")
    end += len(maxval_tok)
    if magic == b"P5":
        body = raw[end + 1 : end + 1 + width * height]
        if len(body) < width * height:
            raise DataError(f"{path}: truncated PGM pixel data")
        img = np.frombuffer(body, dtype=np.uint8, count=width * height)
    else:
        try:
            values = [int(v) for v in raw[end:].split()]
        except ValueError:
            raise DataError(f"{path}: unparseable PGM pixel data")
        if len(values) != width * height:
            raise DataError(
                f"{path}: expected {width * height} pixels, found {len(values)}"
            )
        img = np.array(values, dtype=np.int64)
    if img.max(initial=0) > maxval:
        raise DataError(f"{path}: pixel value exceeds maxval {maxval}")
    return img.reshape(height, width).astype(np.uint8)
