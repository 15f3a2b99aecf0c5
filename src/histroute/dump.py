"""The dumps of built schemes: the one writer and the one reader of a
binary column container.

A dump is an ASCII header line ``histroute-dump <version> <kind> <n>``,
then one table line ``<name> <width> <length>`` for each array, then
the arrays' raw values, back to back in table order. The arrays are
the CSR pair ``indptr`` (n + 1 entries) and ``indices`` that
visibility.VisibilityGraph builds, each row strictly ascending, then
the scheme class's ``fields`` in its order, n entries each, a bool
column as 0 and 1. Each array is stored as little-endian signed
integers of the narrowest of 1, 2, 4 or 8 bytes that holds its values.

The reader views each array in place (np.frombuffer), widens it to
int64 and makes every check as an array test: the header, each table
line as it is read, the table against the byte count, ``indptr``
rising from 0 to the length of ``indices``, the class's value checks
(``check_cols``) and the ids in [0, n), each row strictly ascending
without itself, the listings symmetric, and last the class's
``check_links``. Each fault raises one DumpError; a fault in the
entries of vertices names the lowest faulty vertex, through
engine.first_fault, which the build checks use too. The scheme gets
its columns as int64 (or bool) arrays in vertex order and its closed
rows from the class's ``link_rows``, as preprocess_* does, and cuts
its links from them in one batch (engine.cut_rows). Reading costs
O(n + E) array work, plus one sort of the E listings for symmetry; a
sorted search of them runs only when that finds a fault, to name its
lowest vertex.
"""

import numpy as np

from .engine import first_fault
from .polygon import out_of_range

MAGIC = b"histroute-dump"
VERSION = 1
_WIDTHS = (1, 2, 4, 8)


class DumpError(ValueError):
    """A malformed dump: its message names the fault and, where the
    fault lies in a vertex's entries, the lowest such vertex."""


def write(scheme) -> bytes:
    """Self-contained dump of a built scheme."""
    arrays = [("indptr", scheme.indptr), ("indices", scheme.indices),
              *((f, scheme.cols[f]) for f in scheme.fields)]
    packed = [_narrow(a) for _, a in arrays]
    head = [f"{MAGIC.decode()} {VERSION} {scheme.kind} {scheme.n}",
            *(f"{name} {a.itemsize} {len(a)}"
              for (name, _), a in zip(arrays, packed)), ""]
    return "\n".join(head).encode() + b"".join(a.tobytes() for a in packed)


def _narrow(a):
    """The integers (or bools) of a as little-endian signed integers of
    the narrowest width that holds them all."""
    a = np.asarray(a, dtype=np.int64)
    lo, hi = (int(a.min()), int(a.max())) if a.size else (0, 0)
    w = next(w for w in _WIDTHS
             if -2**(8 * w - 1) <= lo and hi < 2**(8 * w - 1))
    return a.astype(f"<i{w}")


def read(data: bytes, *classes):
    """Inverse of write: the scheme that data describes, of the class
    among classes whose kind its header names. Raises DumpError."""
    cls, n, (indptr, indices, *cols) = _unpack(data, classes)
    cols = _check(cls, n, indptr, indices, dict(zip(cls.fields, cols)))
    rows = cls.link_rows(n, cols, indptr, indices)
    return cls(n, cols, indptr, indices, rows)


def _check(cls, n, indptr, indices, cols):
    """The columns as cls takes them, once the CSR and the columns pass
    every check; its temporary arrays are gone before the scheme is built."""
    if indptr[0] != 0:
        raise DumpError(f"row 0: indptr starts at {indptr[0]}, not 0")
    falls = indptr[1:] < indptr[:-1]
    if falls.any():
        v = int(falls.argmax())
        raise DumpError(
            f"row {v}: indptr falls from {indptr[v]} to {indptr[v + 1]}")
    if indptr[-1] != len(indices):
        raise DumpError(f"indptr ends at {indptr[-1]}, not at "
                        f"{len(indices)}, the length of indices")
    src = np.repeat(np.arange(n), np.diff(indptr))
    cols, checks = cls.check_cols(n, cols)
    first_fault(DumpError, *((bad, None, msg) for bad, msg in checks), (
        (indices < 0) | (indices >= n), src,
        lambda i: f"row {src[i]}: neighbor id outside [0, {n})"))
    same = src[1:] == src[:-1]      # listings i and i + 1 share a row
    step = indices[1:] - indices[:-1]
    first_fault(
        DumpError,
        (src == indices, src, lambda i: f"row {src[i]} lists itself"),
        (same & (step == 0), src,
         lambda i: f"row {src[i]} lists {indices[i]} twice"),
        (same & (step < 0), src, lambda i: (
            f"row {src[i]} is out of order: {indices[i]} before "
            f"{indices[i + 1]}")))
    # the keys u * n + v ascend strictly now, so the listings are
    # symmetric exactly when the keys v * n + u, sorted, equal them; only
    # a fault is searched for, to name its lowest row
    keys, back = src * n + indices, indices * n + src
    if not np.array_equal(np.sort(back), keys):
        at = np.minimum(np.searchsorted(keys, back), len(keys) - 1)
        first_fault(DumpError, (keys[at] != back, src, lambda i: (
            f"row {src[i]} lists {indices[i]} more often than row "
            f"{indices[i]} lists {src[i]}")))
    first_fault(DumpError, *cls.check_links(cols, src, indices))
    return cols


def range_checks(what, cols):
    """The (bad, message) checks, as check_cols returns them, that
    every value of cols, a field's columns in order, lies strictly
    between -2**62 and 2**62, as polygon coordinates do."""
    return [(out_of_range(c), lambda v, c=c: (
        f"row {v}: {what} {c[v]} is out of range, |c| must be below 2**62"))
        for c in cols]


def bit_check(bit):
    """The (bad, message) check that a bool column holds only 0 and 1."""
    return ((bit != 0) & (bit != 1), lambda v: (
        f"row {v}: bit field must be 0 or 1, got {bit[v]}"))


def _unpack(data, classes):
    """(class, n, arrays) of a dump: the class its header names and its
    arrays in table order as int64, after the header, the table and the
    byte count are checked against each other."""
    kinds = {cls.kind: cls for cls in classes}
    if not data.startswith(MAGIC):
        raise DumpError(f"not a {' or '.join(kinds)} scheme dump: it does "
                        f"not start with {MAGIC.decode()!r}")
    head, at = _line(data, 0)
    n = _natural(head[3]) if len(head) == 4 else None
    if n is None or head[0] != MAGIC.decode():
        raise DumpError(f"malformed dump header {' '.join(head)!r}")
    if head[1] != str(VERSION):
        raise DumpError(f"unknown dump version {head[1]!r}, this reader "
                        f"reads version {VERSION}")
    if head[2] not in kinds:
        raise DumpError(f"not a {' or '.join(kinds)} scheme dump")
    if n < 1:
        raise DumpError(f"a scheme needs at least one vertex, got n={n}")
    cls = kinds[head[2]]
    table = []
    for name in ("indptr", "indices", *cls.fields):
        line, at = _line(data, at)    # checked before the next is read
        want = {"indptr": n + 1, "indices": None}.get(name, n)
        w, length = (_natural(word) for word in line[1:]) \
            if len(line) == 3 and line[0] == name else (None, None)
        if w is None or length is None:
            raise DumpError(f"dump table: expected '{name} <width> "
                            f"<length>', got {' '.join(line)!r}")
        if w not in _WIDTHS:
            raise DumpError(f"dump table: {name} has width {w}, "
                            f"not 1, 2, 4 or 8")
        if want is not None and length != want:
            raise DumpError(f"dump table: {name} has length {length}, "
                            f"expected {want}")
        table.append((w, length))
    need = sum(w * length for w, length in table)
    if len(data) - at != need:
        raise DumpError(f"dump holds {len(data) - at} bytes of arrays, "
                        f"its table names {need}")
    arrays = []
    for w, length in table:
        arrays.append(np.frombuffer(data, f"<i{w}", length, at)
                      .astype(np.int64))
        at += w * length
    return cls, n, arrays


def _line(data, at):
    """The line of data from offset at, split into its ASCII words, and
    the offset just past it."""
    end = data.find(b"\n", at)
    if end < 0:
        raise DumpError("dump truncated in its header or table")
    try:
        return data[at:end].decode("ascii").split(), end + 1
    except UnicodeDecodeError:
        raise DumpError("dump header or table is not ASCII") from None


def _natural(word):
    """The integer >= 0 that word spells in at most 18 digits, or None."""
    return int(word) if word.isdecimal() and len(word) <= 18 else None
