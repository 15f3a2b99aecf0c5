"""The text dumps of built schemes: the one writer and the one reader.

A dump is a header line ``scheme <kind> <n>`` followed by one row per
vertex whose fields are separated by ``|``: the vertex id, the scheme
class's own columns, and the ids of the vertex's neighbors. Blank lines
and ``#`` comments are skipped, as polygon.content_lines finds them.

Both directions work a column at a time. The writer formats each field
for all rows at once. The reader splits all rows into their fields at
once, converts the tokens of one field for all rows in one call
(polygon.int_tokens, int() semantics) and makes every check as an array
test over the rows (see ``Rows``). Every malformed input raises
ValueError, naming the first fault in file order. The scheme gets its
columns as int64 arrays in vertex order, and the ids as the CSR pair
that visibility.VisibilityGraph builds, from which it cuts its links in
one batch (engine.cut_rows). Reading costs O(rows + tokens) in a few
such passes, plus two sorts of the neighbor ids: one orders each row,
the other checks symmetry.
"""

import itertools

import numpy as np

from .engine import closed_rows
from .polygon import content_lines, int_tokens, out_of_range


def write(scheme) -> str:
    """Self-contained text dump of a built scheme."""
    ptr = scheme.indptr.tolist()
    ids = scheme.indices.tolist()
    nbrs = (" ".join(map(str, ids[a:b])) for a, b in zip(ptr, ptr[1:]))
    rows = map("{} | {} | {}".format, range(scheme.n), scheme.dump_fields(),
               nbrs)
    return "\n".join([f"scheme {scheme.kind} {scheme.n}", *rows]) + "\n"


def read(text: str, *classes):
    """Inverse of write: the scheme that text describes, of the class
    among classes whose kind its header names.

    Every id in [0, n) has one row; neighbor lists are symmetric, with
    no self entry or repeated id, and pass the class's check_links.
    """
    lines = content_lines(text)[1]
    head = lines[0].split() if lines else []
    kinds = {cls.kind: cls for cls in classes}
    if len(head) != 3 or head[0] != "scheme" or head[1] not in kinds:
        raise ValueError(f"not a {' or '.join(kinds)} scheme dump")
    cls = kinds[head[1]]
    n = int(head[2])
    if n < 1:
        raise ValueError(f"a scheme needs at least one vertex, got n={n}")
    if len(lines) - 1 != n:
        raise ValueError(f"expected {n} rows, got {len(lines) - 1}")
    rows = Rows(lines[1:], cls.columns + 2, n)
    cols = cls.read_fields(rows)
    nbrs, starts = rows.ints(-1)
    rows.fault((nbrs < 0) | (nbrs >= n), lambda r: (
        f"row {rows.vid[r]}: neighbor id outside [0, {n})"), starts)
    if rows.error is not None:
        raise ValueError(rows.error)
    # n rows, none repeated and all in range: no id is missing, and
    # sorting the keys row * n + id sorts each row in place
    src = np.repeat(rows.vid, np.diff(starts))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    indices = np.sort(src * n + nbrs) % n
    _check_edges(indptr, indices)
    at = np.empty(n, dtype=np.int64)
    at[rows.vid] = np.arange(n)     # the row of each vertex
    cols = {name: c[at] for name, c in cols.items()}
    cls.check_links(cols, src, nbrs)
    rows = closed_rows(indptr, indices, cls.link_order(n, cols))
    return cls(n, cols, indptr, indices, rows)


class Rows:
    """The rows of a dump, split into their ``|``-fields by one split of
    all rows, read a field at a time for all rows.

    Each check tests one field of every row at once and hands ``fault``
    the rows it fails on. The first fault in file order wins: the lowest
    row and, within it, the first field checked. Checks run in field
    order, and each looks only at the rows before the first fault found
    so far (``end``), so a later one can only find an earlier row; the
    message of the winner is kept in ``error``. ``vid`` holds the row
    ids in file order, and ``n`` the vertex count.
    """

    def __init__(self, lines, width, n):
        self.n = n
        self.end = len(lines)
        self.error = None
        bars = np.fromiter(map(str.count, lines, itertools.repeat("|")),
                           dtype=np.int64, count=len(lines))
        self.fault(bars != width - 1, lambda r: f"malformed row: {lines[r]!r}")
        # no list per row: row r's fields are flat[r * width:(r + 1) * width]
        flat = "|".join(lines[:self.end]).split("|") if self.end else []
        self.fields = [flat[f::width] for f in range(width)]
        vid, err = int_tokens(self.fields[0])
        if err is not None:
            self.fault_at(len(vid), lambda r: err)
        self.fault((vid < 0) | (vid >= n),
                   lambda r: f"row id {vid[r]} is outside [0, {n})")
        vid = vid[:self.end].astype(np.int64)
        again = np.ones(len(vid), dtype=bool)    # an earlier row has its id
        again[np.unique(vid, return_index=True)[1]] = False
        self.fault(again, lambda r: f"duplicate row id {vid[r]}")
        self.vid = vid

    def fault(self, bad, message, starts=None):
        """Note the first row where the mask bad holds; see fault_at.
        With starts, bad is over tokens, row r's at starts[r]:starts[r+1]."""
        hit = np.flatnonzero(bad)
        if len(hit):
            r = hit[0] if starts is None else \
                np.searchsorted(starts, hit[0], "right") - 1
            self.fault_at(r, message)

    def fault_at(self, r, message):
        """A fault at row r, if r comes before the first fault so far;
        message(r) gives its error."""
        if r < self.end:
            self.end = int(r)
            self.error = message(self.end)

    def ints(self, f: int):
        """The whitespace-separated integers of field f, for the rows
        before the first fault: (values, starts), row r's in
        values[starts[r]:starts[r + 1]]. A token that int() rejects is a
        fault of its row. The values are int64, or objects if one does
        not fit, which a range check of the field then rejects."""
        col = self.fields[f][:self.end]
        starts = np.zeros(len(col) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, map(str.split, col)), dtype=np.int64,
                              count=len(col)), out=starts[1:])
        vals, err = int_tokens(" ".join(col).split())
        if err is not None:
            self.fault_at(np.searchsorted(starts, len(vals), "right") - 1,
                          lambda r: err)
        return vals, starts[:self.end + 1]

    def fixed(self, f: int, k: int, what: str):
        """Field f as k integers a row, as k columns; a row with another
        count is a fault that names the field as k <what>."""
        vals, starts = self.ints(f)
        self.fault(np.diff(starts) != k, lambda r: (
            f"row {self.vid[r]}: expected {k} {what}, "
            f"got {self.fields[f][r].strip()!r}"))
        return vals[:k * self.end].reshape(-1, k).T

    def bounded(self, what: str, cols):
        """A fault where a value of cols, a field's columns in order,
        is out of range: every dump integer but an id lies strictly
        between -2**62 and 2**62, as polygon coordinates do."""
        for c in cols:
            self.fault(out_of_range(c), lambda r: (
                f"row {self.vid[r]}: {what} {c[r]} is out of range, "
                f"|c| must be below 2**62"))

    def bits(self, f: int):
        """Field f as a bool column: each must be 0 or 1."""
        bits = [b.strip() for b in self.fields[f][:self.end]]
        self.fault([b != "0" and b != "1" for b in bits], lambda r: (
            f"bit field must be 0 or 1, got {bits[r]!r}"))
        return np.array([b == "1" for b in bits], dtype=bool)


def _check_edges(indptr, indices):
    """u lists v exactly as often as v lists u, no row lists itself,
    and no row lists an id twice, in a CSR whose rows are sorted."""
    n = len(indptr) - 1
    src = np.repeat(np.arange(n), np.diff(indptr))
    fwd = src * n + indices     # ascending: rows in id order, lists sorted
    back = np.sort(indices * n + src)
    bad = np.flatnonzero(fwd != back)
    if bad.size:
        # the smaller key of the first mismatch is a listing u -> v
        # without its match v -> u
        i = bad[0]
        u, v = (divmod(fwd[i], n) if fwd[i] < back[i]
                else divmod(back[i], n)[::-1])
        raise ValueError(
            f"row {u} lists {v} more often than row {v} lists {u}")
    own = np.flatnonzero(src == indices)
    if own.size:
        raise ValueError(f"row {src[own[0]]} lists itself")
    twice = np.flatnonzero(fwd[1:] == fwd[:-1])
    if twice.size:
        u, v = divmod(fwd[twice[0]], n)
        raise ValueError(f"row {u} lists {v} twice")
