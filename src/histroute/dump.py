"""The text dumps of built schemes: the one writer and the one reader.

A dump is a header line ``scheme <kind> <n>`` followed by one row per
vertex whose fields are separated by ``|``: the vertex id, the scheme
class's own columns, and the ids of the vertex's neighbors. Blank lines
and lines starting with ``#`` are skipped. The reader hands the ids to
the scheme as the CSR pair that visibility.VisibilityGraph builds. Every
malformed input raises ValueError. Each check costs O(rows + neighbor
ids), except two sorts of the neighbor ids: one orders each row, the
other checks symmetry.
"""

import itertools

import numpy as np

from .engine import closed_rows


def write(scheme) -> str:
    """Self-contained text dump of a built scheme."""
    lines = [f"scheme {scheme.kind} {scheme.n}"]
    for v in range(scheme.n):
        nbrs = " ".join(map(str, scheme.neighbor_ids(v)))
        lines.append(" | ".join([str(v), *scheme.row_fields(v), nbrs]))
    return "\n".join(lines) + "\n"


def read(text: str, cls):
    """Inverse of write: the scheme of class cls that text describes.

    Every id in [0, n) has exactly one row, and the neighbor lists
    are symmetric, without self entries or repeated ids.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    head = lines[0].split() if lines else []
    if head[:2] != ["scheme", cls.kind] or len(head) != 3:
        raise ValueError(f"not a {cls.kind} scheme dump")
    n = int(head[2])
    if n < 1:
        raise ValueError(f"a scheme needs at least one vertex, got n={n}")
    if len(lines) - 1 != n:
        raise ValueError(f"expected {n} rows, got {len(lines) - 1}")
    labels = [None] * n
    tables = [None] * n
    nbrs = [None] * n
    for line in lines[1:]:
        parts = line.split("|")
        if len(parts) != cls.columns + 2:
            raise ValueError(f"malformed row: {line!r}")
        v = int(parts[0])
        if not 0 <= v < n:
            raise ValueError(f"row id {v} is outside [0, {n})")
        if nbrs[v] is not None:
            raise ValueError(f"duplicate row id {v}")
        labels[v], tables[v] = cls.parse_row(v, parts[1:-1])
        ids = list(map(int, parts[-1].split()))
        if ids and (min(ids) < 0 or max(ids) >= n):
            raise ValueError(f"row {v}: neighbor id outside [0, {n})")
        nbrs[v] = ids
    # n rows, none repeated and all in range: no id is missing, and
    # sorting the keys row * n + id sorts each row in place
    indptr = np.cumsum([0, *map(len, nbrs)])
    rows = np.repeat(np.arange(n), np.diff(indptr)) * n
    indices = np.sort(rows + np.fromiter(itertools.chain.from_iterable(nbrs),
                                         np.int64, indptr[-1])) - rows
    _check_edges(indptr, indices)
    rows = closed_rows(indptr, indices, cls.link_order(n, labels))
    return cls(n, labels, tables, indptr, indices, rows)


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


def parse_bit(field: str) -> bool:
    bit = field.strip()
    if bit != "0" and bit != "1":
        raise ValueError(f"bit field must be 0 or 1, got {bit!r}")
    return bit == "1"
