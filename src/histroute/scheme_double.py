"""Stretch-2 compact routing on double histograms.

Labels carry a vertex's coordinates and the x-bounds of its landmark
interval. The routing table holds the x-bounds of the level-2 intervals
of the two vertical dominators, the coordinates of the level-2 bottom
dominator, and one path-choice bit. A step reads only the closed
neighborhood's labels, the local table, the target label, and a header
of at most one vertex's coordinates, and answers with a port into the
link; every routed path is at most twice a shortest one.
"""

from bisect import bisect_left, bisect_right
import dataclasses

import numpy as np

from . import dump, polygon
from . import landmarks as lmk
from .engine import (HeaderProtocolError, RoutingError, Scheme,
                     SchemeBuildError, closed_rows, cut_rows)
from .visibility import co_visible_fast


@dataclasses.dataclass(slots=True)
class DoubleLabel:
    x: int
    y: int
    ilo: int    # left x-bound of I(v)
    ihi: int    # right x-bound of I(v)


@dataclasses.dataclass(slots=True)
class DoubleTable:
    i2bd_lo: int
    i2bd_hi: int
    i2td_lo: int
    i2td_hi: int
    bd2x: int
    bd2y: int
    bit_bottom: bool


_LABEL_FIELDS, _TABLE_FIELDS = ([f.name for f in dataclasses.fields(c)]
                                for c in (DoubleLabel, DoubleTable))
# the integer columns, in dump order
_NUMBER_FIELDS = _LABEL_FIELDS + _TABLE_FIELDS[:6]


class DoubleLink:
    """The closed neighborhood in link order (by x, distance to base,
    y), as tuples cut by engine.cut_rows that a port indexes: ``ids``
    and the coordinates ``xs``, ``ys`` and interval bounds ``ilo``,
    ``ihi`` of their labels. ``own`` is the label of ``own_vid``, and
    bd and td are the ports of the neighborhood's bottom and top
    dominators (see _row_vertical_dominators)."""

    __slots__ = ("own_vid", "own", "ids", "xs", "ys", "ilo", "ihi",
                 "bd", "td", "_chains")

    def __init__(self, own_vid, own, ids, xs, ys, ilo, ihi, bd, td):
        self.own_vid = own_vid
        self.own = own
        self.ids = ids
        self.xs = xs
        self.ys = ys
        self.ilo = ilo
        self.ihi = ihi
        self.bd = bd
        self.td = td
        self._chains = None

    def find(self, x: int, y: int):
        """The port at coordinates (x, y), or None: a bisection to x, then
        a look back along its x-group, which holds at most two vertices
        in a valid histogram. Of repeated coordinates the last in link
        order wins."""
        xs, ys = self.xs, self.ys
        i = bisect_right(xs, x) - 1
        while i >= 0 and xs[i] == x:
            if ys[i] == y:
                return i
            i -= 1
        return None


def _local_dominators(link: DoubleLink, tx: int):
    """Near and far dominator ports toward x-coordinate tx, from labels
    alone.

    Mirrors the global definition: candidates are the closed
    neighborhood, the far side includes tx itself, ties break toward
    the base line. fd is None when the far side is empty. The winners
    always sit in the x-group adjacent to tx on their side, and link
    order puts each group's winner first, so two bisections suffice.
    """
    xs = link.xs
    if tx > link.own.x:
        i = bisect_left(xs, tx)
        return (bisect_left(xs, xs[i - 1]),
                i if i < len(xs) else None)
    i = bisect_right(xs, tx)
    if i == len(xs):
        raise RoutingError(
            f"no neighbor of {link.own_vid} lies toward x={tx}")
    return i, bisect_left(xs, xs[i - 1]) if i > 0 else None


def _row_vertical_dominators(xs, ys, ptr, ids):
    """Per closed row (ptr, ids), the ports (positions in the row) of the
    bottom and top dominators: the entries below and above the base line
    least by (distance to base, x), an empty side copying the other.
    Ties fall to the smaller id, as in link order: least by (off side,
    |y|, x, id)."""
    out = []
    for off in (ys > 0, ys < 0):
        rank = np.argsort(np.lexsort((xs, np.abs(ys), off)))[ids]
        least = np.repeat(np.minimum.reduceat(rank, ptr[:-1]), np.diff(ptr))
        out.append(np.flatnonzero(rank == least) - ptr[:-1])   # one a row
    return out


def _local_chains(link: DoubleLink):
    """Greedy interval-extension chains over the neighbor labels, as
    (port, bound) pairs.

    Left chain: repeatedly pick, among neighbors whose interval starts
    strictly left of the current one, the leftmost vertex (ties toward
    the base), paired with its interval's left bound. Right chain
    mirrored, with right bounds. Both start at the own label. No entry
    before a pick in that order starts left of the current one, so a
    chain is the running records of one scan in link order, with the
    x-groups taken from the right for the right chain. Cached per link.
    """
    if link._chains is not None:
        return link._chains
    xs, ilo, ihi = link.xs, link.ilo, link.ihi
    lo, hi = link.own.ilo, link.own.ihi
    own = link.ids.index(link.own_vid)
    chain_a = [(own, lo)]
    for k, b in enumerate(ilo):
        if b < lo:
            lo = b
            chain_a.append((k, b))
    chain_b = [(own, hi)]
    j = len(xs)
    while j:
        i = bisect_left(xs, xs[j - 1])
        for k in range(i, j):
            if ihi[k] > hi:
                hi = ihi[k]
                chain_b.append((k, hi))
        j = i
    link._chains = (chain_a, chain_b)
    return link._chains


def route_step_double(link: DoubleLink, table: DoubleTable,
                      target: DoubleLabel, header):
    """One routing hop: (port of the next vertex, outgoing header).

    Pure function of the four local inputs. The header is None or a
    coordinate pair naming a vertex that must be visible here.
    """
    hit = link.find(target.x, target.y)
    if hit is not None:
        return hit, None
    own = link.own
    if header is not None:
        hx, hy = header
        if (hx, hy) == (own.x, own.y):
            header = None    # the named vertex is this one: discard
        else:
            port = link.find(hx, hy)
            if port is None:
                raise HeaderProtocolError(
                    f"header names ({hx},{hy}), which is not visible here")
            return port, None

    tx = target.x
    # case 1: target inside the own interval
    if own.ilo <= tx <= own.ihi:
        nd, fd = _local_dominators(link, tx)
        return (fd if fd is not None else nd), None

    # case 2: target inside the level-2 interval
    chain_a, chain_b = _local_chains(link)
    if tx < own.ilo:
        if tx >= chain_a[-1][1]:
            for port, lo in chain_a[1:]:
                if lo <= tx:
                    return port, None
    else:
        if tx <= chain_b[-1][1]:
            for port, hi in chain_b[1:]:
                if hi >= tx:
                    return port, None

    # case 3: target inside the level-3 interval
    if table.i2bd_lo <= tx <= table.i2bd_hi:
        return link.bd, None
    if table.i2td_lo <= tx <= table.i2td_hi:
        return link.td, None

    # case 4: beyond the level-3 interval; aim for the level-2 bottom
    # dominator and record it in the header
    pick = link.bd if table.bit_bottom else link.td
    return pick, (table.bd2x, table.bd2y)


class DoubleScheme(Scheme):
    """Columns: the label fields ``x``, ``y``, ``ilo``, ``ihi`` and the
    table fields, named as in DoubleLabel and DoubleTable."""

    kind = "double"
    columns = 4     # coordinates, interval bounds, table fields, bit

    def __init__(self, n, cols, indptr, indices, rows, vdom=None):
        """vdom is the (bottom, top) port pair _row_vertical_dominators
        gives for rows; it is computed here when not given."""
        super().__init__(n, cols, indptr, indices)
        x, y, ilo, ihi = (cols[f] for f in _LABEL_FIELDS)
        if vdom is None:
            vdom = _row_vertical_dominators(x, y, *rows)
        self._labels = list(map(DoubleLabel, x.tolist(), y.tolist(),
                                ilo.tolist(), ihi.tolist()))
        self._tables = list(map(DoubleTable, *(
            cols[f].tolist() for f in _TABLE_FIELDS)))
        self._links = list(map(DoubleLink, range(n), self._labels,
                               *cut_rows(rows, x, y, ilo, ihi),
                               *(a.tolist() for a in vdom)))
        w = (n - 1).bit_length()
        # fixed-width fields: w+1 bits fit any coordinate rank plus sign
        self.max_label_bits = 4 * (w + 1)
        self.max_table_bits = 6 * (w + 1) + 1
        self.max_header_bits = 2 * (w + 1)

    @staticmethod
    def link_order(n, cols):
        y = cols["y"]
        return np.lexsort((y, np.abs(y), cols["x"]))

    def step(self, link, table, target, header):
        return route_step_double(link, table, target, header)

    def dump_fields(self):
        cols = self.cols
        return list(map("{} {} | {} {} | {} {} {} {} {} {} | {}".format, *(
            cols[f].tolist() for f in _NUMBER_FIELDS),
            cols["bit_bottom"].astype(np.int8).tolist()))

    @staticmethod
    def read_fields(rows):
        vid = rows.vid
        x, y = rows.fixed(1, 2, "coordinates")
        off = (y == 0) | polygon.out_of_range(x) | polygon.out_of_range(y)
        rows.fault(off, lambda r: (
            f"row {vid[r]}: vertex ({x[r]},{y[r]}) must lie off the base "
            f"line, with |x|, |y| < 2**62"))
        bounds = rows.fixed(2, 2, "interval bounds")
        rows.bounded("interval bound", bounds)
        table = rows.fixed(3, 6, "table fields")
        rows.bounded("table field", table)
        return {**dict(zip(_NUMBER_FIELDS, (x, y, *bounds, *table))),
                "bit_bottom": rows.bits(4)}


def _check_normalized(h):
    norm = polygon.normalize(h)     # idempotent: the identity iff normalized
    if not np.array_equal(h.xs, norm.xs):
        raise SchemeBuildError("x coordinates are not normalized ranks")
    if not np.array_equal(h.ys, norm.ys):
        raise SchemeBuildError("y coordinates are not normalized ranks")


def preprocess_double(h, g) -> DoubleScheme:
    """Build labels, tables, and link tables for a double histogram.

    Requires normalized coordinates. Checks, per vertex, that what a
    step derives locally, reduced over the closed rows, equals its
    global definition from the level-k dominator arrays: the bottom/top
    dominators, the level-2 interval reached by the extension chains,
    and the level-3 interval covered by the two tabled level-2
    intervals. A mismatch aborts; the links come from the rows last.
    """
    if h.kind != "double":
        raise SchemeBuildError(f"need a double histogram, got {h.kind}")
    _check_normalized(h)
    n = h.n
    lm = g.lm
    cols = {"x": h.xs, "y": h.ys, "ilo": lm.l_x, "ihi": lm.r_x}
    ptr, ids = closed_rows(g.indptr, g.indices,
                           DoubleScheme.link_order(n, cols))

    bd, td = lmk.dominator_levels(g, 2)
    bd1, td1, bd2 = bd[1], td[1], bd[2]
    vdom = _row_vertical_dominators(h.xs, h.ys, ptr, ids)
    lbd, ltd = (ids[ptr[:-1] + port] for port in vdom)
    v = lmk.first_vertex((lbd != bd1) | (ltd != td1))
    if v is not None:
        raise SchemeBuildError(
            f"local bottom/top dominators at {v} diverge from the global "
            f"ones ({lbd[v]},{ltd[v]}) vs ({bd1[v]},{td1[v]})")

    # I^k(v) spans the intervals of the level-(k-1) dominators
    lo2 = np.minimum(lm.l_x[bd1], lm.l_x[td1])
    hi2 = np.maximum(lm.r_x[bd1], lm.r_x[td1])
    lo3 = np.minimum(lm.l_x[bd2], lm.l_x[td[2]])
    hi3 = np.maximum(lm.r_x[bd2], lm.r_x[td[2]])
    v = lmk.first_vertex((np.minimum.reduceat(lm.l_x[ids], ptr[:-1]) != lo2)
                         | (np.maximum.reduceat(lm.r_x[ids], ptr[:-1]) != hi2))
    if v is not None:
        raise SchemeBuildError(
            f"level-2 interval of {v} is not the neighborhood extreme")
    i2bd_lo, i2bd_hi, i2td_lo, i2td_hi = lo2[bd1], hi2[bd1], lo2[td1], hi2[td1]
    v = lmk.first_vertex((np.minimum(i2bd_lo, i2td_lo) != lo3)
                         | (np.maximum(i2bd_hi, i2td_hi) != hi3))
    if v is not None:
        raise SchemeBuildError(
            f"level-3 interval of {v} is not the union of the "
            f"dominators' level-2 intervals")

    vid = np.arange(n)

    def level1_hop(last):
        # entry 1 of the canonical level-2 path v -> p1 -> last: stay on
        # last if it is a level-1 dominator, else prefer the bottom one
        stay = (last == bd1) | (last == td1)
        p1 = np.where(stay, last, np.where(
            co_visible_fast(g, bd1, last), bd1,
            np.where(co_visible_fast(g, td1, last), td1, -1)))
        v = lmk.first_vertex(p1 < 0)
        if v is not None:
            raise SchemeBuildError(
                f"level-1 dominators of {v} both miss {int(last[v])}")
        v = lmk.first_vertex(~co_visible_fast(g, vid, p1))
        if v is not None:
            raise SchemeBuildError(f"{v} does not see {int(p1[v])}")
        return p1

    p1 = level1_hop(bd2)
    level1_hop(td[2])     # the top path must exist as well
    # first hop of the bottom path, collapsing repeats (v itself when
    # the path never leaves v)
    first = np.where(p1 != vid, p1, bd2)
    bit = (first == vid) | (first == bd1)
    v = lmk.first_vertex(~bit & (first != td1))
    if v is not None:
        raise SchemeBuildError(
            f"canonical bottom path at {v} starts off the dominators")
    cols.update(zip(_TABLE_FIELDS, (
        i2bd_lo, i2bd_hi, i2td_lo, i2td_hi, h.xs[bd2], h.ys[bd2], bit)))
    return DoubleScheme(n, cols, g.indptr, g.indices, (ptr, ids), vdom)


def dump_scheme(scheme: DoubleScheme) -> str:
    """Self-contained text dump: one row per vertex with coordinates,
    interval bounds, table fields, the bit, and the neighbor ids."""
    return dump.write(scheme)


def parse_dump(text: str) -> DoubleScheme:
    """Inverse of dump_scheme. Raises ValueError on malformed text."""
    return dump.read(text, DoubleScheme)
