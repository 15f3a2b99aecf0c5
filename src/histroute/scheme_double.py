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


class DoubleLink:
    """The closed neighborhood in link order (by x, distance to base,
    y), as tuples cut by engine.cut_rows that a port indexes: ``ids``,
    the labels ``labs`` of those vertices (the scheme's own DoubleLabel
    records, not copies) and their x-coordinates ``xs``, the key a step
    bisects. ``own`` is the label of ``own_vid``, and bd and td are the
    ports of the neighborhood's bottom and top dominators (see
    _row_vertical_dominators). Every field is fixed at build; routing
    reads a link and never writes to it. The step calls ``find`` only
    to follow a header; its direct hit and case 1 bisect ``xs``
    inline."""

    __slots__ = ("own_vid", "own", "ids", "xs", "labs", "bd", "td")

    def __init__(self, own_vid, own, ids, xs, labs, bd, td):
        self.own_vid = own_vid
        self.own = own
        self.ids = ids
        self.xs = xs
        self.labs = labs
        self.bd = bd
        self.td = td

    def find(self, x: int, y: int):
        """The port at coordinates (x, y), or None: a bisection to x, then
        a look back along its x-group, which holds at most two vertices
        in a valid histogram. Of repeated coordinates the last in link
        order wins."""
        xs, labs = self.xs, self.labs
        i = bisect_right(xs, x) - 1
        while i >= 0 and xs[i] == x:
            if labs[i].y == y:
                return i
            i -= 1
        return None


def _row_vertical_dominators(xs, ys, ptr, ids):
    """Per closed row (ptr, ids), the ports (positions in the row) of the
    bottom and top dominators: the entries below and above the base line
    least by (distance to base, x), an empty side copying the other.
    Ties fall to the smaller id, as in link order: least by (off side,
    |y|, x, id). Both sides' orders split one order by (|y|, x, id)."""
    order = np.lexsort((xs, np.abs(ys)))
    rank = np.empty(len(xs), dtype=np.int64)
    out = []
    for off in (ys[order] > 0, ys[order] < 0):
        rank[np.append(order[~off], order[off])] = np.arange(len(xs))
        at = rank[ids]
        least = np.repeat(np.minimum.reduceat(at, ptr[:-1]), np.diff(ptr))
        out.append(np.flatnonzero(at == least) - ptr[:-1])     # one a row
    return out


def route_step_double(scheme, link: DoubleLink, table: DoubleTable,
                      target: DoubleLabel, header):
    """One routing hop: (port of the next vertex, outgoing header), from
    the four local inputs alone; bound as ``DoubleScheme.step``, it
    never reads ``scheme`` and writes to none of its inputs. The header
    is None or a coordinate pair naming a vertex that must be visible
    here.

    A hop runs in this one Python frame, except one that reads a header
    naming another vertex, which calls ``link.find``: the direct hit
    inlines find's bisection, and case 1 reads the bounds of tx's
    x-group from it.
    """
    tx = target.x
    xs = link.xs    # a direct hit, found as link.find(tx, target.y) would
    j = bisect_right(xs, tx)
    i = j - 1
    labs, ty = link.labs, target.y
    while i >= 0 and xs[i] == tx:
        if labs[i].y == ty:
            return i, None
        i -= 1
    # xs[i + 1:j] is tx's x-group
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

    # case 1: target inside the own interval. Hop to the far dominator,
    # or to the near one when the far side is empty: each is the first
    # entry, nearest the base line, of the x-group next to tx on its
    # side, the far side counting tx's own group xs[i + 1:j]. For a
    # target on the right the far one starts at i + 1; on the left the
    # near one starts at j and the far one at xs[j - 1]'s group
    if own.ilo <= tx <= own.ihi:
        if tx > own.x:
            return (i + 1 if i + 1 < len(xs)
                    else bisect_left(xs, xs[i])), None
        if j == len(xs):
            raise RoutingError(
                f"no neighbor of {link.own_vid} lies toward x={tx}")
        return (bisect_left(xs, xs[j - 1]) if j > 0 else j), None

    # case 2: target inside the level-2 interval, which spans the
    # intervals of the bottom and top dominators: hop to the first port
    # whose interval reaches tx, in link order for a target on the left,
    # and for one on the right with x-groups taken from the right, each
    # nearer the base first: the first vertex of the greedy extension
    # sequence toward tx whose interval reaches it
    if tx < own.ilo:
        if tx >= labs[link.bd].ilo or tx >= labs[link.td].ilo:
            port = 0
            while labs[port].ilo > tx:
                port += 1
            return port, None
    elif tx <= labs[link.bd].ihi or tx <= labs[link.td].ihi:
        port = len(labs) - 1
        while labs[port].ihi < tx:
            port -= 1
        port = bisect_left(xs, xs[port])
        while labs[port].ihi < tx:
            port += 1
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
    fields = (*_LABEL_FIELDS, *_TABLE_FIELDS)

    def __init__(self, n, cols, indptr, indices, rows, vdom=None):
        """vdom is the (bottom, top) port pair _row_vertical_dominators
        gives for rows; it is computed here when not given."""
        super().__init__(n, cols, indptr, indices)
        x, y, ilo, ihi = (cols[f] for f in _LABEL_FIELDS)
        if vdom is None:
            vdom = _row_vertical_dominators(x, y, *rows)
        self.labels = list(map(DoubleLabel, x.tolist(), y.tolist(),
                               ilo.tolist(), ihi.tolist()))
        self.tables = list(map(DoubleTable, *(
            cols[f].tolist() for f in _TABLE_FIELDS)))
        self.links = list(map(DoubleLink, range(n), self.labels,
                              *cut_rows(rows, x, np.fromiter(
                                  self.labels, object, n)),
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

    step = route_step_double

    @staticmethod
    def check_links(cols, src, dst):
        x = cols["x"][dst]      # a row lists only vertices in its I(v)
        bad = np.flatnonzero((x < cols["ilo"][src]) | (x > cols["ihi"][src]))
        if bad.size:
            raise dump.DumpError(f"row {src[bad[0]]} lists {dst[bad[0]]}, "
                                 f"outside its interval")

    @staticmethod
    def check_cols(n, cols):
        x, y, bit = cols["x"], cols["y"], cols["bit_bottom"]
        off = (y == 0) | polygon.out_of_range(x) | polygon.out_of_range(y)
        return {**cols, "bit_bottom": bit == 1}, [
            (off, lambda v: (
                f"row {v}: vertex ({x[v]},{y[v]}) must lie off the base "
                f"line, with |x|, |y| < 2**62")),
            *dump.range_checks("interval bound", (cols["ilo"], cols["ihi"])),
            *dump.range_checks("table field",
                               [cols[f] for f in _TABLE_FIELDS[:6]]),
            dump.bit_check(bit)]


def preprocess_double(h, g) -> DoubleScheme:
    """Build labels, tables, and link tables for a double histogram.

    Takes any valid double histogram and stores coordinate ranks
    (polygon.ranks); g's interval bounds become ranks only once checked.
    Checks, per vertex, that what a step derives locally, reduced over
    the closed rows, equals its global definition from the level-k
    dominator arrays: the bottom/top dominators, the level-2 interval as
    the neighborhood's extreme interval bounds, which case 2 reads from
    the dominators' ports, and the level-3 interval covered by the two
    tabled level-2 intervals. A mismatch aborts; the links come last.
    """
    if h.kind != "double":
        raise SchemeBuildError(f"need a double histogram, got {h.kind}")
    n = h.n
    lm = g.lm
    x_values, x, y = polygon.ranks(h)
    cols = {"x": x, "y": y}
    ptr, ids = closed_rows(g.indptr, g.indices,
                           DoubleScheme.link_order(n, cols))

    bd, td = lmk.dominator_levels(g, 2)
    bd1, td1, bd2 = bd[1], td[1], bd[2]
    vdom = _row_vertical_dominators(x, y, ptr, ids)
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
    bounds = np.searchsorted(x_values, (
        lm.l_x, lm.r_x, i2bd_lo, i2bd_hi, i2td_lo, i2td_hi))   # as x ranks
    cols.update(zip(DoubleScheme.fields[2:], (*bounds, x[bd2], y[bd2], bit)))
    return DoubleScheme(n, cols, g.indptr, g.indices, (ptr, ids), vdom)


def dump_scheme(scheme: DoubleScheme) -> bytes:
    """Self-contained dump (see dump): the CSR of the neighbor ids, then
    the coordinate, interval bound and table columns."""
    return dump.write(scheme)


def parse_dump(data: bytes) -> DoubleScheme:
    """Inverse of dump_scheme. Raises dump.DumpError, a ValueError, on
    a malformed dump."""
    return dump.read(data, DoubleScheme)
