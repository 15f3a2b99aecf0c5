"""Stretch-2 compact routing on double histograms.

Labels carry a vertex's coordinates and the x-bounds of its landmark
interval. The routing table holds the x-bounds of the level-2 intervals
of the two vertical dominators, the coordinates of the level-2 bottom
dominator, and one path-choice bit. A step reads only the closed
neighborhood's labels, the local table, the target label, and a header
of at most one vertex's coordinates, and every routed path is at most
twice a shortest one.
"""

import bisect
import dataclasses

import numpy as np

from . import dump, polygon
from . import landmarks as lmk
from .engine import (HeaderProtocolError, RoutingError, Scheme,
                     SchemeBuildError, closed_rows)
from .visibility import co_visible_fast


@dataclasses.dataclass(frozen=True)
class DoubleLabel:
    x: int
    y: int
    ilo: int    # left x-bound of I(v)
    ihi: int    # right x-bound of I(v)


@dataclasses.dataclass(frozen=True)
class DoubleTable:
    i2bd_lo: int
    i2bd_hi: int
    i2td_lo: int
    i2td_hi: int
    bd2x: int
    bd2y: int
    bit_bottom: bool


class DoubleLink:
    """(vid, DoubleLabel) entries of the closed neighborhood in link
    order (by x, distance to base, y), addressable by coordinates.
    DoubleScheme sets bd and td, the ids of the neighborhood's bottom
    and top dominators (see _row_vertical_dominators)."""

    def __init__(self, labels, row, own_vid: int):
        self.entries = [(u, labels[u]) for u in row]
        self.id_set = set(row)
        self.own_vid = own_vid
        self.own = labels[own_vid]
        self._by_coord = {(lab.x, lab.y): vid for vid, lab in self.entries}
        self._xs = [lab.x for _, lab in self.entries]
        self._chains = None
        # set here, not only later, so every link shares one key table
        self.bd = self.td = None

    def find(self, x: int, y: int):
        return self._by_coord.get((x, y))


def _local_dominators(link: DoubleLink, tx: int):
    """Near and far dominator toward x-coordinate tx, from labels alone.

    Mirrors the global definition: candidates are the closed
    neighborhood, the far side includes tx itself, ties break toward
    the base line. fd is None when the far side is empty. The winners
    always sit in the x-group adjacent to tx on their side, and link
    order puts each group's winner first, so two bisections suffice.
    """
    entries, xs = link.entries, link._xs
    if tx > link.own.x:
        i = bisect.bisect_left(xs, tx)
        nd = entries[bisect.bisect_left(xs, xs[i - 1])]
        fd = entries[i] if i < len(entries) else None
    else:
        i = bisect.bisect_right(xs, tx)
        if i == len(entries):
            raise RoutingError(
                f"no neighbor of {link.own_vid} lies toward x={tx}")
        nd = entries[i]
        fd = entries[bisect.bisect_left(xs, xs[i - 1])] if i > 0 else None
    return nd, fd


def _row_vertical_dominators(xs, ys, ptr, ids):
    """Per closed row (ptr, ids), the bottom and top dominators: the
    entries below and above the base line least by (distance to base,
    x), an empty side copying the other. Ties fall to the smaller id,
    as in link order: least by (off side, |y|, x, id)."""
    orders = [np.lexsort((xs, np.abs(ys), off)) for off in (ys > 0, ys < 0)]
    return [by[np.minimum.reduceat(np.argsort(by)[ids], ptr[:-1])]
            for by in orders]


def _local_chains(link: DoubleLink):
    """Greedy interval-extension chains over the neighbor labels.

    Left chain: repeatedly pick, among neighbors whose interval starts
    strictly left of the current one, the leftmost vertex (ties toward
    the base). Right chain mirrored. Both start at the own label. No
    entry before a pick in that order starts left of the current one, so
    a chain is the running records of one scan in link order, with the
    x-groups taken from the right for the right chain. Cached per link.
    """
    if link._chains is not None:
        return link._chains
    entries, xs = link.entries, link._xs
    chain_a = [(link.own_vid, link.own)]
    for e in entries:
        if e[1].ilo < chain_a[-1][1].ilo:
            chain_a.append(e)
    chain_b = [(link.own_vid, link.own)]
    j = len(entries)
    while j:
        i = bisect.bisect_left(xs, xs[j - 1])
        for e in entries[i:j]:
            if e[1].ihi > chain_b[-1][1].ihi:
                chain_b.append(e)
        j = i
    link._chains = (chain_a, chain_b)
    return link._chains


def route_step_double(link: DoubleLink, table: DoubleTable,
                      target: DoubleLabel, header):
    """One routing hop: (next vertex id, outgoing header).

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
            nxt = link.find(hx, hy)
            if nxt is None:
                raise HeaderProtocolError(
                    f"header names ({hx},{hy}), which is not visible here")
            return nxt, None

    tx = target.x
    # case 1: target inside the own interval
    if own.ilo <= tx <= own.ihi:
        nd, fd = _local_dominators(link, tx)
        pick = fd if fd is not None else nd
        if pick[0] == link.own_vid:
            raise RoutingError(
                f"dominator toward x={tx} degenerated to the current vertex")
        return pick[0], None

    # case 2: target inside the level-2 interval
    chain_a, chain_b = _local_chains(link)
    if tx < own.ilo:
        if tx >= chain_a[-1][1].ilo:
            for vid, lab in chain_a[1:]:
                if lab.ilo <= tx:
                    return vid, None
    else:
        if tx <= chain_b[-1][1].ihi:
            for vid, lab in chain_b[1:]:
                if lab.ihi >= tx:
                    return vid, None

    # case 3: target inside the level-3 interval
    if table.i2bd_lo <= tx <= table.i2bd_hi:
        return link.bd, None
    if table.i2td_lo <= tx <= table.i2td_hi:
        return link.td, None

    # case 4: beyond the level-3 interval; aim for the level-2 bottom
    # dominator and record it in the header
    pick = link.bd if table.bit_bottom else link.td
    if pick == link.own_vid:
        raise RoutingError(
            "vertical dominator degenerated to the current vertex")
    return pick, (table.bd2x, table.bd2y)


def _coordinates(labels):
    """The x and the y of every label, as two int64 arrays."""
    return (np.array([lab.x for lab in labels], dtype=np.int64),
            np.array([lab.y for lab in labels], dtype=np.int64))


class DoubleScheme(Scheme):
    kind = "double"
    Link = DoubleLink
    columns = 4     # coordinates, interval bounds, table fields, bit

    def __init__(self, n, labels, tables, indptr, indices, rows, vdom=None):
        """vdom is the (bottom, top) pair _row_vertical_dominators gives
        for rows; it is computed here when not given."""
        super().__init__(n, labels, tables, indptr, indices, rows)
        if vdom is None:
            vdom = _row_vertical_dominators(*_coordinates(labels), *rows)
        for link, b, t in zip(self._links, *(a.tolist() for a in vdom)):
            link.bd, link.td = b, t
        w = (n - 1).bit_length()
        # fixed-width fields: w+1 bits fit any coordinate rank plus sign
        self.max_label_bits = 4 * (w + 1)
        self.max_table_bits = 6 * (w + 1) + 1
        self.max_header_bits = 2 * (w + 1)

    @staticmethod
    def link_order(n, labels):
        x, y = _coordinates(labels)
        return np.lexsort((y, np.abs(y), x))

    def step(self, link, table, target, header):
        return route_step_double(link, table, target, header)

    def row_fields(self, v: int):
        lab = self.label_of(v)
        tab = self.table_of(v)
        return [f"{lab.x} {lab.y}", f"{lab.ilo} {lab.ihi}",
                f"{tab.i2bd_lo} {tab.i2bd_hi} {tab.i2td_lo} {tab.i2td_hi} "
                f"{tab.bd2x} {tab.bd2y}", "1" if tab.bit_bottom else "0"]

    @staticmethod
    def parse_row(v: int, fields):
        coords, bounds, table, bit = fields
        x, y = (int(a) for a in coords.split())
        if y == 0 or max(abs(x), abs(y)) >= 1 << 62:
            raise ValueError(f"row {v}: vertex ({x},{y}) must lie off the "
                             f"base line, with |x|, |y| < 2**62")
        ilo, ihi = (int(a) for a in bounds.split())
        f = [int(a) for a in table.split()]
        if len(f) != 6:
            raise ValueError(f"row {v}: expected 6 table fields, "
                             f"got {table.strip()!r}")
        return DoubleLabel(x, y, ilo, ihi), \
            DoubleTable(*f, dump.parse_bit(bit))


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
    labels = [DoubleLabel(*f) for f in zip(
        h.xs.tolist(), h.ys.tolist(), lm.l_x.tolist(), lm.r_x.tolist())]
    ptr, ids = closed_rows(g.indptr, g.indices,
                           DoubleScheme.link_order(n, labels))

    bd, td = lmk.dominator_levels(g, 2)
    bd1, td1, bd2 = bd[1], td[1], bd[2]
    lbd, ltd = _row_vertical_dominators(h.xs, h.ys, ptr, ids)
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
    tables = [DoubleTable(*f) for f in zip(
        i2bd_lo.tolist(), i2bd_hi.tolist(), i2td_lo.tolist(),
        i2td_hi.tolist(), h.xs[bd2].tolist(), h.ys[bd2].tolist(),
        bit.tolist())]
    return DoubleScheme(n, labels, tables, g.indptr, g.indices, (ptr, ids),
                        (lbd, ltd))


def dump_scheme(scheme: DoubleScheme) -> str:
    """Self-contained text dump: one row per vertex with coordinates,
    interval bounds, table fields, the bit, and the neighbor ids."""
    return dump.write(scheme)


def parse_dump(text: str) -> DoubleScheme:
    """Inverse of dump_scheme. Raises ValueError on malformed text."""
    return dump.read(text, DoubleScheme)
