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

from . import dump
from . import landmarks as lmk
from .engine import HeaderProtocolError, RoutingError, SchemeBuildError


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
    """Labels of the closed neighborhood, addressable by coordinates."""

    def __init__(self, entries, own_vid: int):
        # entries: (vid, DoubleLabel) pairs
        self.entries = sorted(entries, key=lambda e: (e[1].x, e[1].y))
        self.id_set = {vid for vid, _ in self.entries}
        self.own_vid = own_vid
        self.own = next(lab for vid, lab in self.entries if vid == own_vid)
        self._by_coord = {(lab.x, lab.y): vid for vid, lab in self.entries}
        self._xs = [lab.x for _, lab in self.entries]
        self._chains = None
        self._vdom = None

    def find(self, x: int, y: int):
        return self._by_coord.get((x, y))


def _dist(lab: DoubleLabel) -> int:
    return -lab.y if lab.y < 0 else lab.y


def _group_min(entries, i, j):
    """The (distance to base, y)-minimal entry of entries[i:j], which
    all share one x (at most two by general position)."""
    best = entries[i]
    for k in range(i + 1, j):
        e = entries[k]
        if (_dist(e[1]), e[1].y) < (_dist(best[1]), best[1].y):
            best = e
    return best


def _local_dominators(link: DoubleLink, tx: int):
    """Near and far dominator toward x-coordinate tx, from labels alone.

    Mirrors the global definition: candidates are the closed
    neighborhood, the far side includes tx itself, ties break toward
    the base line. fd is None when the far side is empty. The winners
    always sit in the x-group adjacent to tx on their side, so two
    bisections suffice on the x-sorted entries.
    """
    entries, xs = link.entries, link._xs
    if tx > link.own.x:
        i = bisect.bisect_left(xs, tx)
        nd = _group_min(entries, bisect.bisect_left(xs, xs[i - 1]), i)
        fd = _group_min(entries, i, bisect.bisect_right(xs, xs[i])) \
            if i < len(entries) else None
    else:
        i = bisect.bisect_right(xs, tx)
        nd = _group_min(entries, i, bisect.bisect_right(xs, xs[i]))
        fd = _group_min(entries, bisect.bisect_left(xs, xs[i - 1]), i) \
            if i > 0 else None
    return nd, fd


def _local_vertical_dominators(link: DoubleLink):
    """Bottom and top dominator entries over the closed neighborhood:
    the (distance to base, x)-minimal entries below and above the base
    line, an empty side copying the other. Cached per link."""
    if link._vdom is None:
        below = [e for e in link.entries if e[1].y < 0]
        above = [e for e in link.entries if e[1].y > 0]
        bd = min(below, key=lambda e: (_dist(e[1]), e[1].x)) if below else None
        td = min(above, key=lambda e: (_dist(e[1]), e[1].x)) if above else None
        if bd is None:
            bd = td
        if td is None:
            td = bd
        link._vdom = (bd, td)
    return link._vdom


def _local_chains(link: DoubleLink):
    """Greedy interval-extension chains over the neighbor labels.

    Left chain: repeatedly pick, among neighbors whose interval starts
    strictly left of the current one, the leftmost vertex (ties toward
    the base). Right chain mirrored. Both start at the own label.
    Cached per link.
    """
    if link._chains is not None:
        return link._chains
    own = (link.own_vid, link.own)
    nbr = [e for e in link.entries if e[0] != link.own_vid]
    chain_a = [own]
    while True:
        cur = chain_a[-1][1]
        cands = [e for e in nbr if e[1].ilo < cur.ilo]
        if not cands:
            break
        chain_a.append(min(cands, key=lambda e: (e[1].x, _dist(e[1]), e[1].y)))
    chain_b = [own]
    while True:
        cur = chain_b[-1][1]
        cands = [e for e in nbr if e[1].ihi > cur.ihi]
        if not cands:
            break
        chain_b.append(min(cands, key=lambda e: (-e[1].x, _dist(e[1]), e[1].y)))
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

    bd, td = _local_vertical_dominators(link)
    # case 3: target inside the level-3 interval
    if table.i2bd_lo <= tx <= table.i2bd_hi:
        return bd[0], None
    if table.i2td_lo <= tx <= table.i2td_hi:
        return td[0], None

    # case 4: beyond the level-3 interval; aim for the level-2 bottom
    # dominator and record it in the header
    pick = bd if table.bit_bottom else td
    if pick[0] == link.own_vid:
        raise RoutingError(
            "vertical dominator degenerated to the current vertex")
    return pick[0], (table.bd2x, table.bd2y)


class DoubleScheme:
    kind = "double"

    def __init__(self, n, labels, tables, links):
        self.n = n
        self._labels = labels
        self._tables = tables
        self._links = links
        w = (n - 1).bit_length()
        # fixed-width fields: w+1 bits fit any coordinate rank plus sign
        self.max_label_bits = 4 * (w + 1)
        self.max_table_bits = 6 * (w + 1) + 1
        self.max_header_bits = 2 * (w + 1)

    def label_of(self, v: int) -> DoubleLabel:
        return self._labels[v]

    def table_of(self, v: int) -> DoubleTable:
        return self._tables[v]

    def link_of(self, v: int) -> DoubleLink:
        return self._links[v]

    def neighbor_ids(self, v: int):
        return sorted(i for i in self._links[v].id_set if i != v)

    def step(self, link, table, target, header):
        return route_step_double(link, table, target, header)


def _check_normalized(h):
    m = h.n // 2
    if sorted({int(x) for x in h.xs}) != list(range(m)):
        raise SchemeBuildError("x coordinates are not normalized ranks")
    neg = sorted({int(y) for y in h.ys if y < 0})
    pos = sorted({int(y) for y in h.ys if y > 0})
    if neg != list(range(-len(neg), 0)) or pos != list(range(1, len(pos) + 1)):
        raise SchemeBuildError("y coordinates are not normalized ranks")


def preprocess_double(h, g) -> DoubleScheme:
    """Build labels, tables, and link tables for a double histogram.

    Requires normalized coordinates. Verifies, per vertex, that the
    locally computable quantities match their global definitions: the
    bottom/top dominators found among neighbors, the level-2 interval
    reached by the extension chains, and the level-3 interval covered
    by the two tabled level-2 intervals. Any mismatch aborts the build.
    All global quantities come from the level-k dominator arrays.
    """
    if h.kind != "double":
        raise SchemeBuildError(f"need a double histogram, got {h.kind}")
    _check_normalized(h)
    n = h.n
    lm = g.lm
    labels = [DoubleLabel(*f) for f in zip(
        h.xs.tolist(), h.ys.tolist(), lm.l_x.tolist(), lm.r_x.tolist())]
    links = []
    for v, nbrs in enumerate(g.neighbors):
        entries = [(u, labels[u]) for u in nbrs.tolist()]
        entries.append((v, labels[v]))
        links.append(DoubleLink(entries, v))

    bd, td = lmk.dominator_levels(g, 2)
    bd1, td1, bd2 = bd[1], td[1], bd[2]
    for v, (b, t) in enumerate(zip(bd1.tolist(), td1.tolist())):
        lbd, ltd = _local_vertical_dominators(links[v])
        if lbd[0] != b or ltd[0] != t:
            raise SchemeBuildError(
                f"local bottom/top dominators at {v} diverge from the "
                f"global ones ({lbd[0]},{ltd[0]}) vs ({b},{t})")

    # I^k(v) spans the intervals of the level-(k-1) dominators
    lo2 = np.minimum(lm.l_x[bd1], lm.l_x[td1])
    hi2 = np.maximum(lm.r_x[bd1], lm.r_x[td1])
    lo3 = np.minimum(lm.l_x[bd2], lm.l_x[td[2]])
    hi3 = np.maximum(lm.r_x[bd2], lm.r_x[td[2]])
    near_lo, near_hi = lmk.closed_extremes(g, lm.l_x, lm.r_x)
    v = lmk.first_vertex((near_lo != lo2) | (near_hi != hi2))
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

    def sees(a, b):
        return (a == b) | g.adj[a, b]

    vid = np.arange(n)

    def level1_hop(last):
        # entry 1 of the canonical level-2 path v -> p1 -> last: stay on
        # last if it is a level-1 dominator, else prefer the bottom one
        stay = (last == bd1) | (last == td1)
        p1 = np.where(stay, last, np.where(
            sees(bd1, last), bd1, np.where(sees(td1, last), td1, -1)))
        v = lmk.first_vertex(p1 < 0)
        if v is not None:
            raise SchemeBuildError(
                f"level-1 dominators of {v} both miss {int(last[v])}")
        v = lmk.first_vertex(~sees(vid, p1))
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
    return DoubleScheme(n, labels, tables, links)


def dump_scheme(scheme: DoubleScheme) -> str:
    """Self-contained text dump: one row per vertex with coordinates,
    interval bounds, table fields, the bit, and the neighbor ids."""
    lines = [f"scheme double {scheme.n}"]
    for v in range(scheme.n):
        lab = scheme.label_of(v)
        tab = scheme.table_of(v)
        nbrs = " ".join(str(i) for i in scheme.neighbor_ids(v))
        lines.append(
            f"{v} | {lab.x} {lab.y} | {lab.ilo} {lab.ihi} | "
            f"{tab.i2bd_lo} {tab.i2bd_hi} {tab.i2td_lo} {tab.i2td_hi} "
            f"{tab.bd2x} {tab.bd2y} | {1 if tab.bit_bottom else 0} | {nbrs}")
    return "\n".join(lines) + "\n"


def parse_dump(text: str) -> DoubleScheme:
    """Inverse of dump_scheme. Raises ValueError on malformed text."""
    n, rows = dump.read_rows(text, "double", 5)
    labels = [None] * n
    tables = [None] * n
    nbrs = [None] * n
    for v, (_, coords, bounds, fields, bit, ids) in enumerate(rows):
        x, y = (int(a) for a in coords.split())
        ilo, ihi = (int(a) for a in bounds.split())
        labels[v] = DoubleLabel(x, y, ilo, ihi)
        f = [int(a) for a in fields.split()]
        if len(f) != 6:
            raise ValueError(f"row {v}: expected 6 table fields, "
                             f"got {fields.strip()!r}")
        tables[v] = DoubleTable(f[0], f[1], f[2], f[3], f[4], f[5],
                                dump.parse_bit(bit))
        nbrs[v] = [int(a) for a in ids.split()]
    dump.check_ids(nbrs, n)
    links = []
    for v in range(n):
        entries = [(u, labels[u]) for u in nbrs[v]] + [(v, labels[v])]
        links.append(DoubleLink(entries, v))
    return DoubleScheme(n, labels, tables, links)
