"""Routing landmarks on the visibility graph of a histogram polygon.

Everything here is defined relative to the base (the top edge for
simple histograms, the line y=0 for double ones). Breakpoints split a
vertex's interval at the highest horizontal edge fully visible below
it; the level-k dominators are the vertices closest to the base line,
one per side, within the level-k interval of a vertex. Dominators come
for all vertices at once from range-minimum queries over sparse tables,
and breakpoints from a vertex's own neighbors, so preprocessing costs
O(n log n + sum of degrees). The per-vertex definitions these must
agree with are kept as test oracles.
"""

import numpy as np

from .visibility import VisibilityGraph


class RangeMin:
    """Sparse table over an integer array (Bender and Farach-Colton).

    O(n log n) set-up; afterwards the minimum over any index range
    [a, b) takes two lookups, vectorised over arrays of ranges.
    """

    def __init__(self, values):
        values = np.asarray(values, dtype=np.int64)
        n = len(values)
        depth = max(n, 1).bit_length()   # levels j with 2**j <= n
        self._table = np.zeros((depth, max(n, 1)), dtype=np.int64)
        self._table[0, :n] = values
        for j in range(1, depth):
            half, m = 1 << (j - 1), n - (1 << j) + 1
            self._table[j, :m] = np.minimum(self._table[j - 1, :m],
                                            self._table[j - 1, half:half + m])

    def query(self, a, b, empty):
        """Minimum of values[a[i]:b[i]] for each i, or `empty` where
        the range holds nothing."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = np.full(a.shape, empty, dtype=np.int64)
        hit = b > a
        a, b = a[hit], b[hit]
        j = np.frexp((b - a).astype(np.float64))[1] - 1   # floor(log2(b - a))
        out[hit] = np.minimum(self._table[j, a], self._table[j, b - (1 << j)])
        return out


def first_vertex(mask):
    """The smallest vertex id where a per-vertex mask holds, or None."""
    hit = np.flatnonzero(mask)
    return int(hit[0]) if len(hit) else None


def closed_extremes(g: VisibilityGraph, lo_values, hi_values):
    """Per vertex v, the minimum of lo_values and the maximum of
    hi_values over the closed neighborhood of v."""
    n = g.n
    size = np.array([len(nb) + 1 for nb in g.neighbors], dtype=np.int64)
    start = np.cumsum(size) - size
    members = np.empty(int(size.sum()), dtype=np.int64)
    own = np.zeros(len(members), dtype=bool)
    own[start] = True
    members[own] = np.arange(n)
    members[~own] = np.concatenate(g.neighbors)
    lo = np.minimum.reduceat(np.asarray(lo_values)[members], start)
    hi = np.maximum.reduceat(np.asarray(hi_values)[members], start)
    return lo, hi


def breakpoint_of(g: VisibilityGraph, v: int):
    """The breakpoint of a reflex or base vertex of a simple histogram.

    For an r-reflex vertex (and the left base vertex): the left endpoint
    of the highest horizontal edge that starts at or right of v, lies
    below v, and is entirely visible from v. For an l-reflex vertex (and
    the right base vertex) the mirror image. Returns None for convex
    non-base vertices.

    A horizontal edge is entirely visible from v exactly when both of
    its endpoints are neighbors of v, so only the edges through v's
    neighbors are candidates.
    """
    h = g.h
    if h.kind != "simple":
        raise ValueError("breakpoints exist on simple histograms only")
    is_base = v == 0 or v == h.n - 1
    if h.convex[v] and not is_base:
        return None
    rightward = (v == 0) if is_base else not h.is_left[v]
    nb = g.neighbors[v]     # sorted ascending
    partner = h.cv[nb]
    pos = np.minimum(np.searchsorted(nb, partner), len(nb) - 1)
    visible = nb[pos] == partner
    xv = h.xs[v]
    xu, xp = h.xs[nb], h.xs[partner]
    if rightward:
        beside = np.minimum(xu, xp) >= xv
        pick = np.where(xu < xp, nb, partner)
    else:
        beside = np.maximum(xu, xp) <= xv
        pick = np.where(xu > xp, nb, partner)
    ye = h.ys[nb]
    cand = np.flatnonzero(visible & beside & (ye < h.ys[v]))
    if len(cand) == 0:
        raise AssertionError(f"no breakpoint for vertex {v}")
    return int(pick[cand[np.argmax(ye[cand])]])


def dominator_levels(g: VisibilityGraph, k: int):
    """Level-i bottom and top dominators of every vertex, i = 0..k.

    Returns int64 arrays bd and td of shape (k + 1, n). Level 0 is the
    vertex itself. The level-(i+1) bottom dominator of v is the
    below-base vertex closest to the base line (ties by smaller x) whose
    x lies in I(bd[i][v]) or I(td[i][v]); the top dominator is the
    above-base mirror. An empty side copies the other side's pick. Each
    side keeps one sparse table over its vertices in x order, so every
    level costs four range-minimum queries per vertex.
    """
    h, lm = g.h, g.lm
    if h.kind != "double":
        raise ValueError("dominator levels exist on double histograms only")
    n = h.n
    sides = []
    for ids in (np.flatnonzero(h.side < 0), np.flatnonzero(h.side > 0)):
        ids = ids[np.argsort(h.xs[ids], kind="stable")]
        by_rank = ids[np.lexsort((ids, h.xs[ids], np.abs(h.ys[ids])))]
        rank = np.empty(n, dtype=np.int64)
        rank[by_rank] = np.arange(len(ids))
        # by_rank[len(ids)] = -1 stands for "no vertex on this side"
        sides.append((h.xs[ids], RangeMin(rank[ids]), np.append(by_rank, -1)))

    bd = np.empty((k + 1, n), dtype=np.int64)
    td = np.empty((k + 1, n), dtype=np.int64)
    bd[0] = td[0] = np.arange(n)
    for i in range(k):
        picks = []
        for xs, table, by_rank in sides:
            none = len(by_rank) - 1
            best = np.full(n, none, dtype=np.int64)
            for dom in (bd[i], td[i]):
                a = np.searchsorted(xs, lm.l_x[dom], "left")
                b = np.searchsorted(xs, lm.r_x[dom], "right")
                best = np.minimum(best, table.query(a, b, none))
            picks.append(by_rank[best])
        # I(dom) holds dom itself, so at most one side comes up empty
        low, high = picks
        bd[i + 1] = np.where(low >= 0, low, high)
        td[i + 1] = np.where(high >= 0, high, low)
    return bd, td
