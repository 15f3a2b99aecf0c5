"""Rectangle visibility on histogram polygons.

Two points of a polygon P see each other when the axis-aligned rectangle
they span lies entirely in the closed region P. The visibility graph has
the polygon vertices as nodes and an edge between every co-visible pair.

For every vertex v this module computes the two horizontal ray hits
l(v) and r(v) (leftward and rightward from v) and the visibility
interval I(v) = [l(v).x, r(v).x]. Two vertices are co-visible exactly
when each lies in the other's interval, which gives an O(1) pair test
once the intervals are known. VisibilityGraph stores the edges once, as
the CSR adjacency that the rest of the package reads.

In x order, the vertices after v up to x = r(v).x are one run, and v's
neighbors among them are those whose l_x is at most x(v). Range minima
over l_x (Bender and Farach-Colton 2000) drop every part of a run that
holds none, and the rest is halved until it is short enough to scan, so
the build's work follows the edges, not the runs, which total order n^2
positions on a near-staircase polygon.

Every vertex lies on one horizontal edge of its chain, its tooth, and
both of its rays run at the tooth's height. Only the ray's own chain
can stop it, at the first tooth on that side that lies nearer to the
base: ray shooting is the all-nearest-smaller-values problem (Berkman,
Schieber and Vishkin 1993), one monotone-stack pass per chain.
"""

from typing import NamedTuple

import numpy as np

from .polygon import Histogram

_SCAN = 32      # a range of at most this many positions is scanned whole


class Landmarks(NamedTuple):
    """Per-vertex ray hits and visibility intervals, int64 arrays.

    l_vid and r_vid are -1 where a ray of a double histogram ends on a
    boundary edge between its endpoints.
    """

    l_vid: np.ndarray
    l_x: np.ndarray
    l_y: np.ndarray
    r_vid: np.ndarray
    r_x: np.ndarray
    r_y: np.ndarray


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


def _nearer_neighbours(dist):
    """For each position i, the positions of the previous and of the
    next entry with a smaller value, -1 where there is none. Values are
    distinct; one monotone stack gives both in a single pass."""
    prev = [-1] * len(dist)
    nxt = [-1] * len(dist)
    stack = []
    for i, d in enumerate(dist):
        while stack and dist[stack[-1]] > d:
            nxt[stack.pop()] = i
        if stack:
            prev[i] = stack[-1]
        stack.append(i)
    return np.array(prev, dtype=np.int64), np.array(nxt, dtype=np.int64)


def compute_landmarks(h: Histogram) -> Landmarks:
    """Shoot the horizontal rays from every vertex.

    A ray stops at the vertical edge that joins the nearest tooth nearer
    to the base on its side, and resolves to that tooth's end facing it.
    A ray that no such tooth stops ends on a boundary edge: in the
    simple case at the base vertex on that side; in the double case at
    the boundary point at the ray height, which is a vertex only where
    the ray's own tooth ends on that boundary edge.
    """
    n, xs, ys = h.n, h.xs, h.ys
    l_vid = np.full(n, -1, dtype=np.int64)
    r_vid = np.full(n, -1, dtype=np.int64)
    if h.kind == "simple":
        dist = h.base_y - h.he_y
        chains = [np.flatnonzero(dist > 0)]        # all but the base edge
    else:
        dist = np.abs(h.he_y)
        chains = [np.flatnonzero(h.he_y < 0), np.flatnonzero(h.he_y > 0)]
    for teeth in chains:
        teeth = teeth[np.argsort(h.he_xlo[teeth])]
        vleft, vright = h.he_vleft[teeth], h.he_vright[teeth]
        prev, nxt = _nearer_neighbours(dist[teeth].tolist())
        if h.kind == "simple":
            l_open, r_open = 0, n - 1
        else:
            # the boundary edges' own vertices, else a point between them
            l_open = np.where(h.he_xlo[teeth] == h.xmin, vleft, -1)
            r_open = np.where(h.he_xhi[teeth] == h.xmax, vright, -1)
        l_hit = np.where(prev >= 0, vright[prev], l_open)
        r_hit = np.where(nxt >= 0, vleft[nxt], r_open)
        for ends in (vleft, vright):
            l_vid[ends], r_vid[ends] = l_hit, r_hit
    if h.kind == "simple":
        l_vid[[0, n - 1]], r_vid[[0, n - 1]] = 0, n - 1
    cols = []
    for vid, edge in ((l_vid, h.xmin), (r_vid, h.xmax)):
        hit = vid >= 0
        cols += [vid, np.where(hit, xs[vid], edge), np.where(hit, ys[vid], ys)]
    return Landmarks(*cols)


class VisibilityGraph:
    """Histogram, landmarks, and the one adjacency every module reads: a
    CSR (compressed sparse row) pair of int64 arrays. Row v of it,
    indices[indptr[v]:indptr[v + 1]], lists the other vertices v sees,
    ascending."""

    def __init__(self, h: Histogram, lm: Landmarks):
        self.h = h
        self.lm = lm
        self.n = n = h.n
        order = np.argsort(h.xs, kind="stable")
        x_sorted, l_sorted = h.xs[order], lm.l_x[order]
        # a u after v in x order sees v exactly when x(u) <= r_x(v) and
        # l_x[u] <= x(v) (which holds when x(u) == x(v)): each pair is
        # found once, from its end first in x order, and mirrored. A
        # range of positions without such a u is dropped whole; the
        # others are scanned when short and halved when long.
        v, lo = order, np.arange(1, n + 1)
        hi = np.searchsorted(x_sorted, lm.r_x[order], "right")
        keys = []
        table = RangeMin(l_sorted)
        while len(v):
            keep = table.query(lo, hi, np.iinfo(np.int64).max) <= h.xs[v]
            v, lo, hi = v[keep], lo[keep], hi[keep]
            short = hi - lo <= _SCAN
            size = (hi - lo)[short]
            w = np.repeat(v[short], size)
            q = np.repeat(lo[short] + size - np.cumsum(size), size)
            q += np.arange(len(q))      # every position of the short ranges
            hit = l_sorted[q] <= h.xs[w]
            w, u = w[hit], order[q[hit]]
            keys += [w * n + u, u * n + w]
            v, lo, hi = v[~short], lo[~short], hi[~short]
            mid = (lo + hi) // 2
            v, lo, hi = np.tile(v, 2), np.append(lo, mid), np.append(mid, hi)
        key = np.sort(np.concatenate(keys))     # v*n + u, rows by v
        self.indptr = np.searchsorted(key, np.arange(n + 1) * n)
        self.indices = key % n

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def edge_count(self) -> int:
        return len(self.indices) // 2

    def interval(self, v: int):
        return int(self.lm.l_x[v]), int(self.lm.r_x[v])


def build_graph(h: Histogram) -> VisibilityGraph:
    return VisibilityGraph(h, compute_landmarks(h))


def co_visible_fast(g: VisibilityGraph, v, w):
    """Interval-based visibility test: each endpoint must lie in the
    other's interval. v and w may be ids or id arrays; a vertex sees
    itself."""
    xs, lm = g.h.xs, g.lm
    xv, xw = xs[v], xs[w]
    sees = ((lm.l_x[v] <= xw) & (xw <= lm.r_x[v])
            & (lm.l_x[w] <= xv) & (xv <= lm.r_x[w]))
    return sees if np.ndim(sees) else bool(sees)
