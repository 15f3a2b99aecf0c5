"""Routing landmarks on the visibility graph of a histogram polygon.

Everything here is defined relative to the base (the top edge for
simple histograms, the line y=0 for double ones). Breakpoints split a
vertex's interval at the highest horizontal edge fully visible below
it; the level-k dominators are the vertices closest to the base line,
one per side, within the level-k interval of a vertex. Dominators come
for all vertices at once from range-minimum queries over sparse tables,
at positions in each side's x order found once for every level, and
breakpoints from one pass over the visibility graph's CSR, so
preprocessing costs O(n log n + E) for E edges. The per-vertex
definitions these must agree with are kept as test oracles.
"""

import numpy as np

from .engine import SchemeBuildError
from .visibility import RangeMin, VisibilityGraph


def first_vertex(mask):
    """The smallest vertex id where a per-vertex mask holds, or None."""
    hit = np.flatnonzero(mask)
    return int(hit[0]) if len(hit) else None


def breakpoints(g: VisibilityGraph):
    """The breakpoint of every vertex of a simple histogram, -1 for the
    convex non-base vertices, which have none.

    For an r-reflex vertex (and the left base vertex): the left endpoint
    of the highest horizontal edge that starts at or right of v, lies
    below v, and is entirely visible from v. For an l-reflex vertex (and
    the right base vertex) the mirror image.

    P holds everything between a horizontal edge and the base, so v
    sees the whole of an edge below it exactly when v sees the edge's
    end nearer to v. The candidates are thus the neighbors of v that
    are such near ends, and one pass over the CSR takes the highest
    candidate of every vertex.
    """
    h = g.h
    if h.kind != "simple":
        raise ValueError("breakpoints exist on simple histograms only")
    n = h.n
    ids = np.arange(n)
    is_base = (ids == 0) | (ids == n - 1)
    has_br = is_base | ~h.convex
    rightward = np.where(is_base, ids == 0, ~h.is_left)
    v = np.repeat(ids, np.diff(g.indptr))
    u = g.indices
    # u must be its edge's end nearer v, on the side v looks toward
    xu, xp, xv, right = h.xs[u], h.xs[h.cv[u]], h.xs[v], rightward[v]
    near = ((xu < xp) == right) & np.where(right, xu >= xv, xu <= xv)
    keep = near & (h.ys[u] < h.ys[v]) & has_br[v]
    v, u, ye = v[keep], u[keep], h.ys[u[keep]]
    # per-row argmax over y: one horizontal edge has each y
    top = np.full(n, np.iinfo(np.int64).min)
    np.maximum.at(top, v, ye)
    best = ye == top[v]
    br = np.full(n, -1, dtype=np.int64)
    br[v[best]] = u[best]
    missing = first_vertex(has_br & (br < 0))
    if missing is not None:
        raise SchemeBuildError(f"no breakpoint for vertex {missing}")
    return br


def dominator_levels(g: VisibilityGraph, k: int):
    """Level-i bottom and top dominators of every vertex, i = 0..k.

    Returns int64 arrays bd and td of shape (k + 1, n). Level 0 is the
    vertex itself. The level-(i+1) bottom dominator of v is the
    below-base vertex closest to the base line (ties by smaller x) whose
    x lies in I(bd[i][v]) or I(td[i][v]); the top dominator is the
    above-base mirror. An empty side copies the other side's pick. Each
    side keeps one sparse table over its vertices in x order, and finds
    once where every vertex's interval bounds fall in that order: a
    level indexes those positions by its dominators and costs four
    range-minimum queries per vertex.
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
        xs = h.xs[ids]
        sides.append((np.searchsorted(xs, lm.l_x, "left"),
                      np.searchsorted(xs, lm.r_x, "right"),
                      RangeMin(rank[ids]), np.append(by_rank, -1)))

    bd = np.empty((k + 1, n), dtype=np.int64)
    td = np.empty((k + 1, n), dtype=np.int64)
    bd[0] = td[0] = np.arange(n)
    for i in range(k):
        picks = []
        for a, b, table, by_rank in sides:
            none = len(by_rank) - 1
            best = np.full(n, none, dtype=np.int64)
            for dom in (bd[i], td[i]):
                best = np.minimum(best, table.query(a[dom], b[dom], none))
            picks.append(by_rank[best])
        # I(dom) holds dom itself, so at most one side comes up empty
        low, high = picks
        bd[i + 1] = np.where(low >= 0, low, high)
        td[i + 1] = np.where(high >= 0, high, low)
    return bd, td
