"""Definition-level oracles for the routing landmarks.

Each function here computes one landmark of one vertex straight from
its definition, scanning the whole polygon: breakpoints over every
horizontal edge, dominators and extension chains over the closed
neighborhood, level-k dominators over explicit interval vertex sets.
They are slow (O(n) or worse per vertex) and exist so the tests can
check the library's array-based preprocessing and the local routing
decisions against a second, independent derivation.
"""

import numpy as np

from histroute.scheme_double import DoubleTable
from histroute.scheme_simple import SimpleLabel
from histroute.visibility import VisibilityGraph


def _dist_to_base(g: VisibilityGraph, v: int) -> int:
    h = g.h
    if h.kind == "simple":
        return int(h.base_y - h.ys[v])
    return abs(int(h.ys[v]))


def _near_key(g: VisibilityGraph, v: int):
    # tie order: closer to the base first, below-base before above
    return (_dist_to_base(g, v), int(g.h.ys[v]))


def breakpoint_of(g: VisibilityGraph, v: int):
    """The breakpoint of a reflex or base vertex of a simple histogram.

    For an r-reflex vertex (and the left base vertex): the left endpoint
    of the highest horizontal edge that starts at or right of v, lies
    below v, and is entirely visible from v. For an l-reflex vertex (and
    the right base vertex) the mirror image. Returns None for convex
    non-base vertices.
    """
    h = g.h
    assert h.kind == "simple"
    n = h.n
    is_base = v == 0 or v == n - 1
    if h.convex[v] and not is_base:
        return None
    rightward = (not h.is_left[v]) if not is_base else (v == 0)
    xv, yv = int(h.xs[v]), int(h.ys[v])
    best = None
    best_y = None
    for e in range(len(h.he_y)):
        ye = int(h.he_y[e])
        if ye >= yv:
            continue
        vl, vr = int(h.he_vleft[e]), int(h.he_vright[e])
        if rightward:
            if int(h.he_xlo[e]) < xv:
                continue
            pick = vl
        else:
            if int(h.he_xhi[e]) > xv:
                continue
            pick = vr
        # both endpoints visible means the whole edge is
        if not (g.adj[v, vl] and g.adj[v, vr]):
            continue
        if best is None or ye > best_y:
            best, best_y = pick, ye
    if best is None:
        raise AssertionError(f"no breakpoint for vertex {v}")
    return best


def dominators(g: VisibilityGraph, s: int, t: int):
    """Near and far dominator of an invisible in-interval target.

    Preconditions: t is in I(s) but not visible from s and t != s.
    Simple histograms compare vertex ids; double histograms compare
    coordinates, with ties broken toward the base. The far dominator is
    None when no candidate lies at or beyond t (the right landmark of s
    is then a boundary point).
    """
    h = g.h
    cand = [int(u) for u in g.neighbors[s]] + [s]
    if h.kind == "simple":
        if t > s:
            nd = max(u for u in cand if u < t)
            fdset = [u for u in cand if u > t]
            fd = min(fdset) if fdset else None
        else:
            nd = min(u for u in cand if u > t)
            fdset = [u for u in cand if u < t]
            fd = max(fdset) if fdset else None
        return nd, fd
    tx = int(h.xs[t])
    sx = int(h.xs[s])
    assert tx != sx, "vertical partners are always co-visible"
    if tx > sx:
        ndset = [u for u in cand if h.xs[u] < tx]
        fdset = [u for u in cand if h.xs[u] >= tx]
        nd = min(ndset, key=lambda u: (-int(h.xs[u]),) + _near_key(g, u))
        fd = min(fdset, key=lambda u: (int(h.xs[u]),) + _near_key(g, u)) \
            if fdset else None
    else:
        ndset = [u for u in cand if h.xs[u] > tx]
        fdset = [u for u in cand if h.xs[u] <= tx]
        nd = min(ndset, key=lambda u: (int(h.xs[u]),) + _near_key(g, u))
        fd = min(fdset, key=lambda u: (-int(h.xs[u]),) + _near_key(g, u)) \
            if fdset else None
    return nd, fd


def fd2(g: VisibilityGraph, s: int, t: int):
    """The far dominator seen from the far dominator, toward t."""
    _, fd = dominators(g, s, t)
    assert fd is not None, "fd2 needs a far dominator vertex"
    _, fd_next = dominators(g, fd, t)
    assert fd_next is not None
    return fd_next


def extension_sequences(g: VisibilityGraph, s: int):
    """Greedy chains of neighbors whose intervals reach ever farther.

    The left chain starts at s; each step picks, among neighbors whose
    left landmark lies strictly left of the current one, the leftmost
    (ties toward the base). The right chain mirrors this. The chains
    stop at their fixpoints, so the last elements have the extreme
    interval ends over the closed neighborhood.
    """
    h = g.h
    lm = g.lm
    nbr = [int(u) for u in g.neighbors[s]]

    chain_a = [s]
    while True:
        cur = chain_a[-1]
        cands = [u for u in nbr if lm.l_x[u] < lm.l_x[cur]]
        if not cands:
            break
        chain_a.append(min(cands, key=lambda u: (int(h.xs[u]),) + _near_key(g, u)))
    chain_b = [s]
    while True:
        cur = chain_b[-1]
        cands = [u for u in nbr if lm.r_x[u] > lm.r_x[cur]]
        if not cands:
            break
        chain_b.append(min(cands, key=lambda u: (-int(h.xs[u]),) + _near_key(g, u)))
    return chain_a, chain_b


def interval_vertices(g: VisibilityGraph, v: int):
    """All vertices whose x lies in I(v), as a sorted array."""
    lo, hi = g.lm.interval(v)
    return np.nonzero((g.h.xs >= lo) & (g.h.xs <= hi))[0]


def ik_bounds(g: VisibilityGraph, s: int, k: int):
    """x-range of the level-k interval around s (k >= 1)."""
    bds, tds = k_dominators(g, s, k - 1) if k > 1 else ([s], [s])
    b, t = bds[-1], tds[-1]
    lo = min(int(g.lm.l_x[b]), int(g.lm.l_x[t]))
    hi = max(int(g.lm.r_x[b]), int(g.lm.r_x[t]))
    return lo, hi


def ik_vertices(g: VisibilityGraph, s: int, k: int):
    """Vertex set of the level-k interval: I^0 = {s}, and I^k is the
    union of the intervals of the level-(k-1) dominators."""
    if k == 0:
        return np.array([s], dtype=np.int64)
    bds, tds = k_dominators(g, s, k - 1)
    below = interval_vertices(g, bds[-1])
    above = interval_vertices(g, tds[-1])
    return np.union1d(below, above)


def k_dominators(g: VisibilityGraph, s: int, k: int):
    """Level-i dominators for i = 0..k on a double histogram.

    The level-i bottom dominator is the below-base vertex of I^i(s)
    closest to the base line (ties by smaller x); the top dominator is
    the above-base mirror. An empty side copies the other side's pick.
    """
    h = g.h
    assert h.kind == "double"
    bds, tds = [s], [s]
    for _ in range(k):
        members = np.union1d(interval_vertices(g, bds[-1]),
                             interval_vertices(g, tds[-1]))
        below = [int(u) for u in members if h.side[u] < 0]
        above = [int(u) for u in members if h.side[u] > 0]
        bd = min(below, key=lambda u: (abs(int(h.ys[u])), int(h.xs[u]))) \
            if below else None
        td = min(above, key=lambda u: (abs(int(h.ys[u])), int(h.xs[u]))) \
            if above else None
        if bd is None:
            bd = td
        if td is None:
            td = bd
        assert bd is not None and td is not None
        bds.append(bd)
        tds.append(td)
    return bds, tds


def canonical_paths(g: VisibilityGraph, s: int, k: int):
    """Hop-by-hop paths from s to the level-k bottom and top dominators.

    Entry i is the level-i bottom or top dominator; consecutive entries
    are co-visible. Built backward from the endpoint, preferring the
    bottom dominator at every interior level. Consecutive duplicates
    collapse, so the paths may be shorter than k+1 entries.
    """
    bds, tds = k_dominators(g, s, k)

    def sees(a, b):
        return a == b or bool(g.adj[a, b])

    def build(last):
        path = [None] * (k + 1)
        path[k] = last
        for i in range(k - 1, 0, -1):
            # already standing on a level-i dominator: stay
            if path[i + 1] == bds[i] or path[i + 1] == tds[i]:
                path[i] = path[i + 1]
            elif sees(bds[i], path[i + 1]):
                path[i] = bds[i]
            elif sees(tds[i], path[i + 1]):
                path[i] = tds[i]
            else:
                raise AssertionError(
                    f"level-{i} dominators of {s} both miss {path[i + 1]}")
        path[0] = s
        if k >= 1 and not sees(s, path[1]):
            raise AssertionError(f"{s} does not see {path[1]}")
        out = [path[0]]
        for p in path[1:]:
            if p != out[-1]:
                out.append(p)
        return out

    if k == 0:
        return [s], [s]
    return build(bds[k]), build(tds[k])


def simple_label(g: VisibilityGraph, v: int) -> SimpleLabel:
    """The label of v in the simple scheme: its id and breakpoint."""
    return SimpleLabel(v, breakpoint_of(g, v))


def double_table(g: VisibilityGraph, v: int) -> DoubleTable:
    """The routing table of v in the double scheme, per definition.

    The level-2 intervals of the two level-1 dominators, the level-2
    bottom dominator's coordinates, and whether the canonical bottom
    path leaves v through the bottom dominator (a path that never
    leaves v counts as bottom).
    """
    h = g.h
    bds, tds = k_dominators(g, v, 2)
    i2bd = ik_bounds(g, bds[1], 2)
    i2td = ik_bounds(g, tds[1], 2)
    pi_b, _ = canonical_paths(g, v, 2)
    bit = len(pi_b) == 1 or pi_b[1] == bds[1]
    assert bit or pi_b[1] == tds[1]
    return DoubleTable(i2bd[0], i2bd[1], i2td[0], i2td[1],
                       int(h.xs[bds[2]]), int(h.ys[bds[2]]), bit)
