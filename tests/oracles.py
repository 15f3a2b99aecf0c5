"""Definition-level oracles for visibility and the routing landmarks.

Each function here computes one fact straight from its definition,
scanning the whole polygon: rectangle visibility and horizontal ray
hits on a grid of the closed region built from the boundary alone,
breakpoints over every horizontal edge, dominators and extension chains
over the closed neighborhood, level-k dominators over explicit interval
vertex sets, hop distances by a plain queue walk, two-step progress
by a walk along one trace, the routing states of a set of routes
read off their traces, a pair sample by one-shot draws, the
double step with its own dominator bisections, the dump reader's
symmetry check as a sorted search of each listing's match, and polygon
text read line by line. They are slow (O(n) or worse per vertex) and
exist so the tests can check the library's sweeps, array-based
preprocessing, bit-parallel BFS, array progress check, per-target
state stepping, chunked sampling, local routing decisions, sorted
symmetry test and one-pass text parsing against a second, independent
derivation.
"""

from bisect import bisect_left, bisect_right
import collections
import copy
import weakref

import numpy as np

from histroute import engine
from histroute.engine import HeaderProtocolError, RoutingError
from histroute.polygon import Histogram, PolygonError, build_histogram
from histroute.scheme_double import DoubleLabel, DoubleLink, DoubleTable
from histroute.scheme_simple import SimpleLabel
from histroute.visibility import VisibilityGraph, co_visible_fast


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
        if not (co_visible_fast(g, v, vl) and co_visible_fast(g, v, vr)):
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
    cand = g.indices[g.indptr[s]:g.indptr[s + 1]].tolist() + [s]
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
    nbr = g.indices[g.indptr[s]:g.indptr[s + 1]].tolist()

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
    lo, hi = g.interval(v)
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
        return co_visible_fast(g, a, b)

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


def local_vertical_dominators(link):
    """Bottom and top dominator entries (id, x, y) of a double link, by a
    scan of its entries: the (distance to base, x)-minimal entries below
    and above the base line, an empty side copying the other, ties to
    the first entry in link order."""
    entries = [(u, lab.x, lab.y) for u, lab in zip(link.ids, link.labs)]
    below = [e for e in entries if e[2] < 0]
    above = [e for e in entries if e[2] > 0]
    return (min(below or above, key=lambda e: (abs(e[2]), e[1])),
            min(above or below, key=lambda e: (abs(e[2]), e[1])))


def local_dominators(link: DoubleLink, tx: int):
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


def reference_step_double(scheme, link: DoubleLink, table: DoubleTable,
                          target: DoubleLabel, header):
    """scheme_double.route_step_double with case 1 answered by
    local_dominators' own two bisections, not from the direct-hit
    bisection: the same (port, header), or the same exception, for
    every input. The header is None or a coordinate pair naming a
    vertex that must be visible here.
    """
    tx = target.x
    xs = link.xs    # a direct hit, found as link.find(tx, target.y) would
    i = bisect_right(xs, tx) - 1
    while i >= 0 and xs[i] == tx:
        if link.labs[i].y == target.y:
            return i, None
        i -= 1
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

    # case 1: target inside the own interval
    if own.ilo <= tx <= own.ihi:
        nd, fd = local_dominators(link, tx)
        return (fd if fd is not None else nd), None

    # case 2: target inside the level-2 interval, which spans the
    # intervals of the bottom and top dominators: hop to the first port
    # whose interval reaches tx, in link order for a target on the left,
    # and for one on the right with x-groups taken from the right, each
    # nearer the base first: the first vertex of the greedy extension
    # sequence toward tx whose interval reaches it
    labs = link.labs
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


class NaiveOracle:
    """First-principles visibility via an exterior-point grid.

    The boundary edges come straight from the point list. All
    coordinates are doubled so half-integer sample points become
    integers. A sample point is strictly exterior when it is not on the
    boundary and a rightward ray crosses an odd number of vertical edges
    (the ray is cast a quarter unit above the point so it never meets a
    vertex). The rectangle spanned by two vertices leaves the closed
    polygon exactly when it contains a strictly exterior sample point,
    which a 2-d prefix sum answers in O(1).
    """

    def __init__(self, h: Histogram):
        self.h = h
        pts = h.points()
        edges = [(2 * min(a[0], b[0]), 2 * min(a[1], b[1]),
                  2 * max(a[0], b[0]), 2 * max(a[1], b[1]))
                 for a, b in zip(pts, pts[1:] + pts[:1])]
        x0, x1 = 2 * min(p[0] for p in pts), 2 * max(p[0] for p in pts)
        y0, y1 = 2 * min(p[1] for p in pts), 2 * max(p[1] for p in pts)
        self.x0, self.y0 = x0, y0
        X = np.arange(x0, x1 + 1)[:, None]
        Y = np.arange(y0, y1 + 1)[None, :]
        on_b = np.zeros((x1 - x0 + 1, y1 - y0 + 1), dtype=bool)
        crossings = np.zeros(on_b.shape, dtype=np.int64)
        for xa, ya, xb, yb in edges:
            on_b |= (X >= xa) & (X <= xb) & (Y >= ya) & (Y <= yb)
            if xa == xb:
                crossings += (xa > X) & (ya <= Y) & (Y < yb)
        inside = on_b | (crossings % 2 == 1)
        ext = (~inside).astype(np.int64)
        self._prefix = np.zeros((len(X) + 1, Y.shape[1] + 1), dtype=np.int64)
        self._prefix[1:, 1:] = ext.cumsum(axis=0).cumsum(axis=1)
        self._inside = inside

    def contains(self, x, y) -> bool:
        """Closed-region membership for half-integer coordinates."""
        x2, y2 = round(2 * x), round(2 * y)
        if not (self.x0 <= x2 <= self.x0 + self._inside.shape[0] - 1):
            return False
        if not (self.y0 <= y2 <= self.y0 + self._inside.shape[1] - 1):
            return False
        return bool(self._inside[x2 - self.x0, y2 - self.y0])

    def rect_inside(self, xa, ya, xb, yb) -> bool:
        """Whether the closed rectangle spanned by two integer points
        stays inside the polygon."""
        i1 = 2 * min(xa, xb) - self.x0
        i2 = 2 * max(xa, xb) - self.x0
        j1 = 2 * min(ya, yb) - self.y0
        j2 = 2 * max(ya, yb) - self.y0
        p = self._prefix
        count = (p[i2 + 1, j2 + 1] - p[i1, j2 + 1]
                 - p[i2 + 1, j1] + p[i1, j1])
        return count == 0

    def sees(self, v: int, w: int) -> bool:
        h = self.h
        return self.rect_inside(int(h.xs[v]), int(h.ys[v]),
                                int(h.xs[w]), int(h.ys[w]))


_ORACLES = weakref.WeakKeyDictionary()


def naive_oracle(h: Histogram) -> NaiveOracle:
    """The grid oracle of h, built on first use and kept while h lives."""
    oracle = _ORACLES.get(h)
    if oracle is None:
        oracle = _ORACLES[h] = NaiveOracle(h)
    return oracle


def co_visible_naive(h: Histogram, v: int, w: int) -> bool:
    """Oracle visibility test on the grid of h."""
    return naive_oracle(h).sees(v, w)


def ray_hits(h: Histogram):
    """The horizontal ray hits of every vertex, walked on the grid.

    Each ray leaves (x(v), y(v)) in half-unit steps while the next point
    lies in the closed region and stops at the last point inside. The
    hit is the vertex at that x nearer to the base; on a double
    histogram's boundary x it is the vertex at the ray height, or the
    bare point (-1, x, y(v)) if there is none. Returns the six arrays
    of visibility.Landmarks, keyed by their names.
    """
    oracle = naive_oracle(h)
    pts = h.points()
    base_dist = (lambda y: h.base_y - y) if h.kind == "simple" else abs
    out = {name: [] for name in ("l_vid", "l_x", "l_y", "r_vid", "r_x", "r_y")}
    for xv, yv in pts:
        for side, step in (("l", -0.5), ("r", 0.5)):
            x = xv
            while oracle.contains(x + step, yv):
                x += step
            at_x = [u for u, p in enumerate(pts) if p[0] == x]
            if h.kind == "double" and x in (h.xmin, h.xmax):
                level = [u for u in at_x if pts[u][1] == yv]
                vid = level[0] if level else -1
            else:
                vid = min(at_x, key=lambda u: base_dist(pts[u][1]))
            hit = pts[vid] if vid >= 0 else (x, yv)
            for key, value in zip(("vid", "x", "y"), (vid, *hit)):
                out[f"{side}_{key}"].append(value)
    return {name: np.array(vals, dtype=np.int64) for name, vals in out.items()}


def symmetry_fault(n: int, indptr, indices):
    """The message of the dump reader's symmetry fault at the lowest
    faulty row, or None, by one sorted search: each listing u -> v looks
    for its match v -> u among the keys u * n + v, which ascend in a
    dump whose rows are strictly ascending."""
    indptr, indices = np.asarray(indptr), np.asarray(indices)
    src = np.repeat(np.arange(n), np.diff(indptr))
    keys, back = src * n + indices, indices * n + src
    at = np.minimum(np.searchsorted(keys, back), len(keys) - 1)
    bad = np.flatnonzero(keys[at] != back)
    if not bad.size:
        return None
    u, v = src[bad[0]], indices[bad[0]]
    return f"row {u} lists {v} more often than row {v} lists {u}"


def neighbor_lists(g: VisibilityGraph):
    """The graph's adjacency as one id list per vertex."""
    return [row.tolist() for row in np.split(g.indices, g.indptr[1:-1])]


def csr_of(neighbors):
    """The (indptr, indices) pair of the adjacency given by neighbor id
    lists, for graphs written out by hand."""
    indptr = np.zeros(len(neighbors) + 1, dtype=np.int64)
    np.cumsum([len(ids) for ids in neighbors], out=indptr[1:])
    indices = np.array([u for ids in neighbors for u in ids], dtype=np.int64)
    return indptr, indices


def without_edge(g: VisibilityGraph, u: int, v: int) -> VisibilityGraph:
    """A copy of the graph whose CSR lacks the edge u-v."""
    g = copy.deepcopy(g)
    nbrs = neighbor_lists(g)
    nbrs[u].remove(v)
    nbrs[v].remove(u)
    g.indptr, g.indices = csr_of(nbrs)
    return g


def bfs(neighbors, s: int):
    """Hop distances from s by breadth-first search over neighbor id
    lists, -1 where unreachable."""
    dist = [-1] * len(neighbors)
    dist[s] = 0
    queue = collections.deque([s])
    while queue:
        v = queue.popleft()
        for w in neighbors[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def distances(indptr, indices, sources):
    """Hop distances on the CSR adjacency (indptr, indices) as full
    rows: row i holds the distance from sources[i] to every vertex, -1
    where unreachable, one pair query per vertex and source."""
    n = len(indptr) - 1
    d = engine.query_distances(indptr, indices,
                               np.tile(np.arange(n), len(sources)),
                               np.repeat(sources, n))
    return d.reshape(len(sources), n)


def two_step_progress(d):
    """Whether a trace splits into segments of one or two hops, each
    ending closer to the target, d listing the distances to the target
    along the trace: -1 if some segmentation reaches the last position,
    else the last position one reaches. A forward walk over reachable
    positions, one trace at a time."""
    reach = [True] + [False] * (len(d) - 1)
    frontier = 0
    for i in range(len(d) - 1):
        if reach[i]:
            for j in (i + 1, i + 2):
                if j < len(d) and d[j] <= d[i] - 1:
                    reach[j] = True
                    frontier = max(frontier, j)
    return -1 if reach[-1] else frontier


def routing_states(scheme, pairs):
    """The distinct routing states of the routes of pairs, per target:
    (states, those whose step emits a header). A state is (target,
    vertex, header carried in); each route's states are read off its
    run_route trace, the headers by replaying the scheme's step along
    it, every trace position but the target."""
    states, emitting = set(), set()
    for s, t in pairs:
        trace, header = engine.run_route(scheme, s, t), None
        for v in trace[:-1]:
            state = (t, v, header)
            _, header = scheme.step(scheme.links[v], scheme.tables[v],
                                    scheme.labels[t], header)
            states.add(state)
            if header is not None:
                emitting.add(state)
    return len(states), len(emitting)


def sample_pairs(n: int, k: int, seed):
    """k pairs (s, t) with s != t: each round draws every source, then
    every target, in one call each, and keeps the pairs with s != t."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < k:
        take = k - len(out)
        ss = rng.integers(0, n, size=take + 8)
        tt = rng.integers(0, n, size=take + 8)
        keep = ss != tt
        out.extend(zip(ss[keep].tolist(), tt[keep].tolist()))
    return out[:k]


def parse_polygon_lines(text: str) -> Histogram:
    """parse_polygon's result from the format's definition, one line at
    a time: the lines of str.splitlines(), stripped, without blanks and
    ``#`` comments; a header ``<kind> <n>``; then n lines, each split
    into two tokens and converted by int(), the first faulty line
    raising; then build_histogram of the points."""
    numbered = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), 1)]
    numbered = [(i, ln) for i, ln in numbered if ln and not ln.startswith("#")]
    if not numbered:
        raise PolygonError("syntax", "empty input")
    (first, header), *rest = numbered
    parts = header.split()
    if len(parts) != 2 or parts[0] not in ("simple", "double"):
        raise PolygonError("syntax", f"line {first}: expected '<kind> <n>', "
                           f"got {header!r}")
    try:
        n = int(parts[1])
    except ValueError:
        raise PolygonError("syntax", f"line {first}: bad vertex count") \
            from None
    if len(rest) != n:
        raise PolygonError("syntax",
                           f"expected {n} vertex lines, got {len(rest)}")
    points = []
    for i, line in rest:
        tokens = line.split()
        if len(tokens) != 2:
            raise PolygonError("syntax",
                               f"line {i}: expected '<x> <y>', got {line!r}")
        try:
            points.append((int(tokens[0]), int(tokens[1])))
        except ValueError:
            raise PolygonError(
                "syntax", f"line {i}: coordinates must be integers") from None
    return build_histogram(points, parts[0])
