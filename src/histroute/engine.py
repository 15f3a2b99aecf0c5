"""Routing execution with a locality firewall, plus verification.

The engine moves a packet by repeatedly calling the scheme's step
function, handing it nothing but the current vertex's link table and
routing table, the target's label, and the packet header. The step
answers with a port, a position in the link's ``ids``; a port outside
the link, or naming the current vertex, is a firewall breach. One hop
loop, _walk, does this for run_route, a route at a time.
verify_all_pairs takes its pairs in chunks (a sample's rounds joined)
and picks one of two routers a chunk, each reading the scheme's lists
and step once. A double chunk, and a simple one with several pairs per
target, goes to _step_states, which steps each routing state, a vertex
and the header carried into it, once per target: a step reads only
local inputs, so the routes to one target merge where they meet a
state, and a walk stops at the first state it has met before, with the
same firewall test and hop bound. It returns each state's hops to go
and next state, found by pointer jumping, and two-step progress then
follows by array work. A simple chunk with fewer pairs per target goes
to _route_lengths, which walks each pair through _walk and keeps only
its length. A pair that fails is
routed again through run_route for its record; a stalled route's
reason names its stall position, found by one walk along its states.
Ground truth distances come from one bit-parallel BFS over the
visibility graph's CSR, asked only the distances a check reads, and
verify_all_pairs compares every route against them; a one-source BFS
that pushes from each level's frontier answers a single distance and
the connectivity check. The bit-parallel BFS
pulls its levels from the CSR with the vertices renumbered by degree,
highest first, so that each vertex's c-th neighbours form one column
over a prefix of the rows; a level gathers each of the first _CAP
columns whole, and one reduceat the rest of the rows of higher degree.
"""

import csv
import dataclasses
import operator
import typing

import numpy as np


class RoutingError(Exception):
    """Base class for failures while routing a packet."""


class FirewallError(RoutingError):
    """The step function returned a port outside the link table, or the
    port of the current vertex."""


class HeaderProtocolError(RoutingError):
    """A packet header names a vertex the current node cannot see."""


class HopLimitExceeded(RoutingError):
    """The packet did not reach its target within the hop limit."""


class SchemeBuildError(Exception):
    """A preprocessing invariant failed; the scheme cannot be built."""


def closed_rows(indptr, indices, order):
    """The closed neighborhoods of the CSR adjacency (indptr, indices)
    as a CSR pair (ptr, ids): row v holds v and the ids of v's row,
    in the order that the int64 permutation order lists the ids in."""
    n = len(indptr) - 1
    vid, rank = np.arange(n), np.empty(n, dtype=np.int64)
    rank[order] = vid       # rank[order[i]] = i
    keys = np.sort(np.append(np.repeat(vid, np.diff(indptr)) * n
                             + rank[indices], vid * n + rank))
    return indptr + np.arange(n + 1), order[keys % n]


def cut_rows(rows, *cols):
    """Link columns cut from the closed rows (ptr, ids): the ids, then
    each column taken at the ids, each as one tuple that one slice per
    vertex cuts up: a port indexes every column of a link. A column is
    an int64 array, or an object array such as a scheme's label
    records, which the links then share rather than copy. Taken through
    object arrays, the entries of one vertex share one object, not one
    per link; and tuples of ints (not those of records) leave the
    cyclic garbage collector's lists once it has seen them, while lists
    are scanned at every full collection."""
    ptr, ids = rows
    cuts = list(map(slice, ptr[:-1].tolist(), ptr[1:].tolist()))
    return [list(map(tuple(c.astype(object)[ids].tolist()).__getitem__,
                     cuts))
            for c in (np.arange(len(ptr) - 1), *cols)]


class Scheme:
    """A built routing scheme: per-vertex labels, routing tables and
    link tables, the contract both histogram kinds share.

    The labels and tables are kept as columns, one int64 (or bool)
    array per field with one entry per vertex, in ``cols`` by field
    name; the lists ``labels`` and ``tables`` hold records built for
    all vertices at once from those columns, which run_route indexes
    and ``label_of`` and ``table_of`` read; ``hops``, range(2n), bounds
    every route's hops. The list ``links`` holds links cut in one batch
    (``cut_rows``) from the closed rows that closed_rows gives in the
    order of ``link_order(n, cols)``, by default the ids ascending; a
    link's columns are ids and values taken from ``cols``, or the label
    records themselves. The adjacency is kept as the CSR pair (indptr,
    indices) that visibility.VisibilityGraph built.

    Subclasses set ``kind``, the ``max_*_bits`` bounds, the records and
    links in ``__init__``, the dump columns (``fields``, the names in
    ``cols`` in dump order, whose values a dump reader hands as int64
    arrays to ``check_cols(n, cols)``: it returns the columns as
    ``__init__`` takes them and a list of (bad, message) checks, a
    mask over the vertices and the error at a vertex) and
    ``step``, the kind's routing function itself as a plain function,
    bound when read off a scheme: it returns the next hop's port, its
    position in ``link.ids``, and the header. The dump reader calls
    ``check_links``, which a kind may override.
    """

    def __init__(self, n, cols, indptr, indices):
        self.n = n
        self.hops = range(2 * n)
        self.cols = cols
        self.indptr = indptr
        self.indices = indices

    @staticmethod
    def link_order(n, cols=None):
        return np.arange(n)

    @staticmethod
    def check_links(cols, src, dst):
        """Raise dump.DumpError at the first listing src[i] -> dst[i] of
        a dump, in CSR order, that the columns rule out; the base rules
        out none."""

    def label_of(self, v: int):
        return self.labels[v]

    def table_of(self, v: int):
        return self.tables[v]


def run_route(scheme, s: int, t: int):
    """Route a packet from s to t, returning the full vertex trace.

    The trace includes both endpoints, as Python ints; s == t gives an
    empty trace. s and t pass through operator.index, a Python int
    as it is, so an s or t that is not an integer, or is a bool, raises
    TypeError, and one outside [0, n) ValueError. The hops are _walk's,
    with the step bound once a route: a port outside [0, len(link.ids)),
    or naming the current vertex, raises FirewallError; a packet still
    travelling after the scheme's 2n hops, more than twice any shortest
    path, raises HopLimitExceeded.
    """
    if type(s) is not int or type(t) is not int:
        if isinstance(s, bool) or isinstance(t, bool):
            raise TypeError(f"vertex ids must be integers, got {s!r} -> "
                            f"{t!r}")
        s, t = operator.index(s), operator.index(t)
    if not (0 <= s < scheme.n and 0 <= t < scheme.n):
        raise ValueError(f"vertex ids must be in [0, {scheme.n}), "
                         f"got {s} -> {t}")
    if s == t:
        return []
    trace = [s]
    _walk(scheme.links, scheme.tables, scheme.step, scheme.labels[t], s, t,
          scheme.hops, trace)
    return trace


def _walk(links, tables, step, target, s, t, hops, out):
    """Move a packet from s to t != s, appending each hop's vertex to out.

    A hop is one call of step on the current vertex's link and table,
    the target label and the header. A port past the link's end, below
    0, or naming the current vertex raises FirewallError; a packet
    still travelling after len(hops) hops raises HopLimitExceeded.
    """
    header, cur = None, s
    for _ in hops:
        link = links[cur]
        port, header = step(link, tables[cur], target, header)
        try:
            nxt = link.ids[port]
        except IndexError:      # past the link's end: not a neighbor
            nxt = cur
        if port < 0 or nxt == cur:
            raise FirewallError(
                f"step at {cur} returned port {port}, not a neighbor")
        out.append(nxt)
        if nxt == t:
            return
        cur = nxt
    raise HopLimitExceeded(
        f"no arrival after {len(hops)} hops routing {s} -> {t}")


_BATCH = 512   # sources per kernel batch: 8 uint64 words
_CAP = 16      # neighbour columns a BFS level pulls one by one


class _BfsPlan(typing.NamedTuple):
    """The CSR adjacency in the jagged-diagonal layout (Saad, "Krylov
    subspace methods on supercomputers", SIAM J. Sci. Stat. Comput.
    1989) that _bfs_levels pulls from: rows renumbered by degree,
    highest first, so each column of neighbours covers a prefix of the
    rows. Vertex v is row rank[v]; cols[c][i] is the row of row i's
    c-th neighbour, for every row i of degree > c; the rows of degree
    > _CAP list their other neighbours' rows in pull, row i's starting
    at starts[i]."""
    rank: np.ndarray
    cols: list
    pull: np.ndarray
    starts: np.ndarray


def _bfs_plan(indptr, indices):
    """The _BfsPlan of the CSR adjacency (indptr, indices), built in
    O(n + E): a stable counting sort orders the rows by degree, every
    degree above _CAP counting as _CAP + 1, which is all the columns
    need."""
    n = len(indptr) - 1
    deg = np.minimum(np.diff(indptr), _CAP + 1)
    # numpy's stable sort of a uint8 key is a radix (counting) sort
    order = np.argsort((_CAP + 1 - deg).astype(np.uint8), kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    deg, first = deg[order], indptr[order]
    cols = [rank[indices[first[:k] + c]]
            for c in range(_CAP) if (k := np.count_nonzero(deg > c))]
    k = np.count_nonzero(deg > _CAP)
    rest = indptr[order[:k] + 1] - first[:k] - _CAP     # each at least 1
    starts = np.cumsum(rest) - rest
    at = np.repeat(first[:k] + _CAP - starts, rest) + np.arange(rest.sum())
    return _BfsPlan(rank, cols, rank[indices[at]], starts)


def _bfs_levels(plan, sources):
    """Bit-parallel BFS from up to _BATCH sources at once (Then et al.,
    "The More the Merrier: Efficient Multi-Source Graph Traversal",
    VLDB 2014), on the rows of a _bfs_plan.

    The sources are packed 64 to a uint64 word. For each level d from
    0 up, yields (d, new): bit j % 64 of new[plan.rank[v], j // 64] is
    set iff vertex v lies at distance exactly d from sources[j]. A
    level pulls the frontier words of each neighbour column into a
    prefix of the rows with one gather, then those of the rows of
    degree > _CAP past their first _CAP neighbours with one reduceat:
    O(E) word operations per word, in O(_CAP) numpy calls. No sources x
    vertices table is built. A caller that has what it needs may stop
    early.
    """
    rank, cols, pull, starts = plan
    j = np.arange(len(sources))
    new = np.zeros((len(rank), (len(sources) + 63) // 64), dtype=np.uint64)
    np.bitwise_or.at(new, (rank[np.asarray(sources, dtype=np.int64)],
                           j // 64),
                     np.uint64(1) << (j % 64).astype(np.uint64))
    unseen = ~new
    level = 0
    while True:
        yield level, new
        nxt = np.zeros_like(new)
        for col in cols:
            nxt[:len(col)] |= np.take(new, col, axis=0)
        if len(starts):
            nxt[:len(starts)] |= np.bitwise_or.reduceat(new[pull], starts,
                                                         axis=0)
        new = nxt & unseen
        if not new.any():
            return
        unseen ^= new
        level += 1


def _query(plan, qv, qt, reach):
    """query_distances on the rows of a _bfs_plan."""
    qv = np.asarray(qv, dtype=np.int64)
    qt = np.asarray(qt, dtype=np.int64)
    n = len(plan.rank)
    wanted = np.zeros(n, dtype=bool)
    wanted[qt] = True
    targets = np.flatnonzero(wanted)
    if reach is not None:
        far = np.full(n, np.iinfo(np.int64).min)
        np.maximum.at(far, qt, np.asarray(reach, dtype=np.int64))
        targets = targets[np.argsort(far[targets], kind="stable")]
    place = np.empty(n, dtype=np.int64)
    place[targets] = np.arange(len(targets))
    j = place[qt]                           # index of qt[i] in targets
    batch = j // _BATCH
    order = np.argsort(batch, kind="stable")
    cuts = np.zeros(-(-len(targets) // _BATCH) + 1, dtype=np.int64)
    np.cumsum(np.bincount(batch, minlength=len(cuts) - 1), out=cuts[1:])
    row = plan.rank[qv[order]]              # qv's rows of the level words
    dist = np.full(len(qv), -1, dtype=np.int64)    # in `order`
    for b, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
        sources = targets[b * _BATCH:(b + 1) * _BATCH]
        js = j[order[lo:hi]] - b * _BATCH
        word = row[lo:hi] * -(-len(sources) // 64) + (js >> 6)
        mask = np.uint64(1) << (js & 63).astype(np.uint64)
        found, left = dist[lo:hi], hi - lo
        for level, new in _bfs_levels(plan, sources):
            hit = (np.take(new, word) & mask) != 0
            found[hit] = level
            left -= np.count_nonzero(hit)
            if not left:
                break
    out = np.empty_like(dist)
    out[order] = dist
    return out


def bfs_distances(indptr, indices, s, stop=None):
    """Hop distances from s on the CSR adjacency (indptr, indices), -1
    where unreached, as an int64 array. Each level pushes from its
    frontier along the frontier's rows, in a fixed number of numpy
    calls and O(frontier edges) work. Given a vertex stop, the search
    ends with the level that reaches it, and later levels stay -1. An s
    or stop that is not an integer, or is a bool, raises TypeError, and
    one outside [0, n) ValueError.
    """
    n = len(indptr) - 1
    for name, v in [("s", s)] + ([] if stop is None else [("stop", stop)]):
        if isinstance(v, (bool, np.bool_)) or not hasattr(v, "__index__"):
            raise TypeError(f"vertex id {name} must be an integer, got "
                            f"{v!r}")
        if not 0 <= v < n:
            raise ValueError(f"vertex id {name} must be in [0, {n}), got {v}")
    dist = np.full(n, -1, dtype=np.int64)
    dist[s] = 0
    slot = np.empty(n, dtype=np.int64)
    front, level = np.array([s], dtype=np.int64), 0
    while len(front) and (stop is None or dist[stop] < 0):
        lo = indptr[front]
        k = indptr[front + 1] - lo
        nbr = indices[np.repeat(lo - np.cumsum(k) + k, k)
                      + np.arange(k.sum())]
        nbr = nbr[dist[nbr] < 0]
        # one copy of each new vertex: the position whose write to
        # slot[v] numpy applied last, whichever that was
        j = np.arange(len(nbr))
        slot[nbr] = j
        front = nbr[slot[nbr] == j]
        level += 1
        dist[front] = level
    return dist


def query_distances(indptr, indices, qv, qt, reach=None):
    """d(qv[i], qt[i]) for every i, -1 where unreachable, by BFS on the
    symmetric CSR adjacency (indptr, indices) from the distinct qt.

    The sources run in batches of _BATCH, each only until all of its
    queries are answered. reach, when given, is a hint per query of how
    far it lies: the sources are batched in ascending order of the
    largest hint among their queries, so near queries share batches
    that stop early. A hint only orders the sources; a wrong one costs
    time, never a distance. ValueError names the first bad query when
    qv, qt and reach differ in length, when a non-empty qv or qt is not
    of an integer dtype (bool is not one), or when an id lies outside
    [0, n).
    """
    n = len(indptr) - 1
    qv, qt = np.asarray(qv), np.asarray(qt)
    sizes = [len(qv), len(qt)] + ([] if reach is None else [len(reach)])
    if min(sizes) != max(sizes):
        names = "qv and qt" if reach is None else "qv, qt and reach"
        raise ValueError(f"query {min(sizes)}: {names} differ in length, "
                         f"{' against '.join(map(str, sizes))}")
    for name, q in (("qv", qv), ("qt", qt)):
        if len(q) and q.dtype.kind not in "iu":
            raise ValueError(f"query 0: {name} has dtype {q.dtype}, not an "
                             f"integer dtype")
    bad = np.flatnonzero((qv < 0) | (qv >= n) | (qt < 0) | (qt >= n))
    if len(bad):
        i = bad[0]
        raise ValueError(f"query {i}: vertex ids must be in [0, {n}), got "
                         f"{qv[i]} -> {qt[i]}")
    return _query(_bfs_plan(indptr, indices), qv, qt, reach)


@dataclasses.dataclass
class VerifyReport:
    kind: str
    n: int
    pairs: int
    max_stretch: float
    mean_stretch: float
    lab_bits: int
    tab_bits: int
    hdr_bits: int
    failed: int     # all failed pairs; failures records the first
    failures: list  # _FAILURE_CAP of them

    @property
    def ok(self) -> bool:
        return not self.failed

    def summary_lines(self):
        return [
            f"pairs={self.pairs}",
            f"maxStretch={self.max_stretch:.3f}",
            f"meanStretch={self.mean_stretch:.3f}",
            f"labBits={self.lab_bits}",
            f"tabBits={self.tab_bits}",
            f"hdrBits={self.hdr_bits}",
            f"failures={self.failed}",
        ]


_FAILURE_CAP = 1000
_CHUNK = 1 << 16    # pairs routed, then checked, at a time
_SHARE = 3          # pairs per target from which a simple chunk steps states


class SampleSizeError(ValueError):
    """A pair sample size that is not an integer in [0, n(n-1)]."""


def _sample_pairs(n, k, seed):
    """k pairs (s, t) with s != t, drawn uniformly with the given seed,
    as chunks (ss, ts) of _CHUNK pairs, the last one shorter, two int64
    arrays each.

    Each round draws m = min(_CHUNK, left + 8) sources, then m targets,
    left being the pairs still wanted, and keeps the pairs with s != t.
    The rounds' pairs are joined in order and cut into chunks, so a short
    last round shares a chunk. Memory stays O(_CHUNK), and a sample of
    at most _CHUNK - 8 pairs draws all of a round's sources, then all its
    targets, in one call.
    """
    rng = np.random.default_rng(seed)
    ss = ts = np.empty(0, dtype=np.int64)
    left = k
    while left > 0:
        m = min(_CHUNK, left + 8)
        more_s = rng.integers(0, n, size=m)
        more_t = rng.integers(0, n, size=m)
        keep = more_s != more_t
        more_s, more_t = more_s[keep][:left], more_t[keep][:left]
        left -= len(more_s)
        ss, ts = np.append(ss, more_s), np.append(ts, more_t)
        while len(ss) >= _CHUNK or len(ss) and left <= 0:
            yield ss[:_CHUNK], ts[:_CHUNK]
            ss, ts = ss[_CHUNK:], ts[_CHUNK:]


def _all_pairs(n):
    """Every pair (s, t) with s != t, s-major, as blocks (ss, ts) of at
    most _CHUNK pairs, two int64 arrays each: pair p has s = p // (n - 1)
    and t the (p % (n - 1))-th vertex other than s."""
    total = n * (n - 1)
    for lo in range(0, total, _CHUNK):
        ss, j = np.divmod(np.arange(lo, min(lo + _CHUNK, total)), n - 1)
        yield ss, j + (j >= ss)


def _route_lengths(scheme, ss, ts):
    """The hops of each pair's route, (ss[i], ts[i]) with s != t from two
    lists of ints, as an int64 array, -1 where the route raised a
    RoutingError: each pair walks through _walk, with the scheme's
    lists, step and hop range read once."""
    links, tables, step, labels, hops = (scheme.links, scheme.tables,
                                         scheme.step, scheme.labels,
                                         scheme.hops)
    lens = []
    for s, t in zip(ss, ts):
        trace = []
        try:
            _walk(links, tables, step, labels[t], s, t, hops, trace)
            lens.append(len(trace))
        except RoutingError:
            lens.append(-1)
    return np.array(lens, dtype=np.int64)


def _step_states(scheme, ss, ts):
    """Route the pairs (ss[i], ts[i]), s != t, of a chunk, stepping each
    routing state once per target.

    A state is a vertex and the header a packet carries into it, keyed
    by the vertex id alone while no header is carried, else by the pair
    (vertex, header), so headers must be hashable. A step reads nothing
    but the state and the target, so the routes to one target merge
    where they meet a state. The pairs are taken target by target;
    target t's memo maps the states met so far to their indices, t's
    own first. A source not in the memo is walked with _walk's firewall
    test until it steps into a memoized state, each new state taking
    the next index: the walk's states lead one to the next, and the last
    to the state it met. A walk ends failing, its last state leading to
    no state, when a step raises a RoutingError or fails the firewall
    test, or when it meets one of its own states, a loop; a walk that
    meets nothing in len(scheme.hops) hops keeps its source alone, whose
    route is longer than the bound, and fails.

    The links from each state to its next form a forest, so pointer
    jumping (Wyllie's list ranking) sums every state's hops to go in
    O(log) rounds of array work. Returns (src, verts, owners, left,
    nexts): pair i starts at state src[i]; state j lies at vertex
    verts[j], on a route to owners[j], left[j] hops from it (-1 for a
    state that fails), and leads to state nexts[j] (itself at the
    target; any value where left is -1). All but verts are int64 arrays.
    """
    links, tables, step, labels = (scheme.links, scheme.tables,
                                   scheme.step, scheme.labels)
    limit = len(scheme.hops)
    order = np.argsort(ts, kind="stable")
    verts, lasts, hits, firsts, targets, starts = [], [], [], [], [], []
    t, nk = None, 0     # nk: the states so far
    for s, u in zip(ss[order].tolist(), ts[order].tolist()):
        if u != t:
            t = u
            target, memo = labels[t], {t: nk}
            known = memo.setdefault
            firsts.append(nk)
            targets.append(t)
            verts.append(t)
            nk += 1
        at = known(s, nk)
        starts.append(at)
        if at < nk:
            continue
        verts.append(s)
        cur, header = s, None
        for j in range(at + 1, at + 1 + limit):
            link = links[cur]
            try:
                port, header = step(link, tables[cur], target, header)
            except RoutingError:
                hit = -1
                break
            try:
                nxt = link.ids[port]
            except IndexError:      # past the link's end: not a neighbor
                nxt = cur
            if port < 0 or nxt == cur:
                hit = -1
                break
            hit = known(nxt if header is None or nxt == t else (nxt, header),
                        j)
            if hit != j:
                break
            verts.append(nxt)
            cur = nxt
        else:       # no known state in reach: forget all but the source
            for key in [key for key, i in memo.items() if i > at]:
                del memo[key]
            del verts[at + 1:]
            j, hit = at + 1, -1
        nk = j
        lasts.append(j - 1)
        hits.append(hit if hit < at else -1)
    src = np.empty_like(order)
    src[order] = starts
    owners = np.repeat(targets, np.diff(firsts, append=nk))
    nexts = np.arange(1, nk + 2)    # state nk stands for none
    nexts[firsts] = firsts
    nexts[lasts] = hits
    nexts[nexts < 0] = nk
    nexts[nk] = nk
    left = (nexts != np.arange(nk + 1)).astype(np.int64)
    up = nexts
    while True:
        upper = up[up]
        if (upper == up).all():
            break
        left += left[up]
        up = upper
    return src, verts, owners, np.where(up == nk, -1, left)[:nk], nexts[:nk]


def _progress(d, nexts, left):
    """Two-step progress per routing state, by dynamic programming along
    the next-state links: a state is good when it is its target (left 0),
    or its next state, or the one after, is nearer the target and good.
    A route is good exactly when the forward walk of the tests' oracle,
    oracles.two_step_progress, finds some segmentation that reaches its
    end, for the segments are the edges of the same graph walked
    backwards. d, nexts and left are int64 arrays over the states, d the
    distance of each state's vertex to its target; the states are taken
    in levels of equal left, nearest first, so each level reads only
    decided states. A state of left -1 is not good."""
    good = left == 0
    order = np.argsort(left, kind="stable")
    cuts = np.searchsorted(left[order], np.arange(1, left.max() + 2))
    for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        j = order[lo:hi]
        a = nexts[j]
        b = nexts[a]
        good[j] = (d[a] < d[j]) & good[a] | (d[b] < d[j]) & good[b]
    return good


def _stall(d, nexts, j):
    """The last position of the route from state j, followed along nexts
    to its target, that a segmentation into segments of one or two hops,
    each ending nearer the target, reaches: position p is reached from a
    reached p - 1 or p - 2 farther away. That is the route's end exactly
    when _progress finds j good; d and nexts are _progress's."""
    ds = [d[j]]
    while nexts[j] != j:
        j = nexts[j]
        ds.append(d[j])
    reached, last = [True], 0
    for p in range(1, len(ds)):
        reached.append(reached[p - 1] and ds[p] < ds[p - 1]
                       or p > 1 and reached[p - 2] and ds[p] < ds[p - 2])
        last = p if reached[p] else last
    return last


def verify_all_pairs(scheme, g, pairs="all", seed=None, report_path=None):
    """Route pairs, compare against BFS, and collect a report.

    pairs is "all" for every ordered pair with s != t, or an integer
    sample size (drawn uniformly with the given seed) of at most
    n(n-1); anything else, such as 2.5, "7" or True, and a negative or
    larger sample raise SampleSizeError, a ValueError.
    Simple schemes must match BFS exactly; double schemes must have
    stretch at most 2 and make two-step progress along every trace.

    Pairs come in chunks of at most 65536, two int64 arrays each, so
    memory does not grow with the number of pairs. A double chunk, and
    a simple one with at least _SHARE pairs per distinct target, is
    routed into routing states (_step_states); a simple chunk with fewer
    pairs per target, whose routes merge too seldom to pay for the memo,
    walks each pair alone (_route_lengths), for a simple scheme's checks
    read only the routes' lengths. Then one query_distances call
    answers the distances its checks read, each hinted by the hops left
    (n for a route that raised): for a simple scheme d(s, t) per pair,
    from whichever endpoint more of the chunk's pairs share; for a
    double one d(v, t) once for every state, from the distinct targets,
    and two-step progress per state (_progress). The checks run as array
    tests over the chunk; only failing pairs get a record, built in pair
    order from run_route's trace or exception. A pair fails on the first
    of: a RoutingError, or a route of more than 2n hops in all, then for
    a simple scheme a route longer than the BFS distance, for a double
    one a stretch above 2, then a trace without two-step progress.
    """
    n = scheme.n
    if pairs == "all":
        chunks = _all_pairs(n)
    else:
        try:
            k = operator.index(pairs)
        except TypeError:
            k = None
        if k is None or isinstance(pairs, (bool, np.bool_)):
            raise SampleSizeError(f"cannot sample {pairs!r} pairs: a sample "
                                  f"size is 'all' or an integer")
        if k < 0:
            raise SampleSizeError(f"cannot sample {k} pairs: a sample "
                                  f"size is not negative")
        if k > n * (n - 1):
            raise SampleSizeError(
                f"cannot sample {k} pairs: there are only {n * (n - 1)} "
                f"ordered pairs with s != t; use 'all'")
        chunks = _sample_pairs(n, k, seed)

    if (bfs_distances(g.indptr, g.indices, 0) < 0).any():
        raise SchemeBuildError("visibility graph is not connected")
    plan = _bfs_plan(g.indptr, g.indices)

    simple, limit = scheme.kind == "simple", len(scheme.hops)
    failures = []
    total_failures = total_pairs = 0
    max_stretch = stretch_sum = 0.0
    writer = fh = None
    if report_path is not None:
        fh = open(report_path, "w", newline="")
        writer = csv.writer(fh)
        writer.writerow(["s", "t", "bfs", "routed", "stretch"])
    try:
        for ss, ts in chunks:
            total_pairs += len(ss)
            sl, tl = ss.tolist(), ts.tolist()
            if simple and len(sl) < _SHARE * np.count_nonzero(
                    np.bincount(ts)):
                routed = _route_lengths(scheme, sl, tl)
            else:
                src, verts, owners, left, nexts = _step_states(scheme, ss, ts)
                routed = left[src]
            routed[routed > limit] = -1     # the bound counts the whole route
            reach = np.where(routed < 0, n, routed)
            if simple:   # only d(s, t) = d(t, s) is read: the BFS starts
                # from whichever endpoint more of the chunk's pairs share
                shared = np.bincount(np.append(ss, ts), minlength=n)
                flip = shared[ss] > shared[ts]
                bfs = _query(plan, np.where(flip, ts, ss),
                             np.where(flip, ss, ts), reach)
                bad = routed != bfs
            else:        # d(v, t) once for every state, and its progress
                d = _query(plan, verts, owners, np.where(left < 0, n, left))
                bfs = d[src]
                far = routed > 2 * bfs
                bad = (routed < 0) | far | ~_progress(d, nexts, left)[src]
            stretch = np.where(routed < 0, np.inf, routed / bfs)
            good = stretch[routed >= 0]
            if good.size:
                max_stretch = max(max_stretch, good.max().item())
                # added left to right, as the pairs come, so chunking
                # cannot round the sum differently
                sums = np.cumsum(np.append(stretch_sum, good))
                stretch_sum = sums[-1].item()
            fail = np.flatnonzero(bad).tolist()
            total_failures += len(fail)
            record = fail[:_FAILURE_CAP - len(failures)]
            for i in record:
                # failing pairs are routed again, one hop loop for all
                try:
                    trace, reason = run_route(scheme, sl[i], tl[i]), None
                except RoutingError as exc:
                    trace, reason = None, f"{type(exc).__name__}: {exc}"
                failures.append(dict(
                    s=sl[i], t=tl[i], bfs=bfs[i].item(),
                    routed=routed[i].item(), trace=trace,
                    reason=reason or (
                        "not a shortest path" if simple else
                        "stretch above 2" if far[i] else
                        "progress stalls after position "
                        f"{_stall(d, nexts, src[i])}")))
            if writer is not None:
                writer.writerows(zip(sl, tl, bfs.tolist(), routed.tolist(),
                                     map("{:.3f}".format, stretch.tolist())))
    finally:
        if fh is not None:
            fh.close()

    mean = stretch_sum / total_pairs if total_pairs else 0.0
    return VerifyReport(
        kind=scheme.kind, n=n, pairs=total_pairs,
        max_stretch=max_stretch, mean_stretch=mean,
        lab_bits=scheme.max_label_bits, tab_bits=scheme.max_table_bits,
        hdr_bits=scheme.max_header_bits, failed=total_failures,
        failures=failures)
