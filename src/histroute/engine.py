"""Routing execution with a locality firewall, plus verification.

The engine moves a packet by repeatedly calling the scheme's step
function, handing it nothing but the current vertex's link table and
routing table, the target's label, and the packet header. The step
answers with a port, a position in the link's ``ids``; a port outside
the link, or naming the current vertex, is a firewall breach. Ground
truth distances come from one bit-parallel BFS over the visibility
graph's CSR, asked only the pairs a check reads, and verify_all_pairs
compares every routed path against them. The BFS pulls its levels
from the CSR with the vertices renumbered by degree, highest first,
so that each vertex's c-th neighbours form one column over a prefix
of the rows; a level gathers each of the first _CAP columns whole, and
one reduceat the rest of the rows of higher degree.
"""

import csv
import dataclasses
import itertools
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
    vid, rank = np.arange(n), np.argsort(order)     # rank[order[i]] = i
    keys = np.sort(np.append(np.repeat(vid, np.diff(indptr)) * n
                             + rank[indices], vid * n + rank))
    return indptr + np.arange(n + 1), order[keys % n]


def cut_rows(rows, *cols):
    """Link columns cut from the closed rows (ptr, ids): the ids, then
    each int64 column taken at the ids, each as one tuple that one
    slice per vertex cuts up: a port indexes every column of a link.
    Taken from object arrays, the entries of one vertex share one int
    object, not one per link; and tuples of ints leave the cyclic
    garbage collector's lists once it has seen them, while lists are
    scanned at every full collection."""
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
    name; ``label_of`` and the list ``tables`` hand out records built
    for all vertices at once from those columns. The list ``links``
    holds links cut in one batch (``cut_rows``) from the closed rows
    that closed_rows gives in the order of ``link_order(n, cols)``, by
    default the ids ascending. The adjacency is kept as the CSR pair
    (indptr, indices) that visibility.VisibilityGraph built.

    Subclasses set ``kind``, the ``max_*_bits`` bounds, the records and
    links in ``__init__``, the dump columns (``columns`` fields between
    a row's id and its neighbor ids, which ``dump_fields()`` formats
    for all rows and ``read_fields(rows)`` parses and checks from a
    ``dump.Rows``) and ``step``, the kind's routing function itself as
    a plain function, bound when read off a scheme: it returns the next
    hop's port, its position in ``link.ids``, and the header. The dump
    reader calls ``check_links``, which a kind may override.
    """

    def __init__(self, n, cols, indptr, indices):
        self.n = n
        self.cols = cols
        self.indptr = indptr
        self.indices = indices

    @staticmethod
    def link_order(n, cols=None):
        return np.arange(n)

    @staticmethod
    def check_links(cols, src, dst):
        """Raise ValueError at the first listing src[i] -> dst[i] of a
        dump, in file order, that the columns rule out; the base rules
        out none."""

    def label_of(self, v: int):
        return self._labels[v]

    def table_of(self, v: int):
        return self.tables[v]


def run_route(scheme, s: int, t: int):
    """Route a packet from s to t, returning the full vertex trace.

    The trace includes both endpoints; s == t gives an empty trace. A
    hop is one call of the step, bound once a route, on the current
    vertex's link and table, the target label and the header. A port
    outside [0, len(link.ids)), or naming the current vertex, raises
    FirewallError; a packet still travelling after 2n hops, more than
    twice any shortest path, raises HopLimitExceeded.
    """
    if s == t:
        return []
    links, tables, step = scheme.links, scheme.tables, scheme.step
    target = scheme.label_of(t)
    trace = [s]
    header, cur = None, s
    for _ in range(2 * scheme.n):
        link = links[cur]
        port, header = step(link, tables[cur], target, header)
        ids = link.ids
        if not 0 <= port < len(ids) or (nxt := ids[port]) == cur:
            raise FirewallError(
                f"step at {cur} returned port {port}, not a neighbor")
        trace.append(nxt)
        if nxt == t:
            return trace
        cur = nxt
    raise HopLimitExceeded(
        f"no arrival after {2 * scheme.n} hops routing {s} -> {t}")


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


def query_distances(indptr, indices, qv, qt, reach=None):
    """d(qv[i], qt[i]) for every i, -1 where unreachable, by BFS on the
    symmetric CSR adjacency (indptr, indices) from the distinct qt.

    The sources run in batches of _BATCH, each only until all of its
    queries are answered. reach, when given, is a hint per query of how
    far it lies: the sources are batched in ascending order of the
    largest hint among their queries, so near queries share batches
    that stop early. A hint only orders the sources; a wrong one costs
    time, never a distance.
    """
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


def check_two_step_progress(d, lens):
    """Check that routed traces make progress in at most two hops.

    A trace must decompose into consecutive segments of one or two
    hops, each ending at least one unit closer to the target; the
    stretch-2 argument chains exactly these segments. Positions in the
    middle of a segment carry no guarantee of their own, so the check
    asks whether some segmentation reaches the end of the trace:
    position p is reached from a reached p - 1 or p - 2 farther away.

    d holds the int64 BFS distances to the target of the vertices of
    consecutive traces, trace i being the next lens[i] >= 1 of them.
    Returns an int64 array with, per trace, -1 when some segmentation
    reaches its end, else the last position one reaches. The traces are
    walked a position at a time, longest first, so those still alive at
    p are a prefix: O(sum(lens) + max(lens)) work.
    """
    d = np.asarray(d, dtype=np.int64)
    lens = np.asarray(lens, dtype=np.int64)
    order = np.argsort(-lens, kind="stable")
    first = (np.cumsum(lens) - lens)[order]
    alive = len(lens) - np.cumsum(np.bincount(lens))  # traces longer than p
    last = np.zeros(len(lens), dtype=np.int64)
    back2 = np.zeros(len(lens), dtype=bool)     # reached p - 2
    back1 = np.ones(len(lens), dtype=bool)      # reached p - 1
    for p, k in enumerate(alive[1:-1].tolist(), 1):
        at = first[:k] + p
        now = back1[:k] & (d[at] < d[at - 1])
        # at p = 1, back2 is all False: d[at - 2] may be any entry
        now |= back2[:k] & (d[at] < d[at - 2])
        last[:k][now] = p
        back2, back1 = back1[:k], now
    out = np.empty_like(last)
    out[order] = np.where(last == lens[order] - 1, -1, last)
    return out


_FAILURE_CAP = 1000
_CHUNK = 1 << 16    # pairs routed, then checked, at a time


class SampleSizeError(ValueError):
    """A pair sample larger than the number of ordered pairs."""


def _sample_pairs(n, k, seed):
    """k pairs (s, t) with s != t, drawn uniformly with the given seed.

    Each round draws m = min(_CHUNK, left + 8) sources, then m targets,
    left being the pairs still wanted, and keeps the pairs with s != t.
    Memory stays O(_CHUNK), and a sample of at most _CHUNK - 8 pairs
    draws all of a round's sources, then all its targets, in one call.
    """
    rng = np.random.default_rng(seed)
    left = k
    while left > 0:
        m = min(_CHUNK, left + 8)
        ss = rng.integers(0, n, size=m)
        tt = rng.integers(0, n, size=m)
        keep = ss != tt
        ss, tt = ss[keep][:left], tt[keep][:left]
        yield from zip(ss.tolist(), tt.tolist())
        left -= len(ss)


def _route_flat(scheme, chunk):
    """Route every pair of chunk into one flat list of vertex ids.

    Returns (vs, lens, errors): pair i's trace is the next lens[i] ids
    of vs, and errors maps each pair i whose route raised a RoutingError
    to its failure reason, in which case its trace is held as [s] alone.
    """
    vs, lens, errors = [], [], {}
    for i, (s, t) in enumerate(chunk):
        try:
            trace = run_route(scheme, s, t)
        except RoutingError as exc:
            trace = [s]
            errors[i] = f"{type(exc).__name__}: {exc}"
        vs.extend(trace)
        lens.append(len(trace))
    return vs, lens, errors


def verify_all_pairs(scheme, g, pairs="all", seed=None, report_path=None):
    """Route pairs, compare against BFS, and collect a report.

    pairs is "all" for every ordered pair with s != t, or an integer
    sample size (drawn uniformly with the given seed) of at most
    n(n-1); a negative or larger sample raises SampleSizeError, a
    ValueError.
    Simple schemes must match BFS exactly; double schemes must have
    stretch at most 2 and make two-step progress along every trace.

    Pairs are taken in chunks of at most 65536, so memory does not
    grow with the number of pairs: each chunk is routed, then one
    query_distances call answers the distances its checks read, each
    hinted by its pair's routed length (n for a route that raised):
    for a simple scheme d(s, t) per pair, from whichever endpoint more
    of the chunk's pairs share; for a double one d(v, t) for every v
    on the trace, from the distinct targets. The checks run as array
    tests over the chunk; only failing pairs get a record, built in
    pair order. A pair fails on the first of: a RoutingError, then for
    a simple scheme a route longer than the BFS distance, for a double
    one a stretch above 2, then a trace without two-step progress.
    """
    n = scheme.n
    if pairs == "all":
        pair_iter = ((s, t) for s in range(n) for t in range(n) if s != t)
    else:
        k = int(pairs)
        if k < 0:
            raise SampleSizeError(f"cannot sample {k} pairs: a sample "
                                  f"size is not negative")
        if k > n * (n - 1):
            raise SampleSizeError(
                f"cannot sample {k} pairs: there are only {n * (n - 1)} "
                f"ordered pairs with s != t; use 'all'")
        pair_iter = _sample_pairs(n, k, seed)

    plan = _bfs_plan(g.indptr, g.indices)
    reached = sum(np.count_nonzero(new) for _, new in _bfs_levels(plan, [0]))
    if reached < n:
        raise SchemeBuildError("visibility graph is not connected")

    simple = scheme.kind == "simple"
    failures = []
    total_failures = total_pairs = 0
    max_stretch = stretch_sum = 0.0
    writer = fh = None
    if report_path is not None:
        fh = open(report_path, "w", newline="")
        writer = csv.writer(fh)
        writer.writerow(["s", "t", "bfs", "routed", "stretch"])
    try:
        while chunk := list(itertools.islice(pair_iter, _CHUNK)):
            total_pairs += len(chunk)
            ss, ts = zip(*chunk)
            vs, lens, errors = _route_flat(scheme, chunk)
            lens = np.array(lens, dtype=np.int64)
            first = np.cumsum(lens) - lens      # each trace's offset in vs
            routed = lens - 1
            routed[list(errors)] = -1
            reach = np.where(routed < 0, n, routed)
            if simple:   # only d(s, t) = d(t, s) is read: the BFS starts
                # from whichever endpoint more of the chunk's pairs share
                sa, ta = np.array(ss), np.array(ts)
                shared = np.bincount(np.append(sa, ta), minlength=n)
                flip = shared[sa] > shared[ta]
                bfs = _query(plan, np.where(flip, ta, sa),
                             np.where(flip, sa, ta), reach)
            else:        # d(v, t) for every v on a trace
                dq = _query(plan, vs, np.repeat(ts, lens),
                            np.repeat(reach, lens))
                bfs = dq[first]
            stretch = np.where(routed < 0, np.inf, routed / bfs)
            good = stretch[routed >= 0]
            if good.size:
                max_stretch = max(max_stretch, good.max().item())
                # added left to right, as the pairs come, so chunking
                # cannot round the sum differently
                sums = np.cumsum(np.append(stretch_sum, good))
                stretch_sum = sums[-1].item()
            if simple:
                bad = routed != bfs
            else:
                far = routed > 2 * bfs
                stall = check_two_step_progress(dq, lens)
                bad = (routed < 0) | far | (stall >= 0)
            fail = np.flatnonzero(bad).tolist()
            total_failures += len(fail)
            for i in fail[:_FAILURE_CAP - len(failures)]:
                if i in errors:
                    reason, trace = errors[i], None
                else:
                    reason = ("not a shortest path" if simple else
                              "stretch above 2" if far[i] else
                              f"progress stalls after position {stall[i]}")
                    trace = vs[first[i]:first[i] + lens[i]]
                failures.append(dict(s=ss[i], t=ts[i], bfs=bfs[i].item(),
                                     routed=routed[i].item(), trace=trace,
                                     reason=reason))
            if writer is not None:
                writer.writerows(zip(ss, ts, bfs.tolist(), routed.tolist(),
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
