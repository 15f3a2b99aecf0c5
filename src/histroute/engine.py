"""Routing execution with a locality firewall, plus verification.

The engine moves a packet by repeatedly calling the scheme's step
function, handing it nothing but the current vertex's link table and
routing table, the target's label, and the packet header. The step
answers with a port, a position in the link's ``ids``; a port outside
the link, or naming the current vertex, is a firewall breach. Ground
truth distances come from one bit-parallel BFS over the visibility
graph's CSR, and verify_all_pairs compares every routed path against
them.
"""

import copy
import csv
import dataclasses
import itertools
import operator

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
    name; ``label_of``/``table_of`` hand out records built for all
    vertices at once from those columns. The links are cut in one
    batch (``cut_rows``) from the closed rows that closed_rows gives in
    the order of ``link_order(n, cols)``, by default the ids ascending.
    The adjacency is kept as the CSR pair (indptr, indices) that
    visibility.VisibilityGraph built.

    Subclasses set ``kind``, the ``max_*_bits`` bounds, the routing
    ``step`` (it returns the next hop's port, its position in
    ``link.ids``, and the header), the records and links in
    ``__init__``, and the dump columns: ``columns`` fields between a
    row's id and its neighbor ids, which ``dump_fields()`` formats for
    all rows and ``read_fields(rows)`` parses and checks from a
    ``dump.Rows``.
    """

    def __init__(self, n, cols, indptr, indices):
        self.n = n
        self.cols = cols
        self.indptr = indptr
        self.indices = indices

    @staticmethod
    def link_order(n, cols=None):
        return np.arange(n)

    def label_of(self, v: int):
        return self._labels[v]

    def table_of(self, v: int):
        return self._tables[v]

    def link_of(self, v: int):
        return self._links[v]


def run_route(scheme, s: int, t: int):
    """Route a packet from s to t, returning the full vertex trace.

    The trace includes both endpoints; s == t gives an empty trace. A
    port outside [0, len(link.ids)), or naming the current vertex,
    raises FirewallError; a packet still travelling after 4n hops
    raises HopLimitExceeded.
    """
    if s == t:
        return []
    hop_limit = 4 * scheme.n
    trace = [s]
    header = None
    cur = s
    target = scheme.label_of(t)
    while cur != t:
        if len(trace) - 1 >= hop_limit:
            raise HopLimitExceeded(
                f"no arrival after {hop_limit} hops routing {s} -> {t}")
        link = scheme.link_of(cur)
        port, header = scheme.step(link, scheme.table_of(cur), target, header)
        ids = link.ids
        if not 0 <= port < len(ids) or (nxt := ids[port]) == cur:
            raise FirewallError(
                f"step at {cur} returned port {port}, not a neighbor")
        trace.append(nxt)
        cur = nxt
    return trace


_BATCH = 512   # sources per kernel batch: 8 uint64 words


def _bfs_levels(indptr, indices, sources):
    """Bit-parallel BFS from up to _BATCH sources at once (Then et al.,
    "The More the Merrier: Efficient Multi-Source Graph Traversal",
    VLDB 2014).

    The sources are packed 64 to a uint64 word. For each level d from
    0 up, yields (d, new): bit j % 64 of new[v, j // 64] is set iff
    vertex v lies at distance exactly d from sources[j]. A level costs
    O(E) word operations per word; no sources x vertices table is
    built. A caller that has what it needs may stop early.
    """
    n = len(indptr) - 1
    # reduceat gives a[start] for an empty segment, so the rows with no
    # neighbours are zeroed after each pull; the repeated last entry
    # keeps every start in range and, ORed twice, changes nothing
    pull = np.append(indices, indices[-1] if len(indices) else 0)
    starts = indptr[:-1]
    empty = np.flatnonzero(np.diff(indptr) == 0)
    j = np.arange(len(sources))
    new = np.zeros((n, (len(sources) + 63) // 64), dtype=np.uint64)
    np.bitwise_or.at(new, (np.asarray(sources, dtype=np.int64), j // 64),
                     np.uint64(1) << (j % 64).astype(np.uint64))
    unseen = ~new
    level = 0
    while True:
        yield level, new
        new = np.bitwise_or.reduceat(new[pull], starts, axis=0)
        new[empty] = 0
        new &= unseen
        if not new.any():
            return
        unseen ^= new
        level += 1


def distances(indptr, indices, sources):
    """Hop distances by BFS on the CSR adjacency (indptr, indices):
    row i holds the distance from sources[i] to every vertex, -1 where
    unreachable."""
    n = len(indptr) - 1
    d = _query_distances(indptr, indices, np.tile(np.arange(n), len(sources)),
                         np.repeat(sources, n))
    return d.reshape(len(sources), n)


def _query_distances(indptr, indices, qv, qt):
    """d(qv[i], qt[i]) for every i, from one kernel pass over the
    distinct qt; -1 where unreachable."""
    qv = np.asarray(qv, dtype=np.int64)
    qt = np.asarray(qt, dtype=np.int64)
    wanted = np.zeros(len(indptr) - 1, dtype=bool)
    wanted[qt] = True
    targets = np.flatnonzero(wanted)
    j = (np.cumsum(wanted) - 1)[qt]         # index of qt[i] in targets
    batch = j // _BATCH
    order = np.argsort(batch, kind="stable")
    cuts = np.zeros(-(-len(targets) // _BATCH) + 1, dtype=np.int64)
    np.cumsum(np.bincount(batch, minlength=len(cuts) - 1), out=cuts[1:])
    dist = np.full(len(qv), -1, dtype=np.int64)    # in `order`
    for b, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
        sources = targets[b * _BATCH:(b + 1) * _BATCH]
        js = j[order[lo:hi]] - b * _BATCH
        word = qv[order[lo:hi]] * -(-len(sources) // 64) + (js >> 6)
        mask = np.uint64(1) << (js & 63).astype(np.uint64)
        found, left = dist[lo:hi], hi - lo
        for level, new in _bfs_levels(indptr, indices, sources):
            hit = (np.take(new, word) & mask) != 0
            found[hit] = level
            left -= np.count_nonzero(hit)
            if not left:
                break
    out = np.empty_like(dist)
    out[order] = dist
    return out


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
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary_lines(self):
        return [
            f"pairs={self.pairs}",
            f"maxStretch={self.max_stretch:.3f}",
            f"meanStretch={self.mean_stretch:.3f}",
            f"labBits={self.lab_bits}",
            f"tabBits={self.tab_bits}",
            f"hdrBits={self.hdr_bits}",
            f"failures={len(self.failures)}",
        ]


def check_two_step_progress(d):
    """Check that a routed trace makes progress in at most two hops.

    The trace must decompose into consecutive segments of one or two
    hops, each ending at least one unit closer to the target; the
    stretch-2 argument chains exactly these segments. Positions in the
    middle of a segment carry no guarantee of their own, so the check
    asks whether some segmentation reaches the end of the trace.
    d lists the BFS distance to the target of each vertex on the trace.
    Returns None, or a failure reason.
    """
    if all(map(operator.gt, d, d[1:])):     # every hop gets closer
        return None
    m = len(d)
    reach = [False] * m
    reach[0] = True
    frontier = 0
    for i in range(m - 1):
        if not reach[i]:
            continue
        closer = d[i] - 1
        for j in (i + 1, i + 2):
            if j < m and d[j] <= closer:
                reach[j] = True
                frontier = max(frontier, j)
    if not reach[m - 1]:
        return f"progress stalls after position {frontier}"
    return None


_FAILURE_CAP = 1000
_CHUNK = 1 << 16    # pairs routed, then checked, at a time


class SampleSizeError(ValueError):
    """A pair sample larger than the number of ordered pairs."""


def _sample_pairs(n, k, seed, chunk=_CHUNK):
    """k pairs (s, t) with s != t, drawn uniformly with the given seed.

    Each round draws take + 8 sources, then take + 8 targets, and keeps
    the pairs with s != t until k are kept. Both rows are drawn chunk by
    chunk, the targets from a copy of the generator advanced past the
    sources, so memory stays O(chunk) and the pairs are the same as
    those of one-shot draws.
    """
    rng = np.random.default_rng(seed)
    left = k
    while left:
        size = left + 8
        spans = [min(chunk, size - lo) for lo in range(0, size, chunk)]
        trng = copy.deepcopy(rng)
        for m in spans:
            trng.integers(0, n, size=m)
        for m in spans:
            ss = rng.integers(0, n, size=m)
            tt = trng.integers(0, n, size=m)
            keep = ss != tt
            ss, tt = ss[keep][:left], tt[keep][:left]
            yield from zip(ss.tolist(), tt.tolist())
            left -= len(ss)
            if not left:
                return
        rng = trng


def _route_flat(scheme, chunk):
    """Route every pair of chunk into one flat list of vertex ids.

    Returns (vs, lens, reasons): pair i's trace is the next lens[i]
    ids of vs, and reasons[i] is None, or the failure reason of its
    RoutingError, in which case its trace is held as [s] alone.
    """
    vs, lens, reasons = [], [], []
    for s, t in chunk:
        try:
            trace = run_route(scheme, s, t)
            reasons.append(None)
        except RoutingError as exc:
            trace = [s]
            reasons.append(f"{type(exc).__name__}: {exc}")
        vs.extend(trace)
        lens.append(len(trace))
    return vs, lens, reasons


def verify_all_pairs(scheme, g, pairs="all", seed=None, report_path=None):
    """Route pairs, compare against BFS, and collect a report.

    pairs is "all" for every ordered pair with s != t, or an integer
    sample size (drawn uniformly with the given seed) of at most
    n(n-1); a larger sample raises SampleSizeError, a ValueError.
    Simple schemes must match BFS exactly; double schemes must have
    stretch at most 2 and make two-step progress along every trace.
    Routes longer than 2n hops are failures regardless of stretch.

    Pairs are taken in chunks of at most 65536, so memory does not
    grow with the number of pairs: each chunk is routed, then one BFS
    pass from its distinct targets answers the distances its checks
    read, d(s, t) per pair and, for a double scheme, d(v, t) for every
    v on the trace.
    """
    n = scheme.n
    if pairs == "all":
        pair_iter = ((s, t) for s in range(n) for t in range(n) if s != t)
    else:
        k = int(pairs)
        if k > n * (n - 1):
            raise SampleSizeError(
                f"cannot sample {k} pairs: there are only {n * (n - 1)} "
                f"ordered pairs with s != t; use 'all'")
        pair_iter = _sample_pairs(n, k, seed)

    csr = g.indptr, g.indices
    reached = sum(np.count_nonzero(new) for _, new in _bfs_levels(*csr, [0]))
    if reached < n:
        raise SchemeBuildError("visibility graph is not connected")

    simple = scheme.kind == "simple"
    failures = []
    total_failures = 0
    total_pairs = 0
    max_stretch = 0.0
    stretch_sum = 0.0
    writer = None
    fh = None
    if report_path is not None:
        fh = open(report_path, "w", newline="")
        writer = csv.writer(fh)
        writer.writerow(["s", "t", "bfs", "routed", "stretch"])
    try:
        while chunk := list(itertools.islice(pair_iter, _CHUNK)):
            total_pairs += len(chunk)
            vs, lens, reasons = _route_flat(scheme, chunk)
            ts = [t for _, t in chunk]
            if simple:   # only d(s, t) is read: each trace's first id
                bfs_of = _query_distances(*csr, [s for s, _ in chunk], ts)
            else:        # d(v, t) for every v on a trace
                dq = _query_distances(*csr, vs, np.repeat(ts, lens))
                bfs_of = dq[np.cumsum(lens) - lens]
                dq = dq.tolist()
            o = 0
            for (s, t), m, reason, bfs in zip(chunk, lens, reasons,
                                               bfs_of.tolist()):
                if reason is not None:
                    routed, trace = -1, None
                else:
                    trace = vs[o:o + m]
                    routed = m - 1
                    if simple and routed != bfs:
                        reason = "not a shortest path"
                    elif not simple and routed > 2 * bfs:
                        reason = "stretch above 2"
                    if routed > 2 * n:
                        reason = "route longer than 2n hops"
                    if not simple and reason is None:
                        reason = check_two_step_progress(dq[o:o + m])
                o += m
                stretch = (routed / bfs) if routed >= 0 and bfs > 0 \
                    else float("inf")
                if routed >= 0 and bfs > 0:
                    if stretch > max_stretch:
                        max_stretch = stretch
                    stretch_sum += stretch
                if reason is not None:
                    total_failures += 1
                    if len(failures) < _FAILURE_CAP:
                        failures.append({
                            "s": s, "t": t, "bfs": bfs, "routed": routed,
                            "trace": trace, "reason": reason,
                        })
                if writer is not None:
                    writer.writerow([s, t, bfs, routed,
                                     f"{stretch:.3f}" if bfs > 0 else ""])
    finally:
        if fh is not None:
            fh.close()

    mean = stretch_sum / total_pairs if total_pairs else 0.0
    report = VerifyReport(
        kind=scheme.kind, n=n, pairs=total_pairs,
        max_stretch=max_stretch, mean_stretch=mean,
        lab_bits=scheme.max_label_bits, tab_bits=scheme.max_table_bits,
        hdr_bits=scheme.max_header_bits, failures=failures)
    if total_failures > len(failures):
        report.failures.append({
            "s": -1, "t": -1, "bfs": -1, "routed": -1, "trace": None,
            "reason": f"{total_failures - len(failures)} more failures omitted",
        })
    return report
