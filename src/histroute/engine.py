"""Routing execution with a locality firewall, plus verification.

The engine moves a packet by repeatedly calling the scheme's step
function, handing it nothing but the current vertex's link table and
routing table, the target's label, and the packet header. The returned
vertex must appear in the current link table; anything else is a
firewall breach. Ground truth distances come from BFS on the
visibility graph, and verify_all_pairs compares every routed path
against them.
"""

import csv
import dataclasses

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph


class RoutingError(Exception):
    """Base class for failures while routing a packet."""


class FirewallError(RoutingError):
    """The step function tried to move to a vertex outside the link table."""


class HeaderProtocolError(RoutingError):
    """A packet header names a vertex the current node cannot see."""


class HopLimitExceeded(RoutingError):
    """The packet did not reach its target within the hop limit."""


class SchemeBuildError(Exception):
    """A preprocessing invariant failed; the scheme cannot be built."""


class Scheme:
    """A built routing scheme: per-vertex labels, routing tables and
    link tables, the contract both histogram kinds share.

    Subclasses set ``kind`` and ``Link`` (built once per vertex as
    ``Link(labels, neighbor_ids, v)``), the ``max_*_bits`` bounds, the
    routing ``step``, and the dump columns: ``columns`` fields written
    by ``row_fields(v)`` and read back by ``parse_row(v, fields)``.
    """

    def __init__(self, n, labels, tables, neighbor_ids):
        self.n = n
        self._labels = labels
        self._tables = tables
        self._neighbor_ids = neighbor_ids
        self._links = [self.Link(labels, ids, v)
                       for v, ids in enumerate(neighbor_ids)]

    def label_of(self, v: int):
        return self._labels[v]

    def table_of(self, v: int):
        return self._tables[v]

    def link_of(self, v: int):
        return self._links[v]

    def neighbor_ids(self, v: int):
        """The ids v sees, ascending."""
        return self._neighbor_ids[v]


def run_route(scheme, s: int, t: int):
    """Route a packet from s to t, returning the full vertex trace.

    The trace includes both endpoints; s == t gives an empty trace.
    A packet still travelling after 4n hops raises HopLimitExceeded.
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
        nxt, header = scheme.step(link, scheme.table_of(cur), target, header)
        if nxt == cur or nxt not in link.id_set:
            raise FirewallError(
                f"step at {cur} returned {nxt}, not a neighbor")
        trace.append(nxt)
        cur = nxt
    return trace


def distances(neighbors, sources):
    """Hop distances by BFS: row i holds the distance from sources[i]
    to every vertex, -1 where unreachable. neighbors[v] lists the ids
    adjacent to v."""
    n = len(neighbors)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(ids) for ids in neighbors], out=indptr[1:])
    indices = np.concatenate([np.asarray(ids, dtype=np.int64)
                              for ids in neighbors])
    graph = scipy.sparse.csr_matrix(
        (np.ones(len(indices), dtype=np.int8), indices, indptr), shape=(n, n))
    d = scipy.sparse.csgraph.shortest_path(
        graph, method="D", unweighted=True, indices=sources)
    d[np.isinf(d)] = -1
    return d.astype(np.int64)


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


def check_two_step_progress(trace, drow):
    """Check that a routed trace makes progress in at most two hops.

    The trace must decompose into consecutive segments of one or two
    hops, each ending at least one unit closer to the target; the
    stretch-2 argument chains exactly these segments. Positions in the
    middle of a segment carry no guarantee of their own, so the check
    asks whether some segmentation reaches the end of the trace.
    Returns None, or a failure reason.
    """
    m = len(trace)
    reach = [False] * m
    reach[0] = True
    frontier = 0
    for i in range(m - 1):
        if not reach[i]:
            continue
        di = int(drow[trace[i]])
        for j in (i + 1, i + 2):
            if j < m and int(drow[trace[j]]) <= di - 1:
                reach[j] = True
                frontier = max(frontier, j)
    if not reach[m - 1]:
        return f"progress stalls after position {frontier}"
    return None


_FAILURE_CAP = 1000


def verify_all_pairs(scheme, g, pairs="all", seed=None, report_path=None):
    """Route pairs, compare against BFS, and collect a report.

    pairs is "all" for every ordered pair with s != t, or an integer
    sample size (drawn uniformly with the given seed). Simple schemes
    must match BFS exactly; double schemes must have stretch at most 2
    and make two-step progress along every trace. Routes longer than
    2n hops are failures regardless of stretch.
    """
    n = scheme.n
    if pairs == "all":
        pair_list = [(s, t) for s in range(n) for t in range(n) if s != t]
    else:
        rng = np.random.default_rng(seed)
        out = []
        while len(out) < int(pairs):
            take = int(pairs) - len(out)
            ss = rng.integers(0, n, size=take + 8)
            tt = rng.integers(0, n, size=take + 8)
            keep = ss != tt
            out.extend(zip(ss[keep].tolist(), tt[keep].tolist()))
        pair_list = out[: int(pairs)]

    targets = sorted({t for _, t in pair_list})
    trow = {t: i for i, t in enumerate(targets)}
    dist = distances(g.neighbors, targets)   # dist[i]: from targets[i]
    if (dist < 0).any():
        raise SchemeBuildError("visibility graph is not connected")

    simple = scheme.kind == "simple"
    failures = []
    total_failures = 0
    max_stretch = 0.0
    stretch_sum = 0.0
    writer = None
    fh = None
    if report_path is not None:
        fh = open(report_path, "w", newline="")
        writer = csv.writer(fh)
        writer.writerow(["s", "t", "bfs", "routed", "stretch"])
    try:
        for s, t in pair_list:
            drow = dist[trow[t]]
            bfs = int(drow[s])
            try:
                trace = run_route(scheme, s, t)
                routed = len(trace) - 1
            except RoutingError as exc:
                trace = None
                routed = -1
                reason = f"{type(exc).__name__}: {exc}"
            if routed >= 0:
                reason = None
                if simple and routed != bfs:
                    reason = "not a shortest path"
                elif not simple and routed > 2 * bfs:
                    reason = "stretch above 2"
                if routed > 2 * n:
                    reason = "route longer than 2n hops"
                if not simple and reason is None:
                    reason = check_two_step_progress(trace, drow)
            stretch = (routed / bfs) if routed >= 0 and bfs > 0 else float("inf")
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

    mean = stretch_sum / len(pair_list) if pair_list else 0.0
    report = VerifyReport(
        kind=scheme.kind, n=n, pairs=len(pair_list),
        max_stretch=max_stretch, mean_stretch=mean,
        lab_bits=scheme.max_label_bits, tab_bits=scheme.max_table_bits,
        hdr_bits=scheme.max_header_bits, failures=failures)
    if total_failures > len(failures):
        report.failures.append({
            "s": -1, "t": -1, "bfs": -1, "routed": -1, "trace": None,
            "reason": f"{total_failures - len(failures)} more failures omitted",
        })
    return report
