import collections
import contextlib
import csv
import hashlib
import itertools
import os
import subprocess
import sys
import tracemalloc
import unittest.mock

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

import histroute
from histroute import dump, engine, polygon, scheme_double, scheme_simple, \
    visibility

import oracles
from conftest import make_double, make_simple, pack, staircase_text


class HijackedScheme:
    """Wraps a real scheme, sharing its label, link and table lists and
    its hop range, and misbehaves at exactly one vertex: there its step
    returns the port port(link) and the given header."""

    def __init__(self, inner, at, port=None, header=None):
        self.inner = inner
        self.at = at
        self.port = port
        self.header = header
        self.kind = inner.kind
        self.n = inner.n
        self.hops = inner.hops
        self.labels = inner.labels
        self.links = inner.links
        self.tables = inner.tables
        self.max_label_bits = inner.max_label_bits
        self.max_table_bits = inner.max_table_bits
        self.max_header_bits = inner.max_header_bits

    def step(self, link, table, target, header):
        if link.own_vid == self.at and self.port is not None:
            return self.port(link), self.header
        return self.inner.step(link, table, target, header)


def port_of(v):
    """The port of vertex v in a link that holds it."""
    return lambda link: link.ids.index(v)


def own_port(link):
    return link.ids.index(link.own_vid)


def test_run_route_trivial(sch_rect):
    assert engine.run_route(sch_rect, 2, 2) == []
    assert engine.run_route(sch_rect, 1, 3) == [1, 3]


def test_run_route_traces_hold_python_ints(sch_steps):
    # the source once came back as passed: [np.int64(2), 0, 4, 5]
    want = engine.run_route(sch_steps, 2, 5)
    for s, t in [(np.int64(2), np.int64(5)), (np.int32(2), 5),
                 (2, np.uint8(5))]:
        trace = engine.run_route(sch_steps, s, t)
        assert trace == want and {type(v) for v in trace} == {int}


@pytest.mark.parametrize("s, t", [(2.0, 5), (2, 5.0), ("2", 5),
                                  (np.float64(2), 5), (True, 5), (2, False)])
def test_run_route_rejects_ids_that_are_not_integers(sch_steps, s, t):
    # before the first hop: the step is never called; True once routed
    # from vertex 1, as operator.index(True) == 1
    probe = StepProbe(sch_steps)
    with pytest.raises(TypeError):
        engine.run_route(probe, s, t)
    assert probe.calls == 0


@pytest.mark.parametrize("kind", ["simple", "double"])
@pytest.mark.parametrize("s,t", [(-1, 3), (3, 12), (3, -1), (12, 3),
                                 (-1, -1), (12, 12)])
def test_run_route_rejects_ids_outside_the_scheme(kind, s, t):
    # on the simple scheme (-1, 3) used to route from vertex 11,
    # (3, 12) to raise a bare IndexError and (3, -1) a FirewallError
    h, g = (make_simple if kind == "simple" else make_double)(12)
    sch = scheme_simple.preprocess_simple(h, g) if kind == "simple" else \
        scheme_double.preprocess_double(h, g)
    with pytest.raises(ValueError) as ei:
        engine.run_route(sch, s, t)
    assert str(ei.value) == f"vertex ids must be in [0, 12), got {s} -> {t}"


def test_firewall_rejects_non_neighbor(sch_steps):
    # vertex 1's link holds 0, 1, 2, 3: port 4 is past its end
    assert sch_steps.links[1].ids == (0, 1, 2, 3)
    bad = HijackedScheme(sch_steps, at=1, port=lambda link: len(link.ids))
    with pytest.raises(engine.FirewallError, match="port 4"):
        engine.run_route(bad, 1, 6)


def test_firewall_rejects_negative_port(sch_steps):
    # -1 would index the link's last entry, a neighbor
    bad = HijackedScheme(sch_steps, at=1, port=lambda link: -1)
    with pytest.raises(engine.FirewallError, match="port -1"):
        engine.run_route(bad, 1, 6)


def test_firewall_rejects_self_hop(sch_steps):
    bad = HijackedScheme(sch_steps, at=1, port=own_port)
    with pytest.raises(engine.FirewallError, match="port 1"):
        engine.run_route(bad, 1, 6)


def test_header_violation_rejected(sch_dbl):
    # a header naming coordinates absent from the next link table blows
    # up when that vertex consumes it
    bad = HijackedScheme(sch_dbl, at=1, port=port_of(3), header=(999, 999))
    with pytest.raises(engine.HeaderProtocolError):
        engine.run_route(bad, 1, 6)


class PingPong(HijackedScheme):
    """Bounces a packet between the neighbors 0 and 1 once it reaches
    either."""

    def step(self, link, table, target, header):
        own = link.own_vid
        if own in (0, 1):
            return link.ids.index(1 - own), None
        return self.inner.step(link, table, target, header)


def test_hop_limit(sch_steps):
    with pytest.raises(engine.HopLimitExceeded, match="after 16 hops"):
        engine.run_route(PingPong(sch_steps, at=0), 2, 6)


def test_distances_rect(rect):
    h, g = rect
    assert oracles.distances(g.indptr, g.indices, [0]).tolist() == \
        [[0, 1, 1, 1]]


def test_distances_steps(steps):
    h, g = steps
    d = oracles.distances(g.indptr, g.indices, [2, 6])
    assert d[0, 6] == 3 and d[0, 2] == 0 and d[0, 0] == 1
    assert d[1, 2] == 3


def test_distances_unreachable():
    # 0 - 1   2 (isolated), read from plain lists
    d = oracles.distances(*oracles.csr_of([[1], [0], []]), [0, 2])
    assert d.tolist() == [[0, 1, -1], [-1, -1, 0]]


def assert_matches_queue_bfs(neighbors, sources):
    d = oracles.distances(*oracles.csr_of(neighbors), sources)
    assert d.dtype == np.int64 and d.shape == (len(sources), len(neighbors))
    rows = {s: oracles.bfs(neighbors, s) for s in set(sources)}
    assert d.tolist() == [rows[s] for s in sources]


def test_distances_match_queue_bfs(rect, steps, dbl, dbl_raw, drect,
                                   small_simples, small_doubles,
                                   random_simples, random_doubles):
    for h, g in [rect, steps, dbl, dbl_raw, drect, *small_simples,
                 *small_doubles, *random_simples, *random_doubles]:
        assert_matches_queue_bfs(oracles.neighbor_lists(g),
                                 list(range(g.n)))


EMPTY_ROW_GRAPHS = [
    [[], [2], [1]],                     # empty first row
    [[1, 2], [0], [0], [], [5], [4]],   # isolated vertex, two components
    [[1], [0, 2], [1], []],             # empty last row
    [[]],
]


@pytest.mark.parametrize("neighbors", EMPTY_ROW_GRAPHS)
def test_distances_empty_rows(neighbors):
    assert_matches_queue_bfs(neighbors, list(range(len(neighbors))))


def assert_closed_rows(neighbors, rng):
    n = len(neighbors)
    for order in [np.arange(n), *(rng.permutation(n) for _ in range(4))]:
        ptr, ids = engine.closed_rows(*oracles.csr_of(neighbors), order)
        place = {u: i for i, u in enumerate(order.tolist())}
        assert ptr.tolist() == [0, *np.cumsum([len(r) + 1 for r in neighbors])]
        for v, row in enumerate(neighbors):
            assert ids[ptr[v]:ptr[v + 1]].tolist() == \
                sorted([v, *row], key=place.get)


@hypothesis.given(data=st.data())
@hypothesis.settings(max_examples=200, deadline=None)
def test_closed_rows_match_a_per_row_oracle(data):
    # any adjacency lists, not only symmetric ones, and any order
    n = data.draw(st.integers(1, 12))
    neighbors = [[u for u in data.draw(st.lists(st.integers(0, n - 1),
                                                unique=True)) if u != v]
                 for v in range(n)]
    order = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
    ptr, ids = engine.closed_rows(*oracles.csr_of(neighbors), order)
    place = order.tolist().index
    want = [sorted([v, *row], key=place) for v, row in enumerate(neighbors)]
    assert ptr.tolist() == [0, *itertools.accumulate(map(len, want))]
    assert ids.tolist() == [u for row in want for u in row]


@pytest.mark.parametrize("neighbors", EMPTY_ROW_GRAPHS)
def test_closed_rows_empty_rows(neighbors):
    assert_closed_rows(neighbors, np.random.default_rng(len(neighbors)))


def test_closed_rows_match_neighborhoods(small_simples, small_doubles):
    rng = np.random.default_rng(3)
    for h, g in small_simples + small_doubles:
        assert_closed_rows(oracles.neighbor_lists(g), rng)


def test_distances_repeated_sources(steps):
    h, g = steps
    assert_matches_queue_bfs(oracles.neighbor_lists(g), [2, 2, 0, 2, 7, 0])


@pytest.mark.parametrize("count", [1, 63, 64, 65, 512, 513])
def test_distances_word_and_batch_edges(count):
    # sources fill whole 64-bit words and 512-source batches, or spill
    # one over; the appended vertex is isolated, so rows hold -1 too
    h, g = make_double(200, seed=7)
    neighbors = oracles.neighbor_lists(g) + [[]]
    rng = np.random.default_rng(count)
    sources = rng.integers(0, len(neighbors), size=count).tolist()
    sources[-1] = len(neighbors) - 1
    assert_matches_queue_bfs(neighbors, sources)


def graph_of(n, edges):
    """Neighbor id lists of the undirected graph on n vertices with the
    given edges, each row in edge order."""
    neighbors = [[] for _ in range(n)]
    for u, v in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    return neighbors


def assert_levels_match_queue_bfs(neighbors, sources):
    # level d of the kernel sets bit j of row rank[v] iff v lies at
    # distance d from sources[j], and the levels end at the deepest one
    plan = engine._bfs_plan(*oracles.csr_of(neighbors))
    j = np.arange(len(sources))
    dist = np.array([oracles.bfs(neighbors, s) for s in sources])
    got = []
    for level, new in engine._bfs_levels(plan, sources):
        assert level == len(got)
        bits = new[plan.rank][:, j // 64] >> (j % 64).astype(np.uint64)
        got.append((bits & np.uint64(1)).T == 1)
    want = [dist == d for d in range(dist.max() + 1)]
    assert np.array_equal(got, want)


def cap_edges_graph():
    # a hub of degree _CAP + 1 joined to one of degree _CAP, leaves of
    # equal degree, and an isolated last vertex
    cap = engine._CAP
    edges = [(0, 1)] + [(0, 2 + i) for i in range(cap)] + \
        [(1, 2 + cap + i) for i in range(cap - 1)]
    return graph_of(2 * cap + 2, edges)


KERNEL_GRAPHS = {
    "star": graph_of(101, [(0, v) for v in range(1, 101)]),
    "cap-edges": cap_edges_graph(),
    "cycle": graph_of(7, [(v, (v + 1) % 7) for v in range(7)]),
    "bipartite": graph_of(6, [(u, v) for u in range(3) for v in range(3, 6)]),
    "edgeless": [[] for _ in range(5)],
    **{f"empty-rows-{i}": g for i, g in enumerate(EMPTY_ROW_GRAPHS)},
}


@pytest.mark.parametrize("name", KERNEL_GRAPHS)
def test_bfs_levels_match_queue_bfs(name):
    neighbors = KERNEL_GRAPHS[name]
    assert_levels_match_queue_bfs(neighbors, list(range(len(neighbors))))


def test_bfs_levels_on_a_staircase():
    # a near-staircase histogram: one hub sees about 3/4 of the vertices
    rng = np.random.default_rng(1)
    swaps = [i for i in range(98) if rng.random() < 0.5]
    h, g = make_simple(staircase_text(99, swaps))
    neighbors = oracles.neighbor_lists(g)
    assert max(map(len, neighbors)) > 0.7 * g.n
    assert_levels_match_queue_bfs(neighbors, list(range(g.n)))


@hypothesis.given(data=st.data())
@hypothesis.settings(max_examples=60, deadline=None)
def test_bfs_levels_on_random_graphs(data):
    # a few hubs over a sparse random graph: degrees on both sides of
    # the column cap, ties, isolated vertices and repeated sources
    n = data.draw(st.integers(1, 80))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    hubs = rng.integers(0, n, size=data.draw(st.integers(0, 3)))
    pairs = {tuple(sorted(e)) for e in rng.integers(0, n, size=(n, 2))}
    pairs |= {(min(h, v), max(h, v)) for h in hubs.tolist()
              for v in rng.integers(0, n, size=rng.integers(0, 2 * n))}
    neighbors = graph_of(n, sorted((u, v) for u, v in pairs if u != v))
    sources = rng.integers(0, n, size=data.draw(st.integers(1, 130)))
    assert_levels_match_queue_bfs(neighbors, sources.tolist())


@pytest.fixture(scope="session")
def query_graphs(small_simples, small_doubles):
    # the empty-row shapes, small polygon graphs, and two graphs of 200
    # vertices, one with an isolated vertex appended, past several
    # 64-source batches
    big = [oracles.neighbor_lists(make_simple(200, seed=9)[1]),
           oracles.neighbor_lists(make_double(200, seed=7)[1]) + [[]]]
    return EMPTY_ROW_GRAPHS + big + [
        oracles.neighbor_lists(g) for h, g in small_simples + small_doubles]


@hypothesis.given(data=st.data())
@hypothesis.settings(max_examples=150, deadline=None)
def test_query_distances_match_queue_bfs(query_graphs, data):
    # hints and 64-source batches order the sources, never a distance:
    # repeated queries, qv == qt and unreachable pairs included
    neighbors = data.draw(st.sampled_from(query_graphs))
    n = len(neighbors)
    m = data.draw(st.integers(0, 3 * n))
    pool = data.draw(st.integers(1, n))         # distinct targets at most
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    qt = rng.permutation(n)[:pool][rng.integers(0, pool, size=m)]
    qv = np.where(rng.random(m) < data.draw(st.sampled_from([0, 0.2, 1])),
                  qt, rng.integers(0, n, size=m))
    rows = {t: oracles.bfs(neighbors, t) for t in set(qt.tolist())}
    want = [rows[t][v] for v, t in zip(qv.tolist(), qt.tolist())]
    hint = data.draw(st.sampled_from(
        ["none", "negative", "constant", "below", "exact", "random"]))
    reach = {"none": None,
             "negative": rng.integers(-2 * n, 0, size=m),
             "constant": np.full(m, data.draw(st.integers(-3, n))),
             "below": np.array(want) - rng.integers(1, 4, size=m),
             "exact": np.array(want, dtype=np.int64),
             "random": rng.integers(-3, 2 * n, size=m)}[hint]
    with unittest.mock.patch.object(engine, "_BATCH", 64):
        got = engine.query_distances(*oracles.csr_of(neighbors), qv, qt,
                                     reach)
    assert got.dtype == np.int64 and got.tolist() == want


def test_verify_bfs_work_is_pinned(monkeypatch):
    # words x levels of every BFS one simple-large-sized verify runs;
    # the parent, from the distinct targets in id order, ran 500
    kernel, runs = engine._bfs_levels, []   # [words, levels] per BFS

    def counted(plan, sources):
        runs.append([-(-len(sources) // 64), 0])
        for item in kernel(plan, sources):
            runs[-1][1] += 1
            yield item

    h = polygon.generate("simple", 2400, 1)
    g = visibility.build_graph(h)
    sch = scheme_simple.preprocess_simple(h, g)
    monkeypatch.setattr(engine, "_bfs_levels", counted)
    assert engine.verify_all_pairs(sch, g, pairs=4000, seed=1).ok
    assert sum(words * levels for words, levels in runs) <= 300
    # the batches run nearest pairs first; the connectivity BFS is not
    # one of them
    levels = [levels for words, levels in runs]
    assert len(levels) > 1 and levels == sorted(levels)


def test_verify_rejects_disconnected_graph(sch_rect):
    class Cut:      # the rectangle's graph split into 0-1 and 2-3
        indptr, indices = oracles.csr_of([[1], [0], [3], [2]])

    with pytest.raises(engine.SchemeBuildError, match="not connected"):
        engine.verify_all_pairs(sch_rect, Cut())


def test_verify_rejects_isolated_vertex(sch_rect):
    class Cut:      # the rectangle's graph without vertex 3's edges
        indptr, indices = oracles.csr_of([[1, 2], [0, 2], [0, 1], []])

    with pytest.raises(engine.SchemeBuildError, match="not connected"):
        engine.verify_all_pairs(sch_rect, Cut())


def test_verify_accepts_a_path_as_connected(sch_rect):
    class Path:     # 0-1-2-3: connected, so the pairs are checked
        indptr, indices = oracles.csr_of(graph_of(4, [(0, 1), (1, 2),
                                                      (2, 3)]))

    rep = engine.verify_all_pairs(sch_rect, Path())
    # the rectangle routes 0-2, 0-3 and 1-3 in one hop, both ways
    assert rep.pairs == 12 and rep.failed == 6


@pytest.mark.parametrize("name", ["double-20", "two-components"])
def test_bfs_distances_match_query_distances(name):
    # from every source, in full and stopped at every target, including
    # the unreachable ones of a graph in two components
    if name == "double-20":
        neighbors = oracles.neighbor_lists(make_double(20, seed=3)[1])
    else:
        neighbors = graph_of(9, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5),
                                 (5, 6), (6, 7), (4, 8)])
    indptr, indices = oracles.csr_of(neighbors)
    n = len(neighbors)
    qv, qt = np.tile(np.arange(n), n), np.repeat(np.arange(n), n)
    want = engine.query_distances(indptr, indices, qv, qt).reshape(n, n)
    assert (want < 0).any() == (name == "two-components")
    for s in range(n):
        got = engine.bfs_distances(indptr, indices, s)
        assert got.dtype == np.int64 and got.tolist() == want[s].tolist()
        for t in range(n):
            stopped = engine.bfs_distances(indptr, indices, s, t)
            assert stopped[t] == want[s, t]
            # levels up to t's, or all of them when t is unreachable
            near = want[s] <= (want[s, t] if want[s, t] >= 0 else n)
            assert stopped[near].tolist() == want[s, near].tolist()


@pytest.mark.parametrize("qv, qt, reach, match", [
    ([-1], [0], None, r"query 0: vertex ids must be in \[0, 3\), got -1"),
    ([0, 1], [2, 3], None, r"query 1: .* got 1 -> 3"),
    ([0.5], [0], None, "query 0: qv has dtype float64"),
    ([0], [True], None, "query 0: qt has dtype bool"),
    ([0, 1], [2], None, "query 1: qv and qt differ in length, 2 against 1"),
    ([0], [2], [1, 1], "query 1: qv, qt and reach differ in length"),
], ids=["negative", "past-n", "fractional", "bool", "lengths", "reach"])
def test_query_distances_rejects_bad_queries(qv, qt, reach, match):
    # a path 0-1-2: a wrapped or truncated id would answer silently
    indptr, indices = oracles.csr_of(graph_of(3, [(0, 1), (1, 2)]))
    with pytest.raises(ValueError, match=match):
        engine.query_distances(indptr, indices, qv, qt, reach)
    assert engine.query_distances(indptr, indices, [], []).tolist() == []


@pytest.mark.parametrize("s, stop, error, match", [
    (True, None, TypeError, "vertex id s must be an integer, got True"),
    (np.True_, None, TypeError, "vertex id s must be an integer"),
    (1.0, None, TypeError, "vertex id s must be an integer, got 1.0"),
    (0, True, TypeError, "vertex id stop must be an integer, got True"),
    (0, 2.0, TypeError, "vertex id stop must be an integer, got 2.0"),
    (-1, None, ValueError, r"vertex id s must be in \[0, 3\), got -1"),
    (3, None, ValueError, r"vertex id s must be in \[0, 3\), got 3"),
    (0, -1, ValueError, r"vertex id stop must be in \[0, 3\), got -1"),
    (0, 3, ValueError, r"vertex id stop must be in \[0, 3\), got 3"),
], ids=["bool", "numpy-bool", "float", "stop-bool", "stop-float", "negative",
        "past-n", "stop-negative", "stop-past-n"])
def test_bfs_distances_rejects_bad_ids(s, stop, error, match):
    # a path 0-1-2: a bool once masked every entry, a stop of -1 ended
    # at the level reaching vertex 2, and an s of -1 or 3 met numpy errors
    indptr, indices = oracles.csr_of(graph_of(3, [(0, 1), (1, 2)]))
    with pytest.raises(error, match=match):
        engine.bfs_distances(indptr, indices, s, stop)
    assert engine.bfs_distances(indptr, indices, np.int64(2),
                                np.int64(0)).tolist() == [2, 1, 0]


def test_bfs_distances_on_a_long_path():
    # one level per vertex, each a frontier of one; stopped at the
    # middle vertex, the levels past it stay unreached
    n = 20000
    indptr, indices = oracles.csr_of(graph_of(n, zip(range(n - 1),
                                                     range(1, n))))
    assert engine.bfs_distances(indptr, indices, 0).tolist() == \
        list(range(n))
    got = engine.bfs_distances(indptr, indices, n - 1, n // 2)
    assert got.tolist() == [-1] * (n // 2) + list(range(n - n // 2))[::-1]


def progress_check(profile):
    # one route of states whose vertices lie at the given distances to
    # t, the last one t's own; -1 when a segmentation reaches the end
    m = len(profile)
    got = engine._stall(np.array(profile), list(range(1, m)) + [m - 1], 0)
    return -1 if got == m - 1 else got


def test_two_step_progress_accepts_segmentation():
    assert progress_check([2, 1, 0]) == -1
    assert progress_check([3, 3, 2, 1, 0]) == -1
    # a greedy per-position reading would reject this one: position 1
    # cannot extend, but the segmentation 0->2->4->5->6 can
    assert progress_check([4, 3, 3, 3, 2, 1, 0]) == -1


def test_two_step_progress_rejects_stall():
    assert progress_check([3, 3, 3, 0]) == 0
    assert progress_check([2, 2, 2, 1, 0]) == 0
    assert progress_check([1, 2, 1, 2, 0]) == 0
    assert progress_check([2, 1, 2, 2, 0]) == 1
    # reached by the two-hop segment 0->2, stuck from 1 and 2 alike
    assert progress_check([3, 2, 2, 2, 2, 0]) == 2


def test_two_step_progress_trivial():
    assert progress_check([0]) == -1
    assert progress_check([1, 0]) == -1


@st.composite
def distance_profiles(draw):
    """Distances to t along a trace of 1 to 300 vertices, built from
    segments: one hop 1 or 2 closer, or two hops ending 1 closer whose
    middle is closer, level or farther; unless the trace is clean, a
    segment may also be one hop that repeats or rises. One byte picks
    each segment."""
    m = draw(st.integers(1, 300))
    clean = draw(st.booleans())
    d = [draw(st.integers(0, 600))]
    for b in draw(st.binary(min_size=m, max_size=m)):
        b %= 6 if clean else 8
        if b < 3:
            d.append(d[-1] - 1 - (b == 2))
        elif b < 6:
            d += [d[-1] + b - 4, d[-1] - 1]
        else:
            d.append(d[-1] + b - 6)
    return d[:m]


@hypothesis.given(batch=st.lists(distance_profiles(), min_size=1, max_size=8))
@hypothesis.settings(max_examples=200, deadline=None)
def test_two_step_progress_matches_oracle(batch):
    # the traces as chains of routing states, each ending in a target
    # state of its own: the stall walk names each one's stall from its
    # first state, and the per-state DP decides each there
    want = [oracles.two_step_progress(d) for d in batch]
    lens = np.array([len(d) for d in batch])
    first = np.cumsum(lens) - lens
    last = first + lens - 1
    nexts = np.arange(1, lens.sum() + 1)
    nexts[last] = last
    left = np.repeat(last, lens) - np.arange(lens.sum())
    d = np.concatenate(batch)
    stalls = [engine._stall(d, nexts, j) for j in first.tolist()]
    assert [-1 if stall == m - 1 else stall
            for stall, m in zip(stalls, lens.tolist())] == want
    good = engine._progress(d, nexts, left)
    assert good[first].tolist() == [stall < 0 for stall in want]


def test_verify_all_pairs_counts(sch_rect, rect):
    h, g = rect
    rep = engine.verify_all_pairs(sch_rect, g)
    assert rep.pairs == 12
    assert rep.ok and rep.max_stretch == 1.0 and rep.mean_stretch == 1.0
    assert rep.kind == "simple" and rep.n == 4
    assert rep.lab_bits == sch_rect.max_label_bits
    assert rep.tab_bits == 1 and rep.hdr_bits == 0


def test_verify_sampled_pairs(sch_dbl, dbl):
    h, g = dbl
    rep = engine.verify_all_pairs(sch_dbl, g, pairs=37, seed=5)
    assert rep.pairs == 37
    assert rep.ok


def test_verify_writes_csv(tmp_path, sch_steps, steps):
    h, g = steps
    out = tmp_path / "report.csv"
    rep = engine.verify_all_pairs(sch_steps, g, report_path=str(out))
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["s", "t", "bfs", "routed", "stretch"]
    assert len(rows) == 1 + rep.pairs
    by_pair = {(r[0], r[1]): r for r in rows[1:]}
    assert by_pair[("2", "6")][2:] == ["3", "3", "1.000"]


@pytest.mark.parametrize("make", [make_simple, make_double])
def test_verify_csv_bfs_matches_queue_bfs(tmp_path, make):
    h, g = make(120, seed=11)
    pre = scheme_simple.preprocess_simple if h.kind == "simple" \
        else scheme_double.preprocess_double
    out = tmp_path / "report.csv"
    engine.verify_all_pairs(pre(h, g), g, pairs=400, seed=3,
                            report_path=str(out))
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 400
    neighbors = oracles.neighbor_lists(g)
    for r in rows:
        want = oracles.bfs(neighbors, int(r["t"]))[int(r["s"])]
        assert int(r["bfs"]) == want


class Detour(HijackedScheme):
    """Steps to the smallest neighbour at every vertex divisible by 5."""

    def step(self, link, table, target, header):
        own = link.own_vid
        if own % 5 == 0:
            return link.ids.index(min(i for i in link.ids if i != own)), None
        return self.inner.step(link, table, target, header)


def rederived(sch, g, pairs=None):
    """The CSV rows and failure records of verify_all_pairs(sch, g) on
    pairs, by default all of them, rebuilt pair by pair from run_route
    and the queue BFS."""
    if pairs is None:
        pairs = [(s, t) for s in range(sch.n) for t in range(sch.n)
                 if s != t]
    neighbors = oracles.neighbor_lists(g)
    dist = {t: oracles.bfs(neighbors, t) for t in {t for _, t in pairs}}
    want_rows, want_failures = [], []
    for s, t in pairs:
        bfs = dist[t][s]
        try:
            trace = engine.run_route(sch, s, t)
        except engine.RoutingError as exc:
            trace, routed = None, -1
            reason = f"{type(exc).__name__}: {exc}"
        else:
            routed = len(trace) - 1
            if sch.kind == "simple":
                reason = "not a shortest path" if routed != bfs else None
            elif routed > 2 * bfs:
                reason = "stretch above 2"
            else:
                stall = oracles.two_step_progress(
                    [dist[t][v] for v in trace])
                reason = (f"progress stalls after position {stall}"
                          if stall >= 0 else None)
        stretch = routed / bfs if routed >= 0 else float("inf")
        want_rows.append([str(s), str(t), str(bfs), str(routed),
                          f"{stretch:.3f}"])
        if reason is not None:
            want_failures.append({"s": s, "t": t, "bfs": bfs,
                                  "routed": routed, "trace": trace,
                                  "reason": reason})
    return want_rows, want_failures


def verified(sch, g, tmp_path):
    """verify_all_pairs(sch, g) on all pairs: the report and its CSV
    rows."""
    out = tmp_path / "report.csv"
    rep = engine.verify_all_pairs(sch, g, report_path=str(out))
    with open(out, newline="") as fh:
        return rep, list(csv.reader(fh))[1:]


@pytest.mark.parametrize("make, preprocess", [
    (make_simple, scheme_simple.preprocess_simple),
    (make_double, scheme_double.preprocess_double),
])
def test_verify_rows_rederived(tmp_path, make, preprocess):
    # every CSV row and failure record, rebuilt pair by pair from
    # run_route and the queue BFS; the detours cause every failure kind
    h, g = make(24, seed=3)
    sch = Detour(preprocess(h, g), at=-1)
    rep, rows = verified(sch, g, tmp_path)
    want_rows, want_failures = rederived(sch, g)
    assert {f["reason"][:8] for f in want_failures} >= (
        {"HopLimit", "not a sh"} if h.kind == "simple"
        else {"HopLimit", "stretch ", "progress"})
    assert rows == want_rows
    assert rep.failures == want_failures


def refuse(link):
    raise engine.RoutingError(f"no way on from {link.own_vid}")


MISROUTES = [
    ("steps", lambda sch: HijackedScheme(
        sch, at=1, port=lambda link: len(link.ids)), "FirewallError"),
    ("steps", lambda sch: HijackedScheme(sch, at=1, port=lambda link: -1),
     "FirewallError"),
    ("steps", lambda sch: HijackedScheme(sch, at=1, port=own_port),
     "FirewallError"),
    ("dbl", lambda sch: HijackedScheme(sch, at=1, port=port_of(3),
                                       header=(999, 999)),
     "HeaderProtocolError"),
    ("steps", lambda sch: PingPong(sch, at=None), "HopLimitExceeded"),
    ("dbl", lambda sch: PingPong(sch, at=None), "HopLimitExceeded"),
    ("steps", lambda sch: HijackedScheme(sch, at=1, port=refuse),
     "RoutingError"),
]
MISROUTE_IDS = ["past-the-end", "negative", "self-hop", "unseen-header",
                "hop-limit-simple", "hop-limit-double", "step-raises"]


@pytest.mark.parametrize("fixture, misroute, kind", MISROUTES,
                         ids=MISROUTE_IDS)
def test_verify_records_routing_errors_as_run_route_raises_them(
        request, tmp_path, fixture, misroute, kind):
    # pair by pair, a route that raises is recorded with run_route's
    # exception as its reason, routed -1 and no trace, and its CSV row
    # reads routed -1 and stretch inf
    h, g = request.getfixturevalue(fixture)
    sch = misroute(request.getfixturevalue(f"sch_{fixture}"))
    rep, rows = verified(sch, g, tmp_path)
    want_rows, want_failures = rederived(sch, g)
    errors = [f for f in want_failures if f["trace"] is None]
    assert errors
    assert {f["reason"].split(":")[0] for f in errors} == {kind}
    assert rows == want_rows
    assert rep.failures == want_failures
    row = {(int(r[0]), int(r[1])): r for r in rows}
    for f in errors:
        assert f["routed"] == -1
        assert row[f["s"], f["t"]][3:] == ["-1", "inf"]


class Laps(HijackedScheme):
    """Bounces a packet between the neighbours 0 and 1, counting the
    bounces left in its header, before it routes on: n + 2 from vertex 0
    and 2n + 5 from vertex 1, when either holds no header. A route from
    0 arrives within 2n hops when the rest is short; one from 1 meets
    0's route in n + 4 hops, then has n + 2 and more to go."""

    def step(self, link, table, target, header):
        own = link.own_vid
        if own in (0, 1) and header != 0:
            left = header or (self.n + 2, 2 * self.n + 5)[own]
            return link.ids.index(1 - own), left - 1
        return self.inner.step(link, table, target, None)


@pytest.mark.parametrize("share", [0, 10**9], ids=["states", "alone"])
@pytest.mark.parametrize("pairs", ["all", 30])
@pytest.mark.parametrize("fixture, misroute", [
    *[case[:2] for case in MISROUTES],
    ("steps", lambda sch: Detour(sch, at=-1)),
    ("dbl", lambda sch: Detour(sch, at=-1)),
    ("steps", lambda sch: Stubborn(sch, at=0)),
    ("dbl", lambda sch: Stubborn(sch, at=0)),
    ("steps", lambda sch: Laps(sch, at=None)),
    ("dbl", lambda sch: Laps(sch, at=None)),
], ids=[*MISROUTE_IDS, "detour-simple", "detour-double", "stubborn-simple",
        "stubborn-double", "laps-simple", "laps-double"])
def test_verify_matches_run_route_pair_by_pair(request, tmp_path, monkeypatch,
                                              fixture, misroute, pairs, share):
    # every CSV row and failure record, on all pairs and on a sample,
    # whether the chunk steps each routing state once per target or (a
    # simple one) walks each pair alone, equals the one rebuilt from
    # run_route; a double chunk steps states at either share
    h, g = request.getfixturevalue(fixture)
    sch = misroute(request.getfixturevalue(f"sch_{fixture}"))
    monkeypatch.setattr(engine, "_SHARE", share)
    out = tmp_path / "report.csv"
    rep = engine.verify_all_pairs(sch, g, pairs=pairs, seed=4,
                                  report_path=str(out))
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    want_rows, want_failures = rederived(
        sch, g, None if pairs == "all" else oracles.sample_pairs(g.n, 30, 4))
    assert rows == want_rows
    assert rep.failures == want_failures
    assert rep.failed == len(want_failures)


@pytest.mark.parametrize("fixture", ["steps", "dbl"])
def test_verify_bounds_a_route_that_joins_a_known_one_late(tmp_path, request,
                                                           fixture):
    # the route from 1 meets the one from 0, stepped before it, after
    # n + 4 hops, each part within 2n hops; together they pass 2n, so
    # the pair fails as run_route raises, with routed -1
    h, g = request.getfixturevalue(fixture)
    sch = Laps(request.getfixturevalue(f"sch_{fixture}"), at=None)
    joined = [t for t in range(2, sch.n)
              if len(engine.run_route(sch, 0, t)) <= 2 * sch.n + 1]
    assert joined
    rep, rows = verified(sch, g, tmp_path)
    row = {(int(r[0]), int(r[1])): r for r in rows}
    failure = {(f["s"], f["t"]): f for f in rep.failures}
    for t in joined:
        with pytest.raises(engine.HopLimitExceeded) as ei:
            engine.run_route(sch, 1, t)
        assert row[1, t][3] == "-1"
        assert failure[1, t]["reason"] == f"HopLimitExceeded: {ei.value}"


@pytest.mark.parametrize("make, preprocess", [
    (make_simple, scheme_simple.preprocess_simple),
    (make_double, scheme_double.preprocess_double),
])
def test_verify_is_the_same_in_small_chunks(tmp_path, monkeypatch, make,
                                            preprocess):
    # chunks of 7 pairs cut the pair order everywhere, failures included;
    # the stretch sum is added in pair order, so not one bit moves
    h, g = make(24, seed=3)
    sch = Detour(preprocess(h, g), at=-1)

    def run(name):
        out = tmp_path / name
        rep = engine.verify_all_pairs(sch, g, report_path=str(out))
        return rep, out.read_text()

    whole, whole_csv = run("whole.csv")
    monkeypatch.setattr(engine, "_CHUNK", 7)
    small, small_csv = run("small.csv")
    for rep in (whole, small):
        assert type(rep.max_stretch) is float
        assert type(rep.mean_stretch) is float
    assert small.max_stretch == whole.max_stretch
    assert small.mean_stretch == whole.mean_stretch
    assert small.failed == whole.failed > 10
    assert small.failures == whole.failures
    assert small_csv == whole_csv
    assert small == whole
    # the record cap falls inside a chunk
    monkeypatch.setattr(engine, "_FAILURE_CAP", 10)
    capped, _ = run("capped.csv")
    assert capped.failed == whole.failed
    assert capped.failures == whole.failures[:10]


def test_verify_rejects_oversized_sample(sch_rect, rect):
    h, g = rect
    assert engine.verify_all_pairs(sch_rect, g, pairs=12, seed=0).pairs == 12
    assert engine.verify_all_pairs(sch_rect, g, pairs=np.int64(12),
                                   seed=0).pairs == 12
    with pytest.raises(ValueError, match="'all'"):
        engine.verify_all_pairs(sch_rect, g, pairs=13, seed=0)
    with pytest.raises(ValueError, match="'all'"):
        engine.verify_all_pairs(sch_rect, g, pairs=10**11, seed=0)


@pytest.mark.parametrize("pairs", [0.9, 2.5, 3.0, "7", "all ", None,
                                   True, False, np.True_])
def test_verify_rejects_a_sample_size_that_is_not_an_integer(sch_rect, rect,
                                                            pairs):
    # int() once made 0.9 a sample of 0 pairs, 2.5 one of 2 and "7" one
    # of 7; operator.index made True a sample of one pair
    h, g = rect
    with pytest.raises(engine.SampleSizeError) as ei:
        engine.verify_all_pairs(sch_rect, g, pairs=pairs, seed=0)
    assert repr(pairs) in str(ei.value)


def test_verify_rejects_negative_sample(sch_rect, rect):
    h, g = rect
    assert engine.verify_all_pairs(sch_rect, g, pairs=0, seed=0).pairs == 0
    with pytest.raises(engine.SampleSizeError, match="negative"):
        engine.verify_all_pairs(sch_rect, g, pairs=-3, seed=0)
    assert list(engine._sample_pairs(10, -3, 1)) == []


def joined(chunks, cap=None):
    """The pairs of chunks of two int64 arrays each, as (s, t) tuples of
    Python ints, after checking that no chunk holds more than cap."""
    out = []
    for ss, ts in chunks:
        assert ss.dtype == ts.dtype == np.int64
        assert len(ss) == len(ts) and 0 < len(ss) <= (cap or engine._CHUNK)
        out.extend(zip(ss.tolist(), ts.tolist()))
    return out


@pytest.mark.parametrize("n, k", [(2, 50), (3, 40), (50, 300)])
def test_sample_pairs_match_one_shot_draws(n, k):
    # n = 2 keeps about half the draws, so the sample takes several rounds
    for seed in (0, 1, 4, 9):
        got = joined(engine._sample_pairs(n, k, seed))
        assert got == oracles.sample_pairs(n, k, seed)


@pytest.mark.parametrize("k", [4000, 10000])
def test_sample_pairs_of_benchmark_size_match_one_shot_draws(k):
    assert joined(engine._sample_pairs(1000, k, 7)) == \
        oracles.sample_pairs(1000, k, 7)


def test_sample_pairs_over_several_chunks(monkeypatch):
    # rounds of at most _CHUNK draws each still give k pairs, s != t,
    # the same for the same seed, in chunks of exactly _CHUNK but the
    # last; while a round draws all the pairs still wanted, plus 8, the
    # rounds concatenate to the one-shot sample
    monkeypatch.setattr(engine, "_CHUNK", 16)
    chunks = list(engine._sample_pairs(3, 100, 2))
    assert [len(ss) for ss, _ in chunks] == [16] * 6 + [4]
    got = joined(chunks, 16)
    assert len(got) == 100 and all(s != t for s, t in got)
    assert all(0 <= s < 3 and 0 <= t < 3 for s, t in got)
    assert joined(engine._sample_pairs(3, 100, 2)) == got
    monkeypatch.setattr(engine, "_CHUNK", 64)
    for n, k, seed in [(2, 40, 0), (3, 50, 1), (50, 56, 4)]:
        chunks = list(engine._sample_pairs(n, k, seed))
        assert joined(chunks, 64) == oracles.sample_pairs(n, k, seed)
    # at n = 2 about half the draws are kept, so the 40 pairs take more
    # than one round, sources then targets each, and arrive as one chunk
    sizes, make = [], np.random.default_rng

    class Spy:
        def __init__(self, seed):
            self.rng = make(seed)

        def integers(self, low, high, size):
            sizes.append(size)
            return self.rng.integers(low, high, size=size)

    monkeypatch.setattr(np.random, "default_rng", Spy)
    assert len(list(engine._sample_pairs(2, 40, 0))) == 1
    assert len(sizes) > 2 and sizes[::2] == sizes[1::2]


@pytest.mark.parametrize("n, chunk", [(1, 16), (2, 16), (5, 3), (5, 20),
                                      (5, 64), (40, 7), (40, 39)])
def test_all_pairs_are_s_major_blocks(monkeypatch, n, chunk):
    # blocks of exactly _CHUNK pairs, the last one shorter, cut anywhere
    # in a source's row
    monkeypatch.setattr(engine, "_CHUNK", chunk)
    blocks = list(engine._all_pairs(n))
    assert [len(ss) for ss, _ in blocks[:-1]] == [chunk] * (len(blocks) - 1)
    assert joined(blocks, chunk) == [(s, t) for s in range(n)
                                     for t in range(n) if s != t]


def test_verify_sampled_pairs_are_the_one_shot_sample(tmp_path):
    h = polygon.normalize(polygon.generate("double", 40, seed=2))
    g = visibility.build_graph(h)
    out = tmp_path / "pairs.csv"
    engine.verify_all_pairs(scheme_double.preprocess_double(h, g), g,
                            pairs=500, seed=11, report_path=str(out))
    with open(out) as fh:
        rows = list(csv.reader(fh))[1:]
    want = oracles.sample_pairs(g.n, 500, 11)
    assert [(int(r[0]), int(r[1])) for r in rows] == want


def test_sample_pairs_memory_is_bounded():
    # a one-shot sample of 10^7 pairs holds ~10^7 tuples, over 1 GiB
    tracemalloc.start()
    try:
        ss, ts = next(engine._sample_pairs(1000, 10**7, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ss) == len(ts) <= engine._CHUNK and (ss != ts).all()
    assert peak < 16 * 2**20, f"sampler peak {peak / 2**20:.1f} MiB"


def test_verify_memory_is_bounded():
    # a dense targets x n float64 table plus its int64 copy: ~126 MiB
    h = polygon.generate("simple", 5000, seed=1)
    g = visibility.build_graph(h)
    sch = scheme_simple.preprocess_simple(h, g)
    tracemalloc.start()
    try:
        rep = engine.verify_all_pairs(sch, g, pairs=2000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.pairs == 2000
    assert peak < 16 * 2**20, f"verify peak {peak / 2**20:.1f} MiB"


class Stubborn(HijackedScheme):
    """Every step hops to the lowest neighbor: port 0 or 1."""

    def step(self, link, table, target, header):
        own = link.own_vid
        nxt = min(i for i in link.ids if i != own)
        return link.ids.index(nxt), None


def test_verify_records_misroute(sch_steps, steps):
    h, g = steps
    rep = engine.verify_all_pairs(Stubborn(sch_steps, at=0), g)
    assert not rep.ok
    assert any(f["routed"] == -1 or f["reason"] for f in rep.failures)


def test_verify_counts_failures_past_the_record_cap():
    # 1000 failures are recorded; the summary counts them all
    h, g = make_simple(60, seed=3)
    sch = scheme_simple.preprocess_simple(h, g)
    rep = engine.verify_all_pairs(Stubborn(sch, at=0), g)
    assert (rep.pairs, rep.failed, len(rep.failures)) == (3540, 3338, 1000)
    assert rep.summary_lines()[-1] == "failures=3338"
    assert all(f["s"] >= 0 for f in rep.failures)


def test_summary_lines(sch_rect, rect):
    h, g = rect
    rep = engine.verify_all_pairs(sch_rect, g)
    lines = rep.summary_lines()
    assert lines[0] == "pairs=12"
    assert lines[1] == "maxStretch=1.000"
    assert lines[-1] == "failures=0"


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(histroute.__file__))
    probe = ("import sys, histroute; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


@st.composite
def small_dumps(draw):
    """(kind, dump) of either kind with n <= 5, packed from drawn arrays:
    symmetric neighbor rows, each ascending, and every value in range:
    simple breakpoints in [-1, n), double vertices off the base line,
    numbers in [-3, 3], interval bounds that cover the neighbors' x,
    bits 0 or 1. Then it is left whole, or one value of one array is
    set far out of range or anywhere in [-3, 3], or the bytes are cut
    short, or one byte is flipped."""
    kind = draw(st.sampled_from(["simple", "double"]))
    n = draw(st.integers(1, 5))
    small = st.integers(-3, 3)
    nbrs = [[] for _ in range(n)]
    for u, v in itertools.combinations(range(n), 2):
        if draw(st.booleans()):
            nbrs[u].append(v)
            nbrs[v].append(u)
    arrays = {"indptr": np.cumsum([0, *map(len, nbrs)]),
              "indices": [v for row in nbrs for v in row]}
    bits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if kind == "simple":
        arrays.update(br=draw(st.lists(st.integers(-1, n - 1), min_size=n,
                                       max_size=n)), bit=bits)
    else:
        x = draw(st.lists(small, min_size=n, max_size=n))
        y = draw(st.lists(small.filter(bool), min_size=n, max_size=n))
        lo, hi = zip(*((min(x[u] for u in [v, *nbrs[v]])
                        - draw(st.integers(0, 1)),
                        max(x[u] for u in [v, *nbrs[v]])
                        + draw(st.integers(0, 1))) for v in range(n)))
        arrays.update(x=x, y=y, ilo=lo, ihi=hi, **{
            f: draw(st.lists(small, min_size=n, max_size=n))
            for f in scheme_double._TABLE_FIELDS[:6]}, bit_bottom=bits)
    arrays = {name: list(a) for name, a in arrays.items()}
    how = draw(st.sampled_from(["whole", "value", "cut", "flip"]))
    if how == "value":
        name = draw(st.sampled_from([k for k, a in arrays.items() if a]))
        arrays[name][draw(st.integers(0, len(arrays[name]) - 1))] = draw(
            st.sampled_from([-2**63, 2**62, 2**63 - 1]) | small)
    data = pack(kind, n, arrays)
    if how == "cut":
        data = data[:draw(st.integers(0, len(data) - 1))]
    elif how == "flip":
        at = draw(st.integers(0, len(data) - 1))
        data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) \
            + data[at + 1:]
    return kind, data


@hypothesis.given(case=small_dumps())
@hypothesis.settings(max_examples=400, deadline=None)
def test_fuzzed_dump_reads_then_routes_or_raises(case):
    # the reader rejects a dump with DumpError, or every route on it
    # ends in a trace or a RoutingError
    kind, data = case
    module = scheme_simple if kind == "simple" else scheme_double
    try:
        sch = module.parse_dump(data)
    except dump.DumpError:
        return
    for s, t in itertools.product(range(sch.n), repeat=2):
        try:
            engine.run_route(sch, s, t)
        except engine.RoutingError:
            pass


def test_fuzzed_dumps_load_double_schemes():
    # the fuzz above routes on double schemes too: in a derandomized run
    # of the strategy, at least half of the double dumps load (129 of
    # 200 with hypothesis 6.155)
    seen = collections.Counter()

    @hypothesis.given(case=small_dumps())
    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True,
                         database=None)
    def count(case):
        kind, data = case
        module = scheme_simple if kind == "simple" else scheme_double
        try:
            module.parse_dump(data)
            seen[kind, True] += 1
        except dump.DumpError:
            seen[kind, False] += 1

    count()
    loaded, failed = seen["double", True], seen["double", False]
    assert loaded >= (loaded + failed) / 2, seen


def grid_pairs(n):
    """The fixed pair grid the golden trace digests route."""
    return [(s, t) for s in range(0, n, 17) for t in range(5, n, 23)]


def trace_digest(sch):
    """sha256 of the traces of a fixed pair grid, one line a route."""
    traces = (engine.run_route(sch, s, t) for s, t in grid_pairs(sch.n))
    text = "\n".join(" ".join(map(str, trace)) for trace in traces)
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN = [
    (make_simple, 500, 1,
     "77e3064e66721611c529e40e9266fd296319cb269261dc2e797b8cf474bfe428",
     "7df9c006a6c8b99e660209c63e1777614b9b0963843625a292e8bccf65a4c820"),
    (make_simple, 500, 2,
     "c7b9c30451b04f034a1731756c7f59f95030b3f77e79881966a86fac9fb7368c",
     "6f6dffa16304d567d5a400432641d90c745230867c8e8a4faceb7160990262c4"),
    (make_simple, 500, 3,
     "58db90f4c4247878c561c82f6c8563ad47414334f3a9bd763e698816c9c48170",
     "b1fe3b77a160fae225bd188e588cea366541d5eed1a1f0f9d23e6117100192e9"),
    (make_double, 500, 1,
     "dfd25a4f5825f3a1e3d25ed97374bb4cb3db7a8e931ee349541c7a17db1198e8",
     "1844461e4abb8bc7ea777ba71a6ba87fbadbe5026749a25b81277288ca7b02bc"),
    (make_double, 500, 2,
     "289c9a6d4ad16c0465fd30adb20173e26878f640d0be165bba2c4a085d462b0a",
     "849107f4f9136701af05936ac4fb92cebbee862a40fdb5b4a0e1c20e38ff36c8"),
    (make_double, 500, 3,
     "f32a950d7b18229bb10fb7cdef20174de7a2f68bd9e8c591ba8dc3cb50ede44f",
     "a41b7ce7b8b4f539133b426e64053c49c091664180b4d480e5eacb6a46f85de3"),
    (make_simple, staircase_text(300), 0,
     "ec1a14660f141858fb86b7d4490b030e96be9f3e6a96dd122d6f1a3f7d795b05",
     "ba1d47b744ddd1cd889926f742f077ee10779f9a1b5d9a45ee3be3ca5451d8b0"),
]
GOLDEN_IDS = ["simple-1", "simple-2", "simple-3", "double-1", "double-2",
              "double-3", "staircase-300"]


@pytest.mark.parametrize("make, arg, seed, digest, traces", GOLDEN,
                         ids=GOLDEN_IDS)
def test_dump_matches_golden_hash(make, arg, seed, digest, traces):
    # a change meant to keep every output must keep these dumps byte for
    # byte and the routes hop for hop, on the built scheme and on the
    # one read back; writing that one again changes nothing
    h, g = make(arg, seed)
    module = scheme_simple if h.kind == "simple" else scheme_double
    preprocess = getattr(module, f"preprocess_{h.kind}")
    sch = preprocess(h, g)
    data = dump.write(sch)
    assert hashlib.sha256(data).hexdigest() == digest
    again = module.parse_dump(data)
    assert dump.write(again) == data
    assert trace_digest(sch) == traces
    assert trace_digest(again) == traces


def verify_digest(sch, g, pairs, path):
    """sha256 of verify_all_pairs' report fields and its CSV."""
    rep = engine.verify_all_pairs(sch, g, pairs=pairs, seed=5,
                                  report_path=str(path))
    fields = (rep.kind, rep.n, rep.pairs, rep.max_stretch.hex(),
              rep.mean_stretch.hex(), rep.lab_bits, rep.tab_bits,
              rep.hdr_bits, rep.failed, repr(rep.failures))
    text = repr(fields) + "\n" + path.read_text()
    return hashlib.sha256(text.encode()).hexdigest()


VERIFY_GOLDEN = [
    (make_simple, 4000, False,
     "2960cf2e01caa5e54d3cd90f31e041910d04eeefbfce908af2d086595404fbb4"),
    (make_simple, "all", False,
     "9f6450f2f09b35639c0326392947a16207a8c0a8def187bc5344c67ce09dec43"),
    (make_simple, 4000, True,
     "02482b5ebc0c563a5cf034648003bd00d4e288bdd54bb0b845e1edf727bcb329"),
    (make_double, 4000, False,
     "70558ecc61ac0a913a1bff4347ea799c5b97286b528eb0960067f5029c86828a"),
    (make_double, "all", False,
     "426b77a416f68892068e4ec3a7218c7810150e5a2c17730569b9051af8cfc8e1"),
    (make_double, 4000, True,
     "463a398a17de3166daafb96b2f6e8eba69bce74c3c926437dcc4d70152f1ae96"),
]


@pytest.mark.parametrize("make, pairs, detour, digest", VERIFY_GOLDEN,
                         ids=["simple-4000", "simple-all", "simple-detour",
                              "double-4000", "double-all", "double-detour"])
def test_verify_matches_golden_hash(tmp_path, make, pairs, detour, digest):
    # the sampled pairs, the pair blocks of "all", the CSV rows, the
    # failure records and every report field, stretch sums to the last
    # bit, stay as they were
    h, g = make(300, 4)
    module = scheme_simple if h.kind == "simple" else scheme_double
    sch = getattr(module, f"preprocess_{h.kind}")(h, g)
    if detour:
        sch = Detour(sch, at=-1)
    assert verify_digest(sch, g, pairs, tmp_path / "r.csv") == digest


def built(make, arg, seed):
    h, g = make(arg, seed)
    module = scheme_simple if h.kind == "simple" else scheme_double
    return getattr(module, f"preprocess_{h.kind}")(h, g)


@pytest.mark.parametrize("make, arg, seed",
                         [case[:3] for case in GOLDEN], ids=GOLDEN_IDS)
def test_step_reads_only_local_inputs(make, arg, seed):
    # replaying every hop from the module-level step, handed no scheme,
    # only the link, table, target label and header, gives the traces
    sch = built(make, arg, seed)
    step = (scheme_simple.route_step_simple if sch.kind == "simple"
            else scheme_double.route_step_double)
    assert type(sch).__dict__["step"] is step
    for s, t in grid_pairs(sch.n):
        want = engine.run_route(sch, s, t)
        trace, header, target = want[:1], None, sch.label_of(t)
        for _ in want[1:]:
            link = sch.links[trace[-1]]
            port, header = step(None, link, sch.tables[trace[-1]], target,
                                header)
            trace.append(link.ids[port])
        assert trace == want


class StepProbe:
    """A scheme that passes every attribute through to the one it wraps,
    as the benchmark's header probe does, but its own step: that counts
    the calls and the headers they emit."""

    def __init__(self, scheme):
        self.scheme = scheme
        self.calls = self.header_hops = 0

    def __getattr__(self, name):
        return getattr(self.scheme, name)

    def step(self, link, table, target, header):
        port, out = self.scheme.step(link, table, target, header)
        self.calls += 1
        self.header_hops += out is not None
        return port, out


@contextlib.contextmanager
def counted_steps():
    """Install a plain-function wrapper as each scheme class's step, as
    the benchmark's traced run does, and put the originals back; yields
    [calls, hops that emit a header]."""
    counts = [0, 0]
    classes = (scheme_simple.SimpleScheme, scheme_double.DoubleScheme)
    saved = [(cls, cls.__dict__["step"]) for cls in classes]

    def wrap(fn):
        def wrapper(*args):
            port, out = fn(*args)
            counts[0] += 1
            counts[1] += out is not None
            return port, out
        return wrapper

    try:
        for cls in classes:
            cls.step = wrap(cls.step)
        yield counts
    finally:
        for cls, original in saved:
            cls.step = original


@pytest.mark.parametrize("make", [make_simple, make_double])
def test_step_hooks_see_every_hop(monkeypatch, make):
    # the benchmark's probe and traced run replace step; either way the
    # routes stay the same, run_route makes one step call a hop, and the
    # header hops of a double scheme are counted; verify, which reads
    # step once a chunk, makes one call a distinct routing state per
    # target, exactly, and counts those that emit a header
    h, g = make(500, 1)
    sch = built(make, 500, 1)
    pairs = grid_pairs(sch.n)
    bare = [engine.run_route(sch, s, t) for s, t in pairs]
    hops = sum(max(len(trace) - 1, 0) for trace in bare)
    probe = StepProbe(sch)
    assert [engine.run_route(probe, s, t) for s, t in pairs] == bare
    assert probe.calls == hops
    assert (probe.header_hops > 0) == (sch.kind == "double")
    with counted_steps() as counts:
        assert [engine.run_route(sch, s, t) for s, t in pairs] == bare
    assert counts == [hops, probe.header_hops]
    assert [engine.run_route(sch, s, t) for s, t in pairs] == bare
    # verify on the grid pairs with s != t, about 30 a target, in one
    # chunk, so each target's routes share one memo; then on a chunk of
    # about one pair a target, every target's but one, whose routes from
    # ten sources merge: a double chunk still steps each state once, a
    # simple one walks each pair alone, one call a hop
    n, t = sch.n, sch.n // 2
    sparse = [((7 * u + 3) % n, u) for u in range(n)
              if (7 * u + 3) % n != u] + [(s, t) for s in range(1, n, 50)]
    for chunk in ([(s, t) for s, t in pairs if s != t], sparse):
        hops = sum(len(engine.run_route(sch, s, t)) - 1 for s, t in chunk)
        states = oracles.routing_states(sch, chunk)
        assert states[0] < hops and (states[1] > 0) == (sch.kind == "double")
        shared = len(chunk) >= engine._SHARE * len({t for _, t in chunk})
        assert shared == (chunk is not sparse)
        if not shared and sch.kind == "simple":
            states = (hops, 0)
        monkeypatch.setattr(engine, "_sample_pairs", lambda n, k, seed: iter(
            [tuple(np.array(chunk[:k], dtype=np.int64).T)]))
        verifier = StepProbe(sch)
        rep = engine.verify_all_pairs(verifier, g, pairs=len(chunk))
        assert rep.ok and rep.pairs == len(chunk)
        assert (verifier.calls, verifier.header_hops) == states
        with counted_steps() as counts:
            assert engine.verify_all_pairs(sch, g, pairs=len(chunk)) == rep
        assert counts == list(states)
