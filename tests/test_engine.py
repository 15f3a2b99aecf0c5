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
from conftest import make_double, make_simple, staircase_text


class HijackedScheme:
    """Wraps a real scheme, sharing its link and table lists, and
    misbehaves at exactly one vertex: there its step returns the port
    port(link) and the given header."""

    def __init__(self, inner, at, port=None, header=None):
        self.inner = inner
        self.at = at
        self.port = port
        self.header = header
        self.kind = inner.kind
        self.n = inner.n
        self.links = inner.links
        self.tables = inner.tables
        self.max_label_bits = inner.max_label_bits
        self.max_table_bits = inner.max_table_bits
        self.max_header_bits = inner.max_header_bits

    def label_of(self, v):
        return self.inner.label_of(v)

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


def test_hop_limit(sch_steps):
    class PingPong(HijackedScheme):
        def step(self, link, table, target, header):
            own = link.own_vid
            return link.ids.index(0 if own != 0 else 1), None

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
    # after the connectivity BFS, the batches run nearest pairs first
    levels = [levels for words, levels in runs[1:]]
    assert len(levels) > 1 and levels == sorted(levels)


def test_verify_rejects_disconnected_graph(sch_rect):
    class Cut:      # the rectangle's graph split into 0-1 and 2-3
        indptr, indices = oracles.csr_of([[1], [0], [3], [2]])

    with pytest.raises(engine.SchemeBuildError, match="not connected"):
        engine.verify_all_pairs(sch_rect, Cut())


def progress_check(profile):
    # one trace whose vertices lie at the given distances to t
    [got] = engine.check_two_step_progress(np.array(profile), [len(profile)])
    return got


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
    assert engine.check_two_step_progress([], []).tolist() == []


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
    # traces of mixed lengths in one call, each against the walk along it
    got = engine.check_two_step_progress(np.concatenate(batch),
                                         [len(d) for d in batch])
    assert got.tolist() == [oracles.two_step_progress(d) for d in batch]


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


@pytest.mark.parametrize("make, preprocess", [
    (make_simple, scheme_simple.preprocess_simple),
    (make_double, scheme_double.preprocess_double),
])
def test_verify_rows_rederived(tmp_path, make, preprocess):
    # every CSV row and failure record, rebuilt pair by pair from
    # run_route and the queue BFS; the detours cause every failure kind
    h, g = make(24, seed=3)
    sch = Detour(preprocess(h, g), at=-1)
    out = tmp_path / "report.csv"
    rep = engine.verify_all_pairs(sch, g, report_path=str(out))
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    neighbors = oracles.neighbor_lists(g)
    dist = [oracles.bfs(neighbors, t) for t in range(h.n)]
    want_rows, want_failures = [], []
    for s, t in [(s, t) for s in range(h.n) for t in range(h.n) if s != t]:
        bfs = dist[t][s]
        try:
            trace = engine.run_route(sch, s, t)
        except engine.RoutingError as exc:
            trace, routed = None, -1
            reason = f"{type(exc).__name__}: {exc}"
        else:
            routed = len(trace) - 1
            if h.kind == "simple":
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
    assert {f["reason"][:8] for f in want_failures} >= (
        {"HopLimit", "not a sh"} if h.kind == "simple"
        else {"HopLimit", "stretch ", "progress"})
    assert rows == want_rows
    assert rep.failures == want_failures


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
    with pytest.raises(ValueError, match="'all'"):
        engine.verify_all_pairs(sch_rect, g, pairs=13, seed=0)
    with pytest.raises(ValueError, match="'all'"):
        engine.verify_all_pairs(sch_rect, g, pairs=10**11, seed=0)


def test_verify_rejects_negative_sample(sch_rect, rect):
    h, g = rect
    assert engine.verify_all_pairs(sch_rect, g, pairs=0, seed=0).pairs == 0
    with pytest.raises(engine.SampleSizeError, match="negative"):
        engine.verify_all_pairs(sch_rect, g, pairs=-3, seed=0)
    assert list(engine._sample_pairs(10, -3, 1)) == []


@pytest.mark.parametrize("n, k", [(2, 50), (3, 40), (50, 300)])
def test_sample_pairs_match_one_shot_draws(n, k):
    # n = 2 keeps about half the draws, so the sample takes several rounds
    for seed in (0, 1, 4, 9):
        got = list(engine._sample_pairs(n, k, seed))
        assert got == oracles.sample_pairs(n, k, seed)


@pytest.mark.parametrize("k", [4000, 10000])
def test_sample_pairs_of_benchmark_size_match_one_shot_draws(k):
    assert list(engine._sample_pairs(1000, k, 7)) == \
        oracles.sample_pairs(1000, k, 7)


def test_sample_pairs_over_several_chunks(monkeypatch):
    # rounds of at most _CHUNK draws each still give k pairs, s != t,
    # the same for the same seed
    monkeypatch.setattr(engine, "_CHUNK", 16)
    got = list(engine._sample_pairs(3, 100, 2))
    assert len(got) == 100 and all(s != t for s, t in got)
    assert all(0 <= s < 3 and 0 <= t < 3 for s, t in got)
    assert list(engine._sample_pairs(3, 100, 2)) == got


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
        first = next(engine._sample_pairs(1000, 10**7, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first[0] != first[1]
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
    """A dump of either kind with n <= 5 and symmetric neighbor rows in
    any order. Every number field is drawn in range: simple labels name
    their own row and maybe a breakpoint in [0, n); double rows lie off
    the base line, numbers in [-3, 3], with interval bounds that cover
    their neighbors' x. Then at most one number of the dump is
    poisoned: set far outside int64, or anywhere in [-3, 3]."""
    kind = draw(st.sampled_from(["simple", "double"]))
    n = draw(st.integers(1, 5))
    small = st.integers(-3, 3)
    pairs = list(itertools.combinations(range(n), 2))
    nbrs = [[] for _ in range(n)]
    for (u, v), edge in zip(pairs, draw(st.lists(
            st.booleans(), min_size=len(pairs), max_size=len(pairs)))):
        if edge:
            nbrs[u].append(v)
            nbrs[v].append(u)
    if kind == "simple":    # one field: the id, then maybe a breakpoint
        rows = [[[v, *draw(st.lists(st.integers(0, n - 1), max_size=1))]]
                for v in range(n)]
    else:                   # coordinates, interval bounds, table fields
        xy = [[draw(small), draw(small.filter(bool))] for _ in range(n)]
        rows = []
        for v in range(n):
            xs = [xy[u][0] for u in [v, *nbrs[v]]]
            bounds = [min(xs) - draw(st.integers(0, 1)),
                      max(xs) + draw(st.integers(0, 1))]
            rows.append([xy[v], bounds,
                         draw(st.lists(small, min_size=6, max_size=6))])
    spots = [(field, j) for row in rows for field in row
             for j in range(len(field))]
    poison = draw(st.none() | st.tuples(
        st.integers(0, len(spots) - 1),
        st.sampled_from([-2**63, 2**62, 10**23]) | small))
    if poison is not None:
        field, j = spots[poison[0]]
        field[j] = poison[1]
    lines = [f"scheme {kind} {n}"]
    for v in range(n):
        ids = draw(st.permutations(nbrs[v]))
        lines.append(" | ".join([str(v), *(" ".join(map(str, field))
                                           for field in rows[v]),
                                 draw(st.sampled_from("01")),
                                 " ".join(map(str, ids))]))
    return kind, "\n".join(lines) + "\n"


@hypothesis.given(case=small_dumps())
@hypothesis.settings(max_examples=400, deadline=None)
def test_fuzzed_dump_reads_then_routes_or_raises(case):
    # the reader rejects a dump with ValueError, or every route on it
    # ends in a trace or a RoutingError
    kind, text = case
    module = scheme_simple if kind == "simple" else scheme_double
    try:
        sch = module.parse_dump(text)
    except ValueError:
        return
    for s, t in itertools.product(range(sch.n), repeat=2):
        try:
            engine.run_route(sch, s, t)
        except engine.RoutingError:
            pass


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
     "37d15e2a99ad75c45eeeb700bf68c6124fc070a654af263bacfd8a3ed44d6c0d",
     "7df9c006a6c8b99e660209c63e1777614b9b0963843625a292e8bccf65a4c820"),
    (make_simple, 500, 2,
     "93229f40c7e2af94b7985cd255f2352b31760182879d35a3e22cfd5f755498f4",
     "6f6dffa16304d567d5a400432641d90c745230867c8e8a4faceb7160990262c4"),
    (make_simple, 500, 3,
     "d1984a01e734fffc49081b09bbb1267d67374c38780ab71d77597d2a179cc5e2",
     "b1fe3b77a160fae225bd188e588cea366541d5eed1a1f0f9d23e6117100192e9"),
    (make_double, 500, 1,
     "4c8c9a68d1a64361a0e0aa7105e88bbda23af2212bb5066e1cbf20e515a89e67",
     "1844461e4abb8bc7ea777ba71a6ba87fbadbe5026749a25b81277288ca7b02bc"),
    (make_double, 500, 2,
     "985ff12e33aa78802036ebf4b562eaf4df4b4f679177bb68b4bada8dad629940",
     "849107f4f9136701af05936ac4fb92cebbee862a40fdb5b4a0e1c20e38ff36c8"),
    (make_double, 500, 3,
     "585517d3168c35c3df59ecd30b5038a64f9081ff93e112e259c5d905390ca94f",
     "a41b7ce7b8b4f539133b426e64053c49c091664180b4d480e5eacb6a46f85de3"),
    (make_simple, staircase_text(300), 0,
     "8f9901d914e39888cb22e7c99790a3449b30f0690144375208eae0b8c236dbef",
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
    text = dump.write(sch)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    again = module.parse_dump(text)
    assert dump.write(again) == text
    assert trace_digest(sch) == traces
    assert trace_digest(again) == traces


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
def test_step_hooks_see_every_hop(make):
    # the benchmark's probe and traced run replace step; either way the
    # routes stay the same, one step call is made a hop, and the header
    # hops of a double scheme are counted
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
