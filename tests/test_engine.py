import csv
import hashlib
import itertools
import os
import subprocess
import sys
import tracemalloc

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
    """Wraps a real scheme and misbehaves at exactly one vertex: there
    its step returns the port port(link) and the given header."""

    def __init__(self, inner, at, port=None, header=None):
        self.inner = inner
        self.at = at
        self.port = port
        self.header = header
        self.kind = inner.kind
        self.n = inner.n
        self.max_label_bits = inner.max_label_bits
        self.max_table_bits = inner.max_table_bits
        self.max_header_bits = inner.max_header_bits

    def label_of(self, v):
        return self.inner.label_of(v)

    def table_of(self, v):
        return self.inner.table_of(v)

    def link_of(self, v):
        return self.inner.link_of(v)

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
    assert sch_steps.link_of(1).ids == (0, 1, 2, 3)
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

    with pytest.raises(engine.HopLimitExceeded, match="after 32 hops"):
        engine.run_route(PingPong(sch_steps, at=0), 2, 6)


def test_distances_rect(rect):
    h, g = rect
    assert engine.distances(g.indptr, g.indices, [0]).tolist() == \
        [[0, 1, 1, 1]]


def test_distances_steps(steps):
    h, g = steps
    d = engine.distances(g.indptr, g.indices, [2, 6])
    assert d[0, 6] == 3 and d[0, 2] == 0 and d[0, 0] == 1
    assert d[1, 2] == 3


def test_distances_unreachable():
    # 0 - 1   2 (isolated), read from plain lists
    d = engine.distances(*oracles.csr_of([[1], [0], []]), [0, 2])
    assert d.tolist() == [[0, 1, -1], [-1, -1, 0]]


def assert_matches_queue_bfs(neighbors, sources):
    d = engine.distances(*oracles.csr_of(neighbors), sources)
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


def test_verify_rejects_disconnected_graph(sch_rect):
    class Cut:      # the rectangle's graph split into 0-1 and 2-3
        indptr, indices = oracles.csr_of([[1], [0], [3], [2]])

    with pytest.raises(engine.SchemeBuildError, match="not connected"):
        engine.verify_all_pairs(sch_rect, Cut())


def progress_check(profile):
    # trace visiting vertices 0..m-1 whose distances to t are profile
    drow = np.array(profile)
    return engine.check_two_step_progress(
        [drow[v] for v in range(len(profile))])


def test_two_step_progress_accepts_segmentation():
    assert progress_check([2, 1, 0]) is None
    assert progress_check([3, 3, 2, 1, 0]) is None
    # a greedy per-position reading would reject this one: position 1
    # cannot extend, but the segmentation 0->2->4->5->6 can
    assert progress_check([4, 3, 3, 3, 2, 1, 0]) is None


def test_two_step_progress_rejects_stall():
    assert progress_check([3, 3, 3, 0]) is not None
    assert progress_check([2, 2, 2, 1, 0]) is not None
    assert progress_check([1, 2, 1, 2, 0]) is not None


def test_two_step_progress_trivial():
    assert progress_check([0]) is None
    assert progress_check([1, 0]) is None


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
                reason = engine.check_two_step_progress(
                    [dist[t][v] for v in trace])
            if routed > 2 * h.n:
                reason = "route longer than 2n hops"
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


def test_verify_rejects_oversized_sample(sch_rect, rect):
    h, g = rect
    assert engine.verify_all_pairs(sch_rect, g, pairs=12, seed=0).pairs == 12
    with pytest.raises(ValueError, match="'all'"):
        engine.verify_all_pairs(sch_rect, g, pairs=13, seed=0)
    with pytest.raises(ValueError, match="'all'"):
        engine.verify_all_pairs(sch_rect, g, pairs=10**11, seed=0)


@pytest.mark.parametrize("n, k, chunk", [
    (2, 50, 1), (2, 50, 7), (3, 40, 5), (50, 300, 64), (50, 300, 1 << 16),
])
def test_sample_pairs_match_one_shot_draws(n, k, chunk):
    # n = 2 keeps about half the draws, so the sample takes several rounds
    for seed in (0, 1, 4, 9):
        got = list(engine._sample_pairs(n, k, seed, chunk=chunk))
        assert got == oracles.sample_pairs(n, k, seed)


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


def test_verify_records_misroute(sch_steps, steps):
    h, g = steps

    class Stubborn(HijackedScheme):
        def step(self, link, table, target, header):
            own = link.own_vid
            nxt = min(i for i in link.ids if i != own)
            return link.ids.index(nxt), None

    rep = engine.verify_all_pairs(Stubborn(sch_steps, at=0), g)
    assert not rep.ok
    assert any(f["routed"] == -1 or f["reason"] for f in rep.failures)


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
    """A dump of either kind with n <= 5, every number field in [-3, 3]
    or now and then far outside int64, symmetric neighbor rows in any
    order, and simple labels that name their own row."""
    kind = draw(st.sampled_from(["simple", "double"]))
    n = draw(st.integers(1, 5))
    field = (st.integers(-3, 3) | st.sampled_from([-2**63, 2**62, 10**23])
             ).map(str)
    pairs = list(itertools.combinations(range(n), 2))
    nbrs = [[] for _ in range(n)]
    for (u, v), edge in zip(pairs, draw(st.lists(
            st.booleans(), min_size=len(pairs), max_size=len(pairs)))):
        if edge:
            nbrs[u].append(v)
            nbrs[v].append(u)
    lines = [f"scheme {kind} {n}"]
    for v in range(n):
        if kind == "simple":
            cols = [" ".join([str(v), *draw(st.lists(field, max_size=1))])]
        else:
            cols = [" ".join(draw(st.lists(field, min_size=k, max_size=k)))
                    for k in (2, 2, 6)]
        ids = draw(st.permutations(nbrs[v]))
        lines.append(" | ".join([str(v), *cols, draw(st.sampled_from("01")),
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


def trace_digest(sch):
    """sha256 of the traces of a fixed pair grid, one line a route."""
    n = sch.n
    traces = (engine.run_route(sch, s, t)
              for s in range(0, n, 17) for t in range(5, n, 23))
    text = "\n".join(" ".join(map(str, trace)) for trace in traces)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("make, arg, seed, digest, traces", [
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
], ids=["simple-1", "simple-2", "simple-3", "double-1", "double-2",
        "double-3", "staircase-300"])
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
