import time
import tracemalloc

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from histroute import dump, polygon, scheme_double, scheme_simple, visibility

import oracles
from conftest import make_double, make_simple, staircase_text


def all_pairs_match(h, g):
    for v in range(h.n):
        for w in range(h.n):
            fast = visibility.co_visible_fast(g, v, w)
            slow = oracles.co_visible_naive(h, v, w)
            if fast != slow:
                return f"v={v} w={w} fast={fast} naive={slow}"
    return None


def test_rect_complete(rect):
    h, g = rect
    assert all(visibility.co_visible_fast(g, v, w)
               for v in range(4) for w in range(4))
    assert g.edge_count() == 6


def test_steps_pairs(steps):
    h, g = steps
    assert not visibility.co_visible_fast(g, 2, 4)
    assert visibility.co_visible_fast(g, 5, 7)
    assert not visibility.co_visible_fast(g, 0, 5)


def test_steps_degrees(steps):
    h, g = steps
    assert [g.degree(v) for v in range(8)] == [5, 3, 3, 5, 5, 3, 3, 5]
    assert g.edge_count() == 16


def test_self_visible(steps):
    h, g = steps
    assert visibility.co_visible_fast(g, 3, 3)
    assert oracles.co_visible_naive(h, 3, 3)
    assert 3 not in oracles.neighbor_lists(g)[3]


def left_hit(g, v):
    lm = g.lm
    return int(lm.l_vid[v]), int(lm.l_x[v]), int(lm.l_y[v])


def right_hit(g, v):
    lm = g.lm
    return int(lm.r_vid[v]), int(lm.r_x[v]), int(lm.r_y[v])


def test_steps_landmarks(steps):
    h, g = steps
    assert left_hit(g, 2) == (0, 0, 4)
    assert right_hit(g, 2) == (3, 2, 3)
    assert g.interval(2) == (0, 2)


def test_double_boundary_landmarks(dbl_raw, dbl):
    # rays ending on the left/right boundary edges keep their exact hit
    # point but carry no vertex id
    h, g = dbl_raw
    assert left_hit(g, 4) == (-1, 0, -1)
    assert right_hit(g, 4) == (-1, 9, -1)
    hn, gn = dbl
    assert right_hit(gn, 4) == (-1, 5, -1)


def test_vertical_partners_always_visible(small_doubles):
    for h, g in small_doubles:
        by_x = {}
        for v in range(h.n):
            by_x.setdefault(int(h.xs[v]), []).append(v)
        for pair in by_x.values():
            assert len(pair) == 2
            assert visibility.co_visible_fast(g, pair[0], pair[1])


def test_symmetry(small_simples, small_doubles):
    # sorted, free of self entries, and w lists v exactly when v lists w
    for h, g in small_simples + small_doubles:
        assert g.indptr.dtype == g.indices.dtype == np.int64
        assert g.indptr[0] == 0 and g.indptr[-1] == len(g.indices)
        pairs = set()
        for v, ids in enumerate(oracles.neighbor_lists(g)):
            assert ids == sorted(set(ids)) and v not in ids
            assert g.degree(v) == len(ids)
            pairs.update((v, w) for w in ids)
        assert pairs == {(w, v) for v, w in pairs}
        assert g.edge_count() == len(pairs) // 2


def test_neighbors_match_adjacency(steps, dbl, small_simples, small_doubles):
    for h, g in [steps, dbl] + small_simples + small_doubles:
        for v, ids in enumerate(oracles.neighbor_lists(g)):
            assert ids == [
                w for w in range(h.n)
                if w != v and oracles.co_visible_naive(h, v, w)]


def rows_match_definition(h, g):
    # row v lists exactly the w != v that the interval test says v sees
    ids = np.arange(h.n)
    for v, row in enumerate(oracles.neighbor_lists(g)):
        sees = visibility.co_visible_fast(g, v, ids) & (ids != v)
        assert row == np.flatnonzero(sees).tolist(), v


def longest_run(h, g):
    # the most positions right of a vertex's x-group and up to the end
    # of its interval, all of which the build searches from the vertex
    xs = np.sort(h.xs)
    return int(max(np.searchsorted(xs, g.lm.r_x, "right")
                   - np.searchsorted(xs, h.xs, "right")))


@pytest.mark.parametrize("make, arg, seed", [
    (make_simple, staircase_text(40), 0),
    (make_simple, staircase_text(99), 0),
    (make_simple, staircase_text(300), 0),
    (make_simple, 400, 1), (make_simple, 600, 2), (make_simple, 800, 3),
    (make_double, 400, 1), (make_double, 600, 2), (make_double, 800, 3),
], ids=["staircase-40", "staircase-99", "staircase-300", "simple-400",
        "simple-600", "simple-800", "double-400", "double-600",
        "double-800"])
def test_rows_match_definition_when_runs_are_halved(make, arg, seed):
    h, g = make(arg, seed)
    assert longest_run(h, g) > visibility._SCAN
    rows_match_definition(h, g)


@hypothesis.given(st.integers(34, 150).flatmap(lambda m: st.tuples(
    st.just(m), st.lists(st.booleans(), min_size=m - 1, max_size=m - 1))))
@hypothesis.settings(max_examples=40, deadline=None)
def test_rows_match_definition_on_staircases(case):
    m, swapped = case
    h, g = make_simple(staircase_text(m, [i for i, b in enumerate(swapped)
                                          if b]))
    rows_match_definition(h, g)


def test_staircase_build_time():
    # n = 10^5; the intervals hold about n^2 / 3 positions in all but
    # the graph has 2.5 n edges, and a build that walks the intervals
    # takes over a minute
    h = polygon.parse_polygon(staircase_text(49999))
    start = time.perf_counter()
    visibility.build_graph(h)
    elapsed = time.perf_counter() - start
    assert elapsed < 5, f"build_graph took {elapsed:.1f} s"


def test_oracle_equivalence_fixtures(rect, steps, dbl, dbl_raw, drect):
    for h, g in (rect, steps, dbl, dbl_raw, drect):
        assert all_pairs_match(h, g) is None


def test_oracle_point_membership(steps):
    h, g = steps
    oracle = oracles.NaiveOracle(h)
    assert oracle.contains(1, 2)
    assert oracle.contains(0, 0)          # boundary counts as inside
    assert not oracle.contains(4, 0)      # below the first step
    assert not oracle.contains(8, 2)
    assert oracle.rect_inside(0, 0, 2, 4)
    assert not oracle.rect_inside(0, 0, 3, 4)


@hypothesis.given(n=st.integers(2, 18).map(lambda k: 2 * k),
                  seed=st.integers(0, 10_000))
@hypothesis.settings(max_examples=40, deadline=None)
def test_oracle_equivalence_simple(n, seed):
    h, g = make_simple(n, seed)
    assert all_pairs_match(h, g) is None


@hypothesis.given(n=st.integers(4, 18).map(lambda k: 2 * k),
                  seed=st.integers(0, 10_000))
@hypothesis.settings(max_examples=40, deadline=None)
def test_oracle_equivalence_double(n, seed):
    h, g = make_double(n, seed)
    assert all_pairs_match(h, g) is None


@hypothesis.given(n=st.integers(4, 18).map(lambda k: 2 * k),
                  seed=st.integers(0, 10_000))
@hypothesis.settings(max_examples=30, deadline=None)
def test_normalize_preserves_visibility(n, seed):
    h = polygon.generate("double", n, seed=seed)
    g = visibility.build_graph(h)
    gn = visibility.build_graph(polygon.normalize(h))
    assert g.indptr.tolist() == gn.indptr.tolist()
    assert g.indices.tolist() == gn.indices.tolist()


def test_landmarks_match_ray_walk(rect, steps, dbl, dbl_raw, drect,
                                  small_simples, small_doubles,
                                  random_simples, random_doubles):
    # the sweep against rays walked on the grid of the closed region
    fixtures = [rect, steps, dbl, dbl_raw, drect]
    raw = [polygon.generate("double", n, seed=700 + n)
           for n in range(8, 62, 6)]
    corpus = ([h for h, _ in fixtures + small_simples + small_doubles
               + random_simples + random_doubles] + raw)
    for h in corpus:
        lm = visibility.compute_landmarks(h)
        hits = oracles.ray_hits(h)
        assert lm._fields == tuple(hits)
        for name, walked in hits.items():
            got = getattr(lm, name)
            assert got.dtype == np.int64, (h, name)
            assert got.tolist() == walked.tolist(), (h, name)


@pytest.mark.parametrize("kind", ["simple", "double", "staircase"])
def test_graph_memory_is_linear(kind):
    # a dense n x n relation would need about 195 MiB at this size; the
    # staircase has as few edges as a random polygon but intervals that
    # span a third of it, so a build whose memory followed the
    # intervals rather than the edges would exceed the bound there
    if kind == "staircase":
        h = polygon.parse_polygon(staircase_text(4999))
    else:
        h = polygon.generate(kind, 10_000, seed=1)
    tracemalloc.start()
    try:
        visibility.build_graph(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"build_graph peak {peak / 2**20:.1f} MiB"


# Tracemalloc peaks at n = 10^4, measured with numpy 2.4 on Python 3.11,
# each test alone, in this module alone and in the whole suite: 5.7-5.9
# MiB simple and 13.2-14.0 MiB double preprocessing, 11.1-13.3 MiB
# reading the double dump (objects reused from free lists are not
# counted, so the peak moves with what ran before). Each bound adds a
# fifth to the highest peak seen, rounded up to whole MiB; the
# per-vertex links, their tuples of shared ints and of the label
# records, are most of each peak.
@pytest.mark.parametrize("kind, preprocess, bound_mib", [
    ("simple", scheme_simple.preprocess_simple, 8),
    ("double", scheme_double.preprocess_double, 17),
], ids=["simple", "double"])
def test_preprocess_memory(kind, preprocess, bound_mib):
    h = polygon.normalize(polygon.generate(kind, 10_000, seed=1))
    g = visibility.build_graph(h)
    tracemalloc.start()
    try:
        preprocess(h, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20, \
        f"{preprocess.__name__} peak {peak / 2**20:.1f} MiB"


def test_dump_read_memory():
    # bound: see test_preprocess_memory
    h = polygon.normalize(polygon.generate("double", 10_000, seed=1))
    data = dump.write(scheme_double.preprocess_double(
        h, visibility.build_graph(h)))
    tracemalloc.start()
    try:
        dump.read(data, scheme_double.DoubleScheme)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"dump.read peak {peak / 2**20:.1f} MiB"
