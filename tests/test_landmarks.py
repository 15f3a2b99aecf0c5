import numpy as np
import pytest

from histroute import engine, landmarks, visibility

import invariants
import oracles
from conftest import H_STEPS_TEXT, make_simple, near_staircase


def test_breakpoints_rect(rect):
    h, g = rect
    assert landmarks.breakpoints(g).tolist() == [1, -1, -1, 2]


def test_breakpoints_steps(steps):
    h, g = steps
    assert landmarks.breakpoints(g).tolist() == \
        [3, -1, -1, 2, 5, -1, -1, 4]


def test_dominators_steps(steps):
    h, g = steps
    assert oracles.dominators(g, 0, 6) == (4, 7)
    assert oracles.dominators(g, 0, 5) == (4, 7)
    assert oracles.dominators(g, 7, 1) == (3, 0)


def test_dominators_double(dbl):
    h, g = dbl
    assert oracles.dominators(g, 4, 7) == (9, 6)


def test_dominators_missing_far_side(dbl):
    # a target next to the boundary edge may have nothing beyond it
    h, g = dbl
    found = False
    for s, t in invariants.invisible_interval_pairs(g):
        nd, fd = oracles.dominators(g, s, t)
        assert nd is not None
        found = found or fd is None
    assert isinstance(found, bool)


def test_extension_sequences_steps(steps):
    h, g = steps
    assert oracles.extension_sequences(g, 2) == ([2], [2, 3])


def test_extension_sequences_double(dbl):
    h, g = dbl
    assert oracles.extension_sequences(g, 11) == ([11], [11, 10])
    assert oracles.extension_sequences(g, 1) == ([1], [1, 3])


def test_extension_reaches_neighborhood_extremes(small_doubles):
    # chain fixpoints attain the extreme interval ends over the closed
    # neighborhood
    for h, g in small_doubles:
        nbrs = oracles.neighbor_lists(g)
        for s in range(g.n):
            chain_a, chain_b = oracles.extension_sequences(g, s)
            closed = [s] + nbrs[s]
            assert int(g.lm.l_x[chain_a[-1]]) == \
                min(int(g.lm.l_x[u]) for u in closed)
            assert int(g.lm.r_x[chain_b[-1]]) == \
                max(int(g.lm.r_x[u]) for u in closed)


def test_k_dominators_double(dbl):
    h, g = dbl
    bds, tds = oracles.k_dominators(g, 1, 2)
    assert bds == [1, 3, 3]
    assert tds == [1, 0, 10]


def test_k_dominators_requires_double(steps):
    h, g = steps
    with pytest.raises(AssertionError):
        oracles.k_dominators(g, 0, 1)


def test_ik_bounds_double(dbl):
    h, g = dbl
    assert oracles.ik_bounds(g, 1, 1) == g.interval(1)
    assert oracles.ik_bounds(g, 1, 2) == (0, 5)
    assert sorted(int(u) for u in oracles.ik_vertices(g, 1, 2)) == \
        list(range(12))


def test_ik_zero(dbl):
    h, g = dbl
    assert list(oracles.ik_vertices(g, 1, 0)) == [1]


def test_canonical_paths_double(dbl):
    h, g = dbl
    assert oracles.canonical_paths(g, 1, 2) == ([1, 3], [1, 3, 10])


def test_canonical_paths_rectangle(drect):
    # everything sees everything, so paths collapse to at most 2 entries
    h, g = drect
    for v in range(4):
        pb, pt = oracles.canonical_paths(g, v, 2)
        assert len(pb) <= 2 and len(pt) <= 2
        assert pb[0] == v and pt[0] == v


def test_canonical_paths_edges_exist(small_doubles):
    for h, g in small_doubles:
        for s in range(g.n):
            for path in oracles.canonical_paths(g, s, 2):
                assert path[0] == s
                for a, b in zip(path, path[1:]):
                    assert a != b and visibility.co_visible_fast(g, a, b)


def test_invariant_suite_fixture_simple(steps):
    h, g = steps
    for name, (checked, bad) in invariants.run_suite(g).items():
        assert bad == [], name


def test_invariant_suite_fixture_double(dbl):
    h, g = dbl
    res = invariants.run_suite(g)
    for name, (checked, bad) in res.items():
        assert bad == [], name
    assert res["level3-union"][0] == 12


def test_invariant_suite_small_simples(small_simples):
    for h, g in small_simples:
        for name, (checked, bad) in invariants.run_suite(g).items():
            assert bad == [], f"{name} n={h.n}"


def test_invariant_suite_small_doubles(small_doubles):
    for h, g in small_doubles:
        for name, (checked, bad) in invariants.run_suite(g).items():
            assert bad == [], f"{name} n={h.n}"


def test_simple_near_dominator_shape(small_simples):
    # the near dominator of an invisible in-interval target is a reflex
    # vertex whose own landmark supplies the far dominator
    for h, g in small_simples:
        for s, t in invariants.invisible_interval_pairs(g):
            nd, fd = oracles.dominators(g, s, t)
            assert not h.convex[nd]
            if fd is not None:
                assert fd in (int(g.lm.l_vid[nd]), int(g.lm.r_vid[nd]))


def test_breakpoints_match_edge_scan(small_simples, random_simples):
    for h, g in small_simples + random_simples + [near_staircase(99)]:
        got = landmarks.breakpoints(g).tolist()
        for v in range(h.n):
            want = oracles.breakpoint_of(g, v)
            assert got[v] == (-1 if want is None else want), f"n={h.n} v={v}"


def test_missing_breakpoint_raises_scheme_build_error():
    h, g = make_simple(H_STEPS_TEXT)    # not the shared fixture: h changes
    h.convex[1] = False     # a convex corner, which has no breakpoint
    with pytest.raises(engine.SchemeBuildError,
                       match="no breakpoint for vertex 1"):
        landmarks.breakpoints(g)


def test_breakpoint_requires_simple(dbl):
    h, g = dbl
    with pytest.raises(ValueError):
        landmarks.breakpoints(g)


def test_dominator_levels_match_oracle(small_doubles, random_doubles):
    # every level up to one past the diameter, where the levels have
    # reached their fixpoint on both sides
    for h, g in small_doubles + random_doubles:
        k = int(invariants.distance_matrix(g).max()) + 1
        bd, td = landmarks.dominator_levels(g, k)
        assert bd.shape == td.shape == (k + 1, h.n)
        for s in range(h.n):
            bds, tds = oracles.k_dominators(g, s, k)
            assert bd[:, s].tolist() == bds, f"n={h.n} s={s}"
            assert td[:, s].tolist() == tds, f"n={h.n} s={s}"


def test_dominator_levels_fixture(dbl):
    h, g = dbl
    bd, td = landmarks.dominator_levels(g, 2)
    assert bd[:, 1].tolist() == [1, 3, 3]
    assert td[:, 1].tolist() == [1, 0, 10]
    assert bd[0].tolist() == td[0].tolist() == list(range(12))


def test_dominator_levels_requires_double(steps):
    h, g = steps
    with pytest.raises(ValueError):
        landmarks.dominator_levels(g, 1)


def test_range_min_matches_slices():
    rng = np.random.default_rng(5)
    for n in (0, 1, 2, 3, 7, 8, 9, 33):
        values = rng.integers(-50, 50, size=n)
        table = visibility.RangeMin(values)
        a, b = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
        a, b = a.ravel(), b.ravel()
        got = table.query(a, b, 99)
        want = [int(values[i:j].min()) if j > i else 99 for i, j in zip(a, b)]
        assert got.tolist() == want, n
