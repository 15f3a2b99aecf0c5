import copy

import pytest

from histroute import engine, scheme_double

import invariants
import oracles
from conftest import make_simple


def test_label_fields(sch_dbl, dbl):
    h, g = dbl
    for v in range(h.n):
        lab = sch_dbl.label_of(v)
        assert (lab.x, lab.y) == (int(h.xs[v]), int(h.ys[v]))
        assert (lab.ilo, lab.ihi) == g.interval(v)


def test_table_matches_level_dominators(sch_dbl, dbl):
    h, g = dbl
    tab = sch_dbl.table_of(1)
    assert tab == scheme_double.DoubleTable(0, 5, 0, 5, 1, -1, True)
    bds, tds = oracles.k_dominators(g, 1, 2)
    assert (tab.i2bd_lo, tab.i2bd_hi) == oracles.ik_bounds(g, bds[1], 2)
    assert (tab.i2td_lo, tab.i2td_hi) == oracles.ik_bounds(g, tds[1], 2)
    assert (tab.bd2x, tab.bd2y) == (int(h.xs[bds[2]]), int(h.ys[bds[2]]))


def test_bit_prefers_bottom_path(sch_dbl, dbl):
    h, g = dbl
    for v in range(h.n):
        pb, _ = oracles.canonical_paths(g, v, 2)
        bds, tds = oracles.k_dominators(g, v, 1)
        if len(pb) > 1:
            assert sch_dbl.table_of(v).bit_bottom == (pb[1] == bds[1])
        else:
            assert sch_dbl.table_of(v).bit_bottom


def test_size_bounds(sch_dbl, sch_drect):
    for sch, n in ((sch_dbl, 12), (sch_drect, 4)):
        w = (n - 1).bit_length()
        assert sch.max_label_bits == 4 * (w + 1)
        assert sch.max_table_bits == 6 * (w + 1) + 1
        assert sch.max_header_bits == 2 * (w + 1)


def test_local_equals_global(small_doubles):
    # everything the step function derives from its link table must
    # agree with the global definitions
    for h, g in small_doubles:
        sch = scheme_double.preprocess_double(h, g)
        for s in range(h.n):
            link = sch.link_of(s)
            ca, cb = scheme_double._local_chains(link)
            ga, gb = oracles.extension_sequences(g, s)
            assert [v for v, _ in ca] == ga and [v for v, _ in cb] == gb
            bd, td = scheme_double._local_vertical_dominators(link)
            bds, tds = oracles.k_dominators(g, s, 1)
            assert bd[0] == bds[1] and td[0] == tds[1]
        for s, t in invariants.invisible_interval_pairs(g):
            link = sch.link_of(s)
            nd, fd = scheme_double._local_dominators(link, int(h.xs[t]))
            gnd, gfd = oracles.dominators(g, s, t)
            assert nd[0] == gnd
            assert (fd[0] if fd is not None else None) == gfd


def test_case1_hops_to_far_dominator(small_doubles):
    # invisible in-interval target: one hop to fd, and where fd is not
    # on a shortest path the next hop lands one closer anyway
    for h, g in small_doubles:
        sch = scheme_double.preprocess_double(h, g)
        d = invariants.distance_matrix(g)
        for s, t in invariants.invisible_interval_pairs(g):
            nd, fd = oracles.dominators(g, s, t)
            if fd is None:
                continue
            target = sch.label_of(t)
            nxt, hdr = sch.step(sch.link_of(s), sch.table_of(s),
                                target, None)
            assert nxt == fd and hdr is None
            if 1 + int(d[fd, t]) > int(d[s, t]):
                nxt2, _ = sch.step(sch.link_of(fd), sch.table_of(fd),
                                   target, None)
                assert nxt2 == oracles.fd2(g, s, t)
                assert int(d[nxt2, t]) == int(d[s, t]) - 1


def test_route_all_pairs_fixture(sch_dbl, dbl):
    h, g = dbl
    rep = engine.verify_all_pairs(sch_dbl, g)
    assert rep.ok
    assert rep.pairs == 12 * 11
    assert rep.max_stretch <= 2.0


def test_corpus_stretch_and_progress(small_doubles):
    for h, g in small_doubles:
        sch = scheme_double.preprocess_double(h, g)
        rep = engine.verify_all_pairs(sch, g)
        assert rep.ok, f"n={h.n}: {rep.failures[:2]}"
        assert rep.max_stretch <= 2.0


def test_rectangle_all_direct(sch_drect, drect):
    h, g = drect
    for v in range(4):
        lab = sch_drect.label_of(v)
        assert (lab.ilo, lab.ihi) == (0, 1)
    for s in range(4):
        for t in range(4):
            if s != t:
                assert engine.run_route(sch_drect, s, t) == [s, t]


def test_header_names_next_hop(sch_dbl):
    # a header pointing at a neighbor forces that hop
    link = sch_dbl.link_of(1)
    lab3 = sch_dbl.label_of(3)
    target = sch_dbl.label_of(6)
    nxt, hdr = sch_dbl.step(link, sch_dbl.table_of(1), target,
                            (lab3.x, lab3.y))
    assert nxt == 3 and hdr is None


def test_header_naming_self_is_discarded(sch_dbl):
    own = sch_dbl.label_of(1)
    target = sch_dbl.label_of(6)
    plain, _ = sch_dbl.step(sch_dbl.link_of(1), sch_dbl.table_of(1),
                            target, None)
    with_header, _ = sch_dbl.step(sch_dbl.link_of(1), sch_dbl.table_of(1),
                                  target, (own.x, own.y))
    assert with_header == plain


def test_header_to_stranger_rejected(sch_dbl):
    target = sch_dbl.label_of(6)
    with pytest.raises(engine.HeaderProtocolError):
        sch_dbl.step(sch_dbl.link_of(1), sch_dbl.table_of(1),
                     target, (999, 999))


def test_preprocess_rejects_simple():
    h, g = make_simple(8, seed=1)
    with pytest.raises(engine.SchemeBuildError):
        scheme_double.preprocess_double(h, g)


def test_preprocess_rejects_unnormalized(dbl_raw):
    h, g = dbl_raw
    with pytest.raises(engine.SchemeBuildError):
        scheme_double.preprocess_double(h, g)


def test_dump_round_trip(sch_dbl, dbl):
    h, g = dbl
    text = scheme_double.dump_scheme(sch_dbl)
    again = scheme_double.parse_dump(text)
    assert again.kind == "double" and again.n == 12
    for v in range(12):
        assert again.label_of(v) == sch_dbl.label_of(v)
        assert again.table_of(v) == sch_dbl.table_of(v)
        assert sorted(again.neighbor_ids(v)) == \
            sorted(sch_dbl.neighbor_ids(v))
    for s in range(12):
        for t in range(12):
            if s != t:
                assert engine.run_route(again, s, t) == \
                    engine.run_route(sch_dbl, s, t)


def test_parse_dump_rejects_simple_dump(sch_steps):
    from histroute import scheme_simple
    text = scheme_simple.dump_scheme(sch_steps)
    with pytest.raises(Exception):
        scheme_double.parse_dump(text)


def test_tables_match_oracle(small_doubles, random_doubles):
    # every table field of every vertex, against the per-vertex
    # definitions of level-k dominators and canonical paths
    for h, g in small_doubles + random_doubles:
        sch = scheme_double.preprocess_double(h, g)
        for v in range(h.n):
            assert sch.table_of(v) == oracles.double_table(g, v), \
                f"n={h.n} v={v}"


ROW0 = "0 | 0 1 | 0 1 | 0 1 0 1 0 1 | 1 | 1"
ROW1 = "1 | 1 -1 | 0 1 | 0 1 0 1 0 1 | 0 | 0"


@pytest.mark.parametrize("text,reason", [
    ("scheme double 0\n", "at least one vertex"),
    (f"scheme double 2\n{ROW0}\n{ROW0}\n", "duplicate row id 0"),
    (f"scheme double 2\n{ROW0}\n{ROW1.replace('1 |', '5 |', 1)}\n",
     "row id 5 is outside"),
    (f"scheme double 2\n{ROW0}\n{ROW1[:-1]}9\n", "neighbor id"),
    (f"scheme double 2\n{ROW0.replace('| 1 |', '| 3 |')}\n{ROW1}\n",
     "bit field"),
    (f"scheme double 2\n{ROW0.replace('0 1 0 1 0 1', '0 1 0')}\n{ROW1}\n",
     "6 table fields"),
])
def test_parse_dump_strict(text, reason):
    with pytest.raises(ValueError, match=reason):
        scheme_double.parse_dump(text)


def test_parse_dump_minimal_rows_accepted():
    sch = scheme_double.parse_dump(f"scheme double 2\n{ROW0}\n{ROW1}\n")
    assert sch.neighbor_ids(0) == [1] and sch.table_of(1).bit_bottom is False


def test_preprocess_rejects_inconsistent_landmarks(dbl):
    # widening I(7) alone makes its global level-1 dominators differ
    # from the ones its unchanged neighbors offer
    h, g = dbl
    g = copy.deepcopy(g)
    g.lm.l_x[7] = 3
    with pytest.raises(engine.SchemeBuildError,
                       match="local bottom/top dominators at 7"):
        scheme_double.preprocess_double(h, g)
