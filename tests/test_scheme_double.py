import copy
import itertools
import sys

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from histroute import dump, engine, landmarks, polygon, scheme_double, \
    visibility

import invariants
import oracles
from conftest import DOUBLE2, dump_arrays, faulty, make_double, make_simple, \
    pack, rows, with_rows


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


def test_local_equals_global(small_doubles, random_doubles):
    # everything the step function derives from its link table must
    # agree with the global definitions; toward an x in I2(s) but not
    # in I(s) (case 2), on the built scheme and on its dump read back,
    # the step hops to the first vertex after s of the extension
    # sequence on x's side whose interval reaches x
    for h, g in small_doubles + random_doubles:
        sch = scheme_double.preprocess_double(h, g)
        again = scheme_double.parse_dump(scheme_double.dump_scheme(sch))
        l_x, r_x = g.lm.l_x.tolist(), g.lm.r_x.tolist()
        for s in range(h.n):
            ga, gb = oracles.extension_sequences(g, s)
            lo, hi = g.interval(s)
            lo2, hi2 = oracles.ik_bounds(g, s, 2)
            for x in [*range(lo2, lo), *range(hi + 1, hi2 + 1)]:
                want = (next(u for u in ga[1:] if l_x[u] <= x) if x < lo
                        else next(u for u in gb[1:] if r_x[u] >= x))
                # no vertex lies at y = 0, so this is never a direct hit
                target = scheme_double.DoubleLabel(x, 0, x, x)
                for sc in (sch, again):
                    link = sc.links[s]
                    port, header = sc.step(link, sc.tables[s], target, None)
                    assert (link.ids[port], header) == (want, None)
            bds, tds = oracles.k_dominators(g, s, 1)
            lo3, hi3 = oracles.ik_bounds(g, s, 3)
            blo, bhi = oracles.ik_bounds(g, bds[1], 2)
            for x in [*range(lo3, lo2), *range(hi2 + 1, hi3 + 1)]:
                # case 3: x in I3(s) but not in I2(s), reached through
                # bd1(s) when x lies in I2(bd1(s)), else through td1(s)
                want = bds[1] if blo <= x <= bhi else tds[1]
                target = scheme_double.DoubleLabel(x, 0, x, x)
                for sc in (sch, again):
                    link = sc.links[s]
                    port, header = sc.step(link, sc.tables[s], target, None)
                    assert (link.ids[port], header) == (want, None)
            link = sch.links[s]
            bd, td = oracles.local_vertical_dominators(link)
            assert bd[0] == bds[1] and td[0] == tds[1]
            assert (link.ids[link.bd], link.ids[link.td]) == (bd[0], td[0])
        for s, t in invariants.invisible_interval_pairs(g):
            link = sch.links[s]
            nd, fd = oracles.local_dominators(link, int(h.xs[t]))
            gnd, gfd = oracles.dominators(g, s, t)
            assert link.ids[nd] == gnd
            assert (None if fd is None else link.ids[fd]) == gfd


def test_case1_hops_to_far_dominator(small_doubles):
    # invisible in-interval target: one hop to fd, or to nd when the far
    # side is empty, and where fd is not on a shortest path the next hop
    # lands one closer anyway
    for h, g in small_doubles:
        sch = scheme_double.preprocess_double(h, g)
        d = invariants.distance_matrix(g)
        for s, t in invariants.invisible_interval_pairs(g):
            nd, fd = oracles.dominators(g, s, t)
            target = sch.label_of(t)
            port, hdr = sch.step(sch.links[s], sch.table_of(s),
                                 target, None)
            assert sch.links[s].ids[port] == (nd if fd is None else fd)
            assert hdr is None
            if fd is None:
                continue
            if 1 + int(d[fd, t]) > int(d[s, t]):
                port, _ = sch.step(sch.links[fd], sch.table_of(fd),
                                   target, None)
                nxt2 = sch.links[fd].ids[port]
                assert nxt2 == oracles.fd2(g, s, t)
                assert int(d[nxt2, t]) == int(d[s, t]) - 1


def test_links_hold_closed_neighborhood_in_link_order(small_doubles):
    # link order: by x, then distance to the base line, then y; the
    # reloaded scheme orders its links alike, and holds the same
    # dominator ports and table records
    for h, g in small_doubles:
        sch = scheme_double.preprocess_double(h, g)
        again = scheme_double.parse_dump(scheme_double.dump_scheme(sch))
        nbrs = oracles.neighbor_lists(g)
        ports_and_tables = []
        for s in (sch, again):
            ports_and_tables.append(
                ([(link.bd, link.td) for link in s.links], s.tables))
            for v in range(h.n):
                closed = [v, *nbrs[v]]
                closed.sort(key=lambda u: (int(h.xs[u]), abs(int(h.ys[u])),
                                           int(h.ys[u])))
                link = s.links[v]
                assert list(link.ids) == closed
                # the links hold the scheme's own label records
                assert len(link.labs) == len(link.ids)
                assert all(lab is s.labels[u]
                           for u, lab in zip(link.ids, link.labs))
                assert link.xs == tuple(lab.x for lab in link.labs)
        assert ports_and_tables[0] == ports_and_tables[1]


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
    link = sch_dbl.links[1]
    lab3 = sch_dbl.label_of(3)
    target = sch_dbl.label_of(6)
    port, hdr = sch_dbl.step(link, sch_dbl.table_of(1), target,
                             (lab3.x, lab3.y))
    assert link.ids[port] == 3 and hdr is None


def test_header_naming_self_is_discarded(sch_dbl):
    own = sch_dbl.label_of(1)
    target = sch_dbl.label_of(6)
    plain, _ = sch_dbl.step(sch_dbl.links[1], sch_dbl.table_of(1),
                            target, None)
    with_header, _ = sch_dbl.step(sch_dbl.links[1], sch_dbl.table_of(1),
                                  target, (own.x, own.y))
    assert with_header == plain


def test_header_to_stranger_rejected(sch_dbl):
    target = sch_dbl.label_of(6)
    with pytest.raises(engine.HeaderProtocolError):
        sch_dbl.step(sch_dbl.links[1], sch_dbl.table_of(1),
                     target, (999, 999))


def test_preprocess_rejects_simple():
    h, g = make_simple(8, seed=1)
    with pytest.raises(engine.SchemeBuildError):
        scheme_double.preprocess_double(h, g)


@pytest.mark.parametrize("n", [8, 12, 40, 200])
def test_raw_polygon_dumps_as_its_normalized_twin(dbl_raw, n):
    # preprocess_double stores coordinate ranks itself. Each side of the
    # base line gets its own gaps, so |y| orders the two sides unlike
    # their ranks, as link order would show if it read raw coordinates.
    rng = np.random.default_rng(n)
    cases = [dbl_raw[0]]
    for seed in range(10):
        h = polygon.generate("double", n, seed)
        x_at = np.cumsum(rng.integers(1, 9, h.n)) - 40
        up, down = (np.cumsum(rng.integers(1, 9, h.n)) for _ in "ud")
        ys = np.where(h.ys > 0, up[np.abs(h.ys)], -down[np.abs(h.ys)])
        cases.append(polygon.build_histogram(
            zip(x_at[h.xs].tolist(), ys.tolist()), "double"))
    for raw in cases:
        norm = polygon.normalize(raw)
        assert not np.array_equal(raw.xs, norm.xs)
        assert not np.array_equal(raw.ys, norm.ys)
        got, want = (scheme_double.preprocess_double(
            h, visibility.build_graph(h)) for h in (raw, norm))
        assert scheme_double.dump_scheme(got) == \
            scheme_double.dump_scheme(want)
        for a, b in zip(got.links, want.links):     # the dump omits these
            assert [getattr(a, f) for f in a.__slots__] == \
                [getattr(b, f) for f in b.__slots__]


def test_dump_round_trip(sch_dbl, dbl):
    h, g = dbl
    text = scheme_double.dump_scheme(sch_dbl)
    again = scheme_double.parse_dump(text)
    assert again.kind == "double" and again.n == 12
    assert np.array_equal(again.indptr, sch_dbl.indptr)
    assert np.array_equal(again.indices, sch_dbl.indices)
    for v in range(12):
        assert again.label_of(v) == sch_dbl.label_of(v)
        assert again.table_of(v) == sch_dbl.table_of(v)
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


GOOD = pack("double", 2, DOUBLE2)


ROW0 = "0 | 0 1 | 0 1 | 0 1 0 1 0 1 | 1 | 1"
ROW1 = "1 | 1 -1 | 0 1 | 0 1 0 1 0 1 | 0 | 0"
TEXT_REFUSED = "not a double scheme dump: it does not start with"


# a str is a dump in the row notation of conftest.rows, here GOOD's rows
# ROW0 and ROW1 with one fault; bytes go to the reader as they are
@pytest.mark.parametrize("data,reason", [
    ("scheme double 0\n", "at least one vertex"),
    (f"scheme double 2\n{ROW0}\n{ROW1[:-1]}9\n",
     r"row 1: neighbor id outside \[0, 2\)"),
    pytest.param(pack("double", 2, {**DOUBLE2, "indices": [-1, 0]}),
                 r"row 0: neighbor id outside \[0, 2\)",
                 id="neighbor-negative"),
    (f"scheme double 2\n{ROW0.replace('| 1 |', '| 3 |')}\n{ROW1}\n",
     "row 0: bit field must be 0 or 1, got 3"),
    (f"scheme double 2\n{ROW0}\n{ROW1.replace('1 -1', '1 0')}\n",
     r"row 1: vertex \(1,0\) must lie off the base line"),
    (f"scheme double 2\n{ROW0}\n{ROW1.replace('1 -1', f'{2**62} -1')}\n",
     r"\|x\|, \|y\| < 2\*\*62"),
    pytest.param(pack("double", 2, {**DOUBLE2, "x": [0, -2**63]}),
                 rf"row 1: vertex \({-2**63},-1\) must lie off",
                 id="x-at-int64-min"),
    (f"scheme double 2\n{ROW0}\n"
     f"{ROW1.replace('| 0 1 |', f'| 0 {2**62} |')}\n",
     rf"row 1: interval bound {2**62} is out of range"),
    pytest.param(pack("double", 2, {**DOUBLE2, "ilo": [0, -2**63]}),
                 rf"row 1: interval bound {-2**63} is out of range",
                 id="bound-at-int64-min"),
    (f"scheme double 2\n{ROW0.replace('0 1 0 1 0 1', f'0 1 0 1 {-2**62} 1')}"
     f"\n{ROW1}\n", rf"row 0: table field {-2**62} is out of range"),
    pytest.param(pack("double", 2, {**DOUBLE2, "bd2x": [0, 2**63 - 1]}),
                 rf"row 1: table field {2**63 - 1} is out of range",
                 id="table-field-at-int64-max"),
    pytest.param(pack("double", 2, {**DOUBLE2, "indptr": [1, 1, 2]}),
                 "row 0: indptr starts at 1, not 0", id="indptr-start"),
    pytest.param(pack("double", 2, {**DOUBLE2, "indptr": [0, 2, 1]}),
                 "row 1: indptr falls from 2 to 1", id="indptr-falls"),
    pytest.param(pack("double", 2, {**DOUBLE2, "indptr": [0, 1, 1]}),
                 "indptr ends at 1, not at 2, the length of indices",
                 id="indptr-end"),
    pytest.param(b"HISTROUTE" + GOOD, "not a double scheme dump: it does "
                 "not start with 'histroute-dump'", id="bad-magic"),
    pytest.param(pack("double", 2, DOUBLE2, version=0),
                 "unknown dump version '0', this reader reads version 1",
                 id="unknown-version"),
    pytest.param(GOOD.replace(b" double ", b" triple "),
                 "not a double scheme dump$", id="unknown-kind"),
    pytest.param(GOOD[:-3], "dump holds 24 bytes of arrays, its table "
                 "names 27", id="truncated-arrays"),
    pytest.param(GOOD + b"\0", "dump holds 28 bytes of arrays, its table "
                 "names 27", id="trailing-bytes"),
    pytest.param(GOOD[:GOOD.index(b"\ny ")],
                 "dump truncated in its header or table",
                 id="truncated-table"),
    pytest.param(GOOD.replace(b"\nx 1 2", b"\nx 3 2"),
                 "dump table: x has width 3, not 1, 2, 4 or 8", id="width"),
    pytest.param(GOOD.replace(b"\ny 1 2", b"\ny 1 3"),
                 "dump table: y has length 3, expected 2", id="length"),
    pytest.param(GOOD.replace(b"\nilo 1 2", b"\nlow 1 2"),
                 "dump table: expected 'ilo <width> <length>', got 'low 1 2'",
                 id="table-name"),
    pytest.param(GOOD.replace(b"\nihi 1 2", b"\nihi 1 2 2"), "dump table: "
                 "expected 'ihi <width> <length>', got 'ihi 1 2 2'",
                 id="table-line"),
    pytest.param(GOOD.replace(b"\nihi 1 2", b"\nihi \xff 2"),
                 "dump header or table is not ASCII", id="not-ascii"),
    # dumps in the text format that the container replaced, one with a
    # value beyond int64, are refused at the magic, before any is read
    (f"scheme double 2\n{ROW0.replace('0 1 0 1 0 1', '0 1 0')}\n{ROW1}\n"
     .encode(), TEXT_REFUSED),
    (f"scheme double 2\n{ROW0.replace('0 1 0 1 0 1', f'0 1 0 {10**30} 0 1')}"
     f"\n{ROW1}\n".encode(), TEXT_REFUSED),
])
def test_parse_dump_strict(data, reason):
    with pytest.raises(dump.DumpError, match=reason):
        scheme_double.parse_dump(rows(data) if isinstance(data, str)
                                 else data)


# faults named after the text-row fields whose role their arrays or
# table lines took over (see conftest.faulty): a token that is not an
# integer now stands in a table line, the count of table fields is a
# table column's length there, and the row id's role is the row's
# indptr entry
FAULTS = {
    "not-an-int": (0, lambda v: {"x": "x 1 two"}, lambda v: (
        "dump table: expected 'x <width> <length>', got 'x 1 two'")),
    "table-count": (0, lambda v: {"bd2x": "bd2x 1 3"},
                    lambda v: "dump table: bd2x has length 3, expected 2"),
    "row-id": (1, lambda v: [("indptr", v + 1, v - 1)],
               lambda v: rf"row {v}: indptr falls from {v} to {v - 1}"),
    "base-line": (2, lambda v: [("y", v, 0)],
                  lambda v: rf"row {v}: vertex \(-?\d+,0\) must lie off"),
    "coordinates": (2, lambda v: [("x", v, 2**62)],
                    lambda v: rf"row {v}: vertex \({2**62},"),
    "low-bound": (2, lambda v: [("ilo", v, -2**62)],
                  lambda v: rf"row {v}: interval bound {-2**62} is out"),
    "bound": (2, lambda v: [("ihi", v, 2**62)],
              lambda v: rf"row {v}: interval bound {2**62} is out"),
    "table-range": (2, lambda v: [("bd2y", v, 2**62)],
                    lambda v: rf"row {v}: table field {2**62} is out"),
    "bit": (2, lambda v: [("bit_bottom", v, 3)],
            lambda v: rf"row {v}: bit field must be 0 or 1, got 3"),
    "neighbor": (2, lambda v: [("indices", v, 9)],
                 lambda v: rf"row {v}: neighbor id outside \[0, 2\)"),
}


@pytest.mark.parametrize("first,second", [
    (a, b) for a in FAULTS for b in FAULTS if a != b])
def test_parse_dump_reports_first_fault_in_file_order(first, second):
    # two faults, at two vertices and at one; each vertex has one
    # listing, at its own index
    for placed in ([(0, first), (1, second)], [(1, first), (1, second)]):
        data, reason = faulty("double", DOUBLE2, FAULTS, placed)
        with pytest.raises(dump.DumpError, match=reason):
            scheme_double.parse_dump(data)


def test_parse_dump_minimal_rows_accepted():
    sch = scheme_double.parse_dump(GOOD)
    assert sch.indices[sch.indptr[0]:sch.indptr[1]].tolist() == [1]
    assert sch.table_of(1).bit_bottom is False


@pytest.mark.parametrize("n,seed", [(8, 1), (12, 5), (20, 3)])
def test_parse_dump_rejects_links_outside_intervals(n, seed):
    # a pair the histogram does not see, listed in both rows, is
    # symmetric; the reader still rejects it, at the first listing in
    # vertex order whose vertex lies outside the lister's interval
    h, g = make_double(n, seed=seed)
    sch = scheme_double.preprocess_double(h, g)
    arrays = dump_arrays(sch)
    nbrs = oracles.neighbor_lists(g)
    label = sch.label_of

    def outside(u, v):
        return not label(u).ilo <= label(v).x <= label(u).ihi

    pairs = [(u, v) for u, v in itertools.combinations(range(n), 2)
             if v not in nbrs[u]]
    assert pairs
    for u, v in pairs:
        a, b = next(p for p in ((u, v), (v, u)) if outside(*p))
        with pytest.raises(dump.DumpError, match=(
                f"^row {a} lists {b}, outside its interval$")):
            scheme_double.parse_dump(pack("double", n, with_rows(arrays, {
                u: sorted([*nbrs[u], v]), v: sorted([*nbrs[v], u])})))


def _damaged(arrays):
    """The dump arrays with one edge deleted from both of its rows, or
    with one label or table field, the bit aside, shifted by 1 or 2, in
    every way."""
    ptr, ids = arrays["indptr"], arrays["indices"].tolist()
    for v in range(len(ptr) - 1):
        for u in ids[ptr[v]:ptr[v + 1]]:
            if v < u:
                yield with_rows(arrays, {
                    a: [i for i in ids[ptr[a]:ptr[a + 1]] if i != b]
                    for a, b in ((v, u), (u, v))})
    for f in scheme_double.DoubleScheme.fields[:-1]:
        for v in range(len(ptr) - 1):
            for d in (-2, -1, 1, 2):
                col = arrays[f].copy()
                col[v] += d
                yield {**arrays, f: col}


@pytest.mark.parametrize("n,seed", [(8, 1), (8, 2), (12, 5)])
def test_damaged_dump_routes_or_raises_routing_error(n, seed):
    # a dump the reader accepts may still lie about the geometry; every
    # route on it must end in a trace or a RoutingError
    h, g = make_double(n, seed=seed)
    arrays = dump_arrays(scheme_double.preprocess_double(h, g))
    for damaged in _damaged(arrays):
        try:
            sch = scheme_double.parse_dump(pack("double", n, damaged))
        except dump.DumpError:
            continue
        for s in range(n):
            for t in range(n):
                try:
                    engine.run_route(sch, s, t)
                except engine.RoutingError:
                    pass


def _tampered(graph, shifts=(), drop=None):
    """A copy of the graph with landmark x-bounds shifted, as
    (name, v, delta), and the edge drop = (u, v) taken out of the CSR."""
    g = copy.deepcopy(graph) if drop is None \
        else oracles.without_edge(graph, *drop)
    for name, v, delta in shifts:
        getattr(g.lm, name)[v] += delta
    return g


@pytest.mark.parametrize("shifts,drop,level2,reason", [
    # widening I(7) alone makes its global level-1 dominators differ
    # from the ones its unchanged neighbors offer
    ([("l_x", 7, -1)], None, None, "local bottom/top dominators at 7"),
    ([("l_x", 1, 1)], None, None, r"dominators at 1 .* \(3,0\) vs \(3,3\)"),
    ([("l_x", 0, -1)], None, None, "level-2 interval of 0"),
    ([("l_x", 3, 1)], None, None, "0 does not see 3"),
    ([("r_x", 3, -2)], None, None, "level-1 dominators of 7 both miss 3"),
    # without the edge 0-3, 0's neighbors no longer hold its global
    # bottom dominator 3
    ([], (0, 3), None, r"dominators at 0 .* \(4,10\) vs \(3,10\)"),
    # level-2 dominators 5 and 7 of vertex 0, in place of 3 and 10, span
    # x in [2, 5]: I^3(0) keeps its right end 5 but not its left end 0
    ([], None, (0, 5, 7), "level-3 interval of 0"),
], ids=["widened-7", "dominators-1", "level-2", "unseen-hop", "hop-missed",
        "dropped-edge", "level-3-left"])
def test_preprocess_rejects_inconsistent_landmarks(dbl, monkeypatch, shifts,
                                                   drop, level2, reason):
    h, g = dbl
    if level2 is not None:
        levels = landmarks.dominator_levels
        v, bd2, td2 = level2

        def tampered_levels(g, k):
            bd, td = levels(g, k)
            bd[2][v], td[2][v] = bd2, td2
            return bd, td
        monkeypatch.setattr(landmarks, "dominator_levels", tampered_levels)
    with pytest.raises(engine.SchemeBuildError, match=reason):
        scheme_double.preprocess_double(h, _tampered(g, shifts, drop))


@hypothesis.given(data=st.data())
@hypothesis.settings(max_examples=300, deadline=None)
def test_row_vertical_dominators_match_a_per_row_oracle(data):
    # rows of any entries in any order; repeated coordinates, and rows,
    # or whole inputs, with vertices on one side of the base line only
    n = data.draw(st.integers(1, 14))
    sign = data.draw(st.sampled_from([-1, 1, None]))
    xs = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=n,
                                     max_size=n)), dtype=np.int64)
    ys = np.array([data.draw(st.integers(1, 3)) * (
        sign or data.draw(st.sampled_from([-1, 1]))) for _ in range(n)],
        dtype=np.int64)
    rows = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1,
                                       unique=True), min_size=1, max_size=6))
    ptr = np.array([0, *itertools.accumulate(map(len, rows))])
    ids = np.array([u for row in rows for u in row], dtype=np.int64)
    bd, td = scheme_double._row_vertical_dominators(xs, ys, ptr, ids)
    for r, row in enumerate(rows):
        for port, off in ((bd[r], ys > 0), (td[r], ys < 0)):
            want = min(row, key=lambda u: (off[u], abs(ys[u]), xs[u], u))
            assert row[port] == want, (r, row)


def test_row_dominators_match_links(small_doubles, random_doubles):
    # the reduction over the closed rows, which the links route by,
    # picks what a scan of each link's entries picks, also on graphs
    # with an edge dropped, where the two may disagree with the global
    # dominators
    cases = small_doubles + random_doubles
    for h, g in small_doubles:
        cases += [(h, oracles.without_edge(g, u, v))
                  for u, row in enumerate(oracles.neighbor_lists(g))
                  for v in row if u < v]
    for h, g in cases:
        zero = np.zeros(h.n, dtype=np.int64)
        cols = {"x": h.xs, "y": h.ys, "ilo": g.lm.l_x, "ihi": g.lm.r_x,
                **dict.fromkeys(scheme_double._TABLE_FIELDS, zero)}
        rows = scheme_double.DoubleScheme.link_rows(h.n, cols, g.indptr,
                                                    g.indices)
        sch = scheme_double.DoubleScheme(h.n, cols, g.indptr, g.indices,
                                         rows)
        bd, td = scheme_double._row_vertical_dominators(h.xs, h.ys,
                                                        *rows[:2])
        for v in range(h.n):
            link = sch.links[v]
            lbd, ltd = oracles.local_vertical_dominators(link)
            assert (lbd[0], ltd[0]) == (link.ids[bd[v]], link.ids[td[v]]), \
                f"n={h.n} v={v}"
            assert (link.bd, link.td) == (bd[v], td[v])


def route_hops(sch):
    """(link, table, target, header) of every hop of the scheme's
    all-pairs routes, each hop taken by the shipped step; a route that
    raises ends there."""
    step = scheme_double.route_step_double
    for s, t in itertools.permutations(range(sch.n), 2):
        target, header, cur = sch.labels[t], None, s
        for _ in range(2 * sch.n):
            link, table = sch.links[cur], sch.tables[cur]
            yield link, table, target, header
            try:
                port, header = step(None, link, table, target, header)
            except engine.RoutingError:
                break
            cur = link.ids[port]
            if cur == t:
                break


def outcome(step, *args):
    """What step(None, *args) gives: its (port, header), or the type and
    message of what it raises."""
    try:
        return step(None, *args)
    except Exception as exc:
        return type(exc), str(exc)


def test_step_matches_reference_on_all_routes(small_doubles, random_doubles):
    # case 1 read from the direct-hit bisection answers as the reference
    # step's own dominator bisections do, at every hop, on built and
    # reloaded schemes
    for h, g in small_doubles + random_doubles:
        sch = scheme_double.preprocess_double(h, g)
        again = scheme_double.parse_dump(scheme_double.dump_scheme(sch))
        for sc in (sch, again):
            for args in route_hops(sc):
                assert outcome(scheme_double.route_step_double, *args) == \
                    outcome(oracles.reference_step_double, *args)


@pytest.fixture(scope="module")
def two_doubles(sch_dbl):
    return [sch_dbl, scheme_double.preprocess_double(*make_double(60, 1))]


class Cases(list):
    """A list of test cases whose repr is only their count."""

    def __repr__(self):
        return f"<{len(self)} cases>"


@pytest.fixture(scope="module")
def drawn_links(two_doubles):
    """(link, table, inputs) for every link of both schemes, with its
    own interval as built and widened by one past the link's ends, as a
    damaged dump may have it, so that case 1 meets every target below.
    inputs draws a target and a header: targets from one left of the
    link's least x to one right of its largest, at any y or on a vertex
    of the link, and headers that are absent, name a vertex of the
    link, or name any point. Its repr, which a falsifying example
    shows, is one line."""
    out = Cases()
    for sch in two_doubles:
        for link, table in zip(sch.links, sch.tables):
            lo, hi = link.xs[0] - 1, link.xs[-1] + 1
            wide = scheme_double.DoubleLink(
                link.own_vid,
                scheme_double.DoubleLabel(link.own.x, link.own.y, lo, hi),
                *(getattr(link, f) for f in link.__slots__[2:]))
            xs, ys = st.integers(lo, hi), st.integers(-sch.n - 1, sch.n + 1)
            on_link = st.sampled_from([(lab.x, lab.y) for lab in link.labs])
            inputs = st.tuples(on_link | st.tuples(xs, ys),
                               st.none() | on_link | st.tuples(xs, ys))
            out += [(link, table, inputs), (wide, table, inputs)]
    return out


@hypothesis.given(data=st.data())
@hypothesis.settings(max_examples=1400, deadline=None)
def test_step_matches_reference_on_drawn_inputs(drawn_links, data):
    # one link an example, of the 72 of both schemes, as built or
    # widened, so a failing example is two draws, quick to shrink. Each
    # example costs hypothesis about a millisecond of its own, so 1400
    # examples (half the links that 40 examples drawing at every link
    # covered) keep the passing run as short as that test's was
    link, table, inputs = drawn_links[data.draw(
        st.integers(0, len(drawn_links) - 1))]
    (tx, ty), header = data.draw(inputs)
    args = link, table, scheme_double.DoubleLabel(tx, ty, tx, tx), header
    assert outcome(scheme_double.route_step_double, *args) == \
        outcome(oracles.reference_step_double, *args)


def test_step_makes_no_nested_python_call():
    # a hop costs one Python frame: replayed under a profiler, every step
    # of all-pairs routes calls no Python function, except DoubleLink.find
    # on a hop that carries a header
    sch = scheme_double.preprocess_double(*make_double(60, 1))
    step = scheme_double.route_step_double
    find = scheme_double.DoubleLink.find.__code__
    calls, finds = [], 0

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code)

    for link, table, target, header in route_hops(sch):
        calls.clear()
        sys.setprofile(profile)
        try:
            step(None, link, table, target, header)
        finally:
            sys.setprofile(None)
        assert calls[0] is step.__code__
        assert all(c is find and header is not None for c in calls[1:]), \
            [c.co_name for c in calls[1:]]
        finds += len(calls) - 1
    assert finds > 100
