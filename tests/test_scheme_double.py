import copy

import numpy as np
import pytest

from histroute import engine, polygon, scheme_double

import invariants
import oracles
from conftest import make_double, make_simple


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
    # agree with the global definitions
    for h, g in small_doubles + random_doubles:
        sch = scheme_double.preprocess_double(h, g)
        for s in range(h.n):
            link = sch.link_of(s)
            ca, cb = scheme_double._local_chains(link)
            ga, gb = oracles.extension_sequences(g, s)
            assert [link.ids[p] for p, _ in ca] == ga
            assert [link.ids[p] for p, _ in cb] == gb
            bd, td = oracles.local_vertical_dominators(link)
            bds, tds = oracles.k_dominators(g, s, 1)
            assert bd[0] == bds[1] and td[0] == tds[1]
            assert (link.ids[link.bd], link.ids[link.td]) == (bd[0], td[0])
        for s, t in invariants.invisible_interval_pairs(g):
            link = sch.link_of(s)
            nd, fd = scheme_double._local_dominators(link, int(h.xs[t]))
            gnd, gfd = oracles.dominators(g, s, t)
            assert link.ids[nd] == gnd
            assert (None if fd is None else link.ids[fd]) == gfd


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
            port, hdr = sch.step(sch.link_of(s), sch.table_of(s),
                                 target, None)
            assert sch.link_of(s).ids[port] == fd and hdr is None
            if 1 + int(d[fd, t]) > int(d[s, t]):
                port, _ = sch.step(sch.link_of(fd), sch.table_of(fd),
                                   target, None)
                nxt2 = sch.link_of(fd).ids[port]
                assert nxt2 == oracles.fd2(g, s, t)
                assert int(d[nxt2, t]) == int(d[s, t]) - 1


def test_links_hold_closed_neighborhood_in_link_order(small_doubles):
    # link order: by x, then distance to the base line, then y; the
    # reloaded scheme orders its links alike
    for h, g in small_doubles:
        sch = scheme_double.preprocess_double(h, g)
        again = scheme_double.parse_dump(scheme_double.dump_scheme(sch))
        for s in (sch, again):
            for v in range(h.n):
                closed = [v, *g.neighbors_of(v).tolist()]
                closed.sort(key=lambda u: (int(h.xs[u]), abs(int(h.ys[u])),
                                           int(h.ys[u])))
                link = s.link_of(v)
                assert list(link.ids) == closed
                assert list(zip(link.xs, link.ys, link.ilo, link.ihi)) == \
                    [(lab.x, lab.y, lab.ilo, lab.ihi)
                     for lab in map(s.label_of, closed)]


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
    port, hdr = sch_dbl.step(link, sch_dbl.table_of(1), target,
                             (lab3.x, lab3.y))
    assert link.ids[port] == 3 and hdr is None


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


def test_preprocess_rejects_unnormalized(dbl_raw, dbl):
    h, g = dbl_raw
    with pytest.raises(engine.SchemeBuildError):
        scheme_double.preprocess_double(h, g)
    # one axis off its ranks at a time, each with its own message
    h, g = dbl
    for xs, ys, axis in ((h.xs * 2, h.ys, "x"), (h.xs, h.ys * 2, "y")):
        with pytest.raises(engine.SchemeBuildError,
                           match=f"{axis} coordinates are not normalized"):
            scheme_double.preprocess_double(
                polygon.Histogram("double", xs, ys), g)


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
    (f"scheme double 2\n{ROW0}\n{ROW1.replace('1 -1', '1 0')}\n",
     r"row 1: vertex \(1,0\) must lie off the base line"),
    (f"scheme double 2\n{ROW0}\n{ROW1.replace('1 -1', f'{2**62} -1')}\n",
     r"\|x\|, \|y\| < 2\*\*62"),
    # every other field needs |c| < 2**62; a value beyond int64 is one
    # more out-of-range value, and so are ids beyond it
    (f"scheme double 2\n{ROW0}\n{ROW1.replace('1 -1', f'{2**63} -1')}\n",
     rf"row 1: vertex \({2**63},-1\) must lie off"),
    (f"scheme double 2\n{ROW0}\n{ROW1.replace('| 0 1 |', f'| 0 {2**62} |')}\n",
     rf"row 1: interval bound {2**62} is out of range"),
    (f"scheme double 2\n{ROW0}\n"
     f"{ROW1.replace('| 0 1 |', f'| {-2**64} 1 |')}\n",
     rf"row 1: interval bound {-2**64} is out of range"),
    (f"scheme double 2\n{ROW0.replace('0 1 0 1 0 1', f'0 1 0 1 {-2**62} 1')}"
     f"\n{ROW1}\n", rf"row 0: table field {-2**62} is out of range"),
    (f"scheme double 2\n{ROW0.replace('0 1 0 1 0 1', f'0 1 0 {10**30} 0 1')}"
     f"\n{ROW1}\n", rf"row 0: table field {10**30} is out of range"),
    (f"scheme double 2\n{ROW0}\n{ROW1[:-1]}{2**64}\n",
     r"row 1: neighbor id outside \[0, 2\)"),
    (f"scheme double 2\n{ROW0}\n{ROW1.replace('1 |', f'{2**63} |', 1)}\n",
     rf"row id {2**63} is outside \[0, 2\)"),
])
def test_parse_dump_strict(text, reason):
    with pytest.raises(ValueError, match=reason):
        scheme_double.parse_dump(text)


# single-field faults of one row: name -> (field index, the field's text
# in row v, the message for row v)
FAULTS = {
    "row-id": (0, lambda v: "5", lambda v: r"row id 5 is outside"),
    "base-line": (1, lambda v: "1 0",
                  lambda v: rf"row {v}: vertex \(1,0\) must lie off"),
    "coordinates": (1, lambda v: "1",
                    lambda v: rf"row {v}: expected 2 coordinates, got '1'"),
    "not-an-int": (1, lambda v: "1 x", lambda v: "invalid literal for int"),
    "bound": (2, lambda v: f"0 {2**62}",
              lambda v: rf"row {v}: interval bound {2**62} is out"),
    "table-count": (3, lambda v: "0 1 0",
                    lambda v: rf"row {v}: expected 6 table fields"),
    "table-range": (3, lambda v: f"0 1 0 1 0 {2**63}",
                    lambda v: rf"row {v}: table field {2**63} is out"),
    "bit": (4, lambda v: "3", lambda v: "bit field must be 0 or 1, got '3'"),
    "neighbor": (5, lambda v: "9",
                 lambda v: rf"row {v}: neighbor id outside \[0, 2\)"),
}


@pytest.mark.parametrize("first,second", [
    (a, b) for a in FAULTS for b in FAULTS if FAULTS[a][0] != FAULTS[b][0]])
def test_parse_dump_reports_first_fault_in_file_order(first, second):
    # two faults in different fields: in two rows the earlier row's is
    # reported, whichever field it is in, and in one row the earlier
    # field's
    def text(placed):
        rows = [ROW0.split(" | "), ROW1.split(" | ")]
        for v, name in placed:
            col, field, _ = FAULTS[name]
            rows[v][col] = field(v)
        return "scheme double 2\n" + "".join(
            " | ".join(r) + "\n" for r in rows)

    with pytest.raises(ValueError, match=FAULTS[first][2](0)):
        scheme_double.parse_dump(text([(0, first), (1, second)]))
    if FAULTS[first][0] < FAULTS[second][0]:
        with pytest.raises(ValueError, match=FAULTS[first][2](1)):
            scheme_double.parse_dump(text([(1, first), (1, second)]))


def test_parse_dump_minimal_rows_accepted():
    sch = scheme_double.parse_dump(f"scheme double 2\n{ROW0}\n{ROW1}\n")
    assert sch.indices[sch.indptr[0]:sch.indptr[1]].tolist() == [1]
    assert sch.table_of(1).bit_bottom is False


def _damaged(text):
    """The dump with one edge deleted from both of its rows, or with one
    label or table field shifted by 1 or 2, in every way."""
    head, *lines = text.splitlines()
    rows = [ln.split(" | ") for ln in lines]

    def text_with(changes):
        new = [list(r) for r in rows]
        for (v, col), value in changes.items():
            new[v][col] = value
        return "\n".join([head] + [" | ".join(r) for r in new]) + "\n"

    def without(v, u):
        return " ".join(i for i in rows[v][-1].split() if int(i) != u)

    for v, row in enumerate(rows):
        for u in map(int, row[-1].split()):
            if v < u:
                yield text_with({(v, 5): without(v, u), (u, 5): without(u, v)})
        for col in (1, 2, 3):
            fields = row[col].split()
            for i, f in enumerate(fields):
                for d in (-2, -1, 1, 2):
                    shifted = fields[:i] + [str(int(f) + d)] + fields[i + 1:]
                    yield text_with({(v, col): " ".join(shifted)})


@pytest.mark.parametrize("n,seed", [(8, 1), (8, 2), (12, 5)])
def test_damaged_dump_routes_or_raises_routing_error(n, seed):
    # a dump the reader accepts may still lie about the geometry; every
    # route on it must end in a trace or a RoutingError
    h, g = make_double(n, seed=seed)
    text = scheme_double.dump_scheme(scheme_double.preprocess_double(h, g))
    for damaged in _damaged(text):
        try:
            sch = scheme_double.parse_dump(damaged)
        except ValueError:
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


@pytest.mark.parametrize("shifts,drop,reason", [
    # widening I(7) alone makes its global level-1 dominators differ
    # from the ones its unchanged neighbors offer
    ([("l_x", 7, -1)], None, "local bottom/top dominators at 7"),
    ([("l_x", 1, 1)], None, r"dominators at 1 .* \(3,0\) vs \(3,3\)"),
    ([("l_x", 0, -1)], None, "level-2 interval of 0"),
    ([("l_x", 3, 1)], None, "0 does not see 3"),
    ([("r_x", 3, -2)], None, "level-1 dominators of 7 both miss 3"),
    # without the edge 0-3, 0's neighbors no longer hold its global
    # bottom dominator 3
    ([], (0, 3), r"dominators at 0 .* \(4,10\) vs \(3,10\)"),
], ids=["widened-7", "dominators-1", "level-2", "unseen-hop", "hop-missed",
        "dropped-edge"])
def test_preprocess_rejects_inconsistent_landmarks(dbl, shifts, drop, reason):
    h, g = dbl
    with pytest.raises(engine.SchemeBuildError, match=reason):
        scheme_double.preprocess_double(h, _tampered(g, shifts, drop))


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
        rows = engine.closed_rows(
            g.indptr, g.indices,
            scheme_double.DoubleScheme.link_order(h.n, cols))
        sch = scheme_double.DoubleScheme(h.n, cols, g.indptr, g.indices,
                                         rows)
        bd, td = scheme_double._row_vertical_dominators(h.xs, h.ys, *rows)
        for v in range(h.n):
            link = sch.link_of(v)
            lbd, ltd = oracles.local_vertical_dominators(link)
            assert (lbd[0], ltd[0]) == (link.ids[bd[v]], link.ids[td[v]]), \
                f"n={h.n} v={v}"
            assert (link.bd, link.td) == (bd[v], td[v])
