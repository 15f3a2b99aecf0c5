import copy

import numpy as np
import pytest

from histroute import dump, engine, scheme_simple

import oracles
from conftest import SIMPLE2, dump_arrays, faulty, make_double, pack, rows, \
    with_rows


def test_labels_rect(sch_rect):
    labs = [sch_rect.label_of(v) for v in range(4)]
    assert [(lab.vid, lab.br) for lab in labs] == \
        [(0, 1), (1, None), (2, None), (3, 2)]


def test_labels_steps(sch_steps):
    assert sch_steps.label_of(4) == scheme_simple.SimpleLabel(4, 5)
    assert sch_steps.label_of(1) == scheme_simple.SimpleLabel(1, None)


def test_table_bits_steps(sch_steps):
    assert [sch_steps.table_of(v) for v in range(8)] == \
        [False, True, True, False, False, False, False, False]


def test_size_bounds(sch_rect, sch_steps):
    for sch, n in ((sch_rect, 4), (sch_steps, 8)):
        w = (n - 1).bit_length()
        assert sch.max_label_bits <= 2 * w
        assert sch.max_table_bits == 1
        assert sch.max_header_bits == 0


def test_neighbor_ids(sch_steps, steps):
    h, g = steps
    ptr, ids = sch_steps.indptr, sch_steps.indices
    nbrs = oracles.neighbor_lists(g)
    for v in range(8):
        assert ids[ptr[v]:ptr[v + 1]].tolist() == nbrs[v]


def test_links_hold_closed_neighborhood_ascending(small_simples):
    for h, g in small_simples:
        sch = scheme_simple.preprocess_simple(h, g)
        again = scheme_simple.parse_dump(scheme_simple.dump_scheme(sch))
        nbrs = oracles.neighbor_lists(g)
        for s in (sch, again):
            for v in range(h.n):
                link = s.links[v]
                assert list(link.ids) == sorted([v, *nbrs[v]])
                assert list(link.br) == [
                    -1 if br is None else br
                    for br in (s.label_of(u).br for u in link.ids)]


def test_route_trace_steps(sch_steps):
    assert engine.run_route(sch_steps, 2, 6) == [2, 0, 7, 6]
    assert engine.run_route(sch_steps, 6, 2) == [6, 7, 3, 2]


def test_route_step_invisible_in_interval(sch_steps):
    # target 6 sits between the near dominator 4 (breakpoint 5) and the
    # far dominator 7; outside [4,5] the far dominator wins
    link = sch_steps.links[0]
    port, hdr = scheme_simple.route_step_simple(
        None, link, sch_steps.tables[0], sch_steps.label_of(6), None)
    assert link.ids[port] == 7 and hdr is None
    port, hdr = scheme_simple.route_step_simple(
        None, link, sch_steps.tables[0], sch_steps.label_of(5), None)
    assert link.ids[port] == 4 and hdr is None


def test_route_rect_all_direct(sch_rect):
    for s in range(4):
        for t in range(4):
            if s != t:
                assert engine.run_route(sch_rect, s, t) == [s, t]


def test_route_all_pairs_exact(sch_steps, steps):
    h, g = steps
    rep = engine.verify_all_pairs(sch_steps, g)
    assert rep.ok
    assert rep.pairs == 8 * 7
    assert rep.max_stretch == 1.0


def test_corpus_exact(small_simples):
    for h, g in small_simples:
        sch = scheme_simple.preprocess_simple(h, g)
        rep = engine.verify_all_pairs(sch, g)
        assert rep.ok and rep.max_stretch == 1.0, f"n={h.n}"
        w = (h.n - 1).bit_length()
        assert sch.max_label_bits <= 2 * w


def test_preprocess_rejects_double():
    h, g = make_double(12, seed=3)
    with pytest.raises(engine.SchemeBuildError):
        scheme_simple.preprocess_simple(h, g)


def test_dump_round_trip(sch_steps):
    text = scheme_simple.dump_scheme(sch_steps)
    again = scheme_simple.parse_dump(text)
    assert again.kind == "simple" and again.n == 8
    assert again.max_label_bits == sch_steps.max_label_bits
    assert np.array_equal(again.indptr, sch_steps.indptr)
    assert np.array_equal(again.indices, sch_steps.indices)
    for v in range(8):
        assert again.label_of(v) == sch_steps.label_of(v)
        assert again.table_of(v) == sch_steps.table_of(v)
    assert engine.run_route(again, 2, 6) == [2, 0, 7, 6]


def test_dump_read_rejects_a_row_out_of_order(sch_steps):
    # the container keeps each row ascending, as the CSR does; a row in
    # another order is a fault of that row
    arrays = dump_arrays(sch_steps)
    ptr, ids = arrays["indptr"], arrays["indices"]
    v = next(v for v in range(8) if ptr[v + 1] - ptr[v] > 1)
    row = ids[ptr[v]:ptr[v + 1]].tolist()
    data = pack("simple", 8, with_rows(arrays, {v: row[::-1]}))
    with pytest.raises(dump.DumpError, match=(
            f"^row {v} is out of order: {row[-1]} before {row[-2]}$")):
        scheme_simple.parse_dump(data)


def test_parse_dump_rejects_garbage():
    with pytest.raises(dump.DumpError):
        scheme_simple.parse_dump(b"not a scheme\n")


def test_route_unknown_target_raises(sch_steps):
    with pytest.raises(Exception):
        engine.run_route(sch_steps, 0, 99)


def test_labels_match_oracle(small_simples, random_simples):
    for h, g in small_simples + random_simples:
        sch = scheme_simple.preprocess_simple(h, g)
        for v in range(h.n):
            assert sch.label_of(v) == oracles.simple_label(g, v), \
                f"n={h.n} v={v}"


# a str is a dump in the row notation of conftest.rows; bytes go to
# the reader as they are
TEXT_REFUSED = "not a simple scheme dump: it does not start with"


@pytest.mark.parametrize("data,reason", [
    (b"", "not a simple scheme dump"),
    pytest.param(pack("simple", 0, {"indptr": [0], "indices": [], "br": [],
                                    "bit": []}),
                 "at least one vertex", id="no-vertices"),
    ("scheme simple 2\n0 | 0 | 0 | 1\n1 | 1 | 0 | -1\n", "neighbor id"),
    ("scheme simple 2\n0 | 0 | 0 | 2\n1 | 1 | 0 | 0\n", "row 0: neighbor id"),
    pytest.param(pack("simple", 2, {**SIMPLE2, "indices": [1, 2**63 - 1]}),
                 r"row 1: neighbor id outside \[0, 2\)",
                 id="neighbor-at-int64-max"),
    ("scheme simple 2\n0 | 0 | 2 | 1\n1 | 1 | 0 | 0\n", "bit field"),
    pytest.param(pack("simple", 2, {**SIMPLE2, "bit": [0, -1]}),
                 "row 1: bit field must be 0 or 1, got -1", id="bit-negative"),
    # a repeated listing is reported before the missing match
    ("scheme simple 2\n0 | 0 | 0 | 1 1\n1 | 1 | 0 | 0\n",
     "row 0 lists 1 twice"),
    ("scheme simple 2\n0 | 0 | 0 | 1\n1 | 1 | 0 |\n",
     "row 0 lists 1 more often than row 1 lists 0"),
    ("scheme simple 2\n0 | 0 | 0 | 0 1\n1 | 1 | 0 | 0 1\n",
     "row 0 lists itself"),
    ("scheme simple 2\n0 | 0 | 0 | 1 1\n1 | 1 | 0 | 0 0\n",
     "row 0 lists 1 twice"),
    ("scheme simple 2\n0 | 0 2 | 0 | 1\n1 | 1 | 0 | 0\n",
     r"row 0: breakpoint 2 is outside \[0, 2\)"),
    # -1 is no breakpoint
    pytest.param(pack("simple", 2, {**SIMPLE2, "br": [-1, -2]}),
                 r"row 1: breakpoint -2 is outside \[0, 2\)",
                 id="breakpoint-below"),
    pytest.param(pack("simple", 2, {**SIMPLE2, "br": [-2**63, -1]}),
                 rf"row 0: breakpoint {-2**63} is outside \[0, 2\)",
                 id="breakpoint-at-int64-min"),
    pytest.param(pack("double", 2, SIMPLE2), "not a simple scheme dump$",
                 id="wrong-kind"),
    pytest.param(pack("simple", 2, {**SIMPLE2, "bit": [0, 0, 0]}),
                 "dump table: bit has length 3, expected 2",
                 id="column-length"),
    pytest.param(pack("simple", 2, {**SIMPLE2, "indptr": [0, 1]}),
                 "dump table: indptr has length 2, expected 3",
                 id="indptr-length"),
    pytest.param(pack("simple", 2, {"indptr": [0, 1, 2], "indices": [1, 0],
                                    "bit": [0, 0], "br": [-1, -1]}),
                 "dump table: expected 'br <width> <length>', got 'bit 1 2'",
                 id="columns-swapped"),
    # dumps in the text format that the container replaced, some with
    # values beyond int64, are refused at the magic, before any is read
    (b"scheme simple 2\n0 | 0 | 0 | 1\n1 | 1 -1 | 0 | 0\n", TEXT_REFUSED),
    (b"scheme simple 2\n0 | 0 | true | 1\n1 | 1 | 0 | 0\n", TEXT_REFUSED),
    (f"scheme simple 2\n0 | 0 {2**63} | 0 | 1\n1 | 1 | 0 | 0\n".encode(),
     TEXT_REFUSED),
    (f"scheme simple 2\n0 | 0 | 0 | 1\n1 | 1 | 0 | {-2**64}\n".encode(),
     TEXT_REFUSED),
    (f"scheme simple 2\n0 | 0 | 0 | 1\n{2**63} | 1 | 0 | 0\n".encode(),
     TEXT_REFUSED),
    (f"scheme simple 2\n0 | {2**64} | 0 | 1\n1 | 1 | 0 | 0\n".encode(),
     TEXT_REFUSED),
])
def test_parse_dump_strict(data, reason):
    with pytest.raises(dump.DumpError, match=reason):
        scheme_simple.parse_dump(rows(data) if isinstance(data, str)
                                 else data)


# faults named after the text-row fields whose role their arrays took
# over (see conftest.faulty): the row id's is the row's indptr entry,
# the label's the breakpoint column, below -1 (no breakpoint) or beyond
FAULTS = {
    "row-id": (1, lambda v: [("indptr", v + 1, v - 1)],
               lambda v: rf"row {v}: indptr falls from {v} to {v - 1}"),
    "label": (2, lambda v: [("br", v, -2)],
              lambda v: rf"row {v}: breakpoint -2 is outside"),
    "breakpoint": (2, lambda v: [("br", v, 7)],
                   lambda v: rf"row {v}: breakpoint 7 is outside"),
    "bit": (2, lambda v: [("bit", v, 2)],
            lambda v: f"row {v}: bit field must be 0 or 1, got 2"),
    "neighbor": (2, lambda v: [("indices", v, 9)],
                 lambda v: rf"row {v}: neighbor id outside \[0, 2\)"),
}


@pytest.mark.parametrize("first,second", [
    (a, b) for a in FAULTS for b in FAULTS if a != b])
def test_parse_dump_reports_first_fault_in_file_order(first, second):
    # two faults, at two vertices and at one (where they change two
    # entries); each vertex has one listing, at its own index
    for placed in ([(0, first), (1, second)], [(1, first), (1, second)]):
        case = faulty("simple", SIMPLE2, FAULTS, placed)
        if case is not None:
            with pytest.raises(dump.DumpError, match=case[1]):
                scheme_simple.parse_dump(case[0])


def _tampered(graph, drop=None, **changes):
    """A copy of the graph with some landmark entries overwritten and
    the edge drop = (u, v) taken out of the CSR."""
    g = copy.deepcopy(graph) if drop is None \
        else oracles.without_edge(graph, *drop)
    for name, (v, value) in changes.items():
        getattr(g.lm, name)[v] = value
    return g


@pytest.mark.parametrize("changes,reason", [
    ({"l_vid": (2, -1)}, "non-vertex landmark at 2"),
    # I(2) reaches x=3 but still claims to end at id 3
    ({"r_x": (2, 3)}, r"I\(2\) is not the id range \[0,3\]"),
    # I(5) reaches x=2 but still claims to start at id 4
    ({"l_x": (5, 2)}, r"I\(5\) is not the id range \[4,7\]"),
    # the right count of ids, 2..5, but ids 2 and 3 lie left of I(4)
    ({"l_vid": (4, 2), "r_vid": (4, 5), "l_x": (4, 3)},
     r"I\(4\) is not the id range \[2,5\]"),
    # the right count of ids, 2..5, but ids 4 and 5 lie right of I(4)
    ({"l_vid": (4, 2), "r_vid": (4, 5), "r_x": (4, 2)},
     r"I\(4\) is not the id range \[2,5\]"),
    # consistent id ranges that the neighbors of 1 and 5 do not reach
    ({"r_vid": (1, 5), "r_x": (1, 3)}, "closed neighborhood of 1"),
    ({"l_vid": (5, 2), "l_x": (5, 2)}, "closed neighborhood of 5"),
    # without the edge 1-0, 1's closed neighborhood starts at id 1
    ({"drop": (1, 0)}, "closed neighborhood of 1"),
], ids=["non-vertex", "extra-vertex", "extra-vertex-left", "range-left",
        "range-right", "neighborhood-right", "neighborhood-left",
        "dropped-edge"])
def test_preprocess_rejects_inconsistent_landmarks(steps, changes, reason):
    h, g = steps
    with pytest.raises(engine.SchemeBuildError, match=reason):
        scheme_simple.preprocess_simple(h, _tampered(g, **changes))
