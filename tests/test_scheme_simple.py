import copy

import numpy as np
import pytest

from histroute import engine, scheme_simple

import oracles
from conftest import make_double


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
    for v in range(8):
        assert ids[ptr[v]:ptr[v + 1]].tolist() == g.neighbors_of(v).tolist()


def test_links_hold_closed_neighborhood_ascending(small_simples):
    for h, g in small_simples:
        sch = scheme_simple.preprocess_simple(h, g)
        again = scheme_simple.parse_dump(scheme_simple.dump_scheme(sch))
        for s in (sch, again):
            for v in range(h.n):
                link = s.link_of(v)
                assert list(link.ids) == sorted(
                    [v, *g.neighbors_of(v).tolist()])
                assert list(link.br) == [
                    -1 if br is None else br
                    for br in (s.label_of(u).br for u in link.ids)]


def test_route_trace_steps(sch_steps):
    assert engine.run_route(sch_steps, 2, 6) == [2, 0, 7, 6]
    assert engine.run_route(sch_steps, 6, 2) == [6, 7, 3, 2]


def test_route_step_invisible_in_interval(sch_steps):
    # target 6 sits between the near dominator 4 (breakpoint 5) and the
    # far dominator 7; outside [4,5] the far dominator wins
    link = sch_steps.link_of(0)
    port = scheme_simple.route_step_simple(
        link, sch_steps.table_of(0), sch_steps.label_of(6))
    assert link.ids[port] == 7
    port = scheme_simple.route_step_simple(
        link, sch_steps.table_of(0), sch_steps.label_of(5))
    assert link.ids[port] == 4


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


def test_dump_read_takes_rows_and_ids_in_any_order(sch_steps):
    head, *rows = scheme_simple.dump_scheme(sch_steps).splitlines()
    rng = np.random.default_rng(2)
    shuffled = []
    for i in rng.permutation(len(rows)):
        *fields, ids = rows[i].split(" | ")
        ids = " ".join(rng.permutation(ids.split()).tolist())
        shuffled.append(" | ".join([*fields, ids]))
    again = scheme_simple.parse_dump("\n".join([head, *shuffled]))
    assert scheme_simple.dump_scheme(again) == \
        scheme_simple.dump_scheme(sch_steps)


def test_parse_dump_rejects_garbage():
    with pytest.raises(Exception):
        scheme_simple.parse_dump("not a scheme\n")


def test_route_unknown_target_raises(sch_steps):
    with pytest.raises(Exception):
        engine.run_route(sch_steps, 0, 99)


def test_labels_match_oracle(small_simples, random_simples):
    for h, g in small_simples + random_simples:
        sch = scheme_simple.preprocess_simple(h, g)
        for v in range(h.n):
            assert sch.label_of(v) == oracles.simple_label(g, v), \
                f"n={h.n} v={v}"


@pytest.mark.parametrize("text,reason", [
    ("", "not a simple scheme dump"),
    ("scheme simple -1\n", "at least one vertex"),
    ("scheme simple 2\n0 | 0 | 0 | 1\n", "expected 2 rows"),
    ("scheme simple 2\n0 | 0 | 0 | 1\n2 | 1 | 0 | 0\n", "row id 2 is outside"),
    ("scheme simple 2\n0 | 0 | 0 | 1\n-1 | 1 | 0 | 0\n", "row id -1"),
    ("scheme simple 2\n0 | 0 | 0 | 1\n1 | 1 | 0 | -1\n", "neighbor id"),
    ("scheme simple 2\n0 | 0 | 0 | 2\n1 | 1 | 0 | 0\n", "row 0: neighbor id"),
    ("scheme simple 2\n0 | 0 | 2 | 1\n1 | 1 | 0 | 0\n", "bit field"),
    ("scheme simple 2\n0 | 0 | true | 1\n1 | 1 | 0 | 0\n", "bit field"),
    ("scheme simple 2\n0 | 1 | 0 | 1\n1 | 1 | 0 | 0\n", "label"),
    ("scheme simple 2\n0 |  | 0 | 1\n1 | 1 | 0 | 0\n", "label"),
    ("scheme simple 2\n0 | 0 | 0 | 1\n1 | 1 | 0\n", "malformed row"),
    ("scheme simple 2\n0 | 0 | 0 | 1 1\n1 | 1 | 0 | 0\n",
     "row 0 lists 1 more often than row 1 lists 0"),
    ("scheme simple 2\n0 | 0 | 0 | 1\n1 | 1 | 0 |\n",
     "row 0 lists 1 more often than row 1 lists 0"),
    ("scheme simple 2\n0 | 0 | 0 | 0 1\n1 | 1 | 0 | 0 1\n",
     "row 0 lists itself"),
    ("scheme simple 2\n0 | 0 | 0 | 1 1\n1 | 1 | 0 | 0 0\n",
     "row 0 lists 1 twice"),
    # breakpoints are ids in [0, n); ids beyond int64 are out of range too
    ("scheme simple 2\n0 | 0 2 | 0 | 1\n1 | 1 | 0 | 0\n",
     r"row 0: breakpoint 2 is outside \[0, 2\)"),
    ("scheme simple 2\n0 | 0 | 0 | 1\n1 | 1 -1 | 0 | 0\n",
     r"row 1: breakpoint -1 is outside \[0, 2\)"),
    (f"scheme simple 2\n0 | 0 {2**63} | 0 | 1\n1 | 1 | 0 | 0\n",
     rf"row 0: breakpoint {2**63} is outside \[0, 2\)"),
    (f"scheme simple 2\n0 | 0 | 0 | 1\n1 | 1 | 0 | {-2**64}\n",
     r"row 1: neighbor id outside \[0, 2\)"),
    (f"scheme simple 2\n0 | 0 | 0 | 1\n{2**63} | 1 | 0 | 0\n",
     rf"row id {2**63} is outside \[0, 2\)"),
    (f"scheme simple 2\n0 | {2**64} | 0 | 1\n1 | 1 | 0 | 0\n",
     "row 0: label must be"),
])
def test_parse_dump_strict(text, reason):
    with pytest.raises(ValueError, match=reason):
        scheme_simple.parse_dump(text)


# single-field faults of one row: name -> (field index, the field's text
# in row v, the message for row v)
FAULTS = {
    "row-id": (0, lambda v: "2", lambda v: r"row id 2 is outside"),
    "label": (1, lambda v: f"{v} 0 1", lambda v: rf"row {v}: label must be"),
    "breakpoint": (1, lambda v: f"{v} 7",
                   lambda v: rf"row {v}: breakpoint 7 is outside"),
    "bit": (2, lambda v: "2", lambda v: "bit field must be 0 or 1, got '2'"),
    "neighbor": (3, lambda v: "x", lambda v: "invalid literal for int"),
}


@pytest.mark.parametrize("first,second", [
    (a, b) for a in FAULTS for b in FAULTS if FAULTS[a][0] != FAULTS[b][0]])
def test_parse_dump_reports_first_fault_in_file_order(first, second):
    # two faults in different fields: in two rows the earlier row's is
    # reported, whichever field it is in, and in one row the earlier
    # field's
    def text(placed):
        rows = [["0", "0", "0", "1"], ["1", "1", "0", "0"]]
        for v, name in placed:
            col, field, _ = FAULTS[name]
            rows[v][col] = field(v)
        return "scheme simple 2\n" + "".join(
            " | ".join(r) + "\n" for r in rows)

    with pytest.raises(ValueError, match=FAULTS[first][2](0)):
        scheme_simple.parse_dump(text([(0, first), (1, second)]))
    if FAULTS[first][0] < FAULTS[second][0]:
        with pytest.raises(ValueError, match=FAULTS[first][2](1)):
            scheme_simple.parse_dump(text([(1, first), (1, second)]))


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
