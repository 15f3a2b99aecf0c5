"""The dump container: array widths, byte-exact round trips, the table,
and damaged bytes."""

import itertools
import re

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from histroute import dump, engine, scheme_double, scheme_simple

import oracles
from conftest import DOUBLE2, SIMPLE2, pack

MODULES = {"simple": scheme_simple, "double": scheme_double}
FIRST = {"simple": "br", "double": "x"}     # each kind's first field


def double_table(data):
    """The table of a double dump, {name: (width, length)}."""
    head, *lines, arrays = data.split(b"\n", len(DOUBLE2) + 1)
    return {name.decode(): (int(w), int(length))
            for name, w, length in map(bytes.split, lines)}


@pytest.mark.parametrize("value, width", [
    (-2**7, 1), (2**7 - 1, 1), (-2**7 - 1, 2), (2**7, 2),
    (-2**15, 2), (2**15 - 1, 2), (-2**15 - 1, 4), (2**15, 4),
    (-2**31, 4), (2**31 - 1, 4), (-2**31 - 1, 8), (2**31, 8),
    (-2**63, 8), (2**63 - 1, 8),
])
def test_column_takes_the_narrowest_width(sch_dbl, value, width):
    # a table field holding value is stored at the narrowest signed
    # width that holds it, and reads back as written; the other arrays
    # keep width 1
    sch = scheme_double.DoubleScheme(
        sch_dbl.n, {**sch_dbl.cols, "bd2x": np.where(
            np.arange(sch_dbl.n) == 3, value, sch_dbl.cols["bd2x"])},
        sch_dbl.indptr, sch_dbl.indices,
        scheme_double.DoubleScheme.link_rows(
            sch_dbl.n, sch_dbl.cols, sch_dbl.indptr, sch_dbl.indices))
    data = dump.write(sch)
    widths = {name: w for name, (w, _) in double_table(data).items()}
    assert widths == {**dict.fromkeys(widths, 1), "bd2x": width}
    if -2**62 < value < 2**62:
        assert scheme_double.parse_dump(data).table_of(3).bd2x == value
    else:
        with pytest.raises(dump.DumpError, match=(
                f"^row 3: table field {value} is out of range")):
            scheme_double.parse_dump(data)


@pytest.mark.parametrize("name", [
    "sch_rect", "sch_steps", "sch_dbl", "sch_drect", "small_simples",
    "small_doubles", "random_simples", "random_doubles"])
def test_write_read_write_gives_the_same_bytes(request, name):
    # every fixture's dump reads back to a scheme that dumps the same
    # bytes, with the same labels, tables and links
    found = request.getfixturevalue(name)
    schemes = [found] if name.startswith("sch_") else [
        getattr(MODULES[h.kind], f"preprocess_{h.kind}")(h, g)
        for h, g in found]
    for sch in schemes:
        data = dump.write(sch)
        again = MODULES[sch.kind].parse_dump(data)
        assert dump.write(again) == data
        assert again.labels == sch.labels and again.tables == sch.tables
        for a, b in zip(again.links, sch.links):
            assert [getattr(a, f) for f in a.__slots__] == \
                [getattr(b, f) for f in b.__slots__]


@pytest.mark.parametrize("kind, name", [
    *(("simple", name) for name in SIMPLE2),
    *(("double", name) for name in DOUBLE2)])
def test_table_names_each_array_in_order(kind, name):
    # one more entry in any array is a table fault, or for indices,
    # whose length only indptr fixes, an indptr fault; and an array
    # named out of its place is a table fault
    arrays = SIMPLE2 if kind == "simple" else DOUBLE2
    longer = pack(kind, 2, {**arrays, name: [*arrays[name], 0]})
    reason = ("^indptr ends at 2, not at 3, the length of indices$"
              if name == "indices" else
              f"^dump table: {name} has length {len(arrays[name]) + 1}, "
              f"expected {len(arrays[name])}$")
    with pytest.raises(dump.DumpError, match=reason):
        MODULES[kind].parse_dump(longer)
    names = list(arrays)
    i = names.index(name)
    j = i + 1 if i + 1 < len(names) else i - 1
    names[i], names[j] = names[j], names[i]
    swapped = pack(kind, 2, {k: arrays[k] for k in names})
    first = names[min(i, j)]
    with pytest.raises(dump.DumpError, match=(
            f"^dump table: expected '{list(arrays)[min(i, j)]} <width> "
            f"<length>', got '{first} 1 ")):
        MODULES[kind].parse_dump(swapped)


@pytest.mark.parametrize("fixture, other", [("sch_steps", "double"),
                                            ("sch_dbl", "simple")])
def test_a_header_naming_the_other_kind_names_the_first_field(request,
                                                              fixture, other):
    # each table line is checked as it is read, so a simple dump read as
    # a double one fails at br, not as truncated past the simple table
    sch = request.getfixturevalue(fixture)
    data = dump.write(sch)
    swapped = data.replace(f" {sch.kind} ".encode(), f" {other} ".encode(), 1)
    got = data.split(b"\n")[3].decode()
    assert got.startswith(f"{sch.fields[0]} 1 ")
    with pytest.raises(dump.DumpError, match=(
            f"^dump table: expected '{FIRST[other]} <width> "
            f"<length>', got '{got}'$")):
        dump.read(swapped, scheme_simple.SimpleScheme,
                  scheme_double.DoubleScheme)


@pytest.mark.parametrize("fixture", ["sch_steps", "sch_dbl"])
def test_every_prefix_is_rejected(request, fixture):
    # a dump cut anywhere short of its end names the fault, whether the
    # cut falls in the header, the table or the arrays
    sch = request.getfixturevalue(fixture)
    data = dump.write(sch)
    for end in range(len(data)):
        with pytest.raises(dump.DumpError):
            MODULES[sch.kind].parse_dump(data[:end])


@pytest.mark.parametrize("fixture", ["sch_steps", "sch_dbl"])
def test_every_flipped_byte_loads_or_is_rejected(request, fixture):
    # any one byte changed, in any of its bits: the dump is rejected
    # with DumpError, or it loads and every route on it ends in a trace
    # or a RoutingError
    sch = request.getfixturevalue(fixture)
    data = dump.write(sch)
    loaded = 0
    for at, bit in itertools.product(range(len(data)), range(8)):
        flipped = bytearray(data)
        flipped[at] ^= 1 << bit
        try:
            again = MODULES[sch.kind].parse_dump(bytes(flipped))
        except dump.DumpError:
            continue
        loaded += 1
        for s, t in itertools.product(range(sch.n), repeat=2):
            try:
                engine.run_route(again, s, t)
            except engine.RoutingError:
                pass
    assert loaded > 0


def edit_listings(lists, ops):
    """lists, one list of neighbor ids per vertex, after the ops in
    order, each (op, u, i, w): "drop" drops row u's i-th listing (i
    taken modulo the row's length), "add" lists w in row u and "move"
    retargets row u's i-th listing to w. An op that cannot apply (an
    empty row, w already in row u or w = u) is skipped, so every row
    stays strictly ascending without itself."""
    lists = [set(row) for row in lists]
    for op, u, i, w in ops:
        row = sorted(lists[u])
        fits = w != u and w not in lists[u]
        if op == "add" and fits:
            lists[u].add(w)
        elif row and (op == "drop" or fits):
            lists[u].discard(row[i % len(row)])
            if op == "move":
                lists[u].add(w)
    return [sorted(row) for row in lists]


@hypothesis.given(data=st.data())
@hypothesis.settings(max_examples=300, deadline=None)
def test_symmetry_check_matches_the_sorted_search(data):
    # a symmetric graph with one to three listings dropped, added or
    # retargeted: the reader accepts exactly when the oracle's sorted
    # search finds every listing's match, and otherwise raises its
    # message. The columns let no other check fire: no breakpoints,
    # and double intervals that span every x
    kind = data.draw(st.sampled_from(["simple", "double"]))
    n = data.draw(st.integers(2, 8))
    edges = data.draw(st.sets(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1))))
    lists = [[v for e in edges for v in e if u in e and v != u]
             for u in range(n)]
    vertex = st.integers(0, n - 1)
    ops = data.draw(st.lists(st.tuples(
        st.sampled_from(["drop", "add", "move"]), vertex,
        st.integers(0, n), vertex), min_size=1, max_size=3))
    lists = edit_listings(lists, ops)
    indptr = np.cumsum([0, *map(len, lists)])
    indices = [v for row in lists for v in row]
    cols = ({"br": [-1] * n, "bit": [0] * n} if kind == "simple" else {
        "x": range(n), "y": [1] * n, "ilo": [0] * n, "ihi": [n] * n,
        **dict.fromkeys(scheme_double.DoubleScheme.fields[4:], [0] * n)})
    blob = pack(kind, n, {"indptr": indptr, "indices": indices, **cols})
    fault = oracles.symmetry_fault(n, indptr, indices)
    if fault is None:
        assert MODULES[kind].parse_dump(blob).indices.tolist() == indices
    else:
        with pytest.raises(dump.DumpError, match=f"^{re.escape(fault)}$"):
            MODULES[kind].parse_dump(blob)
