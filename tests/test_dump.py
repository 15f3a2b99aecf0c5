"""The dump container: array widths, byte-exact round trips, the table,
and damaged bytes."""

import itertools

import numpy as np
import pytest

from histroute import dump, engine, scheme_double, scheme_simple

from conftest import DOUBLE2, SIMPLE2, pack

MODULES = {"simple": scheme_simple, "double": scheme_double}


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
        engine.closed_rows(sch_dbl.indptr, sch_dbl.indices,
                           scheme_double.DoubleScheme.link_order(
                               sch_dbl.n, sch_dbl.cols)))
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
