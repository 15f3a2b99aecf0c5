import numpy as np
import pytest

from histroute import polygon, visibility
from histroute import scheme_double, scheme_simple

H_RECT_TEXT = """\
simple 4
0 3
0 0
3 0
3 3
"""

H_STEPS_TEXT = """\
simple 8
0 4
0 0
2 0
2 3
3 3
3 1
7 1
7 4
"""

H_DBL_TEXT = """\
double 12
0 3
0 -3
2 -3
2 -1
3 -1
3 -2
9 -2
9 4
7 4
7 1
5 1
5 3
"""

# axis-aligned double rectangle: everything sees everything
H_DRECT_TEXT = """\
double 4
0 2
0 -1
4 -1
4 2
"""


def make_simple(text_or_n, seed=0):
    if isinstance(text_or_n, str):
        h = polygon.parse_polygon(text_or_n)
    else:
        h = polygon.generate("simple", text_or_n, seed=seed)
    g = visibility.build_graph(h)
    return h, g


def make_double(text_or_n, seed=0):
    if isinstance(text_or_n, str):
        h = polygon.parse_polygon(text_or_n)
    else:
        h = polygon.generate("double", text_or_n, seed=seed)
    h = polygon.normalize(h)
    g = visibility.build_graph(h)
    return h, g


# the dump arrays of two vertices that see each other, one of each kind
SIMPLE2 = {"indptr": [0, 1, 2], "indices": [1, 0], "br": [-1, -1],
           "bit": [0, 0]}
DOUBLE2 = {"indptr": [0, 1, 2], "indices": [1, 0], "x": [0, 1],
           "y": [1, -1], "ilo": [0, 0], "ihi": [1, 1], "i2bd_lo": [0, 0],
           "i2bd_hi": [1, 1], "i2td_lo": [0, 0], "i2td_hi": [1, 1],
           "bd2x": [0, 0], "bd2y": [1, 1], "bit_bottom": [1, 0]}


def dump_arrays(scheme):
    """The arrays of the scheme's dump, by name in dump order, as int64
    copies that a test may damage before it packs them."""
    return {name: np.array(a, dtype=np.int64) for name, a in (
        ("indptr", scheme.indptr), ("indices", scheme.indices),
        *((f, scheme.cols[f]) for f in scheme.fields))}


def with_rows(arrays, rows):
    """The arrays with the neighbor lists of the vertices in rows, a
    dict, replaced by the lists given, in the order given."""
    ptr, ids = arrays["indptr"], arrays["indices"]
    lists = [ids[a:b].tolist() for a, b in zip(ptr[:-1], ptr[1:])]
    for v, new in rows.items():
        lists[v] = list(new)
    return {**arrays, "indptr": np.cumsum([0, *map(len, lists)]),
            "indices": np.array([i for row in lists for i in row],
                                dtype=np.int64)}


def pack(kind, n, arrays, version=1, lines=None):
    """A dump container written from raw arrays, apart from dump.write:
    the header naming version, kind and n, a table line for each array
    of arrays (name -> values, in order), then each array's values as
    little-endian signed integers of the narrowest of 1, 2, 4 or 8 bytes
    that holds them. The values are packed as given, unchecked; lines
    (name -> text) replaces the table lines of the arrays it names."""
    table, raw = [f"histroute-dump {version} {kind} {n}"], []
    for name, values in arrays.items():
        a = np.asarray(values, dtype=np.int64)
        lo, hi = (int(a.min()), int(a.max())) if a.size else (0, 0)
        w = next(w for w in (1, 2, 4, 8)
                 if -2**(8 * w - 1) <= lo and hi < 2**(8 * w - 1))
        table.append((lines or {}).get(name, f"{name} {w} {len(a)}"))
        raw.append(a.astype(f"<i{w}").tobytes())
    return "\n".join([*table, ""]).encode() + b"".join(raw)


def rows(text):
    """The container of a small dump written row by row: a line
    'scheme <kind> <n>', then a line per vertex v in id order, 'v | v
    [br] | bit | ids' for a simple scheme (no br: none) and 'v | x y |
    ilo ihi | <six table fields> | bit | ids' for a double one, fields
    in the class's order. Packed unchecked, so the reader meets what
    the rows hold."""
    head, *lines = text.splitlines()
    _, kind, n = head.split()
    cls = {"simple": scheme_simple.SimpleScheme,
           "double": scheme_double.DoubleScheme}[kind]
    values, lists = [], []
    for line in lines:
        _, *fields, ids = (list(map(int, part.split()))
                           for part in line.split("|"))
        if kind == "simple":
            fields[0] = fields[0][1:] or [-1]
        values.append([c for f in fields for c in f])
        lists.append(ids)
    return pack(kind, n, {
        "indptr": np.cumsum([0, *map(len, lists)]),
        "indices": [i for ids in lists for i in ids],
        **{f: [vs[k] for vs in values] for k, f in enumerate(cls.fields)}})


def faulty(kind, base, faults, placed):
    """(data, reason): the dump of the arrays base with the faults
    placed, (vertex, name) pairs, made there, and the message pattern
    of the one the reader reports; None if two of them change one
    entry. faults maps a name to (stage, the changes at vertex v, the
    message at v), in the order the reader meets them: a stage 0 fault
    replaces table lines (name -> text) and comes first, in table
    order; a stage 1 fault changes indptr and a stage 2 fault the
    entries of a vertex, each as (array, index, value) triples, and
    these come by vertex, then in faults order."""
    arrays = {name: list(a) for name, a in base.items()}
    lines, changed = {}, set()
    for v, name in placed:
        stage, changes, _ = faults[name]
        for change in changes(v).items() if stage == 0 else changes(v):
            key = change[0] if stage == 0 else change[:2]
            if key in changed:
                return None
            changed.add(key)
            if stage == 0:
                lines[change[0]] = change[1]
            else:
                col, i, value = change
                arrays[col][i] = value
    v, name = min(placed, key=lambda p: (
        faults[p[1]][0], faults[p[1]][0] and p[0], list(faults).index(p[1])))
    return pack(kind, len(base["indptr"]) - 1, arrays, lines=lines), \
        faults[name][2](v)


def staircase_text(m, swaps=None):
    """A simple histogram with m teeth whose floors rise left to right,
    with the adjacent floors i, i + 1 swapped for each i of swaps in
    turn, by default every third pair: long intervals, many candidate
    edges per breakpoint."""
    heights = list(range(m))
    for i in range(0, m - 1, 3) if swaps is None else swaps:
        heights[i], heights[i + 1] = heights[i + 1], heights[i]
    pts = [(0, m), (0, heights[0])]
    for i in range(1, m):
        pts += [(i, heights[i - 1]), (i, heights[i])]
    pts += [(m, heights[-1]), (m, m)]
    return f"simple {len(pts)}\n" + "".join(f"{x} {y}\n" for x, y in pts)


def near_staircase(m):
    return make_simple(staircase_text(m))


@pytest.fixture(scope="session")
def rect():
    return make_simple(H_RECT_TEXT)


@pytest.fixture(scope="session")
def steps():
    return make_simple(H_STEPS_TEXT)


@pytest.fixture(scope="session")
def dbl():
    return make_double(H_DBL_TEXT)


@pytest.fixture(scope="session")
def dbl_raw():
    # unnormalized variant, for polygon-level tests
    h = polygon.parse_polygon(H_DBL_TEXT)
    return h, visibility.build_graph(h)


@pytest.fixture(scope="session")
def drect():
    return make_double(H_DRECT_TEXT)


@pytest.fixture(scope="session")
def sch_rect(rect):
    return scheme_simple.preprocess_simple(*rect)


@pytest.fixture(scope="session")
def sch_steps(steps):
    return scheme_simple.preprocess_simple(*steps)


@pytest.fixture(scope="session")
def sch_dbl(dbl):
    return scheme_double.preprocess_double(*dbl)


@pytest.fixture(scope="session")
def sch_drect(drect):
    return scheme_double.preprocess_double(*drect)


@pytest.fixture(scope="session")
def small_simples():
    """A handful of small random simple histograms for unit-level sweeps."""
    return [make_simple(4 + 2 * (i % 12), seed=100 + i) for i in range(16)]


@pytest.fixture(scope="session")
def small_doubles():
    return [make_double(8 + 2 * (i % 12), seed=200 + i) for i in range(16)]


RANDOM_SIZES = (8, 12, 20, 36, 60, 100, 140)


@pytest.fixture(scope="session")
def random_simples():
    """Random simple histograms from n=8 to 140, three per size."""
    return [make_simple(n, seed=500 + i)
            for i, n in enumerate(RANDOM_SIZES * 3)]


@pytest.fixture(scope="session")
def random_doubles():
    """Random double histograms from n=8 to 140, three per size."""
    return [make_double(n, seed=600 + i)
            for i, n in enumerate(RANDOM_SIZES * 3)]
