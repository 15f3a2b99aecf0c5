import hashlib

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from histroute import dump, engine, polygon, scheme_simple, visibility

import oracles
from conftest import H_DBL_TEXT, H_RECT_TEXT, H_STEPS_TEXT, near_staircase


def pts(text):
    h = polygon.parse_polygon(text)
    return h.points()


def test_parse_fixtures():
    for text, kind, n in [(H_RECT_TEXT, "simple", 4),
                          (H_STEPS_TEXT, "simple", 8),
                          (H_DBL_TEXT, "double", 12)]:
        h = polygon.parse_polygon(text)
        assert h.kind == kind and h.n == n


def test_parse_comments_and_blanks():
    text = "# a comment\n\nsimple 4\n0 3\n\n0 0\n3 0\n# mid\n3 3\n"
    assert polygon.parse_polygon(text).n == 4


@pytest.mark.parametrize("text,code", [
    ("", "syntax"),
    ("simple\n", "syntax"),
    ("simple 4\n0 3\n0 0\n3 0\n", "syntax"),               # missing vertex
    ("simple 4\n0 3\n0 0\n3 0\n3 3\n9 9\n", "syntax"),      # extra vertex
    ("simple 4\n0 3\na b\n3 0\n3 3\n", "syntax"),
    ("triangle 4\n0 3\n0 0\n3 0\n3 3\n", "syntax"),
])
def test_parse_errors(text, code):
    with pytest.raises(polygon.PolygonError) as ei:
        polygon.parse_polygon(text)
    assert ei.value.code == code


SQUARE = [(0, 3), (0, 0), (3, 0), (3, 3)]
BIG = 99999999999999999999999
# (text, code, message); code None: the text parses to SQUARE
PARSE_MESSAGES = [
    ("", "syntax", "empty input"),
    ("# only a comment\n \t\n", "syntax", "empty input"),
    ("simple\n", "syntax", "line 1: expected '<kind> <n>', got 'simple'"),
    ("\n# kind\ntriangle 4\n0 3\n0 0\n3 0\n3 3\n", "syntax",
     "line 3: expected '<kind> <n>', got 'triangle 4'"),
    ("simple four\n0 3\n0 0\n3 0\n3 3\n", "syntax",
     "line 1: bad vertex count"),
    ("double 8.5\n" + "0 1\n" * 8, "syntax", "line 1: bad vertex count"),
    ("simple 4\n0 3\n0 0\n3 0\n", "syntax", "expected 4 vertex lines, got 3"),
    ("simple -1\n", "syntax", "expected -1 vertex lines, got 0"),
    ("simple 0\n", "closed-cycle",
     "need an even number of vertices, at least 4, got 0"),
    ("simple 4\n0 3\n\n0 0 1\n3 0\n3 3\n", "syntax",
     "line 4: expected '<x> <y>', got '0 0 1'"),
    ("simple 4\n0 3\n0\n3 0\n3 3", "syntax",
     "line 3: expected '<x> <y>', got '0'"),
    ("simple 4\n0 3\na b\n3 0\n3 3\n", "syntax",
     "line 3: coordinates must be integers"),
    # the first faulty line wins; on one line, the token count
    ("simple 4\n0 3\n0 x\n3 0 1\n3 3\n", "syntax",
     "line 3: coordinates must be integers"),
    ("simple 4\n0 3\n0 0 1\n3 x\n3 3\n", "syntax",
     "line 3: expected '<x> <y>', got '0 0 1'"),
    ("simple 4\n0 3\n0 x 1\n3 0\n3 3\n", "syntax",
     "line 3: expected '<x> <y>', got '0 x 1'"),
    # a coordinate beyond int64 is read, and rejected by its range
    (f"simple 4\n0 3\n0 0\n{BIG} 0\n{BIG} 3\n", "syntax",
     f"vertex 2: coordinate {BIG} is out of range, |c| must be below 2**62"),
    (f"simple 4\n0 3\n0 0\n{BIG} 0\nx 3\n", "syntax",
     "line 5: coordinates must be integers"),
    (f"simple 4\n0 3\n0 {BIG} 0\n{BIG} 0\n3 3\n", "syntax",
     f"line 3: expected '<x> <y>', got '0 {BIG} 0'"),
    # str.splitlines() line ends, str.split() whitespace and int() forms
    ("simple\t4\r\n 0 3 \n0\u30000\r3\xa00\x0c# c\x853\x1f\u2003+3\u2028",
     None, None),
    ("simple 4\n0 \u0663\n0 -0\n3 0\n0_3 3\n", None, None),
]


@pytest.mark.parametrize("text,code,message", PARSE_MESSAGES,
                         ids=[repr(t[:24]) for t, *_ in PARSE_MESSAGES])
def test_parse_messages(text, code, message):
    if code is None:
        h = polygon.parse_polygon(text)
        assert h.points() == SQUARE and h.xs.dtype == np.int64
        return
    with pytest.raises(polygon.PolygonError) as ei:
        polygon.parse_polygon(text)
    assert (ei.value.code, ei.value.message) == (code, message)


def rejection(p, kind):
    """(code, message) of the PolygonError build_histogram raises."""
    with pytest.raises(polygon.PolygonError) as ei:
        polygon.build_histogram(p, kind)
    return ei.value.code, ei.value.message


def test_validate_ok():
    polygon.build_histogram(pts(H_RECT_TEXT), "simple")
    polygon.build_histogram(pts(H_STEPS_TEXT), "simple")
    polygon.build_histogram(pts(H_DBL_TEXT), "double")


def test_validate_diagonal_edge():
    # moving one staircase vertex onto the base of its vertical edge
    # makes the following edge diagonal
    p = pts(H_STEPS_TEXT)
    p[5] = (3, 0)
    assert rejection(p, "simple")[0] == "closed-cycle"


def test_validate_general_position():
    # moving the whole step edge down makes y=0 appear four times
    p = pts(H_STEPS_TEXT)
    p[5] = (3, 0)
    p[6] = (7, 0)
    assert rejection(p, "simple")[0] == "general-position"


def test_validate_open_cycle():
    assert rejection([(0, 3), (0, 0), (3, 0), (3, 2)],
                     "simple")[0] == "closed-cycle"


def test_validate_not_x_monotone():
    p = [(0, 4), (0, 0), (3, 0), (3, 2), (1, 2), (1, 3), (5, 3), (5, 4)]
    assert rejection(p, "simple")[0] == "x-monotone"


def test_validate_orientation():
    assert rejection([(0, 3), (3, 3), (3, 0), (0, 0)],
                     "simple")[0] == "orientation"


def test_validate_numbering():
    assert rejection([(0, 0), (3, 0), (3, 3), (0, 3)],
                     "simple")[0] == "numbering"


def test_validate_base_line_crossing_chain():
    p = [(0, 2), (0, -2), (2, -2), (2, 1), (3, 1), (3, -1), (6, -1), (6, 2)]
    assert rejection(p, "double")[0] == "base-line"


def test_validate_vertex_on_base_line():
    p = [(0, 2), (0, -2), (2, -2), (2, 0), (3, 0), (3, -1), (6, -1), (6, 2)]
    assert rejection(p, "double")[0] == "base-line"


def test_validate_unknown_kind():
    assert rejection(pts(H_RECT_TEXT), "fancy")[0] == "syntax"


def test_build_histogram_raises():
    with pytest.raises(polygon.PolygonError):
        polygon.build_histogram([(0, 0), (3, 0), (3, 3), (0, 3)], "simple")


def test_to_text_round_trip():
    h = polygon.parse_polygon(H_DBL_TEXT)
    again = polygon.parse_polygon(polygon.to_text(h))
    assert again.kind == h.kind
    assert again.points() == h.points()
    assert polygon.to_text(h).endswith("\n")


def test_normalize_simple_ranks():
    h = polygon.normalize(polygon.parse_polygon(H_STEPS_TEXT))
    # x in {0,2,3,7} collapses to ranks 0..3
    assert sorted(set(int(x) for x in h.xs)) == [0, 1, 2, 3]
    polygon.build_histogram(h.points(), "simple")


def test_normalize_double_signs_and_idempotence():
    h = polygon.parse_polygon(H_DBL_TEXT)
    nh = polygon.normalize(h)
    assert all((a < 0) == (b < 0) for a, b in zip(h.ys, nh.ys))
    assert sorted({int(y) for y in nh.ys if y < 0}) == [-3, -2, -1]
    assert sorted({int(y) for y in nh.ys if y > 0}) == [1, 2, 3]
    again = polygon.normalize(nh)
    assert again.points() == nh.points()


def stretched(h, rng):
    """h with every coordinate moved by an increasing map that keeps
    the sign of y: the same polygon up to coordinate order."""
    def spread(values):
        ranks = np.unique(np.abs(values), return_inverse=True)[1]
        gaps = rng.integers(1, 5, size=ranks.max() + 1)
        return np.sign(values) * np.cumsum(gaps)[ranks]
    ys = spread(h.ys) if h.kind == "double" else spread(h.ys + 1)
    return polygon.build_histogram(list(zip(spread(h.xs + 1).tolist(),
                                            ys.tolist())), h.kind)


def test_normalize_keeps_validity_and_visibility(
        small_simples, small_doubles, random_simples, random_doubles):
    # normalize builds its result without validating it again
    rng = np.random.default_rng(3)
    for h, g in (small_simples + small_doubles + random_simples
                 + random_doubles + [near_staircase(99)]):
        for raw in (h, stretched(h, rng)):
            nh = polygon.normalize(raw)
            polygon.build_histogram(nh.points(), h.kind)
            assert nh.points() == polygon.normalize(h).points()
            gn = visibility.build_graph(nh)
            assert gn.indptr.tolist() == g.indptr.tolist()
            assert gn.indices.tolist() == g.indices.tolist()


@pytest.mark.parametrize("kind,n", [("simple", 3), ("simple", 7),
                                    ("simple", 2), ("double", 6),
                                    ("double", 9)])
def test_generate_rejects_bad_n(kind, n):
    with pytest.raises(ValueError):
        polygon.generate(kind, n, seed=0)


@pytest.mark.parametrize("kind, n", [("simple", 6.0), ("double", 8.0)])
def test_generate_rejects_n_not_an_integer(kind, n):
    # not numpy's AxisError, nor a fault blamed on the generated polygon
    with pytest.raises(TypeError, match="cannot be interpreted"):
        polygon.generate(kind, n, seed=1)


def test_generate_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown kind 'triangle'"):
        polygon.generate("triangle", 8, 1)


def test_histogram_repr():
    assert repr(polygon.generate("double", 12, 1)) == \
        "Histogram(kind='double', n=12)"


@hypothesis.given(n=st.integers(2, 40).map(lambda k: 2 * k),
                  seed=st.integers(0, 10_000))
@hypothesis.settings(max_examples=60, deadline=None)
def test_generate_simple_valid(n, seed):
    h = polygon.generate("simple", n, seed=seed)
    assert h.kind == "simple" and h.n == n
    polygon.build_histogram(h.points(), "simple")
    again = polygon.parse_polygon(polygon.to_text(h))
    assert again.points() == h.points()


@hypothesis.given(n=st.integers(4, 40).map(lambda k: 2 * k),
                  seed=st.integers(0, 10_000))
@hypothesis.settings(max_examples=60, deadline=None)
def test_generate_double_valid(n, seed):
    h = polygon.generate("double", n, seed=seed)
    assert h.kind == "double" and h.n == n
    polygon.build_histogram(h.points(), "double")
    nh = polygon.normalize(h)
    polygon.build_histogram(nh.points(), "double")


def test_generate_deterministic():
    a = polygon.generate("double", 24, seed=9)
    b = polygon.generate("double", 24, seed=9)
    assert a.points() == b.points()


GENERATE_GOLDEN = [
    ("simple", 4, 0,
     "59f92172e6bb535d9671a6a4ddd219cdf1264502b257a82007bc50d8204c8ed2"),
    ("simple", 12, 3,
     "c3ccb080bf3604b1c0b53c18b01cdc96440faa093b823ff5b325720926068a17"),
    ("simple", 500, 1,
     "c4a676a3534ca0c173c57bb409756b9925e1c59438dc5d40fe6c74deceb64ee5"),
    ("double", 8, 0,
     "18562ff10f53315a11513c13d8f2e938dc9590d82d8f370313fd9db5aadd846c"),
    ("double", 24, 9,
     "e73c5dde0c7d1a2df0e984518421c362685fecfc3619adbd01caa53a0635af61"),
    ("double", 500, 1,
     "5d97e71997c86bee7d81dc6f2ff7423f1de764e42c86dcbdf280cf5af32c578a"),
]


@pytest.mark.parametrize(
    "kind,n,seed,digest", GENERATE_GOLDEN,
    ids=[f"{k}-{n}-{s}" for k, n, s, _ in GENERATE_GOLDEN])
def test_generate_matches_golden_text(kind, n, seed, digest):
    # simple dumps hold no coordinates, so the golden dump hashes pin
    # generate only up to order; these pin its text, vertex by vertex
    text = polygon.to_text(polygon.generate(kind, n, seed))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_x_monotone_chain_reverses():
    p = [(0, 4), (0, 0), (3, 0), (3, 2), (1, 2), (1, 3), (5, 3), (5, 4)]
    assert rejection(p, "simple") == \
        ("x-monotone", "a chain reverses x-direction")


def test_x_monotone_chains_touch():
    # the bottom chain rises to the top edge's height between x=1 and 2
    p = [(0, 3), (0, 0), (1, 0), (1, 3), (2, 3), (2, 0), (3, 0), (3, 3)]
    assert rejection(p, "simple") == \
        ("x-monotone", "chains touch between x=1 and x=2")


def test_x_monotone_chains_cross():
    # the bottom chain passes above the top edge between x=1 and 2
    p = [(0, 3), (0, 0), (1, 0), (1, 4), (2, 4), (2, 0), (3, 0), (3, 3)]
    assert rejection(p, "simple") == ("x-monotone", "chains cross")


# One entry per message build_histogram gives: (points, kind, code, message).
# The odd count, duplicate and base-line cases are ones random
# mutations of generated polygons rarely reach.
VALIDATE_MESSAGES = [
    ([(0, 3), (0, 0), (3, 0), (3, 3)], "simple", None, "ok"),
    ([(0, 3), (0, 0), (3, 0), (3, 3)], "fancy",
     "syntax", "unknown kind 'fancy'"),
    ([(0, 3), (0, 0), (3, 0), (3, 3), (1, 1)], "simple", "closed-cycle",
     "need an even number of vertices, at least 4, got 5"),
    ([(0, 0), (1, 0)], "simple", "closed-cycle",
     "need an even number of vertices, at least 4, got 2"),
    ([(0, 3), (0, 0), (3, 0), (3, 3), (0, 0), (3, 0)], "simple",
     "closed-cycle", "duplicate vertices"),
    ([(0, 3), (0, 0), (3, 1), (3, 3)], "simple",
     "closed-cycle", "edge 1 is not axis-parallel"),
    ([(0, 3), (0, 1), (0, 0), (3, 0), (3, 3), (1, 3)], "simple",
     "closed-cycle", "edges 0 and 1 do not alternate"),
    ([(0, 6), (0, 4), (2, 4), (2, 2), (0, 2), (0, 0), (5, 0), (5, 6)],
     "simple", "x-monotone",
     "xmin must be attained by exactly 2 vertices, got 4"),
    ([(0, 6), (0, 0), (5, 0), (5, 2), (3, 2), (3, 4), (5, 4), (5, 6)],
     "simple", "x-monotone",
     "xmax must be attained by exactly 2 vertices, got 4"),
    ([(0, 4), (0, 0), (3, 0), (3, 2), (1, 2), (1, 3), (5, 3), (5, 4)],
     "simple", "x-monotone", "a chain reverses x-direction"),
    ([(0, 3), (0, 0), (1, 0), (1, 3), (2, 3), (2, 0), (3, 0), (3, 3)],
     "simple", "x-monotone", "chains touch between x=1 and x=2"),
    ([(0, 3), (0, 0), (1, 0), (1, 4), (2, 4), (2, 0), (3, 0), (3, 3)],
     "simple", "x-monotone", "chains cross"),
    ([(0, 2), (0, -3), (2, -3), (2, -1), (6, -1), (6, 4), (2, 4), (2, 2)],
     "double", "general-position", "x=2 is used by 4 vertices, expected 2"),
    ([(0, 4), (0, 0), (2, 0), (2, 3), (3, 3), (3, 0), (7, 0), (7, 4)],
     "simple", "general-position", "y=0 is used by 4 vertices, expected 2"),
    ([(0, 3), (3, 3), (3, 0), (0, 0)], "simple",
     "orientation", "boundary is not counterclockwise"),
    ([(0, 0), (3, 0), (3, 3), (0, 3)], "simple", "numbering",
     "vertex 0 must be the upper and vertex 1 the lower endpoint of the "
     "left boundary edge"),
    ([(0, 3), (0, 0), (3, 0), (3, 2), (2, 2), (2, 3)], "simple", "numbering",
     "vertex n-1 must be the lexicographically largest vertex"),
    ([(0, 3), (0, 0), (3, 0), (3, 3)], "double",
     "base-line", "the left boundary edge must cross y=0"),
    ([(0, 2), (0, -2), (2, -2), (2, 0), (3, 0), (3, -1), (6, -1), (6, 2)],
     "double", "base-line", "no vertex may lie on the base line"),
    ([(0, 2), (0, -2), (2, -2), (2, 1), (3, 1), (3, -1), (6, -1), (6, 2)],
     "double", "base-line",
     "vertex 3 of the bottom chain is above the base line"),
    ([(0, 3), (0, -3), (6, -3), (6, 2), (4, 2), (4, -1), (2, -1), (2, 3)],
     "double", "base-line",
     "vertex 5 of the top chain is below the base line"),
]


@pytest.mark.parametrize("p,kind,code,message", VALIDATE_MESSAGES,
                         ids=[m for *_, m in VALIDATE_MESSAGES])
def test_validate_messages(p, kind, code, message):
    if code is None:
        assert polygon.build_histogram(p, kind).points() == p
    else:
        assert rejection(p, kind) == (code, message)


@pytest.mark.parametrize("p,i", [
    ([(0, 3), (0, 0, 2), (0,), (2, 3)], 1),
    ([(0, 3), (0, 0), (2, 0), (2, 3, 4)], 3),
    ([(0, 3), (0, 0), 2, (2, 3)], 2),
])
def test_point_not_a_pair(p, i):
    # the first used to pass as the square (0,3), (0,0), (2,0), (2,3),
    # the others to raise a bare ValueError or TypeError
    assert rejection(p, "simple") == (
        "syntax", f"vertex {i}: expected a point (x, y), got {p[i]!r}")


@pytest.mark.parametrize("c", [2**62, -2**62, 2**63, 10**23, -2**70])
def test_coordinate_out_of_range(c):
    p = [(0, 3), (0, 0), (c, 0), (c, 3)]
    message = (f"vertex 2: coordinate {c} is out of range, "
               "|c| must be below 2**62")
    with pytest.raises(polygon.PolygonError) as ei:
        polygon.build_histogram(p, "simple")
    assert str(ei.value) == f"syntax: {message}"


@pytest.mark.parametrize("c", [2.9, 2.0, "2", None, np.float64(2)])
def test_coordinate_not_an_integer(c):
    # 2.9 used to be read as 2 and pass, "2" to be read as 2, and None
    # to raise a bare TypeError
    p = [(0, 3), (0, 0), (c, 0), (2, 3)]
    message = f"vertex 2: coordinate {c!r} is not an integer"
    with pytest.raises(polygon.PolygonError) as ei:
        polygon.build_histogram(p, "simple")
    assert str(ei.value) == f"syntax: {message}"


@pytest.mark.parametrize("kind", ["simple", "double"])
def test_coordinate_range_limits(kind):
    # the widest square: its coordinate differences reach 2**63 - 2
    m = 2**62 - 1
    h = polygon.build_histogram([(-m, m), (-m, -m), (m, -m), (m, m)], kind)
    assert h.convex.all()
    g = visibility.build_graph(h)
    assert g.indices.tolist() == [1, 2, 3, 0, 2, 3, 0, 1, 3, 0, 1, 2]


def test_scaled_polygon_routes_alike():
    # a 2**40 scale used to overflow the turn test and lose breakpoints
    h = polygon.parse_polygon(H_STEPS_TEXT)
    s = 2**40
    big = polygon.build_histogram([(x * s, y * s) for x, y in h.points()],
                                  "simple")
    a, b = (scheme_simple.preprocess_simple(k, visibility.build_graph(k))
            for k in (h, big))
    assert dump.write(a) == dump.write(b)
    for u in range(h.n):
        for v in range(h.n):
            assert engine.run_route(a, u, v) == engine.run_route(b, u, v)


def parses_or_rejects(text):
    """parse_polygon gives a Histogram or one PolygonError line."""
    try:
        h = polygon.parse_polygon(text)
    except polygon.PolygonError as exc:
        assert "\n" not in str(exc)
        return None
    assert isinstance(h, polygon.Histogram)
    # rank coordinates keep every turn
    assert h.convex.tolist() == polygon.normalize(h).convex.tolist()
    return h


coordinate = st.integers(-2**70, 2**70)
pair_line = st.tuples(coordinate, coordinate).map(lambda p: f"{p[0]} {p[1]}")
header_line = st.tuples(st.sampled_from(["simple", "double", "fancy"]),
                        st.integers(-1, 10)).map(lambda h: f"{h[0]} {h[1]}")


@hypothesis.given(header=st.one_of(header_line, st.text(max_size=12)),
                  lines=st.lists(st.one_of(pair_line, st.text(max_size=12)),
                                 max_size=10))
@hypothesis.settings(max_examples=300, deadline=None)
def test_parse_fuzz_text(header, lines):
    parses_or_rejects("\n".join([header, *lines]))


@hypothesis.given(kind=st.sampled_from(["simple", "double"]),
                  n=st.integers(4, 12).map(lambda k: 2 * k),
                  seed=st.integers(0, 10_000),
                  edits=st.lists(st.tuples(st.integers(0, 3),
                                           st.integers(0, 100),
                                           st.integers(-3, 3)), max_size=3),
                  shift=st.integers(0, 70))
@hypothesis.settings(max_examples=300, deadline=None)
def test_parse_fuzz_scaled_mutants(kind, n, seed, edits, shift):
    pts = polygon.generate(kind, n, seed=seed).points()
    for op, i, d in edits:
        i %= len(pts)
        x, y = pts[i]
        if op == 0:
            pts[i] = (x + d, y)
        elif op == 1:
            pts[i] = (x, y + d)
        elif op == 2:
            pts[i], pts[d % len(pts)] = pts[d % len(pts)], pts[i]
        elif len(pts) > 1:
            del pts[i]
    text = f"{kind} {len(pts)}\n" + "".join(
        f"{x << shift} {y << shift}\n" for x, y in pts)
    h = parses_or_rejects(text)
    if not edits and shift < 58:    # |c| < 2**62 after scaling
        assert h is not None


def parse_outcome(parse, text):
    """The kind and points parse gives text, or its (code, message)."""
    try:
        h = parse(text)
    except polygon.PolygonError as exc:
        return exc.code, exc.message
    assert h.xs.dtype == h.ys.dtype == np.int64
    return h.kind, h.points()


SPACES = " \t\x1f\xa0\u2003\u3000"     # str.split() splits at each
LINE_ENDS = ["\n", "\r\n", "\r", "\x0c", "\x85", "\u2028"]
ODD_TOKENS = ["1.0", "x", "0x10", "1e3", "+", "_1", "1__0", "\u00b2", "#",
              "+3", "\u0663", "-0", "007", "1_0", "\uff19",
              str(2**62), str(2**63), str(-2**63 - 1), str(10**30)]
HUGE_TOKENS = st.one_of(st.integers(2**63, 2**70),     # beyond int64
                        st.integers(-2**70, -2**63 - 1)).map(str)


@st.composite
def polygon_texts(draw):
    """Polygon text around a generated polygon: blank and comment lines,
    tabs and other whitespace, and up to three edits that leave a line
    one token short or long or swap in a non-integer or huge token."""
    kind = draw(st.sampled_from(["simple", "double"]))
    n = 2 * draw(st.integers(4, 8))
    h = polygon.generate(kind, n, seed=draw(st.integers(0, 999)))
    rows = [[kind, str(n)]] + [[str(x), str(y)] for x, y in h.points()]
    for _ in range(draw(st.integers(0, 3))):
        row = rows[-1 - draw(st.integers(0, len(rows) - 1))]
        at = draw(st.integers(0, len(row)))
        op = draw(st.sampled_from(["drop", "add", "odd", "huge"]))
        if op == "add":
            row.insert(at, draw(st.sampled_from(ODD_TOKENS)))
        elif op == "drop" and row:
            del row[min(at, len(row) - 1)]
        elif row:
            row[min(at, len(row) - 1)] = draw(
                st.sampled_from(ODD_TOKENS) if op == "odd" else HUGE_TOKENS)
    space = st.text(SPACES, max_size=2)
    filler = st.one_of(space, space.map(lambda s: s + "# 1 2 3"))
    lines = []
    for row in rows:
        lines += draw(st.lists(filler, max_size=1))
        sep = draw(st.text(SPACES, min_size=1, max_size=2))
        lines.append(draw(space) + sep.join(row) + draw(space))
    return "".join(ln + draw(st.sampled_from(LINE_ENDS)) for ln in lines)


@hypothesis.given(text=st.one_of(
    polygon_texts(),
    st.lists(st.one_of(header_line, pair_line, st.text(max_size=12)),
             max_size=10).map("\n".join)))
@hypothesis.settings(max_examples=500, deadline=None)
def test_parse_matches_line_by_line_reference(text):
    assert parse_outcome(polygon.parse_polygon, text) == \
        parse_outcome(oracles.parse_polygon_lines, text)
