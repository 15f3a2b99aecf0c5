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
