import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from histroute import polygon, visibility

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


def test_validate_ok():
    assert polygon.validate(pts(H_RECT_TEXT), "simple").ok
    assert polygon.validate(pts(H_STEPS_TEXT), "simple").ok
    assert polygon.validate(pts(H_DBL_TEXT), "double").ok


def test_validate_diagonal_edge():
    # moving one staircase vertex onto the base of its vertical edge
    # makes the following edge diagonal
    p = pts(H_STEPS_TEXT)
    p[5] = (3, 0)
    rep = polygon.validate(p, "simple")
    assert not rep.ok and rep.code == "closed-cycle"


def test_validate_general_position():
    # moving the whole step edge down makes y=0 appear four times
    p = pts(H_STEPS_TEXT)
    p[5] = (3, 0)
    p[6] = (7, 0)
    rep = polygon.validate(p, "simple")
    assert not rep.ok and rep.code == "general-position"


def test_validate_open_cycle():
    rep = polygon.validate([(0, 3), (0, 0), (3, 0), (3, 2)], "simple")
    assert not rep.ok and rep.code == "closed-cycle"


def test_validate_not_x_monotone():
    p = [(0, 4), (0, 0), (3, 0), (3, 2), (1, 2), (1, 3), (5, 3), (5, 4)]
    rep = polygon.validate(p, "simple")
    assert not rep.ok and rep.code == "x-monotone"


def test_validate_orientation():
    rep = polygon.validate([(0, 3), (3, 3), (3, 0), (0, 0)], "simple")
    assert not rep.ok and rep.code == "orientation"


def test_validate_numbering():
    rep = polygon.validate([(0, 0), (3, 0), (3, 3), (0, 3)], "simple")
    assert not rep.ok and rep.code == "numbering"


def test_validate_base_line_crossing_chain():
    p = [(0, 2), (0, -2), (2, -2), (2, 1), (3, 1), (3, -1), (6, -1), (6, 2)]
    rep = polygon.validate(p, "double")
    assert not rep.ok and rep.code == "base-line"


def test_validate_vertex_on_base_line():
    p = [(0, 2), (0, -2), (2, -2), (2, 0), (3, 0), (3, -1), (6, -1), (6, 2)]
    rep = polygon.validate(p, "double")
    assert not rep.ok and rep.code == "base-line"


def test_validate_unknown_kind():
    rep = polygon.validate(pts(H_RECT_TEXT), "fancy")
    assert not rep.ok and rep.code == "syntax"


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
    assert polygon.validate(h.points(), "simple").ok


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
            assert polygon.validate(nh.points(), h.kind).ok
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


@hypothesis.given(n=st.integers(2, 40).map(lambda k: 2 * k),
                  seed=st.integers(0, 10_000))
@hypothesis.settings(max_examples=60, deadline=None)
def test_generate_simple_valid(n, seed):
    h = polygon.generate("simple", n, seed=seed)
    assert h.kind == "simple" and h.n == n
    assert polygon.validate(h.points(), "simple").ok
    again = polygon.parse_polygon(polygon.to_text(h))
    assert again.points() == h.points()


@hypothesis.given(n=st.integers(4, 40).map(lambda k: 2 * k),
                  seed=st.integers(0, 10_000))
@hypothesis.settings(max_examples=60, deadline=None)
def test_generate_double_valid(n, seed):
    h = polygon.generate("double", n, seed=seed)
    assert h.kind == "double" and h.n == n
    assert polygon.validate(h.points(), "double").ok
    nh = polygon.normalize(h)
    assert polygon.validate(nh.points(), "double").ok


def test_generate_deterministic():
    a = polygon.generate("double", 24, seed=9)
    b = polygon.generate("double", 24, seed=9)
    assert a.points() == b.points()


def test_x_monotone_chain_reverses():
    p = [(0, 4), (0, 0), (3, 0), (3, 2), (1, 2), (1, 3), (5, 3), (5, 4)]
    rep = polygon.validate(p, "simple")
    assert (rep.code, rep.message) == \
        ("x-monotone", "a chain reverses x-direction")


def test_x_monotone_chains_touch():
    # the bottom chain rises to the top edge's height between x=1 and 2
    p = [(0, 3), (0, 0), (1, 0), (1, 3), (2, 3), (2, 0), (3, 0), (3, 3)]
    rep = polygon.validate(p, "simple")
    assert (rep.code, rep.message) == \
        ("x-monotone", "chains touch between x=1 and x=2")


def test_x_monotone_chains_cross():
    # the bottom chain passes above the top edge between x=1 and 2
    p = [(0, 3), (0, 0), (1, 0), (1, 4), (2, 4), (2, 0), (3, 0), (3, 3)]
    rep = polygon.validate(p, "simple")
    assert (rep.code, rep.message) == ("x-monotone", "chains cross")


def test_x_monotone_chains_do_not_cover():
    # A chain of a closed polygon runs monotonically from xmin to xmax,
    # so only hand-built segment lists can leave a gap uncovered.
    top = [(0, 3, 5)]
    assert polygon._check_separated([(0, 1, 0), (2, 3, 0)], top,
                                    [0, 1, 2, 3]) == \
        "chains do not cover the full x-range"
    assert polygon._check_separated([(0, 2, 0)], top, [0, 2, 3]) == \
        "chains do not cover the full x-range"
    assert polygon._check_separated([(0, 1, 0), (1, 3, 1)], top,
                                    [0, 1, 2, 3]) is None
