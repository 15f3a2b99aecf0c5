"""Histogram polygons: parsing, validation, normalization, generation.

A histogram polygon is an x-monotone orthogonal polygon. Two kinds are
supported:

* ``simple``: the top edge (the base) spans the full x-range and carries
  the maximum y value. Vertex 0 is the top-left base endpoint, vertex
  n-1 the top-right one, and the boundary runs counterclockwise.
* ``double``: the horizontal line y=0 (the base line) lies in the
  interior; the boundary consists of a bottom chain (y < 0) and a top
  chain (y > 0) joined by the left and right boundary edges. Vertex 0
  is the top endpoint of the left boundary edge, vertex 1 the bottom
  endpoint.

All coordinates are integers of absolute value below 2**62,
counterclockwise orientation, and general position: every x value and
every y value is shared by exactly two vertices.
"""

import operator
import re

import numpy as np


class PolygonError(Exception):
    """A named polygon invariant was violated.

    ``code`` identifies the first failed check: one of ``syntax``,
    ``closed-cycle``, ``x-monotone``, ``general-position``,
    ``orientation``, ``numbering``, ``base-line``.
    """

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class Histogram:
    """A validated histogram polygon with derived per-vertex facts.

    Construct via :func:`build_histogram` or :func:`parse_polygon`; the
    constructor assumes the int64 coordinate arrays already passed their
    checks.
    """

    def __init__(self, kind: str, xs, ys):
        self.kind = kind
        self.n = len(xs)
        self.xs, self.ys = xs, ys
        self._derive()

    def _derive(self):
        n, xs, ys = self.n, self.xs, self.ys
        nxt, prv = np.arange(1, n + 1), np.arange(-1, n - 1)
        nxt[-1], prv[0] = 0, n - 1      # the cycle's neighbours
        self.xmin = int(xs.min())
        self.xmax = int(xs.max())
        if self.kind == "simple":
            self.base_y = int(ys.max())
        else:
            self.base_y = 0

        # Horizontal partner cv(v) of each vertex. Edges alternate, so
        # exactly one cycle neighbor shares y.
        horiz_next = ys[nxt] == ys  # edge v -> next is horizontal
        self.cv = np.where(horiz_next, nxt, prv)
        self.is_left = xs < xs[self.cv]

        # Convex where a ccw boundary turns left. One of the two edges at
        # v is horizontal and the other vertical, so the sign of the cross
        # product comes from the signs of the edge directions alone.
        sx_in, sy_in = np.sign(xs - xs[prv]), np.sign(ys - ys[prv])
        sx_out, sy_out = np.sign(xs[nxt] - xs), np.sign(ys[nxt] - ys)
        self.convex = sx_in * sy_out - sy_in * sx_out > 0

        side = np.empty(n, dtype=np.int64)
        if self.kind == "simple":
            side[:] = np.where(ys < self.base_y, -1, 0)
        else:
            side[:] = np.where(ys > 0, 1, -1)
        self.side = side

        # Horizontal edge table: the teeth whose heights decide where
        # the horizontal rays stop.
        h_from = np.nonzero(horiz_next)[0]
        h_to = nxt[h_from]
        self.he_y = ys[h_from]
        self.he_xlo = np.minimum(xs[h_from], xs[h_to])
        self.he_xhi = np.maximum(xs[h_from], xs[h_to])
        self.he_vleft = np.where(xs[h_from] < xs[h_to], h_from, h_to)
        self.he_vright = np.where(xs[h_from] < xs[h_to], h_to, h_from)

    def points(self):
        return list(zip(self.xs.tolist(), self.ys.tolist()))

    def __repr__(self):
        return f"Histogram(kind={self.kind!r}, n={self.n})"


# Coordinates lie strictly between -2**62 and 2**62, so every difference
# of two of them fits in int64.
_LIMIT = 1 << 62


def out_of_range(a):
    """Where the integers of the array a have |c| >= 2**62."""
    return (a <= -_LIMIT) | (a >= _LIMIT)


# a "\n" not followed by a line of two tokens; \s is the whitespace that
# str.split() splits at
_FAULTY_LINE = re.compile(r"\n(?!\S+[^\S\n]+\S+$)", re.M)


def content_lines(text):
    """(numbers, lines): the lines of text, split by str.splitlines()
    and stripped, that are neither blank nor ``#`` comments, with their
    1-based numbers; the comment rule of polygon text."""
    lines = [ln.strip() for ln in text.splitlines()]
    numbers = [i for i, ln in enumerate(lines, 1) if ln and ln[0] != "#"]
    return numbers, [lines[i - 1] for i in numbers]


def _coords(flat):
    """The coordinates x0, y0, x1, y1, ... as int64 arrays xs, ys: the
    one conversion from integers, behind the one type and range check."""
    a = np.asarray(flat)
    if a.dtype.kind not in "iu":    # not all fit int64, or not all ints
        for i, c in enumerate(flat):
            if not isinstance(c, (int, np.integer)):
                raise PolygonError("syntax", f"vertex {i // 2}: coordinate "
                                   f"{c!r} is not an integer")
        a = np.array(flat, dtype=object)    # compare as Python ints
    bad = np.flatnonzero(out_of_range(a))
    if len(bad):
        i = bad[0]
        raise PolygonError(
            "syntax", f"vertex {i // 2}: coordinate {a[i]} is out of range, "
            "|c| must be below 2**62")
    return a.reshape(-1, 2).T.astype(np.int64)


def _check_closed_cycle(xs, ys):
    n = len(xs)
    if n < 4 or n % 2 != 0:
        return f"need an even number of vertices, at least 4, got {n}"
    order = np.lexsort((ys, xs))
    if ((np.diff(xs[order]) == 0) & (np.diff(ys[order]) == 0)).any():
        return "duplicate vertices"
    # edge i runs from vertex i to i+1; with no duplicates it is
    # axis-parallel when dx or dy is 0
    dx, dy = np.diff(xs, append=xs[0]), np.diff(ys, append=ys[0])
    bad = np.flatnonzero((dx != 0) & (dy != 0))
    if len(bad):
        return f"edge {bad[0]} is not axis-parallel"
    vertical = dx == 0
    bad = np.flatnonzero(vertical == np.append(vertical[1:], vertical[0]))
    if len(bad):
        return f"edges {bad[0]} and {(bad[0] + 1) % n} do not alternate"
    return None


def _check_x_monotone(xs, ys):
    """Both chains between the left and right boundary edges run
    monotonically in x, and one lies strictly above the other over every
    gap between consecutive distinct x values."""
    n = len(xs)
    ends = []
    for name, value in (("xmin", xs.min()), ("xmax", xs.max())):
        at = np.flatnonzero(xs == value)
        if len(at) != 2:
            return (f"{name} must be attained by exactly 2 vertices, "
                    f"got {len(at)}")
        # edges alternate, so a vertical edge joins the two: edge at[0]
        # or, from vertex n-1 to 0, edge n-1
        ends.append(at[0] if at[1] == at[0] + 1 else n - 1)
    lo, hi = ends
    # edges lo+1 .. hi-1 (mod n) lead from xmin to xmax, edges
    # hi+1 .. lo-1 back; each is put in left-to-right order
    edges = (np.arange(n) + lo + 1) % n
    k = (hi - lo) % n
    dx = np.diff(xs, append=xs[0])
    rightward, leftward = edges[:k - 1], edges[k:n - 1][::-1]
    rightward = rightward[dx[rightward] != 0]
    leftward = leftward[dx[leftward] != 0]
    if (dx[rightward] < 0).any() or (dx[leftward] > 0).any():
        return "a chain reverses x-direction"
    # each chain's horizontal edges now tile [xmin, xmax]: the one over
    # a gap is the last to start at or left of the gap's left end; the
    # distinct x values come from a sort (a plain np.unique may hash)
    cuts = np.sort(xs)
    cuts = cuts[np.concatenate(([True], cuts[1:] != cuts[:-1]))]
    heights = [ys[e][np.searchsorted(left, cuts[:-1], "right") - 1]
               for e, left in ((rightward, xs[rightward]),
                               (leftward, xs[leftward] + dx[leftward]))]
    above = np.sign(heights[0] - heights[1])
    bad = np.flatnonzero((above == 0) | (above != above[0]))
    if len(bad) == 0:
        return None
    i = bad[0]
    if above[i] == 0:
        return f"chains touch between x={cuts[i]} and x={cuts[i + 1]}"
    return "chains cross"


def _check_general_position(xs, ys):
    for axis, values in (("x", xs), ("y", ys)):
        value, count = np.unique(values, return_counts=True)
        bad = np.flatnonzero(count != 2)
        if len(bad):
            i = bad[0]
            return (f"{axis}={value[i]} is used by {count[i]} vertices, "
                    "expected 2")
    return None


def _checked(flat, kind: str):
    """The coordinates x0, y0, x1, y1, ... as int64 arrays xs, ys once
    they pass every stage after the point shape: coordinate type and
    range, closed orthogonal cycle, x-monotonicity, general position,
    ccw orientation, vertex numbering, then for double histograms the
    base line. Raises PolygonError at the first failure."""
    if kind not in ("simple", "double"):
        raise PolygonError("syntax", f"unknown kind {kind!r}")
    xs, ys = _coords(flat)
    for code, check in (("closed-cycle", _check_closed_cycle),
                        ("x-monotone", _check_x_monotone),
                        ("general-position", _check_general_position)):
        msg = check(xs, ys)
        if msg:
            raise PolygonError(code, msg)

    # The boundary is now a simple x-monotone polygon, and it is
    # counterclockwise exactly when it runs its left edge downward.
    n = len(xs)
    left = np.flatnonzero(xs == xs.min())
    top, bottom = left if ys[left[0]] > ys[left[1]] else left[::-1]
    if (top + 1) % n != bottom:
        raise PolygonError("orientation", "boundary is not counterclockwise")
    if top != 0 or bottom != 1:
        raise PolygonError(
            "numbering", "vertex 0 must be the upper and vertex 1 the lower "
            "endpoint of the left boundary edge")
    # the right edge joins vertices r and r+1; 0 lies on the left edge
    r = np.flatnonzero(xs == xs.max())[0]
    if kind == "simple":
        # Then the edge from n-1 to 0 spans the x-range above the rest of
        # the boundary: it is the base.
        if r != n - 2 or ys[n - 1] < ys[n - 2]:
            raise PolygonError(
                "numbering",
                "vertex n-1 must be the lexicographically largest vertex")
        return xs, ys
    if not ys[0] > 0 > ys[1]:
        raise PolygonError("base-line",
                           "the left boundary edge must cross y=0")
    if (ys == 0).any():
        raise PolygonError("base-line", "no vertex may lie on the base line")
    # the bottom chain runs from vertex 1 to r, the top one from r+1 to 0
    v = np.arange(n)
    bad = np.flatnonzero((ys > 0) == ((0 < v) & (v <= r)))
    if len(bad):
        v = bad[0]
        chain, side = ("bottom", "above") if v <= r else ("top", "below")
        raise PolygonError("base-line", f"vertex {v} of the {chain} chain "
                           f"is {side} the base line")
    return xs, ys


def build_histogram(points, kind: str) -> Histogram:
    """Check the points and construct. Raises PolygonError at the first
    failed stage: each point is a pair (x, y), then the stages of
    :func:`_checked`."""
    flat = []
    for i, p in enumerate(points):
        try:
            x, y = p
        except (TypeError, ValueError):
            raise PolygonError("syntax", f"vertex {i}: expected a point "
                               f"(x, y), got {p!r}") from None
        flat += (x, y)
    return Histogram(kind, *_checked(flat, kind))


def parse_polygon(text: str) -> Histogram:
    """Parse the plain text polygon format.

    Line 1 is ``<kind> <n>``; the next n lines are ``<x> <y>``. Blank
    lines and ``#`` comments (content_lines) are ignored.
    """
    numbers, lines = content_lines(text)
    if not lines:
        raise PolygonError("syntax", "empty input")
    parts = lines[0].split()
    if len(parts) != 2 or parts[0] not in ("simple", "double"):
        raise PolygonError(
            "syntax", f"line {numbers[0]}: expected '<kind> <n>', "
            f"got {lines[0]!r}")
    kind = parts[0]
    try:
        n = int(parts[1])
    except ValueError:
        raise PolygonError(
            "syntax", f"line {numbers[0]}: bad vertex count") from None
    if len(lines) - 1 != n:
        raise PolygonError(
            "syntax", f"expected {n} vertex lines, got {len(lines) - 1}")
    # one search for a line of other than two tokens, one split and one
    # conversion; where either fails, a loop finds the first faulty line
    lines[0] = ""    # the parsed header: now a "\n" starts each vertex line
    body = "\n".join(lines)
    try:
        if _FAULTY_LINE.search(body):
            raise ValueError
        flat = np.array(body.split(), dtype=np.int64)
    except (ValueError, OverflowError):
        flat = []   # Python ints, so _checked reports one beyond int64
        for number, line in zip(numbers[1:], lines[1:]):
            tokens = line.split()
            if len(tokens) != 2:
                raise PolygonError("syntax", f"line {number}: expected "
                                   f"'<x> <y>', got {line!r}") from None
            try:
                flat += map(int, tokens)
            except ValueError:
                raise PolygonError("syntax", f"line {number}: coordinates "
                                   "must be integers") from None
    return Histogram(kind, *_checked(flat, kind))


def to_text(h: Histogram) -> str:
    lines = [f"{h.kind} {h.n}"]
    lines.extend(f"{x} {y}" for x, y in h.points())
    return "\n".join(lines) + "\n"


def ranks(h: Histogram):
    """The rank rule of :func:`normalize`, as int64 arrays: the distinct
    x values ascending, whose positions are the x ranks (searchsorted
    maps an x value to its rank), and each vertex's x and y rank."""
    x_values, xs = np.unique(h.xs, return_inverse=True)
    y_values, ys = np.unique(h.ys, return_inverse=True)
    if h.kind == "double":   # ranks -k..-1 below the base line, 1.. above
        below = np.searchsorted(y_values, 0)
        ys = np.where(h.ys < 0, ys - below, ys - below + 1)
    return x_values, xs, ys


def normalize(h: Histogram) -> Histogram:
    """Map coordinates to canonical ranks, preserving order on each axis.

    x values become 0..n/2-1. For simple histograms y values become
    0..n/2-1 (the base stays on top). For double histograms the negative
    y values become -1,-2,... outward from the base line and the positive
    ones 1,2,... likewise. Visibility only depends on coordinate order,
    so the visibility graph is unchanged. Idempotent. The ranks keep the
    order on each axis and the sign of y, so the result is valid
    whenever h is and is not validated again. No step of preprocessing
    needs it: preprocess_double takes the same ranks itself.
    """
    return Histogram(h.kind, *ranks(h)[1:])


def generate(kind: str, n: int, seed: int) -> Histogram:
    """Generate a random valid histogram with n vertices, deterministically.

    Simple needs even n >= 4, double even n >= 8; n passes through
    operator.index, so an n that is not an integer raises TypeError.
    """
    n = operator.index(n)
    rng = np.random.default_rng(seed)
    if kind == "simple":
        if n < 4 or n % 2 != 0:
            raise ValueError(f"simple histograms need even n >= 4, got {n}")
        m = n // 2 - 1  # number of teeth
        # tooth i spans [i, i + 1]; the base runs from (m, m) to (0, m)
        xs = np.repeat(np.arange(m + 1), 2)
        ys = np.concatenate(([m], np.repeat(rng.permutation(m), 2), [m]))
    elif kind == "double":
        if n < 8 or n % 2 != 0:
            raise ValueError(f"double histograms need even n >= 8, got {n}")
        m = n // 2
        k_bot = int(rng.integers(2, m - 1))  # teeth below, at least 2 each side
        inner = rng.permutation(np.arange(1, m - 1))
        # each chain left to right, from x = 0 to x = m - 1: its k teeth
        # meet at its cuts, at distances 1..k from y = 0 in random order
        chains = []
        for sign, cuts in ((-1, inner[:k_bot - 1]), (1, inner[k_bot - 1:])):
            x = np.concatenate(([0], np.sort(cuts), [m - 1]))
            y = sign * (rng.permutation(len(x) - 1) + 1)
            chains.append((np.repeat(x, 2)[1:-1], np.repeat(y, 2)))
        (bx, by), (tx, ty) = chains
        # ccw from vertex 0, the top of the left edge: the bottom chain
        # rightward, then the top chain leftward
        xs = np.concatenate((tx[:1], bx, tx[:0:-1]))
        ys = np.concatenate((ty[:1], by, ty[:0:-1]))
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return Histogram(kind, *_checked(np.column_stack((xs, ys)).ravel(), kind))
