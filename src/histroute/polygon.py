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

All coordinates are integers, counterclockwise orientation, and general
position: every x value and every y value is shared by exactly two
vertices.
"""

import dataclasses

import numpy as np


class PolygonError(Exception):
    """A named polygon invariant was violated.

    ``code`` identifies the first failed check: one of ``syntax``,
    ``closed-cycle``, ``x-monotone``, ``general-position``,
    ``orientation``, ``numbering``, ``base-edge``, ``base-line``.
    """

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


@dataclasses.dataclass(frozen=True)
class ValidationReport:
    ok: bool
    code: str | None
    message: str


class Histogram:
    """A validated histogram polygon with derived per-vertex facts.

    Construct via :func:`build_histogram`; the constructor assumes the
    point list already passed :func:`validate`.
    """

    def __init__(self, kind: str, points):
        self.kind = kind
        self.n = len(points)
        self.xs = np.array([p[0] for p in points], dtype=np.int64)
        self.ys = np.array([p[1] for p in points], dtype=np.int64)
        self._derive()

    def _derive(self):
        n, xs, ys = self.n, self.xs, self.ys
        nxt = np.roll(np.arange(n), -1)
        prv = np.roll(np.arange(n), 1)
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

        # Convexity from the cross product of incoming and outgoing edges;
        # positive cross means a left turn on a ccw boundary.
        din_x, din_y = xs - xs[prv], ys - ys[prv]
        dout_x, dout_y = xs[nxt] - xs, ys[nxt] - ys
        self.convex = (din_x * dout_y - din_y * dout_x) > 0

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
        return [(int(x), int(y)) for x, y in zip(self.xs, self.ys)]

    def __repr__(self):
        return f"Histogram(kind={self.kind!r}, n={self.n})"


def _check_closed_cycle(points):
    n = len(points)
    if n < 4 or n % 2 != 0:
        return f"need an even number of vertices, at least 4, got {n}"
    if len(set(points)) != n:
        return "duplicate vertices"
    kinds = []
    for i in range(n):
        x0, y0 = points[i]
        x1, y1 = points[(i + 1) % n]
        if x0 == x1 and y0 != y1:
            kinds.append("v")
        elif y0 == y1 and x0 != x1:
            kinds.append("h")
        else:
            return f"edge {i} is not axis-parallel"
    for i in range(n):
        if kinds[i] == kinds[(i + 1) % n]:
            return f"edges {i} and {(i + 1) % n} do not alternate"
    return None


def _check_x_monotone(points):
    n = len(points)
    xs = [p[0] for p in points]
    xmin, xmax = min(xs), max(xs)
    lo = [i for i in range(n) if xs[i] == xmin]
    hi = [i for i in range(n) if xs[i] == xmax]
    for name, idxs in (("xmin", lo), ("xmax", hi)):
        if len(idxs) != 2:
            return f"{name} must be attained by exactly 2 vertices, got {len(idxs)}"
        a, b = idxs
        if not (b == a + 1 or (a == 0 and b == n - 1)):
            return f"{name} vertices {a},{b} are not cycle-adjacent"

    def pair_pos(idxs):
        a, b = idxs
        if a == 0 and b == n - 1:
            return n - 1  # edge (n-1 -> 0)
        return a

    p_lo, p_hi = pair_pos(lo), pair_pos(hi)

    def arc(start_edge, end_edge):
        # vertex indices from the end of one boundary edge to the start of
        # the other, walking forward around the cycle
        out = [(start_edge + 1) % n]
        while out[-1] != end_edge:
            out.append((out[-1] + 1) % n)
        return out

    chain_a = arc(p_lo, p_hi)
    chain_b = arc(p_hi, p_lo)
    levels = []
    for chain in (chain_a, chain_b):
        seg = []
        direction = 0
        for i, j in zip(chain, chain[1:]):
            x0, y0 = points[i]
            x1, _ = points[j]
            if x0 == x1:
                continue
            d = 1 if x1 > x0 else -1
            if direction == 0:
                direction = d
            elif d != direction:
                return "a chain reverses x-direction"
            seg.append((min(x0, x1), max(x0, x1), y0))
        seg.sort()
        levels.append(seg)
    return _check_separated(levels[0], levels[1],
                            sorted({p[0] for p in points}))


def _check_separated(seg_a, seg_b, cuts):
    """The two chains must be vertically separated everywhere strictly
    between xmin and xmax, the same one on top throughout.

    seg_a and seg_b hold each chain's horizontal segments as sorted
    (xlo, xhi, y) triples with disjoint interiors; cuts are the sorted
    distinct x values. One pointer per chain walks the segments along
    the gaps between consecutive cuts, so the check is linear.
    """
    above = None
    ia = ib = 0
    for x0, x1 in zip(cuts, cuts[1:]):
        # skip segments that end before this gap
        while ia < len(seg_a) and seg_a[ia][1] <= x0:
            ia += 1
        while ib < len(seg_b) and seg_b[ib][1] <= x0:
            ib += 1
        if ia == len(seg_a) or ib == len(seg_b) \
                or seg_a[ia][0] > x0 or seg_b[ib][0] > x0:
            return "chains do not cover the full x-range"
        ya, yb = seg_a[ia][2], seg_b[ib][2]
        if ya == yb:
            return f"chains touch between x={x0} and x={x1}"
        now_above = ya > yb
        if above is None:
            above = now_above
        elif above != now_above:
            return "chains cross"
    return None


def _check_general_position(points):
    from collections import Counter
    cx = Counter(p[0] for p in points)
    cy = Counter(p[1] for p in points)
    for val, cnt in sorted(cx.items()):
        if cnt != 2:
            return f"x={val} is used by {cnt} vertices, expected 2"
    for val, cnt in sorted(cy.items()):
        if cnt != 2:
            return f"y={val} is used by {cnt} vertices, expected 2"
    return None


def _signed_area2(points):
    n = len(points)
    s = 0
    for i in range(n):
        x0, y0 = points[i]
        x1, y1 = points[(i + 1) % n]
        s += x0 * y1 - x1 * y0
    return s


def validate(points, kind: str) -> ValidationReport:
    """Check the staged histogram invariants, reporting the first failure.

    Stage order: closed orthogonal cycle, x-monotonicity, general
    position, ccw orientation, vertex numbering, then the kind-specific
    base condition.
    """
    if kind not in ("simple", "double"):
        return ValidationReport(False, "syntax", f"unknown kind {kind!r}")
    points = [(int(x), int(y)) for x, y in points]
    msg = _check_closed_cycle(points)
    if msg:
        return ValidationReport(False, "closed-cycle", msg)
    msg = _check_x_monotone(points)
    if msg:
        return ValidationReport(False, "x-monotone", msg)
    msg = _check_general_position(points)
    if msg:
        return ValidationReport(False, "general-position", msg)
    if _signed_area2(points) <= 0:
        return ValidationReport(False, "orientation",
                                "boundary is not counterclockwise")

    n = len(points)
    xs = [p[0] for p in points]
    xmin = min(xs)
    left = sorted((i for i in range(n) if xs[i] == xmin),
                  key=lambda i: points[i][1], reverse=True)
    if left[0] != 0 or left[1] != 1:
        return ValidationReport(
            False, "numbering",
            "vertex 0 must be the upper and vertex 1 the lower endpoint "
            "of the left boundary edge")
    if kind == "simple":
        if points[n - 1] != max(points):
            return ValidationReport(
                False, "numbering",
                "vertex n-1 must be the lexicographically largest vertex")
        base_y = points[0][1]
        ymax = max(p[1] for p in points)
        if base_y != ymax or points[n - 1][1] != base_y:
            return ValidationReport(
                False, "base-edge",
                "the edge from vertex n-1 to vertex 0 must carry the "
                "maximum y value")
        if points[n - 1][0] != max(xs):
            return ValidationReport(
                False, "base-edge", "the base must span the full x-range")
    else:
        y0, y1 = points[0][1], points[1][1]
        if not (y0 > 0 > y1):
            return ValidationReport(
                False, "base-line",
                "the left boundary edge must cross y=0")
        if any(p[1] == 0 for p in points):
            return ValidationReport(
                False, "base-line", "no vertex may lie on the base line")
        # every chain vertex stays on its side
        sides = [1 if p[1] > 0 else -1 for p in points]
        # walk from v1 along the bottom chain until x reaches xmax
        xmax = max(xs)
        i = 1
        while points[i][0] != xmax or points[(i + 1) % n][0] != xmax:
            if sides[i] != -1:
                return ValidationReport(
                    False, "base-line",
                    f"vertex {i} of the bottom chain is above the base line")
            i += 1
        if sides[i] != -1:
            return ValidationReport(
                False, "base-line",
                f"vertex {i} of the bottom chain is above the base line")
        for j in range(i + 1, n):
            if sides[j] != 1:
                return ValidationReport(
                    False, "base-line",
                    f"vertex {j} of the top chain is below the base line")
    return ValidationReport(True, None, "ok")


def build_histogram(points, kind: str) -> Histogram:
    """Validate and construct. Raises PolygonError on the first violation."""
    rep = validate(points, kind)
    if not rep.ok:
        raise PolygonError(rep.code, rep.message)
    return Histogram(kind, [(int(x), int(y)) for x, y in points])


def parse_polygon(text: str) -> Histogram:
    """Parse the plain text polygon format.

    Line 1 is ``<kind> <n>``; the next n lines are ``<x> <y>``. Blank
    lines and lines starting with ``#`` are ignored.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append((lineno, line))
    if not rows:
        raise PolygonError("syntax", "empty input")
    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] not in ("simple", "double"):
        raise PolygonError(
            "syntax", f"line {lineno}: expected '<kind> <n>', got {header!r}")
    kind = parts[0]
    try:
        n = int(parts[1])
    except ValueError:
        raise PolygonError("syntax", f"line {lineno}: bad vertex count") from None
    if len(rows) - 1 != n:
        raise PolygonError(
            "syntax", f"expected {n} vertex lines, got {len(rows) - 1}")
    points = []
    for lineno, line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise PolygonError(
                "syntax", f"line {lineno}: expected '<x> <y>', got {line!r}")
        try:
            points.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise PolygonError(
                "syntax", f"line {lineno}: coordinates must be integers") from None
    return build_histogram(points, kind)


def to_text(h: Histogram) -> str:
    lines = [f"{h.kind} {h.n}"]
    lines.extend(f"{int(x)} {int(y)}" for x, y in zip(h.xs, h.ys))
    return "\n".join(lines) + "\n"


def normalize(h: Histogram) -> Histogram:
    """Map coordinates to canonical ranks, preserving order on each axis.

    x values become 0..n/2-1. For simple histograms y values become
    0..n/2-1 (the base stays on top). For double histograms the negative
    y values become -1,-2,... outward from the base line and the positive
    ones 1,2,... likewise. Visibility only depends on coordinate order,
    so the visibility graph is unchanged. Idempotent. The ranks keep the
    order on each axis and the sign of y, so the result is valid
    whenever h is and is not validated again.
    """
    xs = np.unique(h.xs, return_inverse=True)[1]
    y_values, ys = np.unique(h.ys, return_inverse=True)
    if h.kind == "double":   # ranks -k..-1 below the base line, 1.. above
        below = np.searchsorted(y_values, 0)
        ys = np.where(h.ys < 0, ys - below, ys - below + 1)
    return Histogram(h.kind, list(zip(xs.tolist(), ys.tolist())))


def generate(kind: str, n: int, seed: int) -> Histogram:
    """Generate a random valid histogram with n vertices, deterministically.

    Simple needs even n >= 4, double even n >= 8.
    """
    rng = np.random.default_rng(seed)
    if kind == "simple":
        if n < 4 or n % 2 != 0:
            raise ValueError(f"simple histograms need even n >= 4, got {n}")
        m = n // 2 - 1  # number of teeth
        heights = rng.permutation(m)
        base = m
        pts = [(0, base), (0, int(heights[0]))]
        for i in range(1, m):
            pts.append((i, int(heights[i - 1])))
            pts.append((i, int(heights[i])))
        pts.append((m, int(heights[m - 1])))
        pts.append((m, base))
        return build_histogram(pts, "simple")
    if kind == "double":
        if n < 8 or n % 2 != 0:
            raise ValueError(f"double histograms need even n >= 8, got {n}")
        m = n // 2
        k_bot = int(rng.integers(2, m - 1))  # teeth below, at least 2 each side
        k_top = m - k_bot
        width = m - 1
        inner = rng.permutation(np.arange(1, width))
        bot_cuts = sorted(int(v) for v in inner[: k_bot - 1])
        top_cuts = sorted(int(v) for v in inner[k_bot - 1:])
        bot_x = [0] + bot_cuts + [width]
        top_x = [0] + top_cuts + [width]
        bot_h = [-(int(v) + 1) for v in rng.permutation(k_bot)]
        top_h = [int(v) + 1 for v in rng.permutation(k_top)]
        pts = [(0, top_h[0]), (0, bot_h[0])]
        for i in range(1, k_bot):
            pts.append((bot_x[i], bot_h[i - 1]))
            pts.append((bot_x[i], bot_h[i]))
        pts.append((width, bot_h[-1]))
        pts.append((width, top_h[-1]))
        for i in range(k_top - 1, 0, -1):
            pts.append((top_x[i], top_h[i]))
            pts.append((top_x[i], top_h[i - 1]))
        return build_histogram(pts, "double")
    raise ValueError(f"unknown kind {kind!r}")
