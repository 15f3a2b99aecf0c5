"""Seeded polygon text for the benchmark workloads.

These generators belong to the benchmark, not to the library, so a
change to ``polygon.generate`` cannot change what the benchmark runs.
They use only the standard library's ``random.Random`` seeded with a
string, which is stable across Python versions and platforms.
"""

import random


def _rng(seed, tag):
    return random.Random(f"histroute-bench:{tag}:{seed}")


def _spread(rng, count, start):
    """count strictly increasing integers from start, with random gaps,
    so the coordinates are not already ranks and normalize has work."""
    out, cur = [], start
    for _ in range(count):
        cur += rng.randint(1, 9)
        out.append(cur)
    return out


def _simple_text(heights, rng):
    """Simple histogram with base on top over the given tooth floors.

    heights[i] is the floor rank of tooth i; the base sits above all of
    them. Vertex 0 is the top-left base corner, 1 the floor below it,
    and the boundary runs counterclockwise to the top-right corner.
    """
    m = len(heights)
    xs = _spread(rng, m + 1, 0)
    ys = _spread(rng, m + 1, 0)      # ys[m] is the base
    base = ys[m]
    pts = [(xs[0], base), (xs[0], ys[heights[0]])]
    for i in range(1, m):
        pts.append((xs[i], ys[heights[i - 1]]))
        pts.append((xs[i], ys[heights[i]]))
    pts.append((xs[m], ys[heights[m - 1]]))
    pts.append((xs[m], base))
    return _to_text("simple", pts)


def _to_text(kind, pts):
    lines = [f"{kind} {len(pts)}"]
    lines.extend(f"{x} {y}" for x, y in pts)
    return "\n".join(lines) + "\n"


def random_simple(n, seed):
    """A simple histogram whose tooth floors are a random permutation."""
    if n < 4 or n % 2:
        raise ValueError(f"simple histograms need even n >= 4, got {n}")
    rng = _rng(seed, "simple")
    heights = list(range(n // 2 - 1))
    rng.shuffle(heights)
    return _simple_text(heights, rng)


def near_staircase(n, seed):
    """A simple histogram whose floors rise left to right, except that
    each adjacent pair is swapped with probability 1/2.

    The rays from a tooth pass over every lower tooth, so intervals
    span a large share of the polygon while the edge count stays that
    of a random histogram.
    """
    if n < 4 or n % 2:
        raise ValueError(f"simple histograms need even n >= 4, got {n}")
    rng = _rng(seed, "staircase")
    heights = list(range(n // 2 - 1))
    for i in range(len(heights) - 1):
        if rng.random() < 0.5:
            heights[i], heights[i + 1] = heights[i + 1], heights[i]
    return _simple_text(heights, rng)


def random_double(n, seed):
    """A double histogram with random cuts and heights.

    The two chains get half the teeth each, since an uneven split
    changes the edge count by a fifth from seed to seed. Their inner
    x-cuts are disjoint so every x value occurs exactly twice.
    """
    if n < 8 or n % 2:
        raise ValueError(f"double histograms need even n >= 8, got {n}")
    rng = _rng(seed, "double")
    m = n // 2
    k_bot = m // 2
    k_top = m - k_bot
    inner = list(range(1, m - 1))
    rng.shuffle(inner)
    bot_x = [0] + sorted(inner[:k_bot - 1]) + [m - 1]
    top_x = [0] + sorted(inner[k_bot - 1:]) + [m - 1]
    bot_h = list(range(k_bot))
    top_h = list(range(k_top))
    rng.shuffle(bot_h)
    rng.shuffle(top_h)
    xs = _spread(rng, m, -rng.randint(0, 50))
    neg = [-y for y in _spread(rng, k_bot, 0)]     # rank r -> depth r+1
    pos = _spread(rng, k_top, 0)
    bot = [neg[h] for h in bot_h]
    top = [pos[h] for h in top_h]
    pts = [(xs[0], top[0]), (xs[0], bot[0])]
    for i in range(1, k_bot):
        pts.append((xs[bot_x[i]], bot[i - 1]))
        pts.append((xs[bot_x[i]], bot[i]))
    pts.append((xs[m - 1], bot[-1]))
    pts.append((xs[m - 1], top[-1]))
    for i in range(k_top - 1, 0, -1):
        pts.append((xs[top_x[i]], top[i]))
        pts.append((xs[top_x[i]], top[i - 1]))
    return _to_text("double", pts)
