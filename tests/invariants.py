"""Distance-oracle checks for the landmark machinery.

Each checker returns (number of checks performed, list of violation
strings). They are shared between the landmark property tests and the
acceptance suite; a healthy instance produces zero violations
everywhere.
"""

import numpy as np

from histroute.visibility import co_visible_fast

import oracles


def distance_matrix(g):
    return oracles.distances(g.indptr, g.indices, list(range(g.n)))


def invisible_interval_pairs(g):
    """Ordered pairs (s, t) with t inside I(s) but not visible from s."""
    xs = g.h.xs
    everyone = np.arange(g.n)
    for s in range(g.n):
        lo, hi = g.interval(s)
        hidden = ~co_visible_fast(g, s, everyone) & (lo <= xs) & (xs <= hi)
        yield from ((s, t) for t in np.flatnonzero(hidden).tolist())


def check_nd_sees_fd(g, d):
    checked, bad = 0, []
    for s, t in invisible_interval_pairs(g):
        nd, fd = oracles.dominators(g, s, t)
        if fd is None:
            continue
        checked += 1
        if not co_visible_fast(g, nd, fd):
            bad.append(f"near-sees-far s={s} t={t} nd={nd} fd={fd}")
    return checked, bad


def check_shortest_path_via_dominator(g, d):
    checked, bad = 0, []
    for s, t in invisible_interval_pairs(g):
        nd, fd = oracles.dominators(g, s, t)
        want = 1 + int(d[nd, t]) if fd is None \
            else 1 + min(int(d[nd, t]), int(d[fd, t]))
        checked += 1
        if int(d[s, t]) != want:
            bad.append(f"shortest-path-via s={s} t={t} "
                       f"nd={nd} fd={fd} d={d[s, t]} want={want}")
    return checked, bad


def check_fd_fd_is_closer(g, d):
    checked, bad = 0, []
    for s, t in invisible_interval_pairs(g):
        _, fd = oracles.dominators(g, s, t)
        if fd is None or 1 + int(d[fd, t]) <= int(d[s, t]):
            continue
        checked += 1
        try:
            f2 = oracles.fd2(g, s, t)
        except AssertionError as exc:
            bad.append(f"far-far s={s} t={t}: {exc}")
            continue
        if int(d[f2, t]) != int(d[s, t]) - 1:
            bad.append(f"far-far s={s} t={t} fd={fd} fd2={f2} "
                       f"d(fd2,t)={d[f2, t]} d(s,t)={d[s, t]}")
    return checked, bad


def check_chain_landmark_visibility(g, d):
    # the landmark that a chain step jumped past must see the new member
    checked, bad = 0, []
    lm = g.lm
    for s in range(g.n):
        chain_a, chain_b = oracles.extension_sequences(g, s)
        for prev, cur in zip(chain_a, chain_a[1:]):
            lv = int(lm.l_vid[prev])
            checked += 1
            if lv < 0:
                bad.append(f"chain-vis s={s}: left chain grew past a "
                           f"boundary point at {prev}")
            elif not co_visible_fast(g, lv, cur):
                bad.append(f"chain-vis s={s} l({prev})={lv} next={cur}")
        for prev, cur in zip(chain_b, chain_b[1:]):
            rv = int(lm.r_vid[prev])
            checked += 1
            if rv < 0:
                bad.append(f"chain-vis s={s}: right chain grew past a "
                           f"boundary point at {prev}")
            elif not co_visible_fast(g, rv, cur):
                bad.append(f"chain-vis s={s} r({prev})={rv} next={cur}")
    return checked, bad


def check_chain_bucket_shortest(g, d):
    # a target beyond I(s) but inside the extended interval is one hop
    # past the first chain member whose interval covers it
    checked, bad = 0, []
    lm, xs = g.lm, g.h.xs
    everyone = np.arange(g.n)
    for s in range(g.n):
        chain_a, chain_b = oracles.extension_sequences(g, s)
        lxs = [int(lm.l_x[v]) for v in chain_a]
        rxs = [int(lm.r_x[v]) for v in chain_b]
        seen = co_visible_fast(g, s, everyone)
        for t in range(g.n):
            if seen[t]:
                continue
            xt = int(xs[t])
            if xt < lxs[0] and xt >= lxs[-1]:
                i = next(i for i in range(1, len(chain_a)) if lxs[i] <= xt)
                checked += 1
                if int(d[s, t]) != 1 + int(d[chain_a[i], t]):
                    bad.append(f"chain-bucket s={s} t={t} "
                               f"a^{i}={chain_a[i]}")
            elif xt > rxs[0] and xt <= rxs[-1]:
                i = next(i for i in range(1, len(chain_b)) if rxs[i] >= xt)
                checked += 1
                if int(d[s, t]) != 1 + int(d[chain_b[i], t]):
                    bad.append(f"chain-bucket s={s} t={t} "
                               f"b^{i}={chain_b[i]}")
    return checked, bad


def _covers_all(g, v):
    lo, hi = g.interval(v)
    return lo <= int(g.h.xs.min()) and hi >= int(g.h.xs.max())


def check_level_interval_inside(g, d, kmax=4):
    checked, bad = 0, []
    for s in range(g.n):
        bds, tds = oracles.k_dominators(g, s, kmax)
        for k in range(kmax + 1):
            members = oracles.ik_vertices(g, s, k)
            for dom in (bds[k], tds[k]):
                lo, hi = g.interval(dom)
                checked += 1
                stray = [int(u) for u in members
                         if not lo <= g.h.xs[u] <= hi]
                if stray:
                    bad.append(f"level-inside s={s} k={k} dom={dom} "
                               f"stray={stray[:4]}")
    return checked, bad


def check_level_dominators_covisible(g, d, kmax=4):
    checked, bad = 0, []
    for s in range(g.n):
        bds, tds = oracles.k_dominators(g, s, kmax)
        for k in range(kmax + 1):
            checked += 1
            if not co_visible_fast(g, bds[k], tds[k]):
                bad.append(f"dom-covis s={s} k={k} bd={bds[k]} td={tds[k]}")
    return checked, bad


def check_level3_union(g, d):
    checked, bad = 0, []
    for s in range(g.n):
        bds, tds = oracles.k_dominators(g, s, 1)
        blo, bhi = oracles.ik_bounds(g, bds[1], 2)
        tlo, thi = oracles.ik_bounds(g, tds[1], 2)
        lo3, hi3 = oracles.ik_bounds(g, s, 3)
        checked += 1
        if (min(blo, tlo), max(bhi, thi)) != (lo3, hi3):
            bad.append(f"level3-union s={s}")
    return checked, bad


def check_distance_k_inside_level(g, d):
    checked, bad = 0, []
    xs = g.h.xs
    for s in range(g.n):
        diam = int(d[s].max())
        bounds = [oracles.ik_bounds(g, s, k) for k in range(1, diam + 1)]
        for k in range(1, diam):
            if not (bounds[k][0] <= bounds[k - 1][0]
                    and bounds[k][1] >= bounds[k - 1][1]):
                bad.append(f"level-monotone s={s} k={k + 1}")
        for t in range(g.n):
            k = int(d[s, t])
            if k == 0:
                continue
            checked += 1
            lo, hi = bounds[k - 1]
            if not lo <= xs[t] <= hi:
                bad.append(f"distance-k s={s} t={t} k={k}")
    return checked, bad


def check_dominators_have_distance_k(g, d):
    checked, bad = 0, []
    for s in range(g.n):
        diam = int(d[s].max())
        bds, tds = oracles.k_dominators(g, s, diam + 1)
        for k in range(1, diam + 2):
            if not _covers_all(g, bds[k - 1]):
                checked += 1
                if int(d[s, bds[k]]) != k:
                    bad.append(f"dom-distance s={s} k={k} bd={bds[k]} "
                               f"d={d[s, bds[k]]}")
            if not _covers_all(g, tds[k - 1]):
                checked += 1
                if int(d[s, tds[k]]) != k:
                    bad.append(f"dom-distance s={s} k={k} td={tds[k]} "
                               f"d={d[s, tds[k]]}")
    return checked, bad


def check_target_outside_level(g, d, kmax=3):
    checked, bad = 0, []
    xs = g.h.xs
    for s in range(g.n):
        bds, tds = oracles.k_dominators(g, s, kmax)
        for k in range(1, kmax + 1):
            lo, hi = oracles.ik_bounds(g, s, k + 1)
            for t in range(g.n):
                if lo <= xs[t] <= hi:
                    continue
                checked += 1
                got = min(int(d[bds[k], t]), int(d[tds[k], t]))
                if got != int(d[s, t]) - k:
                    bad.append(f"outside-level s={s} t={t} k={k} "
                               f"min={got} d={d[s, t]}")
    return checked, bad


ANY_KIND = [
    ("near-sees-far", check_nd_sees_fd),
    ("shortest-path-via-dominator", check_shortest_path_via_dominator),
    ("far-far-progress", check_fd_fd_is_closer),
    ("chain-landmark-visibility", check_chain_landmark_visibility),
    ("chain-bucket-shortest", check_chain_bucket_shortest),
]

DOUBLE_ONLY = [
    ("level-interval-inside", check_level_interval_inside),
    ("level-dominators-covisible", check_level_dominators_covisible),
    ("level3-union", check_level3_union),
    ("distance-k-inside-level", check_distance_k_inside_level),
    ("level-k-dominator-distance", check_dominators_have_distance_k),
    ("target-outside-level", check_target_outside_level),
]


def run_suite(g, d=None):
    """Run every applicable checker; returns {name: (checked, bad)}."""
    if d is None:
        d = distance_matrix(g)
    out = {}
    checks = ANY_KIND + (DOUBLE_ONLY if g.h.kind == "double" else [])
    for name, fn in checks:
        out[name] = fn(g, d)
    return out
