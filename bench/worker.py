"""One benchmark run of one workload, in a process of its own.

Started by ``run.py`` with the thread pools pinned and ``src`` on the
path. The run is a closed loop: one caller and one thread, each call
issued after the previous one returns. Without ``--trace`` it measures
the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced passes over a fixed amount of work and reports per-layer
metrics. Either way it checks the outputs and prints one JSON object
as its last line; it exits 1 when a check fails.
"""

import argparse
import array
import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import tracemalloc

import numpy as np
import scipy
import scipy.sparse
import scipy.sparse.csgraph

import inputs
import spans
from histroute import engine, polygon, scheme_double, scheme_simple, visibility


def _rss_mb():
    """Peak resident set of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


BASE_RSS_MB = _rss_mb()


@dataclasses.dataclass(frozen=True)
class Workload:
    polygons: tuple        # (generator, n) per polygon
    route_pairs: int       # distinct (s, t) pairs per scheme, routed in a cycle
    verify_pairs: int      # sampled pairs per scheme per verify call
    route_slice_s: float   # routing time per round


# Sizes keep one run, set-up included, near 25 s on a 2-core machine.
WORKLOADS = {
    "simple-large": Workload(((inputs.random_simple, 2400),), 10000, 4000, 0.8),
    "simple-wide": Workload(((inputs.near_staircase, 2000),), 10000, 4000, 0.8),
    "double-large": Workload(((inputs.random_double, 1000),), 10000, 4000, 0.8),
    "route-heavy": Workload(((inputs.random_simple, 1000),
                             (inputs.random_double, 600)), 10000, 10000, 3.0),
}

MIN_ROUNDS = 3
LOADS_PER_ROUND = 10
MIN_TRACED_PASSES = 2
RELOAD_CHECK_PAIRS = 500
ROUTE_SLICE_S = 0.2     # routing between two timings of the reference task
# Reference-task time at the speed all timings are scaled to. Its median
# over a run was 3 to 4 ms on the 2-vCPU VM the bounds were set on, so
# figures there read close to wall time.
REF_S = 0.004

_MODULES = {"simple": scheme_simple, "double": scheme_double}


@dataclasses.dataclass
class Built:
    h: object
    g: object
    scheme: object


def set_up(text):
    """Polygon text to a routable scheme, as ``histroute build`` does.

    Every call goes through a module attribute so the traced run's
    wrappers see it.
    """
    h = polygon.parse_polygon(text)
    if h.kind == "double":
        h = polygon.normalize(h)
    g = visibility.build_graph(h)
    if h.kind == "simple":
        scheme = scheme_simple.preprocess_simple(h, g)
    else:
        scheme = scheme_double.preprocess_double(h, g)
    return Built(h, g, scheme)


def dump(b):
    return _MODULES[b.scheme.kind].dump_scheme(b.scheme)


def load(kind, text):
    return _MODULES[kind].parse_dump(text)


def intervals(b):
    """The x-bounds (lo, hi) of I(v) for every vertex, as arrays."""
    return np.array([b.g.interval(v) for v in range(b.h.n)], dtype=np.int64).T


def graph_counts(b):
    """(edges, max degree, sum of |I(v)| in vertices) of one graph."""
    xs = np.sort(np.asarray(b.h.xs))
    lo, hi = intervals(b)
    isum = np.searchsorted(xs, hi, "right") - np.searchsorted(xs, lo, "left")
    return (b.g.edge_count(), max(b.g.degree(v) for v in range(b.h.n)),
            int(isum.sum()))


def record_bits(rec):
    """Bits of a label, table or header written field by field in
    minimal binary, plus a sign bit for a negative field. A bool takes
    one bit and an absent field (None) none."""
    if rec is None:
        return 0
    if isinstance(rec, int):
        return max(abs(rec).bit_length(), 1) + (rec < 0)
    if dataclasses.is_dataclass(rec):
        rec = dataclasses.astuple(rec)
    return sum(record_bits(f) for f in rec)


class HeaderProbe:
    """A scheme that passes every call through to the one it wraps and
    records the largest header its step emits."""

    def __init__(self, scheme):
        self.scheme = scheme
        self.header_bits = 0

    def __getattr__(self, name):
        return getattr(self.scheme, name)

    def step(self, link, table, target, header):
        nxt, out = self.scheme.step(link, table, target, header)
        self.header_bits = max(self.header_bits, record_bits(out))
        return nxt, out


def measured_bits(scheme, pairs):
    """(label, table, header) bits measured on the scheme itself: the
    largest label and table over all vertices, and the largest header
    emitted while routing the given (s, t) pairs."""
    probe = HeaderProbe(scheme)
    for a, z in pairs:
        try:
            engine.run_route(probe, a, z)
        except engine.RoutingError:
            pass    # the route checks count it
    return (max(record_bits(scheme.label_of(v)) for v in range(scheme.n)),
            max(record_bits(scheme.table_of(v)) for v in range(scheme.n)),
            probe.header_bits)


def bit_problems(scheme, bits):
    """Measured (label, table, header) bits against the paper's bounds
    with w = ceil(log2 n): 2w, 1 and 0 bits on a simple histogram,
    4(w+1), 6(w+1)+1 and 2(w+1) on a double one."""
    w = (scheme.n - 1).bit_length()
    bound = ((2 * w, 1, 0) if scheme.kind == "simple"
             else (4 * (w + 1), 6 * (w + 1) + 1, 2 * (w + 1)))
    if all(b <= c for b, c in zip(bits, bound)):
        return []
    return [f"{scheme.kind} n={scheme.n}: label/table/header bits {bits} "
            f"exceed the bounds {bound}"]


def oracle_distances(b, targets):
    """Hop distances from each target, on an adjacency the benchmark
    derives itself from the intervals (v and w are co-visible exactly
    when each lies in the other's interval). Also returns its edge
    count, to cross-check the library's graph."""
    n = b.h.n
    xs = np.asarray(b.h.xs)
    order = np.argsort(xs, kind="stable")
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    lo, hi = intervals(b)
    lo_i = np.searchsorted(xs[order], lo, "left")
    hi_i = np.searchsorted(xs[order], hi, "right")
    rows, cols = [], []
    for v in range(n):
        cand = order[lo_i[v]:hi_i[v]]
        keep = cand[(lo_i[cand] <= pos[v]) & (pos[v] < hi_i[cand]) & (cand != v)]
        rows.append(np.full(len(keep), v))
        cols.append(keep)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    adj = scipy.sparse.csr_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, n))
    dist = scipy.sparse.csgraph.shortest_path(
        adj, method="D", unweighted=True, indices=targets)
    return dist, len(rows) // 2


def route_pairs(wl, seed, schemes):
    """Route pairs for all schemes, interleaved: (scheme index, s, t)."""
    per = []
    for i, s in enumerate(schemes):
        rng = random.Random(f"histroute-bench:pairs:{seed}:{i}")
        out = []
        while len(out) < wl.route_pairs:
            a, z = rng.randrange(s.n), rng.randrange(s.n)
            if a != z:
                out.append((i, a, z))
        per.append(out)
    return [p for group in zip(*per) for p in group]


def verify(built, wl, seed):
    """engine.verify_all_pairs on every scheme, as ``histroute verify``."""
    return [engine.verify_all_pairs(b.scheme, b.g, pairs=wl.verify_pairs,
                                    seed=seed + i)
            for i, b in enumerate(built)]


def report_key(r):
    return (r.pairs, r.max_stretch, r.mean_stretch, len(r.failures))


def settle():
    """Collect garbage, then freeze what is left so that collections
    inside the next timed block see only the objects it creates, as
    in a fresh ``histroute`` process, and not the benchmark's own."""
    gc.unfreeze()
    gc.collect()
    gc.freeze()


def _reference_task():
    """Fixed pure-Python work of the kind the library does: dict, tuple
    and str objects and a sort. It calls nothing in histroute, so no
    change to the library can move it."""
    d, out = {}, []
    for i in range(10_000):
        d[i] = (i, str(i))
        out.append(d[i][0])
    out.sort()


def reference_s():
    """Best of three timings of the reference task."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_task()
        best = min(best, time.perf_counter() - t0)
    return best


def timed(fn, *args):
    """Call fn(*args) between two timings of the reference task.

    Returns (result, wall seconds, speed factor). The factor is
    REF_S over the mean reference time; multiplied by it, a wall time
    reads as it would at the reference speed. The CPU speed of a
    shared machine drifts by a fifth or more over some seconds, and
    the reference task, timed next to the block, drifts with it.
    """
    before = reference_s()
    t0 = time.perf_counter()
    out = fn(*args)
    wall = time.perf_counter() - t0
    return out, wall, 2 * REF_S / (before + reference_s())


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[k - 1]


class Run:
    """State shared by the phases of one run: problems found, and the
    attempted and failed operation counts."""

    def __init__(self):
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)


def check_reports(run, reports):
    """Count verify's pairs and failures; name the first few failures."""
    for r in reports:
        run.attempted += r.pairs
        run.failed += len(r.failures)    # capped by the engine; any is fatal
        for f in r.failures[:3]:
            run.problems.append(
                f"verify {r.kind}: {f['s']}->{f['t']}: {f['reason']}")


def check_reload(run, built, loaded, dumps, pairs):
    """The reloaded scheme dumps and routes exactly like the built one."""
    for b, s, d in zip(built, loaded, dumps):
        run.check(_MODULES[s.kind].dump_scheme(s) == d,
                  f"{s.kind}: reloaded scheme dumps differently")

    def trace(scheme, a, z):
        try:
            return engine.run_route(scheme, a, z)
        except engine.RoutingError as exc:
            return type(exc).__name__

    for i, a, z in pairs[:RELOAD_CHECK_PAIRS]:
        run.check(trace(built[i].scheme, a, z) == trace(loaded[i], a, z),
                  f"{loaded[i].kind}: reloaded trace differs for {a}->{z}")


def check_routes(run, built, pairs, hops):
    """Routed hop counts against the benchmark's own BFS oracle."""
    for i, b in enumerate(built):
        mine = [(k, a, z) for k, (j, a, z) in enumerate(pairs) if j == i]
        targets = sorted({z for _, _, z in mine})
        row = {z: r for r, z in enumerate(targets)}
        dist, edges = oracle_distances(b, targets)
        kind = b.scheme.kind
        run.check(edges == b.g.edge_count(),
                  f"{kind}: graph has {b.g.edge_count()} edges, "
                  f"the interval oracle {edges}")
        bad = 0
        for k, a, z in mine:
            d, h = dist[row[z], a], hops[k]
            if h is not None and h >= 0 and (
                    not math.isfinite(d)
                    or (h != d if kind == "simple" else h > 2 * d)):
                bad += 1
        run.check(bad == 0, f"{kind}: {bad} routed pairs off their bound")
        run.failed += bad


def route_slice(run, schemes, pairs, hops, k, lat):
    """Route pairs in a closed loop for ROUTE_SLICE_S, continuing the
    cycle at index k. Appends per-route nanoseconds to lat and records
    each pair's hop count (-1 for a failure) in hops; counts a pair
    routed again with other hops as a problem. Returns (k, hops)."""
    run_route = engine.run_route
    clock = time.perf_counter_ns
    now = clock()
    deadline = now + int(ROUTE_SLICE_S * 1e9)
    total = changed = 0
    while now < deadline:
        j = k % len(pairs)
        i, a, z = pairs[j]
        t0 = clock()
        try:
            h = len(run_route(schemes[i], a, z)) - 1
        except engine.RoutingError:
            h = -1
            run.failed += 1
        now = clock()
        lat.append(now - t0)
        if hops[j] is None:
            hops[j] = h
        elif hops[j] != h:
            changed += 1
        total += max(h, 0)
        k += 1
    run.check(changed == 0, f"{changed} repeated routes changed their hop count")
    return k, total


def check_bits(run, built, pairs):
    """Measured (label, table, header) bits of every scheme, checked
    against the paper's bounds; headers come from routing its pairs."""
    out = []
    for i, b in enumerate(built):
        bits = measured_bits(b.scheme, [(a, z) for j, a, z in pairs if j == i])
        run.problems.extend(bit_problems(b.scheme, bits))
        out.append(bits)
    return out


def measure(wl, texts, seed, seconds):
    """The untraced run: end-to-end metrics.

    The machine's speed drifts over several seconds, so the phases are
    not run one after another. Each round sets up, reloads, routes for
    a slice and verifies once, and rounds repeat until the time is up,
    so every metric's median spans the whole run. Every timed block is
    scaled to the reference speed by its own factor (see ``timed``).
    """
    run = Run()
    setups, loads, vtimes = [], [], []      # seconds at the reference speed
    wall = dict.fromkeys(("setup", "load", "route", "verify"), 0.0)
    factors = []
    lat = array.array("d")
    first = reports = pairs = hops = setup_rss = None
    k = total_hops = 0
    start = time.perf_counter()
    while len(setups) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        built = loaded = None
        settle()
        built, dt, f = timed(lambda: [set_up(t) for t in texts])
        setups.append(dt * f)
        wall["setup"] += dt
        factors.append(f)
        setup_rss = setup_rss or _rss_mb()
        sig = [(graph_counts(b), dump(b)) for b in built]
        first = first or sig
        run.check(sig == first, "set-up is not deterministic across rounds")
        dumps = [d for _, d in sig]

        for _ in range(LOADS_PER_ROUND):
            loaded = None
            settle()
            loaded, dt, f = timed(
                lambda: [load(b.scheme.kind, d) for b, d in zip(built, dumps)])
            loads.append(dt * f)
            wall["load"] += dt
            factors.append(f)
        if pairs is None:
            pairs = route_pairs(wl, seed, loaded)
            hops = [None] * len(pairs)
            check_reload(run, built, loaded, dumps, pairs)

        settle()
        slice_end = time.perf_counter() + wl.route_slice_s
        while time.perf_counter() < slice_end:
            raw = array.array("q")
            (k, routed), dt, f = timed(route_slice, run, loaded, pairs, hops, k, raw)
            lat.extend(x * f for x in raw)
            total_hops += routed
            wall["route"] += dt
            factors.append(f)

        settle()
        rep, dt, f = timed(verify, built, wl, seed)
        vtimes.append(dt * f)
        wall["verify"] += dt
        factors.append(f)
        check_reports(run, rep)
        reports = reports or rep
        run.check([report_key(r) for r in rep] == [report_key(r) for r in reports],
                  "verify reports differ across rounds")
    elapsed = time.perf_counter() - start
    peak_rss = _rss_mb()
    gc.unfreeze()
    run.attempted += len(lat)
    lat = sorted(lat)

    for (counts, _), b in zip(first, built):
        print(f"graph {b.scheme.kind} n={b.h.n}: edges={counts[0]} "
              f"max_degree={counts[1]} interval_sum={counts[2]}")
    bits = check_bits(run, built, pairs)
    check_routes(run, built, pairs, hops)
    vpairs = sum(r.pairs for r in reports)
    print(f"rounds={len(setups)} loads={len(loads)} routes={len(lat)} "
          f"verify calls={len(vtimes)} x {vpairs} pairs")
    print("share of run time: " + " ".join(
        f"{name}={t / elapsed:.3f}" for name, t in wall.items())
        + f" other={1 - sum(wall.values()) / elapsed:.3f}")
    factors.sort()
    print(f"speed factors over {len(factors)} blocks: min={factors[0]:.3f} "
          f"median={statistics.median(factors):.3f} max={factors[-1]:.3f}")
    print("setup samples s: " + " ".join(f"{t:.3f}" for t in setups))
    print("verify samples s: " + " ".join(f"{t:.3f}" for t in vtimes))
    print("load samples ms: " + " ".join(f"{t*1000:.1f}" for t in loads))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "setup_rss_mb": (setup_rss, "MB"),
        "load_s": (statistics.median(loads), "s"),
        "route_hops_per_s": (total_hops / (sum(lat) / 1e9), "1/s"),
        "route_us_p50": (percentile(lat, 50) / 1e3, "us"),
        "route_us_p99": (percentile(lat, 99) / 1e3, "us"),
        "verify_pairs_per_s": (vpairs / statistics.median(vtimes), "1/s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "max_stretch": (max(r.max_stretch for r in reports), "ratio"),
        "mean_stretch": (sum(r.mean_stretch * r.pairs for r in reports) / vpairs,
                         "ratio"),
        "label_bits": (max(b[0] for b in bits), "bits"),
        "table_bits": (max(b[1] for b in bits), "bits"),
    }
    print(f"fail_frac={run.failed / max(run.attempted, 1)} ratio  "
          f"header_bits={max(b[2] for b in bits)} bits")
    return run, metrics


def one_pass(wl, texts, seed, run):
    """A fixed amount of work: set-up, dump and reload, one cycle of
    the route pairs, one verify. Returns (seconds, set-up seconds,
    built, dumps, counts)."""
    settle()
    t0 = time.perf_counter()
    built = [set_up(t) for t in texts]
    t_setup = time.perf_counter() - t0
    dumps = [dump(b) for b in built]
    loaded = [load(b.scheme.kind, d) for b, d in zip(built, dumps)]
    pairs = route_pairs(wl, seed, loaded)
    hops = 0
    for i, a, z in pairs:
        try:
            hops += len(engine.run_route(loaded[i], a, z)) - 1
        except engine.RoutingError:
            run.failed += 1
    run.attempted += len(pairs)
    reports = verify(built, wl, seed)
    elapsed = time.perf_counter() - t0
    check_reports(run, reports)
    return elapsed, t_setup, built, dumps, (hops, [report_key(r) for r in reports])


def _alloc_mb(fn, *args):
    """tracemalloc peak of one call, in MiB."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def layer_metrics(rec, built, dumps):
    """Per-layer metrics of one traced pass."""
    sp = rec.spans

    def kind_sum(kind, fn):
        return sum(fn(b, d) for b, d in zip(built, dumps) if b.scheme.kind == kind)

    counts = [graph_counts(b) for b in built]
    routes = sp["engine.run_route"]
    dstep = sp["scheme_double.step"]
    hdr = dstep.marks.get("header_hops", 0)
    m = {
        "polygon.parse_s": (sp["polygon.parse"].self_s, "s"),
        "polygon.validate_s": (sp["polygon.validate"].self_s, "s"),
        "polygon.normalize_s": (sp["polygon.normalize"].self_s, "s"),
        "visibility.landmarks_s": (sp["visibility.landmarks"].self_s, "s"),
        "visibility.graph_s": (sp["visibility.graph"].self_s, "s"),
        "visibility.edges": (sum(c[0] for c in counts), "count"),
        "visibility.max_degree": (max(c[1] for c in counts), "count"),
        "visibility.interval_sum": (sum(c[2] for c in counts), "count"),
    }
    for fn in ("breakpoint_of", "interval_vertices", "k_dominators",
               "ik_bounds", "canonical_paths"):
        m[f"landmarks.{fn}_calls"] = (sp[f"landmarks.{fn}"].calls, "count")
        m[f"landmarks.{fn}_s"] = (sp[f"landmarks.{fn}"].self_s, "s")
    for kind in ("simple", "double"):
        mod = f"scheme_{kind}"
        m[f"{mod}.preprocess_self_s"] = (sp[f"{mod}.preprocess"].self_s, "s")
        m[f"{mod}.step_calls"] = (sp[f"{mod}.step"].calls, "count")
        m[f"{mod}.step_s"] = (sp[f"{mod}.step"].self_s, "s")
    m.update({
        "scheme_double.header_hops": (hdr, "count"),
        "scheme_double.header_hop_frac": (hdr / max(dstep.calls, 1), "ratio"),
        "engine.run_route_self_s": (routes.self_s, "s"),
        "engine.hops": (routes.marks.get("hops", 0), "count"),
        "engine.hops_per_pair": (routes.marks.get("hops", 0)
                                 / max(routes.calls, 1), "hops"),
        "engine.verify_self_s": (sp["engine.verify"].self_s, "s"),
        "engine.progress_check_s": (sp["engine.progress_check"].self_s, "s"),
    })
    for kind in ("simple", "double"):
        mod = f"scheme_{kind}"
        m[f"{mod}.load_s"] = (sp[f"{mod}.load"].self_s, "s")
        m[f"{mod}.dump_bytes"] = (kind_sum(kind, lambda b, d: len(d)), "bytes")
    return m


# Counts that must repeat exactly from one traced pass to the next.
EXACT = ("visibility.edges", "visibility.max_degree", "visibility.interval_sum",
         "scheme_simple.step_calls", "scheme_double.step_calls",
         "scheme_double.header_hops", "engine.hops",
         "scheme_simple.dump_bytes", "scheme_double.dump_bytes") + tuple(
    f"landmarks.{fn}_calls" for fn in ("breakpoint_of", "interval_vertices",
                                       "k_dominators", "ik_bounds",
                                       "canonical_paths"))


def measure_traced(wl, texts, seed, seconds):
    """The traced run: untraced and traced passes over the same work,
    alternating, for per-layer metrics and the tracing overhead."""
    run = Run()
    plain, traced, sums, layers, absent = [], [], [], [], []
    first_counts = None
    start = time.perf_counter()
    while (len(traced) < MIN_TRACED_PASSES
           or time.perf_counter() - start < seconds):
        elapsed, t_setup, _, _, counts = one_pass(wl, texts, seed, run)
        plain.append((elapsed, t_setup))
        with spans.tracing() as rec:
            (elapsed, _, built, dumps, tcounts), _, f = timed(
                one_pass, wl, texts, seed, run)
        traced.append(elapsed)
        absent = rec.absent
        m = {name: (v * f if unit == "s" else v, unit)
             for name, (v, unit) in layer_metrics(rec, built, dumps).items()}
        span_sum = sum(rec.spans[n].self_s for n in spans.SETUP_SPANS)
        sums.append(span_sum)
        print(f"pass {len(traced)}: untraced {plain[-1][0]:.3f} s "
              f"(setup {t_setup:.3f} s), traced {elapsed:.3f} s "
              f"(setup span self times {span_sum:.3f} s)")
        first_counts = first_counts or counts
        run.check(counts == first_counts and tcounts == first_counts,
                  "hop counts or verify reports differ across passes")
        if layers:
            for name in EXACT:
                run.check(m[name][0] == layers[0][name][0],
                          f"{name} differs across traced passes")
        layers.append(m)

    print(f"setup: untraced {statistics.median(p[1] for p in plain):.3f} s, "
          f"traced setup span self times {statistics.median(sums):.3f} s "
          f"(medians over {len(traced)} passes)")
    metrics = {name: (statistics.median(p[name][0] for p in layers), unit)
               for name, (_, unit) in layers[0].items()}
    gc.unfreeze()
    bits = check_bits(run, built, route_pairs(wl, seed, [b.scheme for b in built]))
    metrics["scheme_double.header_bits"] = (max(
        (hb for b, (_, _, hb) in zip(built, bits) if b.scheme.kind == "double"),
        default=0), "bits")
    metrics["visibility.graph_alloc_mb"] = (
        max(_alloc_mb(visibility.build_graph, b.h) for b in built), "MB")
    metrics["engine.verify_alloc_mb"] = (
        _alloc_mb(verify, built, wl, seed), "MB")
    metrics["process.base_rss_mb"] = (BASE_RSS_MB, "MB")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(p[0] for p in plain) - 1,
        "ratio")
    if absent:
        print("absent spans (reported as 0): " + " ".join(absent))
    return run, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    texts = [gen(n, args.seed) for gen, n in wl.polygons]
    print(f"env nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} scipy={scipy.__version__}")
    for text in texts:
        print(f"input {text.split(None, 2)[0]} n={text.split(None, 2)[1]} "
              f"sha256={hashlib.sha256(text.encode()).hexdigest()}")
    if args.trace:
        run, metrics = measure_traced(wl, texts, args.seed, args.seconds)
    else:
        run, metrics = measure(wl, texts, args.seed, args.seconds)
    for p in run.problems[:20]:
        print(f"FAIL: {p}")
    correct = not run.problems and run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
