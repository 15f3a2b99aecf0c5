"""End-to-end acceptance suite.

Seven criteria, each printing one PASS/FAIL line on the terminal (the
prints bypass capture so they show up in normal runs). Corpora are
deterministic; sizes span small to n=400 with the bulk kept small so
the whole file stays inside its time budgets.
"""

import time

import numpy as np
import pytest

from histroute import engine, polygon, scheme_double, scheme_simple, \
    visibility

import invariants
import oracles
from conftest import H_RECT_TEXT, H_STEPS_TEXT, make_double, make_simple
from test_engine import HijackedScheme, own_port, port_of

BUDGET = {1: 120.0, 2: 180.0, 4: 60.0, 5: 180.0, 6: 120.0}

_cache = {}


def _corpus_sizes(rng, lo):
    sizes = [int(s) for s in 2 * rng.integers(lo // 2, 31, size=130)]
    sizes += [int(s) for s in 2 * rng.integers(31, 101, size=50)]
    sizes += [int(s) for s in 2 * rng.integers(101, 201, size=19)]
    sizes.append(400)
    return sizes


@pytest.fixture(scope="module")
def corpus_simple():
    rng = np.random.default_rng(20250801)
    items = [make_simple(H_RECT_TEXT, 0), make_simple(H_STEPS_TEXT, 0)]
    for i, n in enumerate(_corpus_sizes(rng, 4)):
        items.append(make_simple(n, seed=10_000 + i))
    return items


@pytest.fixture(scope="module")
def corpus_double():
    rng = np.random.default_rng(20250802)
    return [make_double(n, seed=20_000 + i)
            for i, n in enumerate(_corpus_sizes(rng, 8))]


@pytest.fixture(scope="module")
def corpus_small():
    rng = np.random.default_rng(20250803)
    items = []
    for i in range(50):
        n = int(2 * rng.integers(2, 31))
        items.append(make_simple(n, seed=30_000 + i))
    for i in range(50):
        n = int(2 * rng.integers(4, 31))
        items.append(make_double(n, seed=40_000 + i))
    return items


def report(capsys, num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_1_simple_exact(capsys, corpus_simple):
    t0 = time.perf_counter()
    built = []
    worst = 0.0
    bad = []
    pairs = 0
    for h, g in corpus_simple:
        sch = scheme_simple.preprocess_simple(h, g)
        built.append((h, g, sch))
        rep = engine.verify_all_pairs(sch, g)
        pairs += rep.pairs
        worst = max(worst, rep.max_stretch)
        if not rep.ok or rep.max_stretch != 1.0:
            bad.append((h.n, rep.failures[:1]))
    elapsed = time.perf_counter() - t0
    _cache["simple"] = built
    ok = not bad and worst == 1.0 and elapsed < BUDGET[1]
    report(capsys, 1, ok,
           f"{len(corpus_simple)} simple instances, {pairs} ordered pairs, "
           f"stretch={worst:.3f}, {elapsed:.1f}s"
           + (f", bad={bad[:2]}" if bad else ""))


def test_criterion_2_double_stretch(capsys, corpus_double):
    t0 = time.perf_counter()
    built = []
    worst = 0.0
    bad = []
    pairs = 0
    for h, g in corpus_double:
        sch = scheme_double.preprocess_double(h, g)
        built.append((h, g, sch))
        rep = engine.verify_all_pairs(sch, g)
        pairs += rep.pairs
        worst = max(worst, rep.max_stretch)
        if not rep.ok:
            bad.append((h.n, rep.failures[:1]))
    elapsed = time.perf_counter() - t0
    _cache["double"] = built
    ok = not bad and worst <= 2.0 and elapsed < BUDGET[2]
    report(capsys, 2, ok,
           f"{len(corpus_double)} double instances, {pairs} ordered pairs, "
           f"stretch={worst:.3f}, two-step progress on every trace, "
           f"{elapsed:.1f}s" + (f", bad={bad[:2]}" if bad else ""))


def test_criterion_3_size_budgets(capsys, corpus_simple, corpus_double):
    simple = _cache.get("simple") or [
        (h, g, scheme_simple.preprocess_simple(h, g))
        for h, g in corpus_simple]
    double = _cache.get("double") or [
        (h, g, scheme_double.preprocess_double(h, g))
        for h, g in corpus_double]
    bad = []
    for h, g, sch in simple:
        w = (h.n - 1).bit_length()
        if not (sch.max_label_bits <= 2 * w and sch.max_table_bits == 1
                and sch.max_header_bits == 0):
            bad.append(("simple", h.n, sch.max_label_bits))
    for h, g, sch in double:
        w = (h.n - 1).bit_length()
        if not (sch.max_label_bits <= 4 * (w + 1)
                and sch.max_table_bits <= 6 * (w + 1) + 1
                and sch.max_header_bits <= 2 * (w + 1)):
            bad.append(("double", h.n, sch.max_label_bits))
    report(capsys, 3, not bad,
           f"size budgets hold on {len(simple)} simple + {len(double)} "
           f"double instances" + (f", bad={bad[:3]}" if bad else ""))


def test_criterion_4_oracle_equivalence(capsys, corpus_small):
    t0 = time.perf_counter()
    bad = []
    pairs = 0
    for h, g in corpus_small:
        for v in range(h.n):
            for w in range(v, h.n):
                pairs += 1
                if visibility.co_visible_fast(g, v, w) != \
                        oracles.co_visible_naive(h, v, w):
                    bad.append((h.kind, h.n, v, w))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < BUDGET[4]
    report(capsys, 4, ok,
           f"fast == naive on {pairs} pairs over {len(corpus_small)} "
           f"instances, {elapsed:.1f}s" + (f", bad={bad[:3]}" if bad else ""))


def test_criterion_5_invariant_suite(capsys, corpus_small):
    t0 = time.perf_counter()
    checked = 0
    bad = []
    for h, g in corpus_small:
        for name, (c, viol) in invariants.run_suite(g).items():
            checked += c
            for v in viol:
                bad.append(f"{h.kind} n={h.n} {v}")
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < BUDGET[5]
    report(capsys, 5, ok,
           f"{checked} invariant checks, {len(bad)} violations, {elapsed:.1f}s"
           + (f", first={bad[:2]}" if bad else ""))


def test_criterion_6_scale_smoke(capsys):
    t0 = time.perf_counter()
    h = polygon.generate("simple", 2000, seed=99)
    g = visibility.build_graph(h)
    sch = scheme_simple.preprocess_simple(h, g)
    rep_s = engine.verify_all_pairs(sch, g, pairs=100_000, seed=1)

    hd = polygon.normalize(polygon.generate("double", 2000, seed=98))
    gd = visibility.build_graph(hd)
    schd = scheme_double.preprocess_double(hd, gd)
    rep_d = engine.verify_all_pairs(schd, gd, pairs=100_000, seed=2)
    elapsed = time.perf_counter() - t0
    ok = (rep_s.ok and rep_s.max_stretch == 1.0 and rep_d.ok
          and rep_d.max_stretch <= 2.0 and elapsed < BUDGET[6])
    report(capsys, 6, ok,
           f"n=2000: simple stretch={rep_s.max_stretch:.3f}, double "
           f"stretch={rep_d.max_stretch:.3f}, 100000 sampled pairs each, "
           f"{elapsed:.1f}s")


def test_criterion_7_locality_firewall(capsys, sch_steps, sch_dbl):
    caught_firewall = False
    try:
        engine.run_route(HijackedScheme(
            sch_steps, at=1, port=lambda link: len(link.ids)), 1, 6)
    except engine.FirewallError:
        caught_firewall = True
    caught_self = False
    try:
        engine.run_route(HijackedScheme(sch_steps, at=1, port=own_port),
                         1, 6)
    except engine.FirewallError:
        caught_self = True
    caught_header = False
    try:
        engine.run_route(
            HijackedScheme(sch_dbl, at=1, port=port_of(3),
                           header=(999, 999)), 1, 6)
    except engine.HeaderProtocolError:
        caught_header = True
    ok = caught_firewall and caught_self and caught_header
    report(capsys, 7, ok,
           f"firewall non-neighbor={caught_firewall}, "
           f"self-hop={caught_self}, bogus header={caught_header}")
