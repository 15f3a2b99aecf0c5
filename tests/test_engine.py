import csv

import numpy as np
import pytest

from histroute import engine


class HijackedScheme:
    """Wraps a real scheme and misbehaves at exactly one vertex."""

    def __init__(self, inner, at, nxt=None, header=None, loop=False):
        self.inner = inner
        self.at = at
        self.nxt = nxt
        self.header = header
        self.loop = loop
        self.kind = inner.kind
        self.n = inner.n
        self.max_label_bits = inner.max_label_bits
        self.max_table_bits = inner.max_table_bits
        self.max_header_bits = inner.max_header_bits

    def label_of(self, v):
        return self.inner.label_of(v)

    def table_of(self, v):
        return self.inner.table_of(v)

    def link_of(self, v):
        return self.inner.link_of(v)

    def neighbor_ids(self, v):
        return self.inner.neighbor_ids(v)

    def step(self, link, table, target, header):
        own = link.own_vid
        if own == self.at:
            if self.loop:
                return own, None
            if self.nxt is not None:
                return self.nxt, self.header
        return self.inner.step(link, table, target, header)


def test_run_route_trivial(sch_rect):
    assert engine.run_route(sch_rect, 2, 2) == []
    assert engine.run_route(sch_rect, 1, 3) == [1, 3]


def test_firewall_rejects_non_neighbor(sch_steps):
    # vertex 1 sees only 0, 2, 3; returning 6 must be caught
    bad = HijackedScheme(sch_steps, at=1, nxt=6)
    with pytest.raises(engine.FirewallError):
        engine.run_route(bad, 1, 6)


def test_firewall_rejects_self_hop(sch_steps):
    bad = HijackedScheme(sch_steps, at=1, loop=True)
    with pytest.raises(engine.FirewallError):
        engine.run_route(bad, 1, 6)


def test_header_violation_rejected(sch_dbl):
    # a header naming coordinates absent from the next link table blows
    # up when that vertex consumes it
    bad = HijackedScheme(sch_dbl, at=1, nxt=3, header=(999, 999))
    with pytest.raises(engine.HeaderProtocolError):
        engine.run_route(bad, 1, 6)


def test_hop_limit(sch_steps):
    class PingPong(HijackedScheme):
        def step(self, link, table, target, header):
            own = link.own_vid
            return (0 if own != 0 else 1), None

    with pytest.raises(engine.HopLimitExceeded, match="after 32 hops"):
        engine.run_route(PingPong(sch_steps, at=0), 2, 6)


def test_distances_rect(rect):
    h, g = rect
    assert engine.distances(g.neighbors, [0]).tolist() == [[0, 1, 1, 1]]


def test_distances_steps(steps):
    h, g = steps
    d = engine.distances(g.neighbors, [2, 6])
    assert d[0, 6] == 3 and d[0, 2] == 0 and d[0, 0] == 1
    assert d[1, 2] == 3


def test_distances_unreachable():
    # 0 - 1   2 (isolated), read from plain lists
    d = engine.distances([[1], [0], []], [0, 2])
    assert d.tolist() == [[0, 1, -1], [-1, -1, 0]]


def test_verify_rejects_disconnected_graph(sch_rect):
    class Cut:      # the rectangle's graph split into 0-1 and 2-3
        neighbors = [[1], [0], [3], [2]]

    with pytest.raises(engine.SchemeBuildError, match="not connected"):
        engine.verify_all_pairs(sch_rect, Cut())


def progress_check(profile):
    # trace visiting vertices 0..m-1 whose distances to t are profile
    drow = np.array(profile)
    return engine.check_two_step_progress(list(range(len(profile))), drow)


def test_two_step_progress_accepts_segmentation():
    assert progress_check([2, 1, 0]) is None
    assert progress_check([3, 3, 2, 1, 0]) is None
    # a greedy per-position reading would reject this one: position 1
    # cannot extend, but the segmentation 0->2->4->5->6 can
    assert progress_check([4, 3, 3, 3, 2, 1, 0]) is None


def test_two_step_progress_rejects_stall():
    assert progress_check([3, 3, 3, 0]) is not None
    assert progress_check([2, 2, 2, 1, 0]) is not None
    assert progress_check([1, 2, 1, 2, 0]) is not None


def test_two_step_progress_trivial():
    assert progress_check([0]) is None
    assert progress_check([1, 0]) is None


def test_verify_all_pairs_counts(sch_rect, rect):
    h, g = rect
    rep = engine.verify_all_pairs(sch_rect, g)
    assert rep.pairs == 12
    assert rep.ok and rep.max_stretch == 1.0 and rep.mean_stretch == 1.0
    assert rep.kind == "simple" and rep.n == 4
    assert rep.lab_bits == sch_rect.max_label_bits
    assert rep.tab_bits == 1 and rep.hdr_bits == 0


def test_verify_sampled_pairs(sch_dbl, dbl):
    h, g = dbl
    rep = engine.verify_all_pairs(sch_dbl, g, pairs=37, seed=5)
    assert rep.pairs == 37
    assert rep.ok


def test_verify_writes_csv(tmp_path, sch_steps, steps):
    h, g = steps
    out = tmp_path / "report.csv"
    rep = engine.verify_all_pairs(sch_steps, g, report_path=str(out))
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["s", "t", "bfs", "routed", "stretch"]
    assert len(rows) == 1 + rep.pairs
    by_pair = {(r[0], r[1]): r for r in rows[1:]}
    assert by_pair[("2", "6")][2:] == ["3", "3", "1.000"]


def test_verify_records_misroute(sch_steps, steps):
    h, g = steps

    class Stubborn(HijackedScheme):
        def step(self, link, table, target, header):
            own = link.own_vid
            nxt = min(i for i in link.ids if i != own)
            return nxt, None

    rep = engine.verify_all_pairs(Stubborn(sch_steps, at=0), g)
    assert not rep.ok
    assert any(f["routed"] == -1 or f["reason"] for f in rep.failures)


def test_summary_lines(sch_rect, rect):
    h, g = rect
    rep = engine.verify_all_pairs(sch_rect, g)
    lines = rep.summary_lines()
    assert lines[0] == "pairs=12"
    assert lines[1] == "maxStretch=1.000"
    assert lines[-1] == "failures=0"
