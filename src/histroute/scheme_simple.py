"""Stretch-1 compact routing on simple histograms.

Labels are vertex ids, extended with the breakpoint id for reflex and
base vertices. The per-vertex routing table is a single bit saying
which of the two interval ends sits higher (closer to the base). The
step function needs only the closed-neighborhood link table, that bit,
and the target's label, and always advances along a shortest path.
"""

import bisect
import dataclasses
import operator

import numpy as np

from . import dump
from . import landmarks as lmk
from .engine import RoutingError, SchemeBuildError


@dataclasses.dataclass(frozen=True)
class SimpleLabel:
    vid: int
    br: int | None = None   # breakpoint id, present iff reflex or base vertex


class SimpleLink:
    """Sorted labels of the closed neighborhood, with the own entry marked."""

    def __init__(self, entries, own_vid: int):
        self.entries = sorted(entries, key=operator.attrgetter("vid"))
        self.ids = [e.vid for e in self.entries]
        self.id_set = set(self.ids)
        self._br = {e.vid: e.br for e in self.entries}
        self.own = self.entries[self.ids.index(own_vid)]

    def br_of(self, vid: int):
        return self._br.get(vid)


def route_step_simple(link: SimpleLink, higher_left: bool,
                      target: SimpleLabel) -> int:
    """One routing hop. Pure function of the three local inputs."""
    tid = target.vid
    if tid in link.id_set:
        return tid
    ids = link.ids
    lo, hi = ids[0], ids[-1]
    if not lo <= tid <= hi:
        # target outside the interval: move to the higher interval end
        return lo if higher_left else hi
    own_id = link.own.vid
    i = bisect.bisect_left(ids, tid)
    if tid > own_id:
        nd, fd = ids[i - 1], ids[i]
    else:
        nd, fd = ids[i], ids[i - 1]
    if nd == own_id:
        raise RoutingError(f"near dominator degenerated to self at {own_id}")
    b = link.br_of(nd)
    if b is None:
        raise RoutingError(f"neighbor {nd} lacks a breakpoint id")
    if min(nd, b) <= tid <= max(nd, b):
        return nd
    return fd


class SimpleScheme:
    kind = "simple"

    def __init__(self, n, labels, bits, links):
        self.n = n
        self._labels = labels
        self._bits = bits
        self._links = links
        w = (n - 1).bit_length()
        self.max_label_bits = max(
            w * (2 if lab.br is not None else 1) for lab in labels)
        self.max_table_bits = 1
        self.max_header_bits = 0

    def label_of(self, v: int) -> SimpleLabel:
        return self._labels[v]

    def table_of(self, v: int) -> bool:
        return self._bits[v]

    def link_of(self, v: int) -> SimpleLink:
        return self._links[v]

    def neighbor_ids(self, v: int):
        own = self._links[v].own.vid
        return [i for i in self._links[v].ids if i != own]

    def step(self, link, table, target, header):
        return route_step_simple(link, table, target), None


def preprocess_simple(h, g) -> SimpleScheme:
    """Build labels, table bits, and link tables for a simple histogram.

    Aborts when the id-interval property fails for some vertex: the
    vertices inside I(v) must be exactly the contiguous id range from
    l(v) to r(v), and those two must be the extreme ids of the closed
    neighborhood. Both hold for valid simple histograms; the check
    guards against geometry bugs rather than bad inputs.
    """
    if h.kind != "simple":
        raise SchemeBuildError(f"need a simple histogram, got {h.kind}")
    n = h.n
    lm = g.lm
    lvid, rvid = lm.l_vid, lm.r_vid
    v = lmk.first_vertex((lvid < 0) | (rvid < 0))
    if v is not None:
        raise SchemeBuildError(f"non-vertex landmark at {v}")
    # validation numbers a simple histogram's vertices in x order, so
    # the vertices inside I(v) are the ids a..b-1 below, and I(v) holds
    # exactly lvid..rvid when that range starts and ends there
    xs = h.xs
    a = np.searchsorted(xs, lm.l_x, "left")
    b = np.searchsorted(xs, lm.r_x, "right")
    v = lmk.first_vertex((a != lvid) | (b != rvid + 1))
    if v is not None:
        raise SchemeBuildError(
            f"I({v}) is not the id range [{int(lvid[v])},{int(rvid[v])}]")
    ids = np.arange(n)
    near_lo, near_hi = lmk.closed_extremes(g, ids, ids)
    v = lmk.first_vertex((near_lo != lvid) | (near_hi != rvid))
    if v is not None:
        raise SchemeBuildError(
            f"closed neighborhood of {v} does not end at the landmarks")

    labels = [SimpleLabel(v, lmk.breakpoint_of(g, v)) for v in range(n)]
    bits = (lm.l_y > lm.r_y).tolist()
    links = []
    for v, nbrs in enumerate(g.neighbors):
        entries = [labels[u] for u in nbrs.tolist()] + [labels[v]]
        links.append(SimpleLink(entries, v))
    return SimpleScheme(n, labels, bits, links)


def dump_scheme(scheme: SimpleScheme) -> str:
    """Self-contained text dump: one row per vertex with label fields,
    the table bit, and the neighbor ids."""
    lines = [f"scheme simple {scheme.n}"]
    for v in range(scheme.n):
        lab = scheme.label_of(v)
        fields = str(lab.vid) if lab.br is None else f"{lab.vid} {lab.br}"
        nbrs = " ".join(str(i) for i in scheme.neighbor_ids(v))
        bit = 1 if scheme.table_of(v) else 0
        lines.append(f"{v} | {fields} | {bit} | {nbrs}")
    return "\n".join(lines) + "\n"


def parse_dump(text: str) -> SimpleScheme:
    """Inverse of dump_scheme. Raises ValueError on malformed text."""
    n, rows = dump.read_rows(text, "simple", 3)
    labels = [None] * n
    bits = [False] * n
    nbrs = [None] * n
    for v, (_, label, bit, ids) in enumerate(rows):
        fields = [int(x) for x in label.split()]
        if not 1 <= len(fields) <= 2 or fields[0] != v:
            raise ValueError(f"row {v}: label must be '{v}' or "
                             f"'{v} <breakpoint>', got {label.strip()!r}")
        labels[v] = SimpleLabel(v, fields[1] if len(fields) > 1 else None)
        bits[v] = dump.parse_bit(bit)
        nbrs[v] = [int(a) for a in ids.split()]
    dump.check_ids(nbrs, n)
    links = []
    for v in range(n):
        entries = [labels[u] for u in nbrs[v]] + [labels[v]]
        links.append(SimpleLink(entries, v))
    return SimpleScheme(n, labels, bits, links)
