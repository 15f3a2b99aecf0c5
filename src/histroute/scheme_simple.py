"""Stretch-1 compact routing on simple histograms.

Labels are vertex ids, extended with the breakpoint id for reflex and
base vertices. The per-vertex routing table is a single bit saying
which of the two interval ends sits higher (closer to the base). The
step function needs only the closed-neighborhood link table, that bit,
and the target's label, and always advances along a shortest path.
"""

import bisect
import dataclasses

import numpy as np

from . import dump
from . import landmarks as lmk
from .engine import RoutingError, Scheme, SchemeBuildError, closed_rows


@dataclasses.dataclass(frozen=True)
class SimpleLabel:
    vid: int
    br: int | None = None   # breakpoint id, present iff reflex or base vertex


class SimpleLink:
    """The closed neighborhood's ids, ascending, the simple link order;
    ``br[i]`` is the breakpoint of ``ids[i]``, None where it has none."""

    def __init__(self, labels, row, own_vid: int):
        self.ids = row
        self.id_set = set(row)
        self.br = [labels[u].br for u in row]
        self.own_vid = own_vid


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
    own_id = link.own_vid
    i = bisect.bisect_left(ids, tid)
    near, far = (i - 1, i) if tid > own_id else (i, i - 1)
    nd, fd = ids[near], ids[far]
    if nd == own_id:
        raise RoutingError(f"near dominator degenerated to self at {own_id}")
    b = link.br[near]
    if b is None:
        raise RoutingError(f"neighbor {nd} lacks a breakpoint id")
    if min(nd, b) <= tid <= max(nd, b):
        return nd
    return fd


class SimpleScheme(Scheme):
    kind = "simple"
    Link = SimpleLink
    columns = 2     # label, table bit
    max_table_bits = 1
    max_header_bits = 0

    def __init__(self, n, labels, tables, indptr, indices, rows):
        super().__init__(n, labels, tables, indptr, indices, rows)
        w = (n - 1).bit_length()
        self.max_label_bits = max(
            w * (2 if lab.br is not None else 1) for lab in labels)

    def step(self, link, table, target, header):
        return route_step_simple(link, table, target), None

    def row_fields(self, v: int):
        lab = self.label_of(v)
        return [str(lab.vid) if lab.br is None else f"{lab.vid} {lab.br}",
                "1" if self.table_of(v) else "0"]

    @staticmethod
    def parse_row(v: int, fields):
        label, bit = fields
        ids = [int(x) for x in label.split()]
        if not 1 <= len(ids) <= 2 or ids[0] != v:
            raise ValueError(f"row {v}: label must be '{v}' or "
                             f"'{v} <breakpoint>', got {label.strip()!r}")
        return SimpleLabel(v, ids[1] if len(ids) > 1 else None), \
            dump.parse_bit(bit)


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
    # ids ascending, the simple link order: a row's ends are its extremes
    ptr, ids = closed_rows(g.indptr, g.indices, SimpleScheme.link_order(n))
    v = lmk.first_vertex((ids[ptr[:-1]] != lvid) | (ids[ptr[1:] - 1] != rvid))
    if v is not None:
        raise SchemeBuildError(
            f"closed neighborhood of {v} does not end at the landmarks")

    labels = [SimpleLabel(v, b if b >= 0 else None)
              for v, b in enumerate(lmk.breakpoints(g).tolist())]
    bits = (lm.l_y > lm.r_y).tolist()
    return SimpleScheme(n, labels, bits, g.indptr, g.indices, (ptr, ids))


def dump_scheme(scheme: SimpleScheme) -> str:
    """Self-contained text dump: one row per vertex with label fields,
    the table bit, and the neighbor ids."""
    return dump.write(scheme)


def parse_dump(text: str) -> SimpleScheme:
    """Inverse of dump_scheme. Raises ValueError on malformed text."""
    return dump.read(text, SimpleScheme)
