"""Stretch-1 compact routing on simple histograms.

Labels are vertex ids, extended with the breakpoint id for reflex and
base vertices. The per-vertex routing table is a single bit saying
which of the two interval ends sits higher (closer to the base). The
step function needs only the closed-neighborhood link table, that bit,
and the target's label, and answers with the port of a neighbor on a
shortest path.
"""

from bisect import bisect_left
import dataclasses

import numpy as np

from . import dump
from . import landmarks as lmk
from .engine import (RoutingError, Scheme, SchemeBuildError, cut_rows,
                     first_fault)


@dataclasses.dataclass(slots=True)
class SimpleLabel:
    vid: int
    br: int | None = None   # breakpoint id, present iff reflex or base vertex


class SimpleLink:
    """The closed neighborhood's ids, ascending, the simple link order,
    as a tuple cut by engine.cut_rows; ``br[i]`` is the breakpoint of
    ``ids[i]``, -1 where it has none. A port is a position in both."""

    __slots__ = ("own_vid", "ids", "br")

    def __init__(self, own_vid: int, ids, br):
        self.own_vid = own_vid
        self.ids = ids
        self.br = br


def route_step_simple(scheme, link: SimpleLink, higher_left: bool,
                      target: SimpleLabel, header):
    """One hop, as ``SimpleScheme.step``: (next port, None) from the link,
    table bit and target label alone; ``scheme`` and header go unread."""
    tid = target.vid
    ids = link.ids
    if not ids[0] <= tid <= ids[-1]:
        # target outside the interval: move to the higher interval end
        return (0 if higher_left else len(ids) - 1), None
    i = bisect_left(ids, tid)
    if ids[i] == tid:
        return i, None
    own_id = link.own_vid
    right = tid > own_id    # ports i - 1, i: the near one is on own_id's side
    near = i - 1 if right else i
    nd = ids[near]
    if nd == own_id:
        raise RoutingError(f"near dominator degenerated to self at {own_id}")
    b = link.br[near]
    if b < 0:
        raise RoutingError(f"neighbor {nd} lacks a breakpoint id")
    if nd <= tid <= b or b <= tid <= nd:
        return near, None
    return (i if right else i - 1), None


class SimpleScheme(Scheme):
    """Columns: ``br``, the breakpoint id of each vertex (-1 where it has
    none), and ``bit``, its table bit: whether l(v) sits higher than
    r(v)."""

    kind = "simple"
    fields = ("br", "bit")
    max_table_bits = 1
    max_header_bits = 0

    def __init__(self, n, cols, indptr, indices, rows):
        super().__init__(n, cols, indptr, indices)
        br = cols["br"]
        self.labels = list(map(SimpleLabel, range(n),
                               np.where(br >= 0, br, None).tolist()))
        self.tables = cols["bit"].tolist()
        self.links = list(map(SimpleLink, range(n), *cut_rows(rows, br)))
        w = (n - 1).bit_length()
        self.max_label_bits = w * (2 if (br >= 0).any() else 1)

    step = route_step_simple

    @staticmethod
    def check_cols(n, cols):
        br, bit = cols["br"], cols["bit"]
        return {"br": br, "bit": bit == 1}, [
            ((br < -1) | (br >= n), lambda v: (
                f"row {v}: breakpoint {br[v]} is outside [0, {n})")),
            dump.bit_check(bit)]


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
    first_fault(SchemeBuildError, ((lvid < 0) | (rvid < 0), None,
                                   lambda v: f"non-vertex landmark at {v}"))
    # validation numbers a simple histogram's vertices in x order, so
    # the vertices inside I(v) are the ids a..b-1 below, and I(v) holds
    # exactly lvid..rvid when that range starts and ends there
    xs = h.xs
    a = np.searchsorted(xs, lm.l_x, "left")
    b = np.searchsorted(xs, lm.r_x, "right")
    first_fault(SchemeBuildError, ((a != lvid) | (b != rvid + 1), None,
                                   lambda v: f"I({v}) is not the id range "
                                   f"[{int(lvid[v])},{int(rvid[v])}]"))
    # ids ascending, the simple link order: a row's ends are its extremes
    ptr, ids = rows = SimpleScheme.link_rows(n, None, g.indptr, g.indices)
    first_fault(SchemeBuildError, (
        (ids[ptr[:-1]] != lvid) | (ids[ptr[1:] - 1] != rvid), None,
        lambda v: f"closed neighborhood of {v} does not end at the landmarks"))

    cols = {"br": lmk.breakpoints(g), "bit": lm.l_y > lm.r_y}
    return SimpleScheme(n, cols, g.indptr, g.indices, rows)


def dump_scheme(scheme: SimpleScheme) -> bytes:
    """Self-contained dump (see dump): the CSR of the neighbor ids, then
    the breakpoint and table bit columns."""
    return dump.write(scheme)


def parse_dump(data: bytes) -> SimpleScheme:
    """Inverse of dump_scheme. Raises dump.read's error, a ValueError,
    on a malformed dump."""
    return dump.read(data, SimpleScheme)
