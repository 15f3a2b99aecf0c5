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
from .engine import (RoutingError, Scheme, SchemeBuildError, closed_rows,
                     cut_rows)


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


def route_step_simple(link: SimpleLink, higher_left: bool,
                      target: SimpleLabel) -> int:
    """One routing hop: the next vertex's port. Pure function of the
    three local inputs."""
    tid = target.vid
    ids = link.ids
    if not ids[0] <= tid <= ids[-1]:
        # target outside the interval: move to the higher interval end
        return 0 if higher_left else len(ids) - 1
    i = bisect_left(ids, tid)
    if ids[i] == tid:
        return i
    own_id = link.own_vid
    near, far = (i - 1, i) if tid > own_id else (i, i - 1)
    nd = ids[near]
    if nd == own_id:
        raise RoutingError(f"near dominator degenerated to self at {own_id}")
    b = link.br[near]
    if b < 0:
        raise RoutingError(f"neighbor {nd} lacks a breakpoint id")
    if min(nd, b) <= tid <= max(nd, b):
        return near
    return far


class SimpleScheme(Scheme):
    """Columns: ``br``, the breakpoint id of each vertex (-1 where it has
    none), and ``bit``, its table bit: whether l(v) sits higher than
    r(v)."""

    kind = "simple"
    columns = 2     # label, table bit
    max_table_bits = 1
    max_header_bits = 0

    def __init__(self, n, cols, indptr, indices, rows):
        super().__init__(n, cols, indptr, indices)
        br = cols["br"]
        self._labels = list(map(SimpleLabel, range(n),
                                np.where(br >= 0, br, None).tolist()))
        self._tables = cols["bit"].tolist()
        self._links = list(map(SimpleLink, range(n), *cut_rows(rows, br)))
        w = (n - 1).bit_length()
        self.max_label_bits = w * (2 if (br >= 0).any() else 1)

    def step(self, link, table, target, header):
        return route_step_simple(link, table, target), None

    def dump_fields(self):
        br = self.cols["br"].tolist()
        return list(map("{} | {}".format,
                        [f"{v} {b}" if b >= 0 else str(v)
                         for v, b in enumerate(br)],
                        self.cols["bit"].astype(np.int8).tolist()))

    @staticmethod
    def read_fields(rows):
        vals, starts = rows.ints(1)
        counts = np.diff(starts)
        vid = rows.vid[:len(counts)]
        # -1 past the last token: an empty label has no head
        head, second = (np.append(vals, [-1, -1])[starts[:-1] + k]
                        for k in (0, 1))
        rows.fault((counts < 1) | (counts > 2) | (head != vid), lambda r: (
            f"row {vid[r]}: label must be '{vid[r]}' or '{vid[r]} "
            f"<breakpoint>', got {rows.fields[1][r].strip()!r}"))
        br = np.where(counts == 2, second, -1)
        rows.fault((counts == 2) & ((br < 0) | (br >= rows.n)), lambda r: (
            f"row {vid[r]}: breakpoint {br[r]} is outside [0, {rows.n})"))
        return {"br": br, "bit": rows.bits(2)}


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

    cols = {"br": lmk.breakpoints(g), "bit": lm.l_y > lm.r_y}
    return SimpleScheme(n, cols, g.indptr, g.indices, (ptr, ids))


def dump_scheme(scheme: SimpleScheme) -> str:
    """Self-contained text dump: one row per vertex with label fields,
    the table bit, and the neighbor ids."""
    return dump.write(scheme)


def parse_dump(text: str) -> SimpleScheme:
    """Inverse of dump_scheme. Raises ValueError on malformed text."""
    return dump.read(text, SimpleScheme)
