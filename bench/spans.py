"""Spans around the library's public functions, installed from outside.

The traced run replaces module attributes (and the scheme classes'
``step``) with timing wrappers for the duration of a ``with`` block and
puts the originals back afterwards. Library code that calls a wrapped
function through its module, as ``lmk.k_dominators(...)`` or a plain
module-global name does, is timed too. Nested spans give self times:
a span's self time is its duration minus the time of the wrapped
calls made inside it.

A target that no longer exists (a later change may move a function to
``tests/`` or rename it) is reported as absent instead of raising.
Only names without a leading underscore are wrapped.
"""

import contextlib
import functools
import importlib
import time


# (module, attribute path, span name)
TARGETS = (
    ("polygon", "parse_polygon", "polygon.parse"),
    ("polygon", "validate", "polygon.validate"),
    ("polygon", "normalize", "polygon.normalize"),
    ("visibility", "compute_landmarks", "visibility.landmarks"),
    ("visibility", "build_graph", "visibility.graph"),
    ("landmarks", "breakpoint_of", "landmarks.breakpoint_of"),
    ("landmarks", "interval_vertices", "landmarks.interval_vertices"),
    ("landmarks", "k_dominators", "landmarks.k_dominators"),
    ("landmarks", "ik_bounds", "landmarks.ik_bounds"),
    ("landmarks", "canonical_paths", "landmarks.canonical_paths"),
    ("scheme_simple", "preprocess_simple", "scheme_simple.preprocess"),
    ("scheme_double", "preprocess_double", "scheme_double.preprocess"),
    ("scheme_simple", "parse_dump", "scheme_simple.load"),
    ("scheme_double", "parse_dump", "scheme_double.load"),
    ("scheme_simple", "SimpleScheme.step", "scheme_simple.step"),
    ("scheme_double", "DoubleScheme.step", "scheme_double.step"),
    ("engine", "run_route", "engine.run_route"),
    ("engine", "verify_all_pairs", "engine.verify"),
    ("engine", "check_two_step_progress", "engine.progress_check"),
)

# Spans whose self times together make up scheme set-up.
SETUP_SPANS = (
    "polygon.parse", "polygon.validate", "polygon.normalize",
    "visibility.landmarks", "visibility.graph",
    "landmarks.breakpoint_of", "landmarks.interval_vertices",
    "landmarks.k_dominators", "landmarks.ik_bounds",
    "landmarks.canonical_paths",
    "scheme_simple.preprocess", "scheme_double.preprocess",
)


class Span:
    """Totals for one span name. ``marks`` counts what observers saw,
    such as hops or headers, keyed by mark name."""

    __slots__ = ("calls", "self_ns", "marks")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.marks = {}

    @property
    def self_s(self):
        return self.self_ns / 1e9


def _observe_route(span, trace):
    span.marks["hops"] = span.marks.get("hops", 0) + max(len(trace) - 1, 0)


def _observe_step(span, out):
    if out[1] is not None:
        span.marks["header_hops"] = span.marks.get("header_hops", 0) + 1


_OBSERVERS = {
    "engine.run_route": _observe_route,
    "scheme_simple.step": _observe_step,
    "scheme_double.step": _observe_step,
}


class Recorder:
    """Span totals of one traced pass, plus the targets found absent."""

    def __init__(self):
        self.spans = {name: Span() for _, _, name in TARGETS}
        self.absent = []
        self._stack = []    # child time accumulated per open span

    def _wrap(self, name, fn):
        span = self.spans[name]
        stack = self._stack
        observe = _OBSERVERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                span.calls += 1
                span.self_ns += dt - child
                if stack:
                    stack[-1] += dt
            if observe is not None:
                observe(span, out)
            return out
        return wrapper


def _resolve(module, path):
    """(owner, attribute name) for a dotted public path, or None."""
    try:
        owner = importlib.import_module(f"histroute.{module}")
    except ImportError:
        return None
    parts = path.split(".")
    if any(p.startswith("_") for p in parts):
        return None
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, parts[-1], None)):
        return None
    return owner, parts[-1]


@contextlib.contextmanager
def tracing():
    """Install the wrappers; yield the Recorder; restore on exit."""
    rec = Recorder()
    saved = []
    try:
        for module, path, name in TARGETS:
            found = _resolve(module, path)
            if found is None:
                rec.absent.append(name)
                continue
            owner, attr = found
            # None marks an inherited attribute: restore by deleting
            saved.append((owner, attr, owner.__dict__.get(attr)))
            setattr(owner, attr, rec._wrap(name, getattr(owner, attr)))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
