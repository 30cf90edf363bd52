"""Per-layer tracing from outside the program.

install() wraps the public functions of every arrcsm module where callers
look them up: each module attribute bound to the function (the defining
module, modules that imported it by name, the package namespace), plus
two class methods, QMatrix.kernel_basis and IncrementalSpan.add.  Each
wrapper records a span (name, start, end, parent) and, for some calls,
a counter computed from the arguments or the result.  Nothing under
src/ changes; uninstall() puts every original back.

A layer's self time is its span's duration minus the part of that
interval its child spans cover.  Spans are kept per job and folded into
per-layer totals when the job ends, so memory stays bounded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass
from math import comb

MODULES = ("poly", "linalg", "arrangement", "lattice", "logder", "chow", "cli")
METHODS = (("linalg", "QMatrix", "kernel_basis"), ("linalg", "IncrementalSpan", "add"))
# Per-term monomial helpers run inside every polynomial product and sort;
# a span per call would cost more than the work it measures.
SKIP = {"monomial_degree", "monomial_key", "monomial_mul", "monomial_divides", "monomial_div"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the job's span list, -1 for a root


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for sp in spans:
        if sp.parent >= 0:
            children[sp.parent].append((sp.start, sp.end))
    return [sp.end - sp.start - covered(kids) for sp, kids in zip(spans, children)]


def inclusive_time(spans: list[Span], names) -> float:
    """Time inside spans named in `names`, counting nested ones once."""
    names = set(names)
    total = 0.0
    for sp in spans:
        if sp.name not in names:
            continue
        p = sp.parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            total += sp.end - sp.start
    return total


def _oracle_points(args, _result) -> float:
    arr, p = args[0], args[1]
    return sum(p ** (arr.nvars - lead - 1) for lead in range(arr.nvars))


def _unknowns(args, result) -> float:
    n1 = args[0].nvars
    return sum(n1 * comb(d + n1 - 1, n1 - 1) for d in result.dimensions)


# counter name -> (span name, value computed from (args, result))
COUNTERS = {
    "lattice.flats": ("lattice.build_lattice", lambda a, r: r.size()),
    "lattice.oracle_points": ("lattice.point_count_oracle", _oracle_points),
    "logder.degrees_searched": ("logder.minimal_generators", lambda a, r: len(r.dimensions)),
    "logder.unknowns": ("logder.minimal_generators", _unknowns),
    "linalg.kernel_entries": ("linalg.QMatrix.kernel_basis", lambda a, r: a[0].nrows * a[0].ncols),
    "linalg.span_useful": ("linalg.IncrementalSpan.add", lambda a, r: r is not None),
}


class Tracer:
    """Records spans for the current job and accumulates per-layer totals."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._observers: dict[str, list[tuple[str, object]]] = {}
        for counter, (span_name, fn) in COUNTERS.items():
            self._observers.setdefault(span_name, []).append((counter, fn))
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        observers = self._observers.get(name, ())
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, clock(), 0.0, stack[-1] if stack else -1))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx].end = clock()
                stack.pop()
            for counter, value in observers:
                counters[counter] = counters.get(counter, 0) + value(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target where it is looked up."""
        package = importlib.import_module("arrcsm")
        modules = [importlib.import_module(f"arrcsm.{m}") for m in MODULES]
        targets = {}
        for mod in modules:
            short = mod.__name__.split(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and attr not in SKIP
                ):
                    targets[fn] = self.wrap(f"{short}.{attr}", fn)
        for mod in [package, *modules]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in targets:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, targets[value])
        for short, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"arrcsm.{short}"), cls_name)
            original = cls.__dict__[meth]
            self._patched.append((cls, meth, original))
            setattr(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def take(self) -> tuple[list[Span], dict[str, float]]:
        """Hand over the finished job's spans and counters and start afresh."""
        if self._stack:
            raise RuntimeError("a span is still open")
        spans, counters = list(self.spans), dict(self.counters)
        self.spans.clear()
        self.counters.clear()
        return spans, counters


# Per-layer metrics: (name, unit, kind, span names or counter).
#   incl  - time inside the named spans, nested ones counted once
#   self  - self time of the named spans
#   calls - number of spans with these names
#   count - a counter from COUNTERS
LAYER_METRICS = (
    ("arrangement.parse_ms", "ms", "incl", ("arrangement.parse_file",)),
    ("lattice.build_ms", "ms", "self", ("lattice.build_lattice",)),
    ("lattice.build_calls", "count", "calls", ("lattice.build_lattice",)),
    ("lattice.flats", "count", "count", "lattice.flats"),
    ("lattice.classes_ms", "ms", "incl",
     ("lattice.csm_complement", "lattice.char_poly", "lattice.reduced_char_poly")),
    ("lattice.oracle_ms", "ms", "incl", ("lattice.point_count_oracle",)),
    ("lattice.oracle_points", "count", "count", "lattice.oracle_points"),
    ("logder.search_ms", "ms", "self", ("logder.minimal_generators",)),
    ("logder.search_calls", "count", "calls", ("logder.minimal_generators",)),
    ("logder.space_calls", "count", "calls", ("logder.log_derivation_space",)),
    ("logder.degrees_searched", "count", "count", "logder.degrees_searched"),
    ("logder.unknowns", "count", "count", "logder.unknowns"),
    ("logder.saito_ms", "ms", "self", ("logder.decide_freeness",)),
    ("linalg.kernel_ms", "ms", "incl", ("linalg.QMatrix.kernel_basis",)),
    ("linalg.kernel_calls", "count", "calls", ("linalg.QMatrix.kernel_basis",)),
    ("linalg.kernel_entries", "count", "count", "linalg.kernel_entries"),
    ("linalg.span_add_ms", "ms", "incl", ("linalg.IncrementalSpan.add",)),
    ("linalg.span_add_calls", "count", "calls", ("linalg.IncrementalSpan.add",)),
    ("linalg.rref_rows_ms", "ms", "incl", ("linalg.rref_rows", "linalg.span_contains")),
    ("linalg.poly_det_ms", "ms", "incl", ("linalg.poly_det",)),
    ("poly.reduce_ms", "ms", "incl", ("poly.reduce_mod_linear",)),
    ("poly.divmod_ms", "ms", "incl", ("poly.poly_divmod",)),
    ("chow.routes_ms", "ms", "incl",
     ("chow.tjurina_route", "chow.blowup_chern_snc", "chow.pushforward_to_p2",
      "logder.chern_class_free")),
    ("cli.self_ms", "ms", "self", ("cli.run",)),
)


class LayerTotals:
    """Sums of every per-layer metric over the traced jobs."""

    def __init__(self):
        self.jobs = 0
        self.totals = {name: 0.0 for name, *_ in LAYER_METRICS}
        self.span_useful = 0.0
        self.uncovered_s = 0.0
        self.by_span: dict[str, list[float]] = {}  # name -> [calls, self s]

    def add_job(self, spans: list[Span], counters: dict[str, float], job_wall_s: float,
                scale: float = 1.0) -> None:
        """Fold one job's spans in; times are multiplied by `scale`."""
        selfs = self_times(spans)
        for name, _unit, kind, source in LAYER_METRICS:
            if kind == "incl":
                value = inclusive_time(spans, source) * 1000 * scale
            elif kind == "self":
                value = sum(s for sp, s in zip(spans, selfs) if sp.name in source) * 1000 * scale
            elif kind == "calls":
                value = sum(1 for sp in spans if sp.name in source)
            else:
                value = counters.get(source, 0)
            self.totals[name] += value
        self.span_useful += counters.get("linalg.span_useful", 0)
        roots = sum(sp.end - sp.start for sp in spans if sp.parent < 0)
        self.uncovered_s += (job_wall_s - roots) * scale
        for sp, s in zip(spans, selfs):
            entry = self.by_span.setdefault(sp.name, [0, 0.0])
            entry[0] += 1
            entry[1] += s * scale
        self.jobs += 1

    def per_job(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as a per-job mean, with its unit."""
        n = max(self.jobs, 1)
        out = {name: (self.totals[name] / n, unit) for name, unit, *_ in LAYER_METRICS}
        adds = self.totals["linalg.span_add_calls"]
        out["linalg.span_useful_ratio"] = (self.span_useful / adds if adds else 0.0, "fraction")
        out["trace.uncovered_ms"] = (self.uncovered_s * 1000 / n, "ms")
        return out
