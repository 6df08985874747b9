"""Span tracing from outside the program: wrap ramify's public functions.

The tracer replaces every binding of a target function in the loaded
``ramify`` modules - the names its callers look it up by, such as
``ramify.enumeration.solve_power_system`` or ``ramify.validity.weak_ram_ok``
- with a wrapper that records one span per call: (id, parent id, name,
start ns, end ns, value).  Spans are kept in memory and aggregated, or
dumped, after the run.  A target that a later version of the program no
longer defines is reported as absent; it is never an error.

A layer's self time is its spans' duration minus the time covered by
their child spans, so the self times of all spans under the solve root
add up to the traced solve time.
"""

from __future__ import annotations

import gzip
import inspect
import itertools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable


def _ok(result) -> bool:
    # validators return either a bool or a ValidityReport
    return bool(getattr(result, "ok", result))


def _enum_stats(result) -> tuple[int, int]:
    found, stats = result
    return getattr(stats, "branches_visited", 0), len(found)


def _survey_size(result) -> tuple[int, int]:
    return sum(len(group) for group in result.values()), len(result)


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``origin`` is "module:attr" where the function is defined; ``span`` the
    span name, or a pair (leaf name, guard name) for full validators, split
    by whether the calling span is ``leaf_parent``; ``value`` extracts the
    small per-call value kept with the span (nothing else of the result is
    retained, so traced runs hold no extra program data).
    """

    origin: str
    span: str | tuple[str, str]
    value: Callable[[Any], Any] | None = None
    leaf_parent: str | None = None
    keep_args: bool = False


TARGETS: tuple[Target, ...] = (
    Target("ramify.enumeration:enumerate_ram_polygons", "enumeration.ram", _enum_stats),
    Target("ramify.enumeration:enumerate_fine_polygons", "enumeration.fine", _enum_stats),
    Target("ramify.enumeration:enumerate_residue_classes", "enumeration.res", _enum_stats),
    Target("ramify.enumeration:enumerate_unif_classes", "enumeration.unif", _enum_stats),
    Target("ramify.enumeration:enumerate_invariants", "enumeration.invariants"),
    Target("ramify.validity:weak_ram_ok", "validity.weak", _ok),
    Target("ramify.validity:is_weakly_valid_ram", "validity.weak", _ok),
    Target("ramify.validity:is_weakly_valid_fine", "validity.weak_fine", _ok),
    Target(
        "ramify.validity:is_valid_ram",
        ("validity.leaf", "validity.guard"),
        _ok,
        leaf_parent="enumeration.ram",
    ),
    Target(
        "ramify.validity:is_valid_fine",
        ("validity.leaf_fine", "validity.guard"),
        _ok,
        leaf_parent="enumeration.fine",
    ),
    Target("ramify.validity:is_valid_with_unif", "validity.guard", _ok),
    Target("ramify.validity:admissible_phi0", "validity.phi0"),
    Target("ramify.validity:phi0_equations", "validity.phi0"),
    Target("ramify.validity:equivalent_with_unif", "validity.equiv"),
    Target("ramify.residue_field:solve_power_system", "residue_field.solve"),
    Target("ramify.residue_field:orbit_representatives", "residue_field.orbits"),
    Target("ramify.residue_field:additive_coset_representatives", "residue_field.cosets"),
    Target("ramify.residue_field:make_field", "residue_field.make_field"),
    Target("ramify.templates:template_for_polygon", "templates.build"),
    Target("ramify.templates:template_for_fine", "templates.build"),
    Target("ramify.templates:template_for_invariant", "templates.build"),
    Target("ramify.templates:truncate_krasner", "templates.truncate"),
    Target("ramify.templates:reduce_template", "templates.reduce", keep_args=True),
    Target("ramify.templates:compute_Sm", "templates.compute_Sm"),
    Target("ramify.templates:cardinality", "templates.cardinality"),
    Target("ramify.templates:expand_template", "templates.expand"),
    Target("ramify.analyzer:brute_force_survey", "analyzer.survey", _survey_size),
    Target("ramify.analyzer:unif_of", "analyzer.unif_of"),
    Target("ramify.analyzer:residues_of", "analyzer.residues"),
    Target("ramify.selftest:run_selftest", "selftest.check"),
    Target("ramify.selftest:survey_case_problems", "selftest.check"),
    Target("ramify.serialize:invariant_to_json", "serialize.encode"),
    Target("ramify.serialize:template_to_json", "serialize.encode"),
    Target("ramify.serialize:polynomial_to_json", "serialize.encode"),
)

# each step of a wrapped generator is a span of its own, told apart from the
# call by its value; the step that finds the generator exhausted yields nothing
_CALL, _ITEM, _END = "call", "item", "end"


class Tracer:
    """Records spans for calls into the wrapped functions; see module doc."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS):
        self.targets = targets
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._stack: list[tuple[int, str]] = [(0, "")]
        self._patched: list[tuple[Any, str, Any]] = []
        self.reductions: list[tuple[Any, Any]] = []

    # -- installing -------------------------------------------------------

    def install(self, package: str = "ramify") -> None:
        """Wrap every binding of every target in the loaded package modules."""
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))
        ]
        for target in self.targets:
            module_name, attr = target.origin.split(":")
            fn = getattr(sys.modules.get(module_name), attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(fn, target)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, name, value))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, value in reversed(self._patched):
            setattr(mod, name, value)
        self._patched.clear()

    def _wrap(self, fn, target: Target):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter_ns
        value = target.value
        if isinstance(target.span, tuple):
            leaf_name, guard_name = target.span
            leaf_parent = target.leaf_parent
        else:
            leaf_name = guard_name = target.span
            leaf_parent = None

        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, guard_name)

        reductions = self.reductions if target.keep_args else None

        def traced(*args, **kwargs):
            sid = next(ids)
            parent, parent_name = stack[-1]
            name = leaf_name if parent_name == leaf_parent else guard_name
            stack.append((sid, name))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, None))
                raise
            t1 = clock()
            stack.pop()
            spans.append((sid, parent, name, t0, t1, value(result) if value else None))
            if reductions is not None:
                reductions.append((args[1] if len(args) > 1 else kwargs.get("T"), result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn, name: str):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = next(ids)
            t0 = clock()
            gen = fn(*args, **kwargs)
            spans.append((sid, stack[-1][0], name, t0, clock(), _CALL))
            while True:
                sid = next(ids)
                parent = stack[-1][0]
                stack.append((sid, name))
                t0 = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    spans.append((sid, parent, name, t0, clock(), _END))
                    stack.pop()
                    return
                except BaseException:
                    spans.append((sid, parent, name, t0, clock(), _END))
                    stack.pop()
                    raise
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, _ITEM))
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- spans made by the benchmark itself ---------------------------------

    def root(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` under a top-level span; returns its result."""
        sid = next(self._ids)
        self._stack.append((sid, name))
        t0 = time.perf_counter_ns()
        try:
            return fn()
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, 0, name, t0, t1, None))

    # -- results -----------------------------------------------------------

    def dump(self, path) -> None:
        """Write the raw spans, one tab-separated line each, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_ns\tend_ns\tvalue\n")
            for span in sorted(self.spans):
                out.write("\t".join(str(part) for part in span) + "\n")


@dataclass
class LayerTotals:
    """Totals of one span name: ``a`` and ``b`` sum the two parts of a pair
    value (branches and results of a search, tables and polygons of a survey)."""

    calls: int = 0
    self_ns: int = 0
    passed: int = 0
    items: int = 0
    a: int = 0
    b: int = 0


def aggregate(tracer: Tracer, root: str) -> tuple[dict[str, LayerTotals], int]:
    """Per span name totals for spans under the named root, and the root's duration.

    Spans under other roots (set-up) are left out, so the self times returned
    add up to the root span's duration exactly.
    """
    child_ns: dict[int, int] = defaultdict(int)
    for _, parent, _, t0, t1, _ in tracer.spans:
        child_ns[parent] += t1 - t0
    # spans are recorded as they end, so a parent comes after its children
    top_of: dict[int, int] = {}
    for sid, parent, *_ in reversed(tracer.spans):
        top_of[sid] = sid if parent == 0 else top_of.get(parent, parent)
    root_ids = {sid for sid, parent, name, *_ in tracer.spans if parent == 0 and name == root}

    totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
    root_ns = 0
    for sid, parent, name, t0, t1, value in tracer.spans:
        if top_of[sid] not in root_ids:
            continue
        if sid in root_ids:
            root_ns += t1 - t0
        layer = totals[name]
        layer.self_ns += (t1 - t0) - child_ns[sid]
        if value == _ITEM:
            layer.items += 1
            continue
        if value == _END:
            continue
        layer.calls += 1
        if value is True:
            layer.passed += 1
        elif isinstance(value, tuple):
            layer.a += value[0]
            layer.b += value[1]
    return totals, root_ns


def kept_fraction(tracer: Tracer, cardinality: Callable[[Any], int]) -> float:
    """Total cardinality after reduction over total cardinality before it."""
    pairs = [(T, R) for T, R in tracer.reductions if T is not None]
    before = sum(cardinality(T) for T, _ in pairs)
    after = sum(cardinality(R) for _, R in pairs)
    return float(Fraction(after, before)) if before else 0.0


def span_seconds(tracer: Tracer, name: str) -> float:
    """Total duration of every span of this name, under any root."""
    return sum(t1 - t0 for _, _, n, t0, t1, _ in tracer.spans if n == name) / 1e9
