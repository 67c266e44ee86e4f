"""Span recorder kept in the benchmark's own files.

The recorder keeps every span in memory as a row
``[name, parent, item, phase, start, duration, child]`` and computes self
time as ``duration - child``, where ``child`` is the time the span's direct
children covered.  Time is read from ``time.perf_counter``.

A generator is one span over its whole iteration: the span is on the stack
only while the generator runs, so time its consumer spends between two
yields is not counted, and each resumed stretch is subtracted from the span
that resumed it.

``Instrumentation`` puts spans around the public functions of the knotmorse
modules.  It rebinds each name in every module namespace that holds it,
because the modules import each other's functions with ``from .x import y``.
Names that no longer exist are skipped, so their metrics read zero.  Only one
thread may run program code at a time (the benchmark runs with one worker).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

NAME, PARENT, ITEM, PHASE, START, DURATION, CHILD = range(7)

# span name -> public function names it covers
LAYERS = {
    "diagram": ("parse_pd", "build_diagram", "build_tait", "colour_graphs", "is_reduced"),
    "corpus": ("load_corpus", "get_entry", "corpus_names", "rational_pd", "torus_pd"),
    "states.enumerate": ("enumerate_matchings", "kauffman_states"),
    "states.nonextendable": ("find_nonextendable",),
    "states.predicates": (
        "is_dmf",
        "amended_poset_acyclic",
        "jordan_resolution",
        "induced_forests",
        "forests_to_matching",
        "kpw",
        "is_admissible",
        "is_perfect",
        "is_maximal",
        "critical_cells",
    ),
    "counting.formula": (
        "count_perfect_dmfs",
        "count_all_dmfs",
        "fibonacci_family_count",
        "count_spanning_trees",
        "spanning_trees",
        "forest_polynomial",
    ),
    "counting.enumeration": ("count_via_enumeration",),
    "moves.generate": ("clock_moves", "click_loop_moves", "click_path_moves", "two_click_connect"),
    "moves.graph": ("build_move_graph",),
    "moves.connectivity": ("verify_connectivity", "click_path_avoidance", "shortest_move_sequence"),
    "complexes.facets": ("matching_complex", "morse_complex", "pure_part", "pure_morse_from_trees"),
    "complexes.homology": ("homology",),
    "reference": ("computed_row", "reference_complexes"),
    "cli": ("main",),
}

MODULES = (
    "knotmorse.cli",
    "knotmorse.complexes",
    "knotmorse.corpus",
    "knotmorse.counting",
    "knotmorse.diagram",
    "knotmorse.moves",
    "knotmorse.reference",
    "knotmorse.states",
)


class Recorder:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[object, dict[str, int]] = {}
        self.item = None
        self.phase = None
        self._stack: list[int] = []
        self._since: dict[int, float] = {}

    def create(self, name: str) -> int:
        """A new span, not yet running; its parent is the running span."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, self.item, self.phase, self.clock(), 0.0, 0.0])
        self.add(name + ".calls")
        return len(self.spans) - 1

    def resume(self, index: int) -> None:
        self._stack.append(index)
        self._since[index] = self.clock()

    def suspend(self, index: int) -> None:
        stretch = self.clock() - self._since.pop(index)
        popped = self._stack.pop()
        assert popped == index, "spans closed out of order"
        self.spans[index][DURATION] += stretch
        if self._stack:
            self.spans[self._stack[-1]][CHILD] += stretch

    def open(self, name: str) -> int:
        index = self.create(name)
        self.resume(index)
        return index

    def running(self) -> str | None:
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    def add(self, key: str, n: int = 1) -> None:
        counts = self.counts.setdefault(self.phase, {})
        counts[key] = counts.get(key, 0) + n

    def self_times(self, phase) -> dict[str, float]:
        """Self time per span name over the spans of one phase."""
        out: dict[str, float] = {}
        for span in self.spans:
            if span[PHASE] == phase:
                out[span[NAME]] = out.get(span[NAME], 0.0) + span[DURATION] - span[CHILD]
        return out

    def write(self, fh) -> None:
        """A header line naming the fields, then one JSON array per span;
        ``parent`` is the index of the parent span's line, from 0."""
        fh.write(json.dumps(["name", "parent", "item", "phase", "start", "duration", "self"]) + "\n")
        for name, parent, item, phase, start, duration, child in self.spans:
            fh.write(json.dumps([name, parent, item, phase, start, duration, duration - child]) + "\n")


def wrap_function(rec: Recorder, fn, name: str, on_result=None):
    """``fn`` inside a span called ``name``; generators span their iteration."""
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def generator(*args, **kwargs):
            inner = fn(*args, **kwargs)
            index = None
            try:
                while True:
                    if index is None:
                        index = rec.create(name)
                    rec.resume(index)
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    finally:
                        rec.suspend(index)
                    rec.add(name + ".yielded")
                    yield value
            finally:
                inner.close()

        return generator

    @functools.wraps(fn)
    def call(*args, **kwargs):
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.suspend(index)
        if on_result is not None:
            on_result(rec, result)
        return result

    return call


def _count_len(key):
    def hook(rec, result):
        rec.add(key, len(result))

    return hook


def _count_candidates(rec, result):
    rec.add("moves.generate.candidates", len(result))
    if rec.running() == "moves.graph":
        rec.add("moves.graph.candidates", len(result))


def _count_graph(rec, result):
    rec.add("moves.graph.nodes", len(result.nodes))
    rec.add("moves.graph.edges", len(result.edges))


def _count_homology_faces(rec, result):
    rec.add("complexes.homology.faces", sum(result.face_counts))


RESULT_HOOKS = {
    "states.enumerate": _count_len("states.enumerate.yielded"),
    "moves.generate": _count_candidates,
    "moves.graph": _count_graph,
    "complexes.homology": _count_homology_faces,
}


class Instrumentation:
    """Installs and removes the spans around knotmorse's public functions."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._undo: list[tuple[object, str, object]] = []
        # complexes whose faces were counted in this phase, kept alive so
        # that their ids stay unique; cleared by new_phase
        self._faced: dict[int, object] = {}

    def new_phase(self, phase) -> None:
        self.rec.phase = phase
        self._faced.clear()

    def install(self) -> None:
        rec = self.rec
        wrappers = {}
        for span, names in LAYERS.items():
            for name in names:
                for module_name in MODULES:
                    module = sys.modules.get(module_name)
                    original = getattr(module, name, None)
                    if original is None or not callable(original):
                        continue
                    if id(original) not in wrappers:
                        wrappers[id(original)] = wrap_function(
                            rec, original, span, RESULT_HOOKS.get(span)
                        )
                    self._rebind(module, name, wrappers[id(original)])
        complexes = sys.modules.get("knotmorse.complexes")
        cls = getattr(complexes, "SimplicialComplex", None)
        if cls is not None:
            self._rebind(cls, "__init__", self._build(cls.__init__))
            self._rebind(cls, "faces", self._faces(cls.faces))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _rebind(self, owner, name, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _build(self, init):
        rec = self.rec

        @functools.wraps(init)
        def build(complex_, facets):
            index = rec.open("complexes.build")
            try:
                facets = list(facets)
                init(complex_, facets)
            finally:
                rec.suspend(index)
            rec.add("complexes.build.facets_offered", len(facets))
            rec.add("complexes.build.facets_kept", len(complex_.facets))

        return build

    def _faces(self, faces):
        rec = self.rec
        faced = self._faced

        @functools.wraps(faces)
        def traced_faces(complex_):
            index = rec.open("complexes.faces")
            try:
                result = faces(complex_)
            finally:
                rec.suspend(index)
            if id(complex_) not in faced:
                faced[id(complex_)] = complex_
                rec.add("complexes.faces.count", sum(len(bucket) for bucket in result))
            return result

        return traced_faces
