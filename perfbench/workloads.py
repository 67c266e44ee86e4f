"""The benchmark's three workloads and their correctness gates.

Each workload is set up once from the run's seed (``__init__``) and then run
pass after pass (``run_pass``).  A pass is a list of items; every item is
timed on its own and checked, and an item that gives a wrong answer or
raises a KnotmorseError or an AssertionError is logged as failed while the
run goes on.
"""

from __future__ import annotations

import functools
import importlib
import io
import json
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stdout
from pathlib import Path

import inputs
import speed

HERE = Path(__file__).resolve().parent

MODULES = ("cli", "complexes", "corpus", "counting", "diagram", "errors", "moves", "reference", "states")


# Reads raw wall time where no sampling clock is running (the tests).
UNSCALED = speed.SpeedClock()


class MissingProgram(RuntimeError):
    """The checkout holds no knotmorse sources to benchmark."""


def import_package(root: Path) -> types.SimpleNamespace:
    """Import knotmorse from ``root/src`` and return its modules by name."""
    src = root / "src"
    if not (src / "knotmorse" / "__init__.py").is_file():
        raise MissingProgram("no knotmorse package under %s" % src)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    package = importlib.import_module("knotmorse")
    if not Path(package.__file__).resolve().is_relative_to(src.resolve()):
        raise MissingProgram("knotmorse was imported from %s, not %s" % (package.__file__, src))
    return types.SimpleNamespace(
        **{name: importlib.import_module("knotmorse." + name) for name in MODULES}
    )


def run_item(km, log: list, name: str, check, rec=None, clock=None) -> None:
    """Time ``check()``, which returns None or a description of a wrong answer.

    The entry holds the raw seconds and the clock readings around the item,
    which the run turns into scaled seconds once it has its speed samples.
    """
    clock = clock or UNSCALED
    if rec is not None:
        rec.item = name
    start = clock.read()
    try:
        problem = check()
    except (km.errors.KnotmorseError, AssertionError) as exc:
        problem = "%s: %s" % (type(exc).__name__, exc)
    end = clock.read()
    if rec is not None:
        rec.item = None
    entry = {"item": name, "raw_s": clock.wall(start, end), "span": (start, end), "ok": problem is None}
    if problem is not None:
        entry["problem"] = problem
    log.append(entry)


def table_problem(row, expected: dict) -> str | None:
    """None when every column has the expected ranks and no torsion."""
    for column, ranks in expected.items():
        got = row[column].ranks()
        if got != ranks:
            return "%s: ranks %s, expected %s" % (column, got, ranks)
        if not row[column].is_torsion_free():
            return "%s: torsion %s" % (column, row[column].torsion_by_degree())
    return None


def census_problem(perfect, total, perfect_enum, all_enum, components, expected=None) -> str | None:
    """None when both oracles agree, the expected counts hold and the move
    graph is connected."""
    if perfect != perfect_enum:
        return "perfect: formula %d, enumeration %d" % (perfect, perfect_enum)
    if total != all_enum:
        return "all: formula %d, enumeration %d" % (total, all_enum)
    if expected is not None and (perfect, total) != expected:
        return "counts (%d, %d), expected %s" % (perfect, total, expected)
    if components > 1:
        return "move graph has %d components" % components
    return None


class Table:
    """Homology of all four complexes for one diagram per crossing number.

    Why: the complexes module does almost all the work here.  7_7 is the
    largest complex in the corpus and the reference row; one row per
    crossing number shows how cost scales with size.  The seed scrambles
    each PD code (crossing order, tuple rotation, arc labels), which must
    not change any answer; pass k of a run uses scramble set k.
    """

    PASS_INPUTS = 6

    def __init__(self, km, seed: int, bases: dict | None = None, expected: dict | None = None):
        self.km = km
        if bases is None:
            bases = {
                name: km.corpus.rational_pd(list(twists))
                for name, twists in inputs.TABLE_TWISTS.items()
            }
        self.expected = inputs.EXPECTED_HOMOLOGY if expected is None else expected
        self.inputs = inputs.table_inputs(seed, bases, self.PASS_INPUTS)
        self.diagrams = [
            km.diagram.build_diagram(km.diagram.parse_pd(entry["pd"])) for entry in self.inputs
        ]
        self.passes_run = 0

    def run_pass(self, log: list, rec=None, clock=None) -> None:
        k = self.passes_run % self.PASS_INPUTS
        self.passes_run += 1
        for entry, d in zip(self.inputs, self.diagrams):
            if entry["pass"] == k:
                name = entry["item"]
                run_item(self.km, log, name, functools.partial(self.row, name, d), rec, clock)

    def row(self, name: str, d):
        return table_problem(self.km.reference.computed_row(d), self.expected[name])


class Census:
    """The info/count/moves work on T(2,9) and three drawn 8-crossing
    rational diagrams.

    Why: state enumeration and the move modules do the work and no complex
    is built, so a change to homology must show no change here.
    """

    def __init__(self, km, seed: int):
        self.km = km
        self.inputs = inputs.census_inputs(seed, km.corpus.torus_pd, km.corpus.rational_pd)
        self.diagrams = [
            km.diagram.build_diagram(km.diagram.parse_pd(entry["pd"])) for entry in self.inputs
        ]

    def run_pass(self, log: list, rec=None, clock=None) -> None:
        for k, (entry, d) in enumerate(zip(self.inputs, self.diagrams)):
            check = functools.partial(self.census, d, torus=(k == 0))
            run_item(self.km, log, entry["item"], check, rec, clock)

    def census(self, d, torus: bool):
        km = self.km
        perfect_enum, all_enum = km.counting.count_via_enumeration(d)
        perfect = km.counting.count_perfect_dmfs(d)
        total = km.counting.count_all_dmfs(d)
        graph = km.moves.build_move_graph(km.diagram.build_tait(d), "perfect_admissible")
        _, components = km.moves.verify_connectivity(graph)
        expected = None
        if torus:
            expected = (inputs.TORUS_PERFECT, inputs.TORUS_ALL)
            closed_form = km.counting.fibonacci_family_count((inputs.TORUS_CROSSINGS - 1) // 2)
            if closed_form != inputs.TORUS_ALL:
                return "fibonacci_family_count gives %d, expected %d" % (closed_form, inputs.TORUS_ALL)
        return census_problem(perfect, total, perfect_enum, all_enum, components, expected)


def item_executor(km, log: list, rec=None, clock=None):
    """A thread pool class that runs each task as one timed, checked item,
    in the calling thread, one after another.

    The selftest hands each check to ``ThreadPoolExecutor.map`` as a pair
    ``((name, check), report)``; a check returns None or a counterexample.
    A raised KnotmorseError or AssertionError becomes a counterexample, so
    the command reports a violation instead of crashing.  The checks run in
    the main thread because the speed samples are taken there.
    """

    class ItemExecutor(ThreadPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            def timed(*args):
                try:
                    name = str(args[0][0][0])
                except (IndexError, TypeError):
                    name = "check%d" % len(log)
                outcome = []

                def check():
                    outcome.append(fn(*args))
                    if outcome[0] is None:
                        return None
                    return "counterexample %s" % json.dumps(outcome[0], sort_keys=True)

                run_item(km, log, name, check, rec, clock)
                return outcome[0] if outcome else {"raised": log[-1]["problem"]}

            return iter([timed(*args) for args in zip(*iterables)])

    return ItemExecutor


class Selftest:
    """``knotmorse selftest --max-crossings 6`` run in-process.

    Why: the end-to-end command the roadmap names.  It uses the same modules
    as the other workloads in another way: tens of thousands of
    per-matching predicate calls and many small complexes, so a rewrite
    with a high cost per call shows here.  The seed is ignored, because the
    input is the built-in corpus; the run must exit 0 and print exactly the
    output recorded in selftest_expected.txt.
    """

    ARGV = ["selftest", "--max-crossings", "6"]

    def __init__(self, km, seed: int, expected: str | None = None):
        self.km = km
        km.corpus.load_corpus()
        if expected is None:
            expected = (HERE / "selftest_expected.txt").read_text()
        self.expected = expected
        self.inputs = [{"item": "selftest", "argv": self.ARGV}]

    def run_pass(self, log: list, rec=None, clock=None) -> None:
        cli = self.km.cli
        checks: list = []
        original = getattr(cli, "ThreadPoolExecutor", None)
        clock = clock or UNSCALED
        cli.ThreadPoolExecutor = item_executor(self.km, checks, rec, clock)
        out = io.StringIO()
        start = clock.read()
        try:
            with redirect_stdout(out):
                code = cli.main(self.ARGV)
        finally:
            end = clock.read()
            if original is None:
                del cli.ThreadPoolExecutor
            else:
                cli.ThreadPoolExecutor = original
        log.extend(checks)
        problem = None
        if code != 0:
            problem = "exit code %s" % code
        elif out.getvalue() != self.expected:
            problem = "stdout differs from selftest_expected.txt: %r" % out.getvalue()[:200]
        # the command's own work around the checks: parsing, lookups, output
        entry = {
            "item": "output",
            "raw_s": clock.wall(start, end) - sum(c["raw_s"] for c in checks),
            "span": (start, end),
            "ok": problem is None,
        }
        if problem is not None:
            entry["problem"] = problem
        log.append(entry)


WORKLOADS = {"table": Table, "census": Census, "selftest": Selftest}
