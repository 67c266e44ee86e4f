"""Command line front end.

Every subcommand emits JSON on stdout by default; --pretty switches to an
aligned text rendering.  Exit codes: 0 success, 2 usage, parse or file
failure, 3 resource cap exceeded, 4 a checked invariant failed (a property
check dumps a minimal counterexample, an internal cross-check reports on
stderr).  All output is exhaustive and deterministic.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from itertools import combinations
from pathlib import Path

from .complexes import (
    SimplicialComplex,
    connectivity_report,
    homology,
    matching_complex,
    morse_complex,
    pure_matching_complex,
    pure_morse_from_trees,
    pure_part,
)
from .corpus import corpus_names, get_entry
from .counting import (
    count_all_dmfs,
    count_perfect_dmfs,
    count_spanning_trees,
    count_via_enumeration,
)
from .diagram import Diagram, build_diagram, is_reduced, parse_pd
from .errors import InvariantViolation, KnotmorseError, ResourceLimit
from .moves import (
    MOVE_KINDS,
    POPULATIONS,
    build_move_graph,
    click_path_avoidance,
    clock_moves,
    marked_arc_roots,
    move_graph_to_dict,
    move_graph_to_dot,
    two_click_connect,
    verify_connectivity,
)
from .reference import COLUMNS, REFERENCE_HOMOLOGY, computed_row
from .states import (
    _maximal_stream,
    amended_poset_acyclic,
    enumerate_matchings,
    forests_to_matching,
    induced_forests,
    is_admissible,
    is_dmf,
    jordan_resolution,
    matching_to_dict,
    FILTERS,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_VIOLATION = 4


def _load(spec: str, swap: bool = False) -> tuple[str, Diagram]:
    """A corpus name, or a path to a file holding one PD code."""
    if spec in corpus_names():
        if not swap:
            return spec, get_entry(spec).diagram
        text = get_entry(spec).pd_text
    else:
        path = Path(spec)
        if not path.is_file():
            raise KnotmorseError(
                "unknown diagram %r (not a corpus name or file)" % spec
            )
        try:
            spec, text = path.stem, path.read_text()
        except UnicodeDecodeError as exc:
            raise KnotmorseError("cannot read %s: %s" % (spec, exc))
    try:
        return spec, build_diagram(parse_pd(text), swap_colours=swap)
    except KnotmorseError as exc:
        raise KnotmorseError("cannot build diagram from %s: %s" % (spec, exc))


def _emit(payload: dict, pretty: bool, lines=None) -> None:
    if pretty and lines is not None:
        for line in lines:
            print(line)
    elif pretty:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(json.dumps(payload, sort_keys=True))


def _ranks_str(ranks: dict) -> str:
    if not ranks:
        return "0"
    return " ".join("%d@deg%d" % (r, k) for k, r in sorted(ranks.items()))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_parse(args) -> int:
    name, d = _load(args.diagram, args.swap_colours)
    payload = {
        "name": name,
        "crossings": d.n_crossings,
        "arcs": 2 * d.n_crossings,
        "reduced": is_reduced(d),
        "faces": [
            {"id": f.index, "colour": f.colour, "degree": f.degree}
            for f in d.faces
        ],
    }
    lines = [
        "%s: %d crossings, %d faces, reduced=%s"
        % (name, d.n_crossings, len(d.faces), payload["reduced"])
    ] + [
        "  face %d: colour %d, degree %d" % (f["id"], f["colour"], f["degree"])
        for f in payload["faces"]
    ]
    _emit(payload, args.pretty, lines)
    return EXIT_OK


def _oracle_counts(d: Diagram, perfect_only: bool = False) -> dict:
    """Perfect and all dMf counts, by formula and by enumeration.

    With perfect_only the block holds just the perfect counts, and neither
    the all-dMf enumeration nor the all-dMf formula runs.
    """
    if perfect_only:
        n_perfect = sum(1 for _ in enumerate_matchings(d, "perfect_dmf"))
        blocks = [("perfect", count_perfect_dmfs(d), n_perfect)]
    else:
        enumerated = count_via_enumeration(d)
        formula = (count_perfect_dmfs(d), count_all_dmfs(d))
        blocks = zip(("perfect", "all"), formula, enumerated)
    return {
        key: {"formula": f, "enumeration": e, "agree": f == e}
        for key, f, e in blocks
    }


def _emit_counts(payload: dict, counts: dict, pretty: bool, lines) -> int:
    """Emit the payload; when the oracles disagree, without lines and exit 4."""
    if all(block["agree"] for block in counts.values()):
        _emit(payload, pretty, lines)
        return EXIT_OK
    _emit(payload, pretty, None)
    return EXIT_VIOLATION


def cmd_info(args) -> int:
    name, d = _load(args.diagram, args.swap_colours)
    white, black = d.plane_graphs
    counts = _oracle_counts(d)
    payload = {
        "name": name,
        "crossings": d.n_crossings,
        "black_vertices": black.n_vertices,
        "white_vertices": white.n_vertices,
        "spanning_trees": count_spanning_trees(black),
        "counts": counts,
        "connectivity": connectivity_report(d),
    }
    lines = [
        "%s: %d crossings, %d black + %d white regions, %d spanning trees"
        % (name, d.n_crossings, black.n_vertices, white.n_vertices,
           payload["spanning_trees"]),
        "perfect Morse matchings: %(formula)d (formula) / %(enumeration)d (enumeration)"
        % counts["perfect"],
        "loop-free matchings: %(formula)d (formula) / %(enumeration)d (enumeration)"
        % counts["all"],
        "connectivity bound: %d" % payload["connectivity"]["bound"],
    ]
    return _emit_counts(payload, counts, args.pretty, lines)


def cmd_states(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise KnotmorseError("--limit must be at least 0, got %d" % args.limit)
    name, d = _load(args.diagram, args.swap_colours)
    stream = enumerate_matchings(d, args.filter)
    matchings = []
    total = 0
    for x in stream:
        total += 1
        if not args.count_only and (args.limit is None or len(matchings) < args.limit):
            matchings.append(matching_to_dict(d, x))
    payload = {"name": name, "filter": args.filter, "count": total}
    if not args.count_only:
        payload["matchings"] = matchings
    lines = ["%s: %d matchings under filter %s" % (name, total, args.filter)] + [
        "  %s" % m["edges"] for m in matchings
    ]
    _emit(payload, args.pretty, lines)
    return EXIT_OK


def _is_path_graph(n_nodes: int, edges, connected: bool) -> bool:
    """A path: connected, one edge fewer than nodes and no degree above 2."""
    degree = Counter(v for edge in edges for v in edge)
    return n_nodes <= 1 or connected and len(edges) == n_nodes - 1 and max(degree.values()) <= 2


def cmd_moves(args) -> int:
    if args.mark is not None and args.population != "kauffman":
        raise KnotmorseError("--mark needs --population kauffman")
    name, d = _load(args.diagram, args.swap_colours)
    v_b = v_w = None
    if args.population == "kauffman":
        if args.mark is None:
            raise KnotmorseError("--population kauffman needs --mark <arc id>")
        if not 0 <= args.mark < 2 * d.n_crossings:
            raise KnotmorseError("arc id %d out of range" % args.mark)
        v_b, v_w = marked_arc_roots(d, args.mark)
    kinds = MOVE_KINDS if args.kinds is None else tuple(args.kinds.split(","))
    if "" in kinds:
        raise KnotmorseError("empty move kind in --kinds %s" % args.kinds)
    unknown = [k for k in kinds if k not in MOVE_KINDS]
    if unknown:
        raise KnotmorseError("unknown move kind %r, not in %s" % (unknown[0], ",".join(MOVE_KINDS)))
    if len(set(kinds)) < len(kinds):
        raise KnotmorseError("repeated move kind in --kinds %s" % args.kinds)
    # The avoidance report reads the same graph; filtering keeps the edge order.
    avoid = args.population == "perfect_admissible"
    mg = build_move_graph(d, args.population, MOVE_KINDS if avoid else kinds, v_b=v_b, v_w=v_w)
    avoidance = click_path_avoidance(d, mg) if avoid else None
    mg = replace(mg, kinds=kinds, edges=tuple(e for e in mg.edges if e[2].kind in kinds))
    payload = move_graph_to_dict(mg)
    payload["name"] = name
    if args.connectivity:
        connected, components = verify_connectivity(mg)
        payload["connected"] = connected
        payload["components"] = components
        payload["path_graph"] = _is_path_graph(
            len(mg.nodes), [(a, b) for a, b, _ in mg.edges], connected
        )
    if avoid:
        payload["click_path_avoidance"] = avoidance
    if args.dot:
        Path(args.dot).write_text(move_graph_to_dot(mg))
    lines = ["%s: %d nodes, %d edges" % (name, len(mg.nodes), len(mg.edges))]
    if args.connectivity:
        lines.append(
            "connected=%s components=%d path_graph=%s"
            % (payload["connected"], payload["components"], payload["path_graph"])
        )
    _emit(payload, args.pretty, lines)
    return EXIT_OK


def cmd_count(args) -> int:
    name, d = _load(args.diagram, args.swap_colours)
    counts = _oracle_counts(d, perfect_only=args.perfect)
    if args.perfect:
        lines = ["%d" % counts["perfect"]["formula"]]
    else:
        lines = ["%s: %d (agree=%s)" % (key, block["formula"], block["agree"])
                 for key, block in counts.items()]
    return _emit_counts({"name": name, **counts}, counts, args.pretty, lines)


def cmd_complex(args) -> int:
    if args.csv and not args.homology:
        raise KnotmorseError("--csv needs --homology")
    name, d = _load(args.diagram, args.swap_colours)
    if args.kind == "morse":
        c = pure_part(morse_complex(d)) if args.pure else morse_complex(d)
    else:
        c = pure_matching_complex(d) if args.pure else matching_complex(d)
    # the matching complex lists no facet: only here are all maximal matchings read
    facets = c.facets if isinstance(c, SimplicialComplex) else SimplicialComplex(
        x.edges for x in _maximal_stream(d, skip=True)).facets
    payload = {
        "name": name,
        "kind": args.kind,
        "pure": args.pure,
        "dimension": c.dimension,
        "n_facets": len(facets),
        "face_counts": list(c.face_counts()),
        "euler_characteristic": c.euler_characteristic(),
    }
    if args.facets:
        payload["facets"] = [list(f) for f in facets]
    lines = [
        "%s %s%s: dimension %d, %d facets, euler %d"
        % (name, args.kind, " pure" if args.pure else "", c.dimension,
           len(facets), payload["euler_characteristic"])
    ]
    if args.homology:
        h = homology(c)
        payload["homology"] = h.to_dict()
        lines.append("reduced homology: %s" % _ranks_str(h.ranks()))
        if not h.is_torsion_free():
            lines.append("torsion: %s" % h.torsion_by_degree())
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "kind", "pure", "degree", "rank"])
            for k, r in sorted(h.ranks().items()):
                writer.writerow([name, args.kind, args.pure, k, r])
    _emit(payload, args.pretty, lines)
    return EXIT_OK


def cmd_table1(args) -> int:
    names = args.names.split(",") if args.names else sorted(REFERENCE_HOMOLOGY)
    if "" in names:
        raise KnotmorseError("empty corpus name in --names %s" % args.names)
    unknown = [n for n in names if n not in REFERENCE_HOMOLOGY]
    if unknown:
        raise KnotmorseError("no reference values for: %s" % ", ".join(unknown))
    if len(set(names)) < len(names):
        raise KnotmorseError("repeated corpus name in --names %s" % args.names)
    rows = []
    mismatches = []
    for name in names:
        try:
            row = computed_row(get_entry(name).diagram)
        except ResourceLimit as exc:
            rows.append({"name": name, "skipped": str(exc)})
            continue
        cells = {}
        for column in COLUMNS:
            got = row[column].ranks()
            want = REFERENCE_HOMOLOGY[name][column]
            cells[column] = {
                "computed": {str(k): v for k, v in got.items()},
                "reference": {str(k): v for k, v in want.items()},
                "agree": got == want,
                "torsion_free": row[column].is_torsion_free(),
            }
            if not cells[column]["agree"] or not cells[column]["torsion_free"]:
                mismatches.append({"name": name, "column": column, **cells[column]})
        rows.append({"name": name, "columns": cells})
    payload = {"rows": rows, "all_agree": not mismatches}
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "column", "degree", "rank"])
            for row in rows:
                for column, cell in row.get("columns", {}).items():
                    for k, r in sorted(cell["computed"].items()):
                        writer.writerow([row["name"], column, k, r])
    lines = []
    for row in rows:
        if "skipped" in row:
            lines.append("%-4s skipped: %s" % (row["name"], row["skipped"]))
            continue
        cells = row["columns"]
        lines.append(
            "%-4s %s" % (
                row["name"],
                "  ".join(
                    "%s=%s%s" % (
                        column,
                        _ranks_str({int(k): v for k, v in cells[column]["computed"].items()}),
                        "" if cells[column]["agree"] else "!",
                    )
                    for column in COLUMNS
                ),
            )
        )
    if mismatches:
        payload["counterexample"] = mismatches[0]
        _emit(payload, args.pretty, None)
        return EXIT_VIOLATION
    _emit(payload, args.pretty, lines)
    return EXIT_OK


def _selftest_checks(cap: int):
    diagrams = ((n, get_entry(n).diagram) for n in corpus_names())
    smalls = [(n, d) for n, d in diagrams if d.n_crossings <= cap]
    if not smalls:
        raise KnotmorseError("--max-crossings %d selects no corpus entry" % cap)

    def check_counting(report):
        for name, d in smalls:
            perfect_enum, all_enum = count_via_enumeration(d)
            if count_perfect_dmfs(d) != perfect_enum:
                return {"diagram": name, "field": "perfect"}
            if count_all_dmfs(d) != all_enum:
                return {"diagram": name, "field": "all"}
        report["diagrams"] = len(smalls)
        return None

    def check_loop_criterion(report):
        seen = 0
        for name, d in smalls:
            for x in enumerate_matchings(d, "all"):
                seen += 1
                if is_dmf(d, x) != amended_poset_acyclic(d, x):
                    return {"diagram": name, "matching": list(x.edges)}
        report["matchings"] = seen
        return None

    def check_forest_roundtrip(report):
        seen = 0
        for name, d in smalls:
            for x in enumerate_matchings(d, "dmf"):
                seen += 1
                if forests_to_matching(d, induced_forests(d, x)) != x:
                    return {"diagram": name, "matching": list(x.edges)}
        report["matchings"] = seen
        return None

    def check_jordan(report):
        for name, d in smalls:
            n = d.n_crossings
            for x in enumerate_matchings(d, "all"):
                j = jordan_resolution(d, x)
                admissible = is_admissible(d, x)
                if is_dmf(d, x) != (admissible and j.count == 1):
                    return {"diagram": name, "matching": list(x.edges)}
                if len(x.edges) == n and admissible != (j.count % 2 == 1):
                    return {"diagram": name, "matching": list(x.edges)}
        return None

    def check_clock(report):
        seen = 0
        for name, d in smalls:
            for x in enumerate_matchings(d, "perfect_admissible"):
                before = jordan_resolution(d, x).count
                dmf = is_dmf(d, x)
                for move, y in clock_moves(d, x):
                    seen += 1
                    delta = jordan_resolution(d, y).count - before
                    if delta not in (-2, 0, 2) or delta != move.delta_j:
                        return {"diagram": name, "matching": list(x.edges),
                                "site": list(move.site)}
                    if dmf and move.clock_type == "II":
                        return {"diagram": name, "matching": list(x.edges),
                                "site": list(move.site), "type": "II"}
        report["moves"] = seen
        return None

    def check_kpw(report):
        for name, d in smalls:
            direct = {x.edges for x in enumerate_matchings(d, "perfect_dmf")}
            if set(pure_morse_from_trees(d).facets) != direct:
                return {"diagram": name}
        return None

    def check_click_pairs(report):
        seen = 0
        for name, d in smalls:
            groups = {}
            for x in enumerate_matchings(d, "perfect_dmf"):
                f = induced_forests(d, x)
                groups.setdefault((f.black_edges, f.white_edges), []).append((x, f))
            for members in groups.values():
                for (x, _), (y, fy) in combinations(members, 2):
                    seen += 1
                    steps = two_click_connect(
                        d, x, fy.black_roots[0], fy.white_roots[0]
                    )
                    if len(steps) > 2 or (steps[-1][1] if steps else x) != y:
                        return {"diagram": name, "source": list(x.edges),
                                "target": list(y.edges)}
        report["pairs"] = seen
        return None

    def check_pure_facets(report):
        for name, d in smalls:
            if set(pure_morse_from_trees(d).facets) != set(
                pure_part(morse_complex(d)).facets
            ):
                return {"diagram": name}
        return None

    def check_homology(report):
        for name, d in smalls:
            bound = connectivity_report(d)["bound"]
            if name == "4_1" and bound != 1:
                return {"diagram": name, "reason": "figure-eight bound"}
            for c in (matching_complex(d), morse_complex(d)):
                h = homology(c)
                chi = sum((-1) ** k * b for k, b in enumerate(h.betti))
                if chi != c.euler_characteristic() - 1:
                    return {"diagram": name, "reason": "euler"}
                if any(h.ranks().get(k, 0) for k in range(bound + 1)):
                    return {"diagram": name, "reason": "connectivity bound"}
        return None

    return (
        ("counting", check_counting),
        ("loop_criterion", check_loop_criterion),
        ("forest_roundtrip", check_forest_roundtrip),
        ("jordan_parity", check_jordan),
        ("clock_shift", check_clock),
        ("kpw_image", check_kpw),
        ("click_pairs", check_click_pairs),
        ("pure_facets", check_pure_facets),
        ("homology_consistency", check_homology),
    )


def cmd_selftest(args) -> int:
    checks = _selftest_checks(args.max_crossings)
    reports = [{"name": name, "status": "pass"} for name, _ in checks]

    # One worker runs the checks in order.  The pool is the seam a benchmark
    # replaces (perfbench/workloads.py, item_executor) to time each check on
    # its own; without it the slowest item would be the whole run.
    with ThreadPoolExecutor(max_workers=1) as pool:
        outcomes = list(
            pool.map(lambda pair: pair[0][1](pair[1]), zip(checks, reports))
        )

    for report, counterexample in zip(reports, outcomes):
        if counterexample is not None:
            payload = {"check": report["name"], "counterexample": counterexample}
            _emit(payload, args.pretty, None)
            return EXIT_VIOLATION
    payload = {"checks": reports, "all_passed": True}
    _emit(payload, args.pretty, ["%s: pass" % r["name"] for r in reports])
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotmorse",
        description="Exact combinatorics of chequerboard knot projections.",
    )
    parser.add_argument("--pretty", action="store_true", help="aligned text output")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, func, diagram: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        if diagram:
            p.add_argument("diagram")
            p.add_argument("--swap-colours", action="store_true",
                           help="flip the chequerboard colouring")
        p.set_defaults(func=func)
        return p

    command("parse", "parse and validate a diagram", cmd_parse)
    command("info", "summary report with oracle agreement", cmd_info)

    p = command("states", "enumerate matchings", cmd_states)
    p.add_argument("--filter", choices=FILTERS, default="all")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--count-only", action="store_true")

    p = command("moves", "build a move graph", cmd_moves)
    p.add_argument("--population", choices=POPULATIONS, default="perfect_dmfs")
    p.add_argument("--mark", type=int, default=None, help="marked arc id")
    p.add_argument("--kinds", default=None, help="comma separated move kinds")
    p.add_argument("--connectivity", action="store_true")
    p.add_argument("--dot", default=None, help="write the graph in dot format")

    p = command("count", "count Morse matchings, formula vs enumeration", cmd_count)
    p.add_argument("--perfect", action="store_true", help="perfect matchings only")

    p = command("complex", "build a complex, optionally its homology", cmd_complex)
    p.add_argument("--kind", choices=("matching", "morse"), required=True)
    p.add_argument("--pure", action="store_true")
    p.add_argument("--homology", action="store_true")
    p.add_argument("--facets", action="store_true")
    p.add_argument("--csv", default=None)

    p = command("table1", "homology of all four complexes vs references", cmd_table1, diagram=False)
    p.add_argument("--names", default=None, help="comma separated corpus names")
    p.add_argument("--csv", default=None)

    p = command("selftest", "run the property checks", cmd_selftest, diagram=False)
    p.add_argument("--max-crossings", type=int, default=5)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimit as exc:
        print("resource limit: %s; stage %s, size %s" % (exc, exc.stage, exc.size), file=sys.stderr)
        return EXIT_RESOURCE
    except InvariantViolation as exc:
        print("invariant violation: %s" % exc, file=sys.stderr)
        return EXIT_VIOLATION
    except (KnotmorseError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
