"""Acceptance suite: one test per contract item, exhaustive within its bound.

Each criterion gets exactly one test function so a verbose run shows one
pass or fail line per item.  Everything is exact integer arithmetic; the
homology comparison treats a resource-capped row as skipped, not failed,
except for the five smallest diagrams which must always complete.
"""

from functools import lru_cache
from itertools import combinations

import pytest

from knotmorse.complexes import (
    connectivity_report,
    homology,
    matching_complex,
    morse_complex,
    pure_morse_from_trees,
    pure_part,
)
from knotmorse.corpus import corpus_names, get_entry, torus_pd
from knotmorse.counting import (
    count_all_dmfs,
    count_perfect_dmfs,
    count_via_enumeration,
    spanning_trees,
)
from knotmorse.diagram import BLACK, build_diagram, build_tait, is_reduced, parse_pd
from knotmorse.errors import ResourceLimit
from knotmorse.moves import (
    build_move_graph,
    clock_moves,
    kauffman_states,
    marked_arc_roots,
    two_click_connect,
    verify_connectivity,
)
from knotmorse.reference import COLUMNS, REFERENCE_HOMOLOGY, computed_row
from knotmorse.states import (
    amended_poset_acyclic,
    enumerate_matchings,
    forests_to_matching,
    induced_forests,
    is_admissible,
    is_dmf,
    jordan_resolution,
    kpw,
)

ALL_NAMES = corpus_names()
UP_TO_5 = tuple(n for n in ALL_NAMES if get_entry(n).crossings <= 5)
UP_TO_6 = tuple(n for n in ALL_NAMES if get_entry(n).crossings <= 6)


@lru_cache(maxsize=None)
def tait(name):
    return build_tait(get_entry(name).diagram)


@lru_cache(maxsize=None)
def perfect_matchings(name):
    return tuple(enumerate_matchings(tait(name), "maximal_pks"))


def _component_shapes(vertices, edges):
    parent = {v: v for v in vertices}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        parent[find(u)] = find(v)
    n_vertices = {}
    n_edges = {}
    for v in vertices:
        n_vertices[find(v)] = n_vertices.get(find(v), 0) + 1
    for u, v in edges:
        n_edges[find(u)] = n_edges.get(find(u), 0) + 1
    return [(n_vertices[r], n_edges.get(r, 0)) for r in n_vertices]


def _is_path_graph(n_nodes, edges):
    # one component, a tree (one edge fewer than nodes), no degree above 2
    if n_nodes <= 1:
        return True
    degree = [0] * n_nodes
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    return _component_shapes(range(n_nodes), edges) == [(n_nodes, n_nodes - 1)] and max(degree) <= 2


def test_criterion_01_marked_state_counts():
    # 3 states for the minimal trefoil, 5 for the minimal figure eight,
    # whichever arc carries the mark
    for name, want in (("3_1", 3), ("4_1", 5)):
        t = tait(name)
        for arc in range(2 * get_entry(name).crossings):
            v_b, v_w = marked_arc_roots(t, arc)
            assert len(kauffman_states(t, v_b, v_w)) == want


def test_criterion_02_clock_connectivity_over_marked_states():
    # connectivity holds for every mark; the path-graph picture depends on
    # which arc carries the mark, so it is pinned to the documented one
    for name in ALL_NAMES:
        t = tait(name)
        for arc in range(2 * get_entry(name).crossings):
            v_b, v_w = marked_arc_roots(t, arc)
            mg = build_move_graph(t, "kauffman", ("clock",), v_b=v_b, v_w=v_w)
            connected, components = verify_connectivity(mg)
            assert connected, (name, arc, components)
            if name == "4_1":
                assert len(mg.nodes) == 5
                if arc == 0:
                    assert _is_path_graph(
                        len(mg.nodes), [(a, b) for a, b, _ in mg.edges]
                    )


def test_criterion_03_loop_criterion_matches_poset_acyclicity():
    for name in UP_TO_5:
        t = tait(name)
        for x in enumerate_matchings(t, "all"):
            assert is_dmf(t, x) == amended_poset_acyclic(t, x), (name, x.edges)


def test_criterion_04_forest_bijection_round_trip():
    for name in UP_TO_5:
        t = tait(name)
        n = t.n_crossings
        seen_forests = set()
        for x in enumerate_matchings(t, "dmf"):
            f = induced_forests(t, x)
            assert forests_to_matching(t, f) == x, (name, x.edges)
            key = (f.black_edges, f.white_edges, f.black_roots, f.white_roots)
            assert key not in seen_forests
            seen_forests.add(key)
            if len(x.edges) == n:
                # perfect case: one spanning tree per colour, one root each
                assert len(f.black_roots) == 1 and len(f.white_roots) == 1
                white, black = t.plane_graphs
                assert len(f.black_edges) == black.n_vertices - 1
                assert len(f.white_edges) == white.n_vertices - 1
                assert f.black_edges in spanning_trees(black)
                assert f.white_edges in spanning_trees(white)


def test_criterion_05_perfect_count_formula_vs_enumeration():
    for name in UP_TO_6:
        d = get_entry(name).diagram
        assert count_perfect_dmfs(d) == count_via_enumeration(d)[0], name
    for n in (1, 2, 3):
        d = build_diagram(parse_pd(torus_pd(2 * n + 1)))
        assert count_perfect_dmfs(d) == 2 * (2 * n + 1) ** 2


def test_criterion_06_total_count_formula_vs_enumeration():
    for name in UP_TO_5:
        d = get_entry(name).diagram
        assert count_all_dmfs(d) == count_via_enumeration(d)[1], name
    for m, want in ((3, 64), (5, 671)):
        d = build_diagram(parse_pd(torus_pd(m)))
        assert count_all_dmfs(d) == want


def test_criterion_07_strand_parity_and_pseudoforest_structure():
    for name in UP_TO_6:
        d = get_entry(name).diagram
        t = tait(name)
        for x in perfect_matchings(name):
            admissible = is_admissible(t, x)
            assert admissible == (jordan_resolution(d, x).count % 2 == 1)
            if not admissible:
                continue
            for g in d.plane_graphs:
                induced = [g.edge_ends[e // 4] for e in x.edges
                           if t.face_colour[t.edge_region[e]] == g.colour]
                shapes = _component_shapes(g.vertices, induced)
                assert all(ne in (nv - 1, nv) for nv, ne in shapes), (name, x)
                assert sum(1 for nv, ne in shapes if ne == nv - 1) == 1


def test_criterion_08_clock_moves_shift_strands_by_zero_or_two():
    for name in UP_TO_6:
        d = get_entry(name).diagram
        t = tait(name)
        for x in perfect_matchings(name):
            if not is_admissible(t, x):
                continue
            before = jordan_resolution(d, x).count
            for move, y in clock_moves(t, x):
                delta = jordan_resolution(d, y).count - before
                assert delta in (-2, 0, 2), (name, x.edges, move)
                assert delta == move.delta_j
                if is_dmf(t, x):
                    assert move.clock_type != "II", (name, x.edges, move)


def test_criterion_09_tree_root_triples_cover_perfect_states_once():
    for name in UP_TO_6:
        t = tait(name)
        black = t.plane_graphs[BLACK]
        image = {}
        for tree in spanning_trees(black):
            for v_b in t.black_faces:
                for v_w in t.white_faces:
                    x = kpw(t, tree, v_b, v_w)
                    assert x.edges not in image, (name, tree, v_b, v_w)
                    image[x.edges] = (tree, v_b, v_w)
        direct = {x.edges for x in enumerate_matchings(t, "perfect_dmf")}
        assert set(image) == direct, name


def test_criterion_10_same_trees_connected_in_two_path_moves():
    for name in UP_TO_5:
        t = tait(name)
        by_trees = {}
        for x in enumerate_matchings(t, "perfect_dmf"):
            f = induced_forests(t, x)
            by_trees.setdefault((f.black_edges, f.white_edges), []).append((x, f))
        for group in by_trees.values():
            for (x, _), (y, fy) in combinations(group, 2):
                steps = two_click_connect(
                    t, x, fy.black_roots[0], fy.white_roots[0]
                )
                assert len(steps) <= 2, (name, x.edges, y.edges)
                assert all(m.kind == "click_path" for m, _ in steps)
                final = steps[-1][1] if steps else x
                assert final == y, (name, x.edges, y.edges)


def test_criterion_11_full_move_set_connects_admissible_states():
    for name in UP_TO_6:
        if not is_reduced(get_entry(name).diagram):
            continue
        mg = build_move_graph(tait(name), "perfect_admissible")
        connected, components = verify_connectivity(mg)
        assert connected, (name, components)


def test_criterion_12_reference_homology_reproduced():
    must_complete = set(UP_TO_5)
    skipped = []
    failures = []
    for name in ALL_NAMES:
        if name not in REFERENCE_HOMOLOGY:
            continue
        try:
            row = computed_row(get_entry(name).diagram)
        except ResourceLimit as exc:
            assert name not in must_complete, (name, exc)
            skipped.append(name)
            continue
        for column in COLUMNS:
            got = row[column]
            if got.ranks() != REFERENCE_HOMOLOGY[name][column]:
                failures.append((name, column, got.ranks()))
            if not got.is_torsion_free():
                failures.append((name, column, got.torsion_by_degree()))
    assert not failures, failures


def test_criterion_13_pure_complex_generated_by_tree_triples():
    for name in UP_TO_6:
        d = get_entry(name).diagram
        generated = set(pure_morse_from_trees(d).facets)
        direct = set(pure_part(morse_complex(tait(name))).facets)
        assert generated == direct, name


def test_criterion_14_connectivity_bound_consistent_with_homology():
    for name in ALL_NAMES:
        d = get_entry(name).diagram
        report = connectivity_report(d)
        bound = report["bound"]
        if name == "4_1":
            assert bound == 1
        for build in (matching_complex, morse_complex):
            try:
                h = homology(build(tait(name)))
            except ResourceLimit:
                continue
            for k in range(bound + 1):
                betti_k = h.ranks().get(k, 0)
                assert betti_k == 0, (name, build.__name__, k, betti_k)
