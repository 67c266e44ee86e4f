"""Moves and move graphs: clock, click loop, click path."""

import ast
import hashlib
import json
import random
from itertools import permutations, product
from pathlib import Path

import pytest

from knotmorse import build_tait, get_entry, moves, states
from knotmorse.corpus import load_corpus, rational_pd, torus_pd
from knotmorse.diagram import BLACK, WHITE, build_diagram, parse_pd
from knotmorse.errors import InvariantViolation, NotAcyclic, NotPerfectAdmissible
from knotmorse.corpus import corpus_names
from knotmorse.counting import count_perfect_dmfs, count_spanning_trees
from knotmorse.moves import (
    MOVE_KINDS,
    Move,
    MoveGraph,
    build_move_graph,
    click_loop_moves,
    click_path_avoidance,
    click_path_moves,
    clock_moves,
    marked_arc_roots,
    move_graph_to_dict,
    move_graph_to_dot,
    two_click_connect,
    verify_connectivity,
)
from knotmorse.states import (
    Matching,
    critical_cells,
    enumerate_matchings,
    induced_forests,
    is_dmf,
    jordan_resolution,
    kauffman_states,
    kpw,
)
from move_graph_oracle import oracle_click_path_moves, oracle_move_graph

SMALL = ("3_1", "4_1", "kink", "5_2")
CLOCK_CORPUS = ("3_1", "4_1", "kink", "5_1", "5_2", "6_1", "6_3")

# diagrams whose perfect admissible states exhibit every clock type
EXPECT_TYPES = {
    "3_1": {"I"},
    "4_1": {"I", "III"},
    "kink": set(),
    "5_1": {"I"},
    "5_2": {"I", "II", "III"},
    "6_1": {"I", "II", "III"},
    "6_3": {"I", "II", "III"},
}

# components of the {click_path, click_loop} graph over perfect admissible
# states equal the number of distinct Jordan resolutions
CLICK_COMPONENTS = {"3_1": 3, "4_1": 6, "kink": 1, "5_2": 10}


def tait(name):
    return build_tait(get_entry(name).diagram)


# ---------------------------------------------------------------------------
# Frozen move graph examples
# ---------------------------------------------------------------------------

def graph_degrees(mg):
    degs = dict.fromkeys(range(len(mg.nodes)), 0)
    for i, j, _ in mg.edges:
        degs[i] += 1
        degs[j] += 1
    return sorted(degs.values())


def test_figure_eight_marked_arc_clock_graph_is_a_path_on_five_nodes():
    t = tait("4_1")
    v_b, v_w = marked_arc_roots(t, 0)
    mg = build_move_graph(t, "kauffman", kinds=("clock",), v_b=v_b, v_w=v_w)
    assert len(mg.nodes) == 5
    assert len(mg.edges) == 4
    assert verify_connectivity(mg) == (True, 1)
    assert graph_degrees(mg) == [1, 1, 2, 2, 2]


def test_every_figure_eight_marked_arc_gives_five_connected_states():
    t = tait("4_1")
    for arc in range(t.n_arcs):
        v_b, v_w = marked_arc_roots(t, arc)
        mg = build_move_graph(t, "kauffman", kinds=("clock",), v_b=v_b, v_w=v_w)
        assert len(mg.nodes) == 5
        assert verify_connectivity(mg)[0]


def test_trefoil_marked_arc_clock_graphs_are_connected_on_three_nodes():
    t = tait("3_1")
    for arc in range(t.n_arcs):
        v_b, v_w = marked_arc_roots(t, arc)
        mg = build_move_graph(t, "kauffman", kinds=("clock",), v_b=v_b, v_w=v_w)
        assert len(mg.nodes) == 3
        assert len(mg.edges) == 2
        assert verify_connectivity(mg) == (True, 1)


def test_trefoil_perfect_admissible_all_kinds_is_connected():
    mg = build_move_graph(tait("3_1"), "perfect_admissible")
    assert len(mg.nodes) == 18
    assert verify_connectivity(mg) == (True, 1)


@pytest.mark.parametrize("name", corpus_names())
def test_marked_arc_clock_graphs_are_connected(name):
    # Kauffman's clock theorem: for every marked arc the states number the
    # spanning trees of the black graph, and clock moves alone join them
    t = tait(name)
    trees = count_spanning_trees(t.plane_graphs[BLACK])
    for arc in range(t.n_arcs):
        v_b, v_w = marked_arc_roots(t, arc)
        mg = build_move_graph(t, "kauffman", kinds=("clock",), v_b=v_b, v_w=v_w)
        assert len(mg.nodes) == trees
        assert verify_connectivity(mg)[0]


@pytest.mark.parametrize("name", SMALL)
def test_marked_arc_kauffman_states_are_all_acyclic(name):
    t = tait(name)
    for arc in range(t.n_arcs):
        v_b, v_w = marked_arc_roots(t, arc)
        for x in kauffman_states(t, v_b, v_w):
            assert is_dmf(t, x)


@pytest.mark.parametrize("name", CLOCK_CORPUS)
def test_clock_moves_connect_each_acyclic_critical_class(name):
    # components of the {clock} graph over perfect dMfs are exactly the
    # fixed-critical-cell classes, adjacent or not
    t = tait(name)
    mg = build_move_graph(t, "perfect_dmfs", kinds=("clock",))
    n = len(mg.nodes)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j, _ in mg.edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    classes = {}
    for i, x in enumerate(mg.nodes):
        black, _, white = critical_cells(t, x)
        classes.setdefault((black, white), set()).add(find(i))
    assert all(len(v) == 1 for v in classes.values())
    assert len({find(i) for i in range(n)}) == len(classes)


# ---------------------------------------------------------------------------
# Clock move invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", CLOCK_CORPUS)
def test_clock_moves_change_strand_count_by_zero_or_two(name):
    t = d = tait(name)
    seen_types = set()
    for x in enumerate_matchings(t, "perfect_admissible"):
        jx = jordan_resolution(d, x)
        dmf = is_dmf(t, x)
        for move, y in clock_moves(t, x):
            assert move.delta_j in (-2, 0, 2)
            assert jordan_resolution(d, y).count - jx.count == move.delta_j
            assert (move.clock_type == "III") == (move.delta_j != 0)
            assert not (dmf and move.clock_type == "II")
            assert critical_cells(t, y) == critical_cells(t, x)
            seen_types.add(move.clock_type)
    assert seen_types == EXPECT_TYPES[name]


@pytest.mark.parametrize("name", SMALL)
def test_clock_moves_are_involutive_with_opposite_orientation(name):
    t = tait(name)
    for x in enumerate_matchings(t, "perfect_admissible"):
        for move, y in clock_moves(t, x):
            back = [
                m
                for m, z in clock_moves(t, y)
                if m.site == move.site and z == x
            ]
            assert len(back) == 1
            assert back[0].orientation != move.orientation
            assert back[0].clock_type == move.clock_type
            assert back[0].delta_j == -move.delta_j


def test_kink_has_no_clock_moves():
    t = tait("kink")
    for x in enumerate_matchings(t, "all"):
        assert clock_moves(t, x) == []


# every corpus diagram of at most 6 crossings, the kink among them
STRAND_CORPUS = tuple(n for n in load_corpus() if get_entry(n).diagram.n_crossings <= 6)

# the 8-crossing rational vectors the census benchmark draws from
CENSUS_POOL = ((2, 2, 4), (2, 3, 3), (2, 4, 2), (3, 2, 3), (3, 3, 2), (4, 2, 2), (2, 2, 2, 2))


def arc_partition(root, n_arcs):
    blocks = {}
    for arc in range(n_arcs):
        blocks.setdefault(root(arc), []).append(arc)
    return sorted(tuple(b) for b in blocks.values())


def assert_strand_kernel_agrees(d, population):
    # the kernel agrees with the oracle, and two matchings share a smoothing
    # key exactly when their resolutions are equal: one count and one arc
    # partition per key
    key = moves._smoothing_key(d)
    by_key, by_resolved = {}, {}
    for x in population:
        root, count = moves._strand_roots(d, x)
        j = jordan_resolution(d, x)
        assert count == j.count
        assert arc_partition(root, d.n_arcs) == sorted(j.components)
        assert by_key.setdefault(key(x.mask), j.resolved) == j.resolved
        assert by_resolved.setdefault(j.resolved, key(x.mask)) == key(x.mask)


@pytest.mark.parametrize("name", STRAND_CORPUS)
def test_strand_kernel_agrees_with_jordan_resolution_on_every_matching(name):
    d = get_entry(name).diagram
    assert_strand_kernel_agrees(d, enumerate_matchings(build_tait(d), "all"))


@pytest.mark.parametrize("pd", [torus_pd(9)] + [rational_pd(list(v)) for v in CENSUS_POOL],
                         ids=["T(2,9)"] + ["R(%s)" % ",".join(map(str, v)) for v in CENSUS_POOL])
def test_strand_kernel_agrees_with_jordan_resolution_on_census_graphs(pd):
    d = build_diagram(parse_pd(pd))
    assert_strand_kernel_agrees(d, enumerate_matchings(build_tait(d), "perfect_admissible"))


@pytest.mark.parametrize("name", ("4_1", "5_2"))
def test_clock_moves_on_every_matching_recount_with_jordan_resolution(name):
    t = d = tait(name)
    deltas = set()
    for x in enumerate_matchings(t, "all"):
        before = jordan_resolution(d, x).count
        for move, y in clock_moves(t, x):
            assert jordan_resolution(d, y).count - before == move.delta_j
            assert (move.clock_type == "III") == (move.delta_j != 0)
            if len(x.edges) == t.n_crossings:
                assert move.delta_j in (-2, 0, 2)
            deltas.add(move.delta_j)
    # a double point lets a move change |J| by one
    assert deltas == {-2, -1, 0, 1, 2}


# ---------------------------------------------------------------------------
# Click loop invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", SMALL)
def test_click_loops_preserve_the_resolution_and_critical_cells(name):
    t = d = tait(name)
    for x in enumerate_matchings(t, "perfect_admissible"):
        jx = jordan_resolution(d, x)
        for move, y in click_loop_moves(t, x):
            assert jordan_resolution(d, y).resolved == jx.resolved
            assert critical_cells(t, y) == critical_cells(t, x)
            back = [
                m
                for m, z in click_loop_moves(t, y)
                if z == x and frozenset(m.site) == frozenset(move.site)
            ]
            assert len(back) == 1


@pytest.mark.parametrize("name", SMALL)
def test_click_loops_vanish_exactly_at_acyclic_states(name):
    t = tait(name)
    for x in enumerate_matchings(t, "perfect_admissible"):
        assert (click_loop_moves(t, x) == []) == is_dmf(t, x)


def test_figure_eight_cyclic_state_has_two_click_loops():
    t = tait("4_1")
    x = Matching((1, 5, 8, 12))
    moves = click_loop_moves(t, x)
    assert sorted(m.site for m, _ in moves) == [(1, 3, 5, 7), (8, 10, 12, 14)]
    for move, y in moves:
        assert y != x
        assert set(y.edges) ^ set(x.edges) == set(move.site)


# ---------------------------------------------------------------------------
# Click path invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", SMALL)
def test_click_paths_move_exactly_one_critical_region(name):
    t = d = tait(name)
    for x in enumerate_matchings(t, "perfect_admissible"):
        jx = jordan_resolution(d, x)
        for move, y in click_path_moves(t, x):
            assert jordan_resolution(d, y).resolved == jx.resolved
            cx, cy = critical_cells(t, x), critical_cells(t, y)
            assert cx[1] == cy[1] == ()
            assert (cx[0] != cy[0]) + (cx[2] != cy[2]) == 1
            colour, path = move.site
            changed = cy[0] if cx[0] != cy[0] else cy[2]
            assert changed == (path[-1],)
            back = [
                m
                for m, z in click_path_moves(t, y)
                if z == x and m.site == (colour, tuple(reversed(path)))
            ]
            assert len(back) == 1


@pytest.mark.parametrize("name", SMALL)
def test_click_paths_at_acyclic_states_reach_every_other_region(name):
    t = tait(name)
    expected = (len(t.black_faces) - 1) + (len(t.white_faces) - 1)
    for x in enumerate_matchings(t, "perfect_dmf"):
        assert len(click_path_moves(t, x)) == expected


def test_click_paths_need_a_perfect_admissible_state():
    t = tait("4_1")
    with pytest.raises(NotPerfectAdmissible):
        click_path_moves(t, Matching(()))
    with pytest.raises(NotPerfectAdmissible):
        click_path_moves(t, Matching((0,)))
    perfect_only = next(
        x
        for x in enumerate_matchings(t, "maximal_pks")
        if x not in set(enumerate_matchings(t, "perfect_admissible"))
    )
    with pytest.raises(NotPerfectAdmissible):
        click_path_moves(t, perfect_only)


# ---------------------------------------------------------------------------
# Two click connection
# ---------------------------------------------------------------------------

def test_two_clicks_reach_every_root_pair_on_the_trefoil():
    t = tait("3_1")
    hist = {0: 0, 1: 0, 2: 0}
    for x in enumerate_matchings(t, "perfect_dmf"):
        black, _, white = critical_cells(t, x)
        for v_b, v_w in product(t.black_faces, t.white_faces):
            steps = two_click_connect(t, x, v_b, v_w)
            assert len(steps) == (black[0] != v_b) + (white[0] != v_w)
            hist[len(steps)] += 1
            final = steps[-1][1] if steps else x
            assert critical_cells(t, final) == ((v_b,), (), (v_w,))
            if len(steps) == 2:
                assert steps[0][0].site[0] == "black"
                assert steps[1][0].site[0] == "white"
    assert hist == {0: 18, 1: 54, 2: 36}


def count_matchings_built(monkeypatch) -> list:
    """A list that grows by one for every Matching constructed from now on."""
    built: list = []
    real = Matching.__init__
    monkeypatch.setattr(Matching, "__init__", lambda self, edges: built.append(None) or real(self, edges))
    return built


@pytest.mark.parametrize("name", ["4_1", "5_2"])
def test_two_click_connect_builds_only_the_matchings_it_returns(monkeypatch, name):
    t = tait(name)
    built = count_matchings_built(monkeypatch)
    for x in enumerate_matchings(t, "perfect_dmf"):
        for v_b, v_w in product(t.black_faces, t.white_faces):
            built.clear()
            steps = two_click_connect(t, x, v_b, v_w)
            assert len(built) == len(steps)
            cur = x
            for step in steps:
                assert step in click_path_moves(t, cur)
                cur = step[1]


def test_two_click_connect_validates_its_inputs():
    t = tait("4_1")
    x = next(iter(enumerate_matchings(t, "perfect_dmf")))
    v_b, v_w = t.black_faces[0], t.white_faces[0]
    with pytest.raises(ValueError):
        two_click_connect(t, x, v_w, v_w)
    with pytest.raises(ValueError):
        two_click_connect(t, x, v_b, v_b)
    with pytest.raises(NotPerfectAdmissible):
        two_click_connect(t, Matching(()), v_b, v_w)
    with pytest.raises(NotAcyclic):
        two_click_connect(t, Matching((1, 5, 8, 12)), v_b, v_w)


# ---------------------------------------------------------------------------
# Equivalences
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", SMALL)
def test_equal_trails_is_equal_unrooted_forests_at_acyclic_states(name):
    t = d = tait(name)
    items = []
    for x in enumerate_matchings(t, "perfect_dmf"):
        f = induced_forests(t, x)
        items.append((jordan_resolution(d, x).resolved, (f.black_edges, f.white_edges)))
    for (j1, u1), (j2, u2) in product(items, repeat=2):
        assert (j1 == j2) == (u1 == u2)


@pytest.mark.parametrize("name", SMALL)
def test_click_components_are_the_equal_resolution_classes(name):
    t = d = tait(name)
    mg = build_move_graph(t, "perfect_admissible", kinds=("click_path", "click_loop"))
    n = len(mg.nodes)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j, _ in mg.edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    resolved = [jordan_resolution(d, x).resolved for x in mg.nodes]
    for i in range(n):
        for j in range(i + 1, n):
            assert (find(i) == find(j)) == (resolved[i] == resolved[j])
    components = len({find(i) for i in range(n)})
    assert components == CLICK_COMPONENTS[name]
    assert components == len(set(resolved))


@pytest.mark.parametrize("name", SMALL)
def test_clock_and_click_loop_preserve_critical_classes(name):
    t = tait(name)
    report = click_path_avoidance(t, build_move_graph(t, "perfect_admissible"))
    assert report["connected"] == (report["critical_classes"] == 1)
    assert report["each_critical_class_connected"]
    # the click path edges of the full graph are ignored
    two_kinds = build_move_graph(t, "perfect_admissible", kinds=("click_loop", "clock"))
    assert click_path_avoidance(t, two_kinds) == report


def test_click_path_avoidance_report_for_the_trefoil():
    t = tait("3_1")
    report = click_path_avoidance(t, build_move_graph(t, "perfect_admissible"))
    assert report == {
        "population": "perfect_admissible",
        "kinds": ["clock", "click_loop"],
        "connected": False,
        "components": 6,
        "critical_classes": 6,
        "each_critical_class_connected": True,
    }


@pytest.mark.parametrize("population, kinds", [
    ("perfect_dmfs", MOVE_KINDS),
    ("perfect_admissible", ("clock", "click_path")),
])
def test_click_path_avoidance_needs_its_population_and_kinds(population, kinds):
    t = tait("3_1")
    with pytest.raises(ValueError, match="clock and click loop"):
        click_path_avoidance(t, build_move_graph(t, population, kinds))


# ---------------------------------------------------------------------------
# Move graphs
# ---------------------------------------------------------------------------

def test_build_move_graph_validates_population_and_kinds():
    t = tait("3_1")
    with pytest.raises(ValueError):
        build_move_graph(t, "everything")
    with pytest.raises(ValueError):
        build_move_graph(t, "perfect_dmfs", kinds=("clock", "waltz"))
    with pytest.raises(ValueError):
        build_move_graph(t, "kauffman")


def test_build_move_graph_rejects_a_repeated_kind():
    # as the CLI's --kinds does; the graph would record the kind twice
    with pytest.raises(ValueError, match="repeated move kind"):
        build_move_graph(tait("3_1"), "perfect_dmfs", kinds=("clock", "clock"))


def test_move_graph_records_diagram_and_population():
    t = tait("3_1")
    mg = build_move_graph(t, "perfect_dmfs", kinds=("clock",))
    assert mg.diagram_id == t.pd.to_text()
    assert mg.population == "perfect_dmfs"
    assert mg.kinds == ("clock",)
    assert all(0 <= i < j < len(mg.nodes) or i != j for i, j, _ in mg.edges)


def test_single_node_graph_is_connected():
    t = tait("kink")
    v_b, v_w = t.black_faces[0], t.white_faces[0]
    mg = build_move_graph(t, "kauffman", kinds=("clock",), v_b=v_b, v_w=v_w)
    assert len(mg.nodes) == 1
    assert verify_connectivity(mg) == (True, 1)


def test_empty_graph_counts_as_connected():
    mg = MoveGraph(
        diagram_id="", population="perfect_dmfs", kinds=(), nodes=(), edges=()
    )
    assert verify_connectivity(mg) == (True, 0)


# sha256 of the repr of [marked_arc_roots(d, arc) for every arc] per diagram,
# over every corpus entry in both colourings, corpus_names() order, the
# unswapped build first: the (v_b, v_w) the corner arithmetic gave before
# marked_arc_roots read them off d.squares.
FROZEN_MARKED_ARC_ROOTS = "a956d3c8866165e4f1e50353f58a4b887180627b8c1186c3bdee6869a373ac06"


def test_marked_arc_roots_are_the_flanking_regions():
    rows = []
    for name in corpus_names():
        for swap in (False, True):
            t = build_diagram(get_entry(name).diagram.pd, swap_colours=swap)
            rows.append([marked_arc_roots(t, arc) for arc in range(t.n_arcs)])
            for arc, (v_b, v_w) in enumerate(rows[-1]):
                assert t.face_colour[v_b] == BLACK
                assert t.face_colour[v_w] == WHITE
                assert {v_b, v_w} == {t.edge_region[e] for e in t.squares[arc].edges}
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == FROZEN_MARKED_ARC_ROOTS
    assert marked_arc_roots(tait("3_1"), 0) == (1, 0)


@pytest.mark.parametrize("arc", [-1, 6])
def test_marked_arc_roots_rejects_an_arc_out_of_range(arc):
    with pytest.raises(ValueError) as info:
        marked_arc_roots(tait("3_1"), arc)  # 3_1 has arcs 0..5
    assert str(info.value) == "arc id %d out of range" % arc


# caller -> (the word its message names a region by, a call taking (v_b, v_w))
def region_callers(t):
    tree = (0, 1)  # a spanning tree of the black triangle of 3_1
    x = kpw(t, tree, t.black_faces[0], t.white_faces[0])
    return {
        "kauffman_states": ("vertex", lambda v_b, v_w: kauffman_states(t, v_b, v_w)),
        "two_click_connect": ("target", lambda v_b, v_w: two_click_connect(t, x, v_b, v_w)),
        "kpw": ("root", lambda v_b, v_w: kpw(t, tree, v_b, v_w)),
    }


# a region id below 0, at n_faces, or of the other colour, as either root
@pytest.mark.parametrize("caller", ["kauffman_states", "two_click_connect", "kpw"])
@pytest.mark.parametrize("role", ["black", "white"])
@pytest.mark.parametrize("bad", ["-1", "n_faces", "other colour"])
def test_region_ids_outside_their_colour_raise(caller, role, bad):
    t = tait("3_1")
    v_b, v_w = t.black_faces[0], t.white_faces[0]
    other = v_w if role == "black" else v_b
    v = {"-1": -1, "n_faces": t.n_faces, "other colour": other}[bad]
    if role == "black":
        v_b = v
    else:
        v_w = v
    word, call = region_callers(t)[caller]
    with pytest.raises(ValueError) as info:
        call(v_b, v_w)
    assert str(info.value) == "%s %d is not a %s region" % (word, v, role)


def test_move_graph_exports():
    t = tait("3_1")
    mg = build_move_graph(t, "perfect_admissible")
    dot = move_graph_to_dot(mg)
    assert dot.startswith("graph moves {")
    assert dot.rstrip().endswith("}")
    assert dot.count(" -- ") == len(mg.edges)
    data = move_graph_to_dict(mg)
    assert data["population"] == "perfect_admissible"
    assert len(data["nodes"]) == 18
    assert len(data["edges"]) == len(mg.edges)
    kinds = {e["move"]["kind"] for e in data["edges"]}
    assert kinds <= {"clock", "click_loop", "click_path"}
    clock_edges = [e for e in data["edges"] if e["move"]["kind"] == "clock"]
    assert clock_edges
    for e in clock_edges:
        assert e["move"]["clock_type"] in ("I", "II", "III")
        assert e["move"]["delta_j"] in (-2, 0, 2)
        assert e["move"]["orientation"] in ("cw", "ccw")


def test_move_to_dict_round_trip():
    move = Move(kind="clock", site=(3,), clock_type="I", delta_j=0, orientation="cw")
    assert move.to_dict() == {
        "kind": "clock",
        "site": [3],
        "clock_type": "I",
        "delta_j": 0,
        "orientation": "cw",
    }
    path = Move(kind="click_path", site=("black", (1, 3)))
    assert path.to_dict() == {"kind": "click_path", "site": ["black", (1, 3)]}


# ---------------------------------------------------------------------------
# Frozen move graphs: labels and edge order
# ---------------------------------------------------------------------------

FROZEN_GRAPHS = {
    ("T(2,9)", "perfect_admissible"): (
        162, 873, "521ecb3de05607eb4f83aca60931b2619ade727ab5a4fd9960059fcf2d7d690a"
    ),
    ("R(2,2,2,2)", "perfect_admissible"): (
        949, 4817, "95f31b1c5eaaeafa5b4d0fcd71270046f171dd82b07089f08e0588c6769eb830"
    ),
    ("7_7", "perfect_dmfs"): (
        420, 2122, "7176130050865d6734c64db565f6ce8fdf26f0ffc714386f23746bdd306a5a99"
    ),
}


def frozen_pd(name):
    if name == "T(2,9)":
        return torus_pd(9)
    if name == "R(2,2,2,2)":
        return rational_pd([2, 2, 2, 2])
    return get_entry(name).diagram.pd.to_text()


@pytest.mark.parametrize("name, population", sorted(FROZEN_GRAPHS))
def test_move_graph_is_frozen(name, population):
    nodes, edges, digest = FROZEN_GRAPHS[(name, population)]
    mg = build_move_graph(build_tait(build_diagram(parse_pd(frozen_pd(name)))), population)
    assert (len(mg.nodes), len(mg.edges)) == (nodes, edges)
    text = json.dumps(move_graph_to_dict(mg), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# The mask-keyed builder against the builder that finds edges from both ends
# ---------------------------------------------------------------------------

def corpus_up_to(n):
    return [name for name in corpus_names() if get_entry(name).diagram.n_crossings <= n]


def oracle_tait(name):
    if name.startswith("R"):
        return build_tait(build_diagram(parse_pd(rational_pd(json.loads(name[1:])))))
    return tait(name)


@pytest.mark.parametrize("population", ["perfect_dmfs", "perfect_admissible"])
@pytest.mark.parametrize("name", corpus_up_to(7) + ["R%s" % list(v) for v in CENSUS_POOL])
def test_move_graph_equals_the_oracle(name, population):
    t = oracle_tait(name)
    assert build_move_graph(t, population) == oracle_move_graph(t, population)


@pytest.mark.parametrize("name", corpus_up_to(6))
def test_kauffman_move_graph_equals_the_oracle_for_every_mark(name):
    t = tait(name)
    for arc in range(2 * t.n_crossings):
        v_b, v_w = marked_arc_roots(t, arc)
        mg = build_move_graph(t, "kauffman", v_b=v_b, v_w=v_w)
        assert mg == oracle_move_graph(t, "kauffman", v_b=v_b, v_w=v_w)


@pytest.mark.parametrize("kinds", [k for r in (1, 2) for k in permutations(MOVE_KINDS, r)])
def test_move_graph_of_some_kinds_equals_the_oracle(kinds):
    for name in corpus_up_to(6):
        t = tait(name)
        for population in ("perfect_dmfs", "perfect_admissible"):
            mg = build_move_graph(t, population, kinds)
            assert mg == oracle_move_graph(t, population, kinds)


@pytest.mark.parametrize("name", corpus_up_to(7) + ["T(2,9)"] + ["R%s" % list(v) for v in CENSUS_POOL])
def test_click_path_moves_equal_the_oracle(name):
    # moves, targets and their order, tree by tree
    t = build_tait(build_diagram(parse_pd(torus_pd(9)))) if name == "T(2,9)" else oracle_tait(name)
    for x in enumerate_matchings(t, "perfect_admissible"):
        assert click_path_moves(t, x) == oracle_click_path_moves(t, x)


def test_move_graph_counts_each_smoothings_strands_once(monkeypatch):
    t = oracle_tait("R[3, 2, 3]")
    calls = []
    real = moves._strand_roots
    monkeypatch.setattr(moves, "_strand_roots", lambda d, x: calls.append(x) or real(d, x))
    mg = build_move_graph(t, "perfect_admissible")
    clock_edges = sum(move.kind == "clock" for _, _, move in mg.edges)
    assert (len(mg.nodes), clock_edges) == (768, 1216)
    smoothings = {jordan_resolution(t, x).resolved for x in mg.nodes}
    assert len({jordan_resolution(t, x).resolved for x in calls}) == len(calls)
    assert len(calls) == len(smoothings) == 54


def test_a_key_without_parity_is_caught(monkeypatch):
    # keyed only by which crossings are smoothed, Type I/II and delta_j go wrong
    def crossings_only(d):
        low = sum(1 << 4 * c for c in range(d.n_crossings))
        return lambda mask: (mask | mask >> 1 | mask >> 2 | mask >> 3) & low

    t = oracle_tait("R[2, 2, 2, 2]")
    monkeypatch.setattr(moves, "_smoothing_key", crossings_only)
    try:
        mg = build_move_graph(t, "perfect_admissible")
    except InvariantViolation:
        return
    assert mg != oracle_move_graph(t, "perfect_admissible")


def test_move_graph_validates_and_maps_each_node_once(monkeypatch):
    t = oracle_tait("R[3, 2, 3]")
    validated, mapped = [], []
    real_checked, real_map = states._checked, moves._node_map

    def checked(region_of, edges):
        validated.append(edges)
        return real_checked(region_of, edges)

    # moves imports the validator by name, so both bindings count
    monkeypatch.setattr(states, "_checked", checked)
    monkeypatch.setattr(moves, "_checked", checked)
    monkeypatch.setattr(moves, "_node_map", lambda t, x: mapped.append(x) or real_map(t, x))
    mg = build_move_graph(t, "perfect_admissible")
    assert len(mg.nodes) == 768
    assert sorted(validated) == sorted(x.edges for x in mg.nodes)
    assert sorted(mapped) == sorted(mg.nodes)
    # the public click path functions validate and map their input once and
    # validate each matching they build once, with no step or up to two
    step_counts = set()
    for x in mg.nodes[:40]:
        validated.clear(), mapped.clear()
        built = [y for _, y in click_path_moves(t, x)]
        assert sorted(validated) == sorted([x.edges] + [y.edges for y in built])
        assert mapped == [x]
        if not is_dmf(t, x):
            continue
        for v_b, v_w in product(t.black_faces, t.white_faces):
            validated.clear(), mapped.clear()
            steps = two_click_connect(t, x, v_b, v_w)
            assert sorted(validated) == sorted([x.edges] + [y.edges for _, y in steps])
            assert mapped == [x]
            step_counts.add(len(steps))
    assert step_counts == {0, 1, 2}


@pytest.mark.parametrize("name", [*corpus_names(), "T(2,9)"] + ["R%s" % list(v) for v in CENSUS_POOL])
def test_perfect_dmf_graph_has_the_matrix_tree_count_of_nodes(name):
    t = build_tait(build_diagram(parse_pd(torus_pd(9)))) if name == "T(2,9)" else oracle_tait(name)
    assert len(build_move_graph(t, "perfect_dmfs").nodes) == count_perfect_dmfs(t)


def test_move_graph_builds_no_matching_beyond_the_population(monkeypatch):
    t = tait("6_3")
    v_b, v_w = marked_arc_roots(t, 0)
    built = count_matchings_built(monkeypatch)
    for population in ("kauffman", "perfect_dmfs", "perfect_admissible"):
        # with no move kinds the graph is its population alone
        built.clear()
        build_move_graph(t, population, kinds=(), v_b=v_b, v_w=v_w)
        population_alone = len(built)
        built.clear()
        assert build_move_graph(t, population, v_b=v_b, v_w=v_w).edges
        assert len(built) == population_alone


# ---------------------------------------------------------------------------
# Clock types from the resolution's components, and one Move per distinct move
# ---------------------------------------------------------------------------

def rerouted_arcs(d, arc, pattern):
    """Per corner edge e of the pattern, the arcs of the two darts at e's
    crossing that e's smoothing joins away from the square arc's end there:
    slots s and s ^ 1 when e is odd, s and s ^ 3 when e is even."""
    out = []
    for e in pattern:
        end = next(i for i in d.arc_darts[arc] if i >> 2 == e >> 2)
        partner = end ^ (1 if e & 1 else 3)
        out.append({d.dart_arc[i] for i in range(e & ~3, (e & ~3) + 4) if i not in (end, partner)})
    return out


@pytest.mark.parametrize("shuffled", [False, True], ids=["enumeration order", "shuffled"])
@pytest.mark.parametrize("name", corpus_up_to(7) + ["R[2, 2, 2, 2]"])
def test_clock_types_recomputed_from_the_resolution_components(monkeypatch, name, shuffled):
    # Type III changes |J|; otherwise Type I when the two rerouted strands
    # are one strand of x's resolution, Type II when they are two.  In
    # enumeration order the lower end of every clock edge at a square holds
    # the same pattern; a shuffled population puts both patterns of a
    # square at lower ends in one build.
    t = d = oracle_tait(name)
    square = {sq.arc: sq for sq in t.squares}
    if shuffled:
        real = moves.enumerate_matchings

        def in_shuffled_order(t, kind):
            nodes = list(real(t, kind))
            random.Random(name).shuffle(nodes)
            return nodes

        monkeypatch.setattr(moves, "enumerate_matchings", in_shuffled_order)
    mg = build_move_graph(t, "perfect_admissible")
    types = set()
    for i, j, move in mg.edges:
        if move.kind != "clock":
            continue
        x, y = mg.nodes[i], mg.nodes[j]
        jx = jordan_resolution(d, x)
        assert jordan_resolution(d, y).count - jx.count == move.delta_j
        if move.delta_j:
            expected = "III"
        else:
            sq = square[move.site[0]]
            pattern = sq.edges[0::2] if move.orientation == "cw" else sq.edges[1::2]
            assert all(x.mask >> e & 1 for e in pattern)
            component = {a: k for k, arcs in enumerate(jx.components) for a in arcs}
            strands = [{component[a] for a in arcs} for arcs in rerouted_arcs(d, sq.arc, pattern)]
            assert all(len(s) == 1 for s in strands)  # each pair of darts is joined
            expected = "I" if strands[0] == strands[1] else "II"
        assert move.clock_type == expected
        types.add(expected)
    assert types == EXPECT_TYPES.get(name, types)
    if name == "R[2, 2, 2, 2]":
        assert types == {"I", "II", "III"}


# distinct moves among the edges of each frozen graph
DISTINCT_MOVES = {
    ("T(2,9)", "perfect_admissible"): 91,
    ("R(2,2,2,2)", "perfect_admissible"): 123,
    ("7_7", "perfect_dmfs"): 81,
}


@pytest.mark.parametrize("name, population", sorted(DISTINCT_MOVES))
def test_move_graph_holds_each_distinct_move_once(monkeypatch, name, population):
    t = build_tait(build_diagram(parse_pd(frozen_pd(name))))
    built = []
    real_init = Move.__init__
    monkeypatch.setattr(Move, "__init__", lambda self, *a, **k: built.append(1) or real_init(self, *a, **k))
    mg = build_move_graph(t, population)
    edge_moves = [move for _, _, move in mg.edges]
    distinct = set(edge_moves)
    assert len({id(move) for move in edge_moves}) == len(distinct)
    edges = FROZEN_GRAPHS[name, population][1]
    assert (len(distinct), len(edge_moves)) == (DISTINCT_MOVES[name, population], edges)
    assert len(built) <= len(distinct)


# ---------------------------------------------------------------------------
# Invariant checks raise, also under python -O
# ---------------------------------------------------------------------------

def test_package_has_no_bare_asserts():
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(Path(moves.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Name) and node.id == "AssertionError")
    ]
    assert found == [], "%s: raise InvariantViolation instead" % found


def perfect_dmf(name="4_1"):
    t = tait(name)
    return t, next(x for x in enumerate_matchings(t, "perfect_dmf") if clock_moves(t, x))


# a perfect matching allows |delta_j| 0 or 2, one with double points up to 2
@pytest.mark.parametrize("perfect, extra", [(True, 1), (False, 3)])
def test_clock_move_strand_count_fault_raises(monkeypatch, perfect, extra):
    if perfect:
        t, x = perfect_dmf()
    else:
        t = tait("4_1")
        x = next(
            x for x in enumerate_matchings(t, "all")
            if len(x.edges) < t.n_crossings and clock_moves(t, x)
        )
    real = moves._strand_roots

    def strands_too_many(d, y):
        root, count = real(d, y)
        return root, count + extra * (y != x)

    monkeypatch.setattr(moves, "_strand_roots", strands_too_many)
    with pytest.raises(InvariantViolation, match="changed"):
        clock_moves(t, x)


@pytest.mark.parametrize("kind", MOVE_KINDS)
def test_two_moves_with_the_same_ends_raise(monkeypatch, kind):
    # a move's ends fix the edges it toggles, so a repeated target is a fault
    real = moves._KINDS[kind]

    def twice(t, x):
        for target in real(t, x):
            yield target
            yield target

    monkeypatch.setitem(moves._KINDS, kind, twice)
    with pytest.raises(InvariantViolation, match="two moves join nodes"):
        build_move_graph(tait("4_1"), "perfect_admissible", kinds=(kind,))


def test_click_path_needs_one_unmatched_region_per_colour(monkeypatch):
    # the node map loses its first matched region, which then looks unmatched
    t, x = perfect_dmf()
    real = moves._node_map

    def first_region_lost(t, x):
        out, step = real(t, x)
        kept = list(out)[1:]
        return {r: out[r] for r in kept}, {r: step[r] for r in kept}

    monkeypatch.setattr(moves, "_node_map", first_region_lost)
    with pytest.raises(InvariantViolation, match="unmatched"):
        click_path_moves(t, x)


@pytest.mark.parametrize("fault", ["no_path", "no_change"])
def test_two_click_connect_faults_raise(monkeypatch, fault):
    t, x = perfect_dmf()
    black, _, white = critical_cells(t, x)
    v_b = next(v for v in t.black_faces if v != black[0])
    if fault == "no_path":  # each tree holds its root alone
        real = moves._click_forest

        def roots_only(t, node):
            return [order[:1] for order in real(t, node)]

        monkeypatch.setattr(moves, "_click_forest", roots_only)
    else:  # every step leaves the matching as it was
        real = moves._click_path_targets
        monkeypatch.setattr(moves, "_click_path_targets",
                            lambda t, node: ((node[0], site) for _, site in real(t, node)))
    with pytest.raises(InvariantViolation, match="ended at"):
        two_click_connect(t, x, v_b, white[0])
