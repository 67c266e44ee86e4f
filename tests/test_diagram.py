"""Faces, colouring, colour graphs, and the Tait overlay on small diagrams."""

import dataclasses
import random

import pytest

from knotmorse import (
    ArcMultiplicityError,
    BLACK,
    WHITE,
    ColouringConflict,
    EmptyDiagram,
    MalformedSyntax,
    NonPlanarCode,
    build_diagram,
    build_tait,
    colour_graphs,
    is_reduced,
    parse_pd,
)
from knotmorse.diagram import UnionFind
from knotmorse.errors import InvariantViolation

TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
FIG8 = "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)"
KINK = "X(1,2,2,1)"
COMPOSITE = "X(6,3,8,1) X(2,8,3,6) X(7,4,1,5) X(5,2,4,7)"


def diagram(text):
    return build_diagram(parse_pd(text))


# -- parsing ---------------------------------------------------------------

def test_parse_roundtrip():
    pd = parse_pd(TREFOIL)
    assert pd.n_crossings == 3
    assert pd.to_text() == TREFOIL
    assert parse_pd(pd.to_text()) == pd


def test_parse_accepts_commas_and_weird_spacing():
    pd = parse_pd("  X( 1,4 ,2,5),X(3,6,4,1)\n X(5,2,6,3)  ")
    assert pd == parse_pd(TREFOIL)


@pytest.mark.parametrize(
    "text",
    ["", "   ", "X(1,2,3)", "X(1,2,3,4,5)", "Y(1,2,3,4)", "X(1,2,3,4) junk", "X(0,1,0,1)", "X(1,-2,1,2)"],
)
def test_parse_rejects_malformed(text):
    with pytest.raises((MalformedSyntax, EmptyDiagram)):
        parse_pd(text)


def test_parse_rejects_bad_multiplicity():
    with pytest.raises(ArcMultiplicityError, match="arc 2 occurs 3 times"):
        parse_pd("X(1,2,2,2) X(1,3,3,4) X(4,5,5,6) X(6,7,7,8) X(8,9,9,10) X(10,11,11,12)")
    with pytest.raises(ArcMultiplicityError):
        parse_pd("X(1,2,3,4)")


def test_arc_labels_need_not_be_contiguous():
    # Arc ids are assigned by sorted label order, whatever the labels are.
    d1 = diagram(KINK)
    d2 = diagram("X(10,70,70,10)")
    assert d1.arc_ends == d2.arc_ends
    assert [f.degree for f in d1.faces] == [f.degree for f in d2.faces]


# -- faces and colours -----------------------------------------------------

def test_trefoil_faces():
    d = diagram(TREFOIL)
    assert len(d.faces) == 5
    assert [f.degree for f in d.faces] == [3, 2, 3, 2, 2]
    assert d.white_faces == (0, 2)
    assert d.black_faces == (1, 3, 4)
    assert d.faces[0].colour == WHITE


def test_fig8_faces():
    d = diagram(FIG8)
    assert len(d.faces) == 6
    assert [f.degree for f in d.faces] == [2, 3, 3, 3, 3, 2]
    assert d.white_faces == (0, 2, 4)
    assert d.black_faces == (1, 3, 5)


def test_kink_faces():
    d = diagram(KINK)
    assert [f.degree for f in d.faces] == [1, 2, 1]
    assert d.white_faces == (0, 2)
    assert d.black_faces == (1,)


def test_face_degrees_sum_to_arc_incidences():
    for text in (TREFOIL, FIG8, KINK):
        d = diagram(text)
        assert sum(f.degree for f in d.faces) == 2 * d.n_arcs


def test_swap_colours():
    d = build_diagram(parse_pd(TREFOIL), swap_colours=True)
    assert d.colours_swapped
    assert d.white_faces == (1, 3, 4)
    assert d.black_faces == (0, 2)


def test_adjacent_faces_get_opposite_colours():
    for text in (TREFOIL, FIG8, KINK):
        d = diagram(text)
        for a in range(d.n_arcs):
            (c1, s1), (c2, s2) = d.arc_ends[a]
            left = d.face_at_corner[(c1, (s1 - 1) % 4)]
            right = d.face_at_corner[(c1, s1)]
            assert d.face_colour[left] != d.face_colour[right]


def test_flanking_faces_agree_from_both_ends():
    for text in (TREFOIL, FIG8, KINK):
        d = diagram(text)
        for a in range(d.n_arcs):
            (c1, s1), (c2, s2) = d.arc_ends[a]
            assert d.face_at_corner[(c1, (s1 - 1) % 4)] == d.face_at_corner[(c2, s2)]
            assert d.face_at_corner[(c1, s1)] == d.face_at_corner[(c2, (s2 - 1) % 4)]


@pytest.mark.parametrize(
    "text",
    [
        "X(1,4,2,5) X(3,6,4,1) X(5,2,3,6)",  # fails the Euler count
        "X(1,2,3,4) X(3,4,1,2)",
        "X(1,2,2,1) X(3,4,4,3)",  # disconnected
    ],
)
def test_nonplanar_codes_rejected(text):
    with pytest.raises(NonPlanarCode):
        build_diagram(parse_pd(text))


# -- colour graphs ---------------------------------------------------------

def test_trefoil_colour_graphs():
    d = diagram(TREFOIL)
    gb, gw = colour_graphs(d)
    assert gb.colour == BLACK and gw.colour == WHITE
    assert gb.vertices == (1, 3, 4)
    assert gb.edge_ends == ((1, 3), (4, 1), (3, 4))  # a triangle
    assert gw.vertices == (0, 2)
    assert gw.edge_ends == ((2, 0), (2, 0), (2, 0))  # a theta, three parallel edges


def test_fig8_colour_graphs():
    d = diagram(FIG8)
    gb, gw = colour_graphs(d)
    assert gb.edge_ends == ((3, 1), (1, 3), (5, 1), (5, 3))
    assert gw.edge_ends == ((2, 0), (4, 0), (4, 2), (2, 4))


def test_kink_black_graph_is_a_loop():
    d = diagram(KINK)
    gb, gw = colour_graphs(d)
    assert gb.vertices == (1,)
    assert gb.edge_ends == ((1, 1),)
    assert gw.edge_ends == ((2, 0),)


def test_colour_graphs_are_plane_duals():
    # Same edge ids on both sides, one edge per crossing.
    for text in (TREFOIL, FIG8, KINK):
        d = diagram(text)
        gb, gw = colour_graphs(d)
        assert len(gb.edge_ends) == len(gw.edge_ends) == d.n_crossings


def test_rotations_list_every_incidence():
    # rotation_at[v] walks the face corners in cyclic order; each corner
    # (crossing, k) is one end of colour edge `crossing`.
    for text in (TREFOIL, FIG8, KINK):
        d = diagram(text)
        for g in colour_graphs(d):
            for v in g.vertices:
                rot = [c for c, _ in g.rotation_at[v]]
                assert sorted(rot) == sorted(
                    e for e, (a, b) in enumerate(g.edge_ends) for end in (a, b) if end == v
                )


# -- union-find ------------------------------------------------------------

def _reachable(adj, a, b):
    seen, stack = {a}, [a]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return b in seen


@pytest.mark.parametrize("seed", range(20))
def test_union_find_union_is_false_exactly_on_a_cycle(seed):
    # vertices are darts, as in jordan_resolution; loops and repeated edges
    # included.  Checked against a graph search over the edges so far.
    rng = random.Random(seed)
    vertices = [(c, s) for c in range(rng.randrange(1, 6)) for s in range(4)]
    uf = UnionFind(vertices)
    adj = {v: set() for v in vertices}
    for _ in range(rng.randrange(2 * len(vertices))):
        a, b = rng.choice(vertices), rng.choice(vertices)
        assert uf.union(a, b) is not _reachable(adj, a, b)
        adj[a].add(b)
        adj[b].add(a)
        components = {frozenset(v for v in vertices if _reachable(adj, u, v)) for u in vertices}
        assert len({uf.find(v) for v in vertices}) == len(components)
        assert all(len({uf.find(v) for v in comp}) == 1 for comp in components)


# -- the overlay -----------------------------------------------------------

def test_trefoil_tait_counts():
    t = build_tait(diagram(TREFOIL))
    assert t.n_vertices == 8
    assert t.n_edges == 12
    assert len(t.squares) == 6


def test_fig8_tait_counts():
    t = build_tait(diagram(FIG8))
    assert t.n_vertices == 10
    assert t.n_edges == 16
    assert len(t.squares) == 8


def test_tait_edge_endpoints():
    t = build_tait(diagram(TREFOIL))
    for e in range(t.n_edges):
        assert t.edge_crossing(e) == e // 4
        assert t.edge_corner(e) == e % 4
        r = t.edge_region[e]
        assert t.face_colour[r] == t.edge_colour(e)


def test_squares_alternate_regions_and_crossings():
    for text in (TREFOIL, FIG8, KINK):
        t = build_tait(diagram(text))
        for sq in t.squares:
            c1, c2 = sq.crossings
            assert {e // 4 for e in sq.edges} == {c1, c2}
            r1, r2 = sq.regions
            assert {t.face_colour[r1], t.face_colour[r2]} == {BLACK, WHITE}
            # each opposite-edge pattern covers both regions
            for ea, eb in (sq.pattern_a, sq.pattern_b):
                assert {t.edge_region[ea], t.edge_region[eb]} == {r1, r2}


def test_every_tait_edge_lies_on_exactly_two_squares():
    for text in (TREFOIL, FIG8, KINK):
        t = build_tait(diagram(text))
        count = {e: 0 for e in range(t.n_edges)}
        for sq in t.squares:
            for e in sq.edges:
                count[e] += 1
        assert all(v == 2 for v in count.values())


def test_edge_to_region_inverts_edge_region():
    t = build_tait(diagram(FIG8))
    for c in range(t.n_crossings):
        for colour in (BLACK, WHITE):
            for r in set(t.edge_region[4 * c + k] for k in t.corner_pair(c, colour)):
                e = t.edge_to_region(c, r, colour)
                assert e // 4 == c and t.edge_region[e] == r


def test_edge_to_region_raises_unless_exactly_one_corner_hits():
    kink = build_tait(diagram(KINK))
    loop_region = kink.edge_region[0]  # both corners of one colour face it
    with pytest.raises(InvariantViolation, match="not unique"):
        kink.edge_to_region(0, loop_region, kink.face_colour[loop_region])
    t = build_tait(diagram(TREFOIL))
    away = (set(range(t.n_faces)) - set(t.edge_region[0:4])).pop()
    with pytest.raises(InvariantViolation, match="not unique"):
        t.edge_to_region(0, away, t.face_colour[away])


def with_faces(d, changed):
    """d with some faces replaced, as index -> field changes."""
    faces = tuple(
        dataclasses.replace(f, **changed[f.index]) if f.index in changed else f
        for f in d.faces
    )
    return dataclasses.replace(d, faces=faces)


def test_colour_graph_edge_off_its_colour_raises():
    d = diagram(TREFOIL)
    bad = with_faces(d, {0: {"colour": 1 - d.faces[0].colour}})
    with pytest.raises(InvariantViolation, match="off its colour"):
        colour_graphs(bad)


def test_tait_square_with_mismatched_arc_ends_raises():
    d = diagram(TREFOIL)
    f0, f1 = d.faces[0], d.faces[1]
    bad = with_faces(d, {
        0: {"corners": f0.corners[1:]},
        1: {"corners": f1.corners + f0.corners[:1]},
    })
    with pytest.raises(InvariantViolation, match="different regions"):
        build_tait(bad)


# -- reducedness -----------------------------------------------------------

def test_reduced_diagrams():
    assert is_reduced(diagram(TREFOIL))
    assert is_reduced(diagram(FIG8))


def test_kink_is_not_reduced():
    assert not is_reduced(diagram(KINK))


def test_hopf_projection_is_reduced():
    assert is_reduced(diagram("X(1,2,3,4) X(2,1,4,3)"))


def test_double_kink_is_not_reduced():
    assert not is_reduced(diagram("X(1,2,2,3) X(3,4,4,1)"))


def test_composite_projection_is_reduced_though_not_prime():
    # a connected sum of two 2-crossing pieces: no nugatory crossing, but
    # each colour graph has a cut vertex
    assert is_reduced(diagram(COMPOSITE))


def test_to_dict_shapes():
    d = diagram(TREFOIL)
    dd = d.to_dict()
    assert dd["crossings"] == [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]
    assert len(dd["faces"]) == 5
    t = build_tait(d)
    td = t.to_dict()
    assert len(td["edges"]) == 12
    assert len(td["squares"]) == 6
