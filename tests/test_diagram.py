"""Faces, colouring, colour graphs, and the Tait overlay on small diagrams."""

import dataclasses
import hashlib
import json
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
    PDCode,
    build_diagram,
    build_tait,
    colour_graphs,
    is_reduced,
    parse_pd,
)
from knotmorse.corpus import corpus_names, get_entry, torus_pd
from knotmorse.diagram import Diagram, UnionFind
from knotmorse.errors import InvariantViolation, KnotmorseError

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


# codes that parse_pd rejects, with its message
NOT_USED_TWICE = {
    ((1, 1, 1, 2),): "arc 1 occurs 3 times, arc 2 occurs 1 times (expected 2)",
    ((1, 2, 3, 4), (1, 2, 3, 5)): "arc 4 occurs 1 times, arc 5 occurs 1 times (expected 2)",
}


@pytest.mark.parametrize("crossings", list(NOT_USED_TWICE))
def test_build_diagram_raises_on_a_label_not_used_twice(crossings):
    # built directly, not through parse_pd, they raise parse_pd's error
    with pytest.raises(ArcMultiplicityError) as built:
        build_diagram(PDCode(crossings))
    with pytest.raises(ArcMultiplicityError) as parsed:
        parse_pd(" ".join("X(%d,%d,%d,%d)" % c for c in crossings))
    assert str(built.value) == str(parsed.value) == NOT_USED_TWICE[crossings]


def test_arc_labels_need_not_be_contiguous():
    # Arc ids are assigned by sorted label order, whatever the labels are.
    d1 = diagram(KINK)
    d2 = diagram("X(10,70,70,10)")
    assert d1.arc_darts == d2.arc_darts
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
    assert d.white_faces == (1, 3, 4)
    assert d.black_faces == (0, 2)


def test_adjacent_faces_get_opposite_colours():
    for text in (TREFOIL, FIG8, KINK):
        d = diagram(text)
        for a in range(d.n_arcs):
            (c1, s1), (c2, s2) = (divmod(i, 4) for i in d.arc_darts[a])
            left = d.edge_region[4 * c1 + (s1 - 1) % 4]
            right = d.edge_region[4 * c1 + s1]
            assert d.face_colour[left] != d.face_colour[right]


def test_flanking_faces_agree_from_both_ends():
    for text in (TREFOIL, FIG8, KINK):
        d = diagram(text)
        for a in range(d.n_arcs):
            (c1, s1), (c2, s2) = (divmod(i, 4) for i in d.arc_darts[a])
            assert d.edge_region[4 * c1 + (s1 - 1) % 4] == d.edge_region[4 * c2 + s2]
            assert d.edge_region[4 * c1 + s1] == d.edge_region[4 * c2 + (s2 - 1) % 4]


NONPLANAR = [
    ("X(1,4,2,5) X(3,6,4,1) X(5,2,3,6)", "face count 3 fails Euler check for 3 crossings"),
    ("X(1,2,3,4) X(3,4,1,2)", "face count 2 fails Euler check for 2 crossings"),
    ("X(1,2,2,1) X(3,4,4,3)", "projection is disconnected (1 of 2 crossings reachable)"),
]


@pytest.mark.parametrize("text, message", NONPLANAR, ids=[text for text, _ in NONPLANAR])
def test_nonplanar_codes_rejected(text, message):
    with pytest.raises(NonPlanarCode) as info:
        build_diagram(parse_pd(text))
    assert str(info.value) == message


# -- the face trace, frozen ------------------------------------------------

def _scrambled(crossings, rng):
    """The same projection with crossings, rotations and labels redrawn."""
    labels = sorted({label for c in crossings for label in c})
    rename = dict(zip(labels, rng.sample(labels, len(labels))))
    out = []
    for c in rng.sample(crossings, len(crossings)):
        k = rng.randrange(4)
        out.append(tuple(rename[label] for label in c[k:] + c[:k]))
    return out


def _label_swapped(crossings, rng):
    """Two label occurrences exchanged, so every label still occurs twice;
    most such codes are not planar."""
    flat = [label for c in crossings for label in c]
    i, j = rng.sample(range(len(flat)), 2)
    flat[i], flat[j] = flat[j], flat[i]
    return [tuple(flat[k:k + 4]) for k in range(0, len(flat), 4)]


def trace_inputs():
    """The corpus, odd T(2, m), a kink, the Hopf link and the non-planar
    codes, then 300 seeded scrambles and 600 label swaps of scrambles of
    these."""
    bases = [get_entry(name).pd_text for name in corpus_names()]
    bases += [torus_pd(m) for m in range(3, 14, 2)]
    bases += [KINK, "X(1,2,3,4) X(2,1,4,3)"] + [text for text, _ in NONPLANAR]
    codes = [parse_pd(text).crossings for text in bases]
    rng = random.Random(2025)
    scrambles = [_scrambled(rng.choice(codes), rng) for _ in range(300)]
    swaps = [_label_swapped(_scrambled(rng.choice(codes), rng), rng) for _ in range(600)]
    return bases + [" ".join("X(%d,%d,%d,%d)" % c for c in code) for code in scrambles + swaps]


# sha256 of [text, swap_colours, arc_labels, dart_arc, edge_region,
# face_colour, face arcs] per build, or [text, swap_colours, error type,
# message] when the build raises, over trace_inputs() in both colourings
# (926 codes, 1,852 builds: 994 built, 858 raised NonPlanarCode), as the
# face walk over (crossing, slot) pairs traced them.
FROZEN_TRACE = "5e0937e46237461e8eaae1985a6d86ffbbdea3894078c23192495237829d48e8"


def test_face_trace_is_frozen():
    digest = hashlib.sha256()
    for text in trace_inputs():
        pd = parse_pd(text)
        for swap in (False, True):
            try:
                d = build_diagram(pd, swap_colours=swap)
            except KnotmorseError as e:
                row = [text, swap, type(e).__name__, str(e)]
            else:
                row = [text, swap, d.arc_labels, d.dart_arc, d.edge_region, d.face_colour,
                       [f.arcs for f in d.faces]]
            digest.update(json.dumps(row).encode())
    assert digest.hexdigest() == FROZEN_TRACE


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


@pytest.mark.parametrize("seed", range(5))
def test_union_find_union_halves_paths_like_two_finds(seed):
    # union walks both roots inline; it must leave the parent table that
    # find(a), find(b) and a link of the two roots would leave
    rng = random.Random(seed)
    vertices = range(rng.randrange(2, 30))
    uf, ref = UnionFind(vertices), UnionFind(vertices)
    for _ in range(3 * len(vertices)):
        a, b = rng.choice(vertices), rng.choice(vertices)
        ra, rb = ref.find(a), ref.find(b)
        if ra != rb:
            ref.parent[ra] = rb
        assert uf.union(a, b) is (ra != rb)
        assert uf.parent == ref.parent


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
    # corners k and k + 2 of a crossing share a colour, k and k + 1 do not
    for text in (TREFOIL, FIG8, KINK):
        t = build_tait(diagram(text))
        colour = [t.face_colour[r] for r in t.edge_region]
        for e in range(t.n_edges):
            assert colour[e ^ 2] == colour[e]
            assert colour[e ^ 1] == 1 - colour[e]


def test_squares_alternate_regions_and_crossings():
    for text in (TREFOIL, FIG8, KINK):
        t = build_tait(diagram(text))
        for sq in t.squares:
            # edges run f_left - c1 - f_right - c2 - f_left
            c1, c2 = (e // 4 for e in sq.edges[1::2])
            assert [e // 4 for e in sq.edges] == [c1, c1, c2, c2]
            r1, r2 = (t.edge_region[e] for e in sq.edges[:2])
            assert {t.face_colour[r1], t.face_colour[r2]} == {BLACK, WHITE}
            # each opposite-edge pattern covers both regions
            for ea, eb in (sq.edges[0::2], sq.edges[1::2]):
                assert {t.edge_region[ea], t.edge_region[eb]} == {r1, r2}


def test_every_tait_edge_lies_on_exactly_two_squares():
    for text in (TREFOIL, FIG8, KINK):
        t = build_tait(diagram(text))
        count = {e: 0 for e in range(t.n_edges)}
        for sq in t.squares:
            for e in sq.edges:
                count[e] += 1
        assert all(v == 2 for v in count.values())


def overlay_oracle(d):
    """The Tait overlay tables as the separate overlay builder made them,
    frozen: the corner table read off the faces, one square per arc with
    the check that both ends see the same two regions, the colour masks,
    the squares' pattern masks and the poset tables."""
    edge_region = [0] * (4 * d.n_crossings)
    for f in d.faces:
        for k in f.corners:
            edge_region[k] = f.index
    squares = []
    for a, (i, j) in enumerate(d.arc_darts):
        edges = (i & ~3 | (i - 1) & 3, i, j & ~3 | (j - 1) & 3, j)
        f_left, f_right, g_right, g_left = (edge_region[e] for e in edges)
        if (f_left, f_right) != (g_left, g_right):
            raise InvariantViolation("the two ends of arc %d see different regions" % a)
        squares.append((a, edges))
    colour = [f.colour for f in d.faces]
    white = sum(1 << f.index for f in d.faces if f.colour == WHITE)
    black = sum(1 << f.index for f in d.faces if f.colour == BLACK)
    square_masks = tuple((1 << a | 1 << c, 1 << b | 1 << e) for _, (a, b, c, e) in squares)
    n_faces, n_vertices = len(d.faces), len(d.faces) + d.n_crossings
    arrows = [(r, n_faces + e // 4) if colour[r] == WHITE else (n_faces + e // 4, r)
              for e, r in enumerate(edge_region)]
    succ, pred = [0] * n_vertices, [0] * n_vertices
    for u, v in arrows:
        succ[u] |= 1 << v
        pred[v] |= 1 << u
    poset = tuple((u, v, arrows.count((u, v)) == 1) for u, v in arrows), tuple(succ), tuple(pred)
    return {"edge_region": tuple(edge_region), "squares": tuple(squares),
            "face_masks": (white, black), "square_masks": square_masks, "poset_tables": poset}


def assert_overlay_matches_the_oracle(d):
    assert build_tait(d) is d
    assert {
        "edge_region": d.edge_region,
        "squares": tuple((q.arc, q.edges) for q in d.squares),
        "face_masks": d.face_masks,
        "square_masks": d.square_masks,
        "poset_tables": d.poset_tables,
    } == overlay_oracle(d)
    assert (d.n_edges, d.n_vertices) == (4 * d.n_crossings, len(d.faces) + d.n_crossings)


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("name", corpus_names())
def test_overlay_tables_match_the_oracle_on_the_corpus(name, swap):
    assert_overlay_matches_the_oracle(build_diagram(get_entry(name).diagram.pd, swap_colours=swap))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", ["5_2", "6_3", "7_7"])
def test_overlay_tables_match_the_oracle_on_scrambles(name, seed):
    code = _scrambled(list(get_entry(name).diagram.pd.crossings), random.Random(seed))
    assert_overlay_matches_the_oracle(build_diagram(PDCode(tuple(code))))


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


def test_build_diagram_checks_the_squares(monkeypatch):
    def mismatched(d):
        raise InvariantViolation("the two ends of arc 0 see different regions")

    monkeypatch.setattr(Diagram, "squares", property(mismatched))
    with pytest.raises(InvariantViolation, match="different regions"):
        diagram(TREFOIL)


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
