"""Matching and Morse complexes, pure parts, and integer homology."""

import os
import random
import re
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knotmorse import (
    REFERENCE_HOMOLOGY,
    HomologyResult,
    SimplicialComplex,
    build_tait,
    colour_graphs,
    computed_row,
    connectivity_bound,
    connectivity_report,
    corpus_names,
    count_spanning_trees,
    get_entry,
    homology,
    kauffman_states,
    marked_arc_roots,
    matching_complex,
    morse_complex,
    pure_matching_complex,
    pure_morse_from_trees,
    pure_part,
    reference_complexes,
    spanning_trees,
)
from knotmorse import complexes
from knotmorse.complexes import IndependenceComplex
from knotmorse.corpus import rational_pd, torus_pd
from knotmorse.counting import det
from knotmorse.diagram import build_diagram, parse_pd
from knotmorse.errors import InvariantViolation, ResourceLimit
from knotmorse.moves import click_path_moves, clock_moves
from knotmorse.states import (
    Matching,
    _maximal_stream,
    critical_cells,
    enumerate_matchings,
    induced_forests,
    is_dmf,
    monochromatic_loops,
)

from homology_oracle import (
    listed_morse_boundary,
    maximal_matchings,
    oracle_faces,
    oracle_homology,
    pairwise_maximal_facets,
)

SMALL = ("3_1", "4_1", "kink", "5_1", "5_2")
SIX_OR_LESS = ("3_1", "4_1", "kink", "5_1", "5_2", "6_1", "6_2", "6_3")

# the 6-vertex triangulation of the projective plane; every edge lies in
# exactly two of the ten triangles
RP2 = (
    (0, 1, 2), (0, 2, 3), (0, 1, 5), (0, 4, 5), (0, 3, 4),
    (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5),
)


def grid_surface(klein, n=4):
    """Triangulated n*n grid glued into a torus, or a Klein bottle."""

    def vid(x, y):
        if klein and x >= n:
            x, y = x - n, (n - y) % n
        return (x % n) * n + (y % n)

    facets = []
    for x in range(n):
        for y in range(n):
            a, b = vid(x, y), vid(x + 1, y)
            c, d = vid(x, y + 1), vid(x + 1, y + 1)
            facets.append((a, b, d))
            facets.append((a, d, c))
    return facets


def disks_on_a_triangle(*wraps):
    """The triangle 0-1-2 with a disk glued on for each k in wraps, its rim
    running k times round the triangle: a 3k-cycle of rim vertices i % 3, a
    ring of new vertices inside it and a new centre vertex."""
    facets = []
    fresh = 3
    for k in wraps:
        n = 3 * k
        ring, centre = range(fresh, fresh + n), fresh + n
        fresh += n + 1
        for i in range(n):
            a, b, r, s = i % 3, (i + 1) % 3, ring[i], ring[(i + 1) % n]
            facets += [(a, b, r), (b, r, s), (r, s, centre)]
    return facets


# (facets, reduced ranks, torsion) with the values from theory
TORSION_FIXTURES = (
    (RP2, {}, {1: (2,)}),
    (grid_surface(klein=False), {1: 2, 2: 1}, {}),
    (grid_surface(klein=True), {1: 1}, {1: (2,)}),
    (disks_on_a_triangle(2, 3), {2: 1}, {}),
    (disks_on_a_triangle(4, 6), {2: 1}, {1: (2,)}),
    (disks_on_a_triangle(3), {}, {1: (3,)}),  # the mod-3 Moore space
)


def closure_columns(d):
    """(column, complex, the same complex by its facets) for each column of
    the reference table: the matching column lists no facet, so there the
    second is maximal_matchings; every other column is its own."""
    t = build_tait(d)
    for column, c in reference_complexes(d).items():
        yield column, c, maximal_matchings(t) if column == "matching" else c


# ---------------------------------------------------------------------------
# SimplicialComplex basics
# ---------------------------------------------------------------------------

def test_facets_are_canonical_deduped_and_sorted():
    c = SimplicialComplex([(5, 3, 4), (2, 1), (1, 2), (0, 6), (3, 4, 5)])
    assert c.facets == ((0, 6), (1, 2), (3, 4, 5))
    assert c.dimension == 2
    assert SimplicialComplex([(), ()]).facets == ((),)


def test_empty_complex():
    c = SimplicialComplex([])
    assert c.dimension == -1
    assert c.facets == ()
    assert c.face_counts() == ()
    assert c.euler_characteristic() == 0
    h = homology(c)
    assert h.betti == ()
    assert h.is_torsion_free()


def test_faces_group_by_dimension_and_count():
    c = SimplicialComplex([(0, 1, 2)])
    assert c.face_counts() == (3, 3, 1)
    assert c.euler_characteristic() == 1
    assert c.faces()[1] == {0b011, 0b101, 0b110}
    assert oracle_faces(c)[1] == ((0, 1), (0, 2), (1, 2))


def test_equality_and_hash_follow_facets():
    a = SimplicialComplex([(0, 1), (1, 2)])
    b = SimplicialComplex([(1, 2), (0, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != SimplicialComplex([(0, 1)])


def test_pure_part_keeps_top_dimension_only_and_is_idempotent():
    c = SimplicialComplex([(0, 1, 2), (3, 4), (5, 6)])
    p = pure_part(c)
    assert p.facets == ((0, 1, 2),)
    assert pure_part(p) == p


# ---------------------------------------------------------------------------
# Homology engine sanity on known spaces
# ---------------------------------------------------------------------------

def test_circle_has_one_loop():
    c = SimplicialComplex([(0, 1), (1, 2), (0, 2)])
    h = homology(c)
    assert h.ranks() == {1: 1}
    assert h.is_torsion_free()


def test_solid_simplex_is_acyclic():
    h = homology(SimplicialComplex([(0, 1, 2, 3)]))
    assert h.ranks() == {}
    assert h.is_torsion_free()


def test_two_points_have_reduced_rank_one_in_degree_zero():
    h = homology(SimplicialComplex([(0,), (1,)]))
    assert h.ranks() == {0: 1}


def test_two_sphere_as_tetrahedron_boundary():
    h = homology(SimplicialComplex(list(combinations(range(4), 3))))
    assert h.ranks() == {2: 1}


def test_projective_plane_torsion():
    h = homology(SimplicialComplex(RP2))
    assert h.ranks() == {}
    assert h.torsion_by_degree() == {1: (2,)}
    assert not h.is_torsion_free()


def test_torus_homology():
    h = homology(SimplicialComplex(grid_surface(klein=False)))
    assert h.ranks() == {1: 2, 2: 1}
    assert h.is_torsion_free()


def test_klein_bottle_mixes_free_and_torsion_parts():
    h = homology(SimplicialComplex(grid_surface(klein=True)))
    assert h.ranks() == {1: 1}
    assert h.torsion_by_degree() == {1: (2,)}


def test_homology_result_to_dict():
    h = homology(SimplicialComplex(RP2))
    d = h.to_dict()
    assert d["reduced"] is True
    assert d["betti"] == {}
    assert d["torsion"] == {"1": [2]}
    assert d["face_counts"] == [6, 15, 10]


@pytest.mark.parametrize("name", ("3_1", "4_1"))
def test_sparse_engine_agrees_with_dense_rational_ranks(name):
    t = build_tait(get_entry(name).diagram)
    for c, plain in ((morse_complex(t),) * 2, (matching_complex(t), maximal_matchings(t))):
        faces = oracle_faces(plain)
        counts = [len(fs) for fs in faces]
        ranks = [0] * (len(faces) + 1)
        for k in range(1, len(faces)):
            idx = {f: i for i, f in enumerate(faces[k - 1])}
            cols = []
            for up in faces[k]:
                col = {}
                for i in range(len(up)):
                    col[idx[up[:i] + up[i + 1:]]] = (-1) ** i
                cols.append(col)
            mat = [[Fraction(col.get(r, 0)) for col in cols] for r in range(counts[k - 1])]
            rank = 0
            for j in range(len(cols)):
                piv = next((r for r in range(rank, counts[k - 1]) if mat[r][j]), None)
                if piv is None:
                    continue
                mat[rank], mat[piv] = mat[piv], mat[rank]
                for r in range(counts[k - 1]):
                    if r != rank and mat[r][j]:
                        f = mat[r][j] / mat[rank][j]
                        for jj in range(j, len(cols)):
                            mat[r][jj] -= f * mat[rank][jj]
                rank += 1
            ranks[k] = rank
        expect = []
        for k in range(len(faces)):
            b = counts[k] - ranks[k] - ranks[k + 1] - (1 if k == 0 else 0)
            expect.append(b)
        got = homology(c)
        assert list(got.betti) == expect
        assert got.is_torsion_free()


# ---------------------------------------------------------------------------
# The dense Smith core
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "rows, factors",
    [([[2, 3]], [1]), ([[6, 4]], [2]), ([[-9, 15, 0, 4], [12, 12, 15, 0]], [1, 3])],
)
def test_dense_smith_small_matrices(rows, factors):
    assert complexes._dense_smith(rows) == factors


def determinantal_divisors(rows):
    """The gcd of the k x k minors, k = 1 .. min(rows, columns)."""
    n_r, n_c = len(rows), len(rows[0])
    divisors = []
    for k in range(1, min(n_r, n_c) + 1):
        g = 0
        for rs in combinations(range(n_r), k):
            for cs in combinations(range(n_c), k):
                g = gcd(g, det([[rows[i][j] for j in cs] for i in rs]))
        divisors.append(g)
    return divisors


@pytest.mark.parametrize("seed", range(5))
def test_dense_smith_factors_multiply_to_the_determinantal_divisors(seed):
    rng = random.Random(seed)
    for _ in range(300):
        n_r, n_c = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.choice((0, rng.randint(-12, 12))) for _ in range(n_c)] for _ in range(n_r)]
        factors = complexes._dense_smith(rows)
        products, p = [], 1
        for v in factors:
            p *= v
            products.append(p)
        divisors = determinantal_divisors(rows)
        assert products == divisors[: len(factors)] and not any(divisors[len(factors):]), rows


# ---------------------------------------------------------------------------
# Second oracle: the per-degree Markowitz engine and the pairwise filter
# ---------------------------------------------------------------------------

def random_facets(rng, n_vertices, n_facets, max_size):
    return [
        tuple(rng.sample(range(n_vertices), rng.randint(0, min(n_vertices, max_size))))
        for _ in range(n_facets)
    ]


def relabelled(facets, rng):
    vertices = sorted({v for f in facets for v in f})
    image = dict(zip(vertices, rng.sample(range(100), len(vertices))))
    return [tuple(image[v] for v in f) for f in facets]


@pytest.mark.parametrize("name", sorted(REFERENCE_HOMOLOGY))
def test_reference_rows_agree_with_the_oracle_engine(name):
    for column, c, plain in closure_columns(get_entry(name).diagram):
        got = homology(c)
        assert got == oracle_homology(plain), column
        assert got.ranks() == REFERENCE_HOMOLOGY[name][column], column


@pytest.mark.parametrize("seed", range(6))
def test_torsion_fixtures_agree_with_the_oracle_under_relabelling(seed):
    rng = random.Random(seed)
    for facets, ranks, torsion in TORSION_FIXTURES:
        c = SimplicialComplex(relabelled(facets, rng))
        got = homology(c)
        assert got == oracle_homology(c)
        assert (got.ranks(), got.torsion_by_degree()) == (ranks, torsion)


@pytest.mark.parametrize("seed", range(10))
def test_random_complexes_agree_with_the_oracle(seed):
    rng = random.Random(seed)
    # sized so that some of them leave no fill-free pair and take the
    # Markowitz pivot
    for _ in range(30):
        facets = random_facets(rng, rng.randint(1, 12), rng.randint(0, 30), 4)
        # facets held in others add no face, so both engines see one closure
        c = SimplicialComplex(facets)
        assert homology(c) == oracle_homology(c), facets


def decoded_faces(c):
    """The engine's face closure as sets of sorted tuples, bit i of a mask
    read as the i-th smallest vertex of the facets."""
    vertices = sorted({v for f in c.facets for v in f})
    return [{tuple(v for i, v in enumerate(vertices) if m >> i & 1) for m in level}
            for level in c.faces()]


@pytest.mark.parametrize("name", corpus_names())
def test_face_closure_equals_the_oracle_closure(name):
    for column, _, plain in closure_columns(get_entry(name).diagram):
        assert decoded_faces(plain) == [set(level) for level in oracle_faces(plain)], column


@pytest.mark.parametrize("name", corpus_names())
def test_facet_lists_are_antichains(name):
    # SimplicialComplex takes its facets as given, pairwise non-contained
    d = get_entry(name).diagram
    built = {column: c for column, c in reference_complexes(d).items() if column != "matching"}
    built["from_trees"] = pure_morse_from_trees(d)
    # the maximal matchings that `complex --kind matching` lists
    built["maximal"] = SimplicialComplex(x.edges for x in _maximal_stream(build_tait(d), skip=True))
    for column, c in built.items():
        assert c.facets == pairwise_maximal_facets(c.facets), column


# ---------------------------------------------------------------------------
# The element matching behind homology
# ---------------------------------------------------------------------------

def gradient_cycle_free(critical, up):
    """True when the pairs (lower -> upper) leave no closed gradient path.

    A gradient path steps from a lower cell x to another face g of up[x];
    Kahn's algorithm on those steps between lower cells finds any cycle.
    """
    steps = {x: [t ^ b for b in (1 << i for i in range(t.bit_length()))
                 if t & b and t ^ b != x and t ^ b in up]
             for x, t in up.items()}
    indegree = dict.fromkeys(up, 0)
    for targets in steps.values():
        for g in targets:
            indegree[g] += 1
    ready = [x for x, n in indegree.items() if n == 0]
    done = 0
    while ready:
        x = ready.pop()
        done += 1
        for g in steps[x]:
            indegree[g] -= 1
            if indegree[g] == 0:
                ready.append(g)
    return done == len(up)


def assert_acyclic_morse_matching(cells, critical, up, betti, column):
    """The pairs (lower -> upper) and critical cells cover the cells once
    along the Hasse diagram, close no gradient path and meet the strong
    Morse inequalities against the reduced betti numbers."""
    uppers = set(up.values())
    assert all(x & t == x and (t ^ x).bit_count() == 1 for x, t in up.items()), column
    assert len(uppers) == len(up) and not uppers & set(up) and not critical & uppers, column
    assert cells == critical | uppers | set(up), column
    assert gradient_cycle_free(critical, up), column
    betti = (0,) + betti  # degrees -1 (the empty face) .. dim
    morse = [0] * len(betti)
    for m in critical:
        morse[m.bit_count()] += 1
    assert all(m >= b for m, b in zip(morse, betti)), (column, morse, betti)
    alternating = 0
    for m, b in zip(morse, betti):
        alternating = m - b - alternating
        assert alternating >= 0, (column, morse, betti)
    assert alternating == 0, (column, morse, betti)


def ascending_order(facets, bit):
    """The bit of every vertex of the facets in increasing vertex order: a
    second order for the element matching, acyclic as any order is, with
    other critical cells."""
    return [bit[v] for v in sorted({v for f in facets for v in f})]


# homology's order, and a second one
ELEMENT_ORDERS = {"degree": complexes._element_order, "ascending": ascending_order}


def element_matching(c, order):
    """(cells, critical cells, pairs lower -> upper) of the element matching
    on the face closure of c, over the vertex bits order takes from c's
    facets."""
    cells = {0}.union(*c.faces())
    order = ELEMENT_ORDERS[order](c.facets, complexes._vertex_bits(c.facets))
    return (cells, *complexes._element_matching(order, set(cells)))


@pytest.mark.parametrize(
    "name, order",
    [pytest.param(name, order, id=name if order == "degree" else "%s-%s" % (name, order))
     for order in ELEMENT_ORDERS for name in corpus_names()],
)
def test_element_matching_is_acyclic_and_meets_the_morse_inequalities(name, order):
    for column, c, plain in closure_columns(get_entry(name).diagram):
        assert_acyclic_morse_matching(*element_matching(plain, order), homology(c).betti, column)


@pytest.mark.parametrize("m", range(3, 10))
def test_torus_morse_element_matching_is_perfect(m):
    # as many critical cells of each size as the betti number one degree down
    c = morse_complex(build_tait(build_diagram(parse_pd(torus_pd(m)))))
    _, critical, _ = element_matching(c, "degree")
    sizes = [0] * (c.dimension + 2)
    for x in critical:
        sizes[x.bit_count()] += 1
    assert tuple(sizes) == (0,) + homology(c).betti


@contextmanager
def compared_boundaries():
    """Within the block, each _morse_boundary call is checked flow for flow
    against listed_morse_boundary on the same inputs; yields the list of the
    (number of cells, budget) of the calls."""
    real, calls = complexes._morse_boundary, []

    def both(cells, critical, partner, budget):
        got = real(cells, critical, partner, budget)
        assert got == listed_morse_boundary(cells, critical, partner, budget), cells
        calls.append((len(cells), budget))
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(complexes, "_morse_boundary", both)
        yield calls


@st.composite
def facet_sets(draw, max_vertices=7):
    """Pairwise non-contained facets on at most max_vertices vertices, named
    with gaps so that a vertex's rank is not its name."""
    n = draw(st.integers(1, max_vertices))
    names = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n, unique=True))
    masks = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=12))
    return pairwise_maximal_facets(tuple(names[i] for i in range(n) if m >> i & 1) for m in masks)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(facets=facet_sets())
@example(facets=RP2)  # torsion: Z/2 in degree 1
def test_both_element_orders_agree_with_the_oracle_on_random_facets(facets):
    c = SimplicialComplex(facets)
    expected = oracle_homology(c)
    for order in ELEMENT_ORDERS:
        assert_acyclic_morse_matching(*element_matching(c, order), expected.betti, order)
        with pytest.MonkeyPatch.context() as patch, compared_boundaries():
            patch.setattr(complexes, "_element_order", ELEMENT_ORDERS[order])
            got = homology(c)
        assert (got.betti, got.torsion) == (expected.betti, expected.torsion), order


# ---------------------------------------------------------------------------
# One tagged closure for the closure columns of a row
# ---------------------------------------------------------------------------

CLOSURE_COLUMNS = ("morse", "pure_morse", "pure_matching")


def scrambled_pd(pd_text, rng):
    """The same projection with its crossings reordered, each X(...) tuple
    rotated and the arc labels renamed, all drawn from rng."""
    crossings = parse_pd(pd_text).crossings
    labels = sorted({label for c in crossings for label in c})
    rename = dict(zip(labels, rng.sample(labels, len(labels))))
    out = []
    for c in rng.sample(crossings, len(crossings)):
        k = rng.randrange(4)
        out.append("X(%d,%d,%d,%d)" % tuple(rename[label] for label in c[k:] + c[:k]))
    return " ".join(out)


def assert_tags_restrict_to_each_column(d):
    """Each tag's cells in the shared closure of a row's closure columns,
    decoded through the shared vertex bits, are that column's own faces()
    and the empty face, with its face counts; and the element matching on
    them leaves the cells that it leaves on the column alone."""
    row = reference_complexes(d)
    cs = [row[column] for column in CLOSURE_COLUMNS]
    bit, levels = complexes._closure(cs)
    vertex = {b: v for v, b in bit.items()}
    shared = lambda m: tuple(vertex[1 << i] for i in range(m.bit_length()) if m >> i & 1)
    for j, (column, c) in enumerate(zip(CLOSURE_COLUMNS, cs)):
        vertices = sorted({v for f in c.facets for v in f})  # faces(): bit i is the i-th smallest
        own = lambda m: tuple(v for i, v in enumerate(vertices) if m >> i & 1)
        tagged = [[m for m, tags in level.items() if tags >> j & 1] for level in levels]
        cells = {0}.union(*tagged)
        alone = {0}.union(*c.faces())
        assert {shared(m) for m in cells} == {own(m) for m in alone}, column
        assert tuple(map(len, tagged[:c.dimension + 1])) == c.face_counts(), column
        critical, _ = complexes._element_matching(complexes._element_order(c.facets, bit), cells)
        own_bit = complexes._vertex_bits(c.facets)
        critical_alone, _ = complexes._element_matching(complexes._element_order(c.facets, own_bit),
                                                        alone)
        assert {shared(m) for m in critical} == {own(m) for m in critical_alone}, column
    # every stored face carries a tag: the closure holds no face outside the columns
    assert all(tags for level in levels for tags in level.values())


@pytest.mark.parametrize("name", corpus_names())
def test_shared_closure_tags_restrict_to_each_column(name):
    assert_tags_restrict_to_each_column(get_entry(name).diagram)


@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(name=st.sampled_from(("5_2", "6_3", "7_7")), rng=st.randoms(use_true_random=False))
def test_shared_closure_tags_restrict_to_each_column_of_scrambles(name, rng):
    pd_text = scrambled_pd(get_entry(name).pd_text, rng)
    assert_tags_restrict_to_each_column(build_diagram(parse_pd(pd_text)))


# critical cells of the Morse, pure Morse and pure matching columns; the
# seeds scramble the code, which renumbers the Tait edges
@pytest.mark.parametrize("name, seed, counts", [
    ("7_7", None, (60, 21, 32)),
    ("7_7", 1, (60, 21, 32)),
    ("7_7", 2, (60, 21, 32)),
    ("7_7", 3, (60, 21, 32)),
    ("6_3", None, (38, 34, 34)),
    ("6_3", 1, (38, 32, 34)),
])
def test_closure_columns_keep_their_critical_cells(monkeypatch, name, seed, counts):
    pd_text = get_entry(name).pd_text
    if seed is not None:
        pd_text = scrambled_pd(pd_text, random.Random(seed))
    real, left = complexes._element_matching, []

    def recorded(*args):
        critical, up = real(*args)
        left.append(len(critical))
        return critical, up

    monkeypatch.setattr(complexes, "_element_matching", recorded)
    row = computed_row(build_diagram(parse_pd(pd_text)))
    assert {column: h.ranks() for column, h in row.items()} == REFERENCE_HOMOLOGY[name]
    assert tuple(left) == counts


# ---------------------------------------------------------------------------
# One homology entry: homologies
# ---------------------------------------------------------------------------

def recorded_closures(monkeypatch):
    """Patch complexes._closure and _matching_tree to log each call, in
    order: ("closure", number of complexes, faces stored) or ("tree",)."""
    real_closure, real_tree, log = complexes._closure, complexes._matching_tree, []

    def closure(cs):
        bit, levels = real_closure(cs)
        log.append(("closure", len(cs), sum(map(len, levels))))
        return bit, levels

    def tree(conflicts):
        log.append(("tree",))
        return real_tree(conflicts)

    monkeypatch.setattr(complexes, "_closure", closure)
    monkeypatch.setattr(complexes, "_matching_tree", tree)
    return log


@pytest.mark.parametrize("first", ["faces", "homology"])
def test_a_lone_complex_builds_its_closure_once(monkeypatch, first):
    c = morse_complex(build_tait(get_entry("5_2").diagram))
    log = recorded_closures(monkeypatch)
    if first == "homology":
        h = homology(c)
    counts, chi = c.face_counts(), c.euler_characteristic()
    if first == "faces":
        h = homology(c)
    assert homology(c) == h and h.face_counts == counts and chi == 1 + sum(
        (-1) ** k * b for k, b in enumerate(h.betti))
    assert log == [("closure", 1, sum(counts))]


def test_a_row_builds_one_closure_after_its_tree():
    d = get_entry("5_2").diagram
    with pytest.MonkeyPatch.context() as patch:
        log = recorded_closures(patch)
        row = computed_row(d)
    assert [entry[:2] for entry in log] == [("tree",), ("closure", 3)]
    assert log[1][2] < sum(sum(row[column].face_counts) for column in CLOSURE_COLUMNS)


def test_homologies_of_no_complex_and_of_trees_alone(monkeypatch):
    assert complexes.homologies([]) == []
    t = build_tait(get_entry("4_1").diagram)
    cs = [matching_complex(t), matching_complex(t)]
    log = recorded_closures(monkeypatch)
    assert complexes.homologies(cs) == [homology(cs[0])] * 2
    # the tree-only list stores no closure face
    assert all(entry[0] == "tree" or entry[2] == 0 for entry in log)


# morse == pure_morse on 3_1, 4_1, the kink, 5_1 and 7_1: equal facets take two tags
@pytest.mark.parametrize("name", SIX_OR_LESS + ("7_1", "7_7"))
def test_homologies_equal_homology_in_any_order(name):
    columns = list(reference_complexes(get_entry(name).diagram).values())
    alone = [homology(c) for c in columns]
    orders = [list(range(k, 4)) + list(range(k)) for k in range(4)] + [[3, 2, 1, 0]]
    for order in orders:
        assert complexes.homologies([columns[i] for i in order]) == [alone[i] for i in order], order
    same = columns[0] == columns[2]
    assert same == (name in ("3_1", "4_1", "kink", "5_1", "7_1"))


@pytest.mark.parametrize("bits", ["increasing", "decreasing", "shuffled"])
def test_element_order_breaks_ties_by_vertex_whatever_the_bits(bits):
    # degrees: 5 and 3 are in two facets, 1, 7 and -2 in one
    facets = [(1, 5), (3, 5), (3, 7), (-2,)]
    vertices = [-2, 1, 3, 5, 7]
    masks = [1 << i for i in range(len(vertices))]
    if bits == "decreasing":
        masks.reverse()
    elif bits == "shuffled":
        random.Random(3).shuffle(masks)
    bit = dict(zip(vertices, masks))
    assert complexes._element_order(facets, bit) == [bit[v] for v in (3, 5, -2, 1, 7)]


# ---------------------------------------------------------------------------
# The matching tree behind the matching column
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", corpus_names())
def test_matching_tree_agrees_with_the_closure_on_the_corpus(name):
    t = build_tait(get_entry(name).diagram)
    c, plain = matching_complex(t), maximal_matchings(t)
    assert isinstance(c, IndependenceComplex)
    # the counts of matchings by size against the face closure
    assert (c.dimension, c.face_counts()) == (plain.dimension, plain.face_counts())
    assert homology(c) == homology(plain) == oracle_homology(plain)


# counts of matchings by size from 1 up, computed when the transfer still
# kept every used region in its state
T_2_15_MATCHINGS = (60, 1455, 19240, 158430, 872256, 3340865, 9086220, 17666010,
                    24431720, 23630034, 15487680, 6528340, 1621920, 202665, 8852)
R_2_7_MATCHINGS = (56, 1357, 18812, 166208, 986660, 4041287, 11542736, 22956008,
                   31386808, 28754462, 16898208, 5920928, 1082520, 75630)


def test_matching_counts_of_the_torus_knot_t_2_15_are_frozen():
    t = build_tait(build_diagram(parse_pd(torus_pd(15))))
    assert complexes._matching_counts(t) == T_2_15_MATCHINGS


@pytest.mark.parametrize("seed", [7, 8])
def test_matching_counts_survive_a_scrambled_crossing_order(seed):
    # the regions a transfer forgets, and when, follow the crossing order
    rng = random.Random(seed)
    crossings = list(parse_pd(rational_pd([2] * 7)).crossings)
    rng.shuffle(crossings)
    text = " ".join("X(%d,%d,%d,%d)" % (c[k:] + c[:k]) for c in crossings
                    for k in [rng.randrange(4)])
    t = build_tait(build_diagram(parse_pd(text)))
    assert complexes._matching_counts(t) == R_2_7_MATCHINGS


@pytest.mark.parametrize("name", corpus_names())
def test_matching_tree_is_acyclic_and_meets_the_morse_inequalities(name):
    t = build_tait(get_entry(name).diagram)
    c = matching_complex(t)
    cells = {x.mask for x in enumerate_matchings(t, "all")}
    critical, tree = complexes._matching_tree(c.conflicts)
    up = tree_pairs(tree, cells)
    assert_acyclic_morse_matching(cells, critical, up, homology(c).betti, "matching")


def tree_pairs(tree, cells):
    """The pairs (lower -> upper) of a matching tree among the cells."""
    return {x: t for x in cells if (t := complexes._tree_partner(tree, x))}


@pytest.mark.parametrize("name", SIX_OR_LESS)
def test_matching_tree_lookup_gives_the_boundary_of_an_explicit_pair_table(name):
    # the walk down the tree, cell by cell, against a table of every pair
    t = build_tait(get_entry(name).diagram)
    critical, tree = complexes._matching_tree(matching_complex(t).conflicts)
    up = tree_pairs(tree, {x.mask for x in enumerate_matchings(t, "all")})
    walk, budget = partial(complexes._tree_partner, tree), complexes.DEFAULT_MAX_FACES - len(tree)
    for s in range(max(x.bit_count() for x in critical) + 1):
        cells = sorted(x for x in critical if x.bit_count() == s)
        walked = complexes._morse_boundary(cells, critical, walk, budget)
        listed = complexes._morse_boundary(cells, critical, lambda x: up.get(x, 0), None)
        assert dict(zip(cells, walked)) == dict(zip(cells, listed)), s


@pytest.mark.parametrize(
    "name", [n for n in corpus_names() if get_entry(n).diagram.n_crossings <= 7])
def test_one_pass_boundary_equals_the_listed_one_on_matching_trees(name):
    with compared_boundaries() as calls:
        homology(matching_complex(build_tait(get_entry(name).diagram)))
    assert sum(n for n, _ in calls) > 0


@pytest.mark.parametrize("name", sorted(REFERENCE_HOMOLOGY))
def test_one_pass_boundary_equals_the_listed_one_on_computed_rows(name):
    # the closure columns pass no budget; the matching tree passes one
    with compared_boundaries() as calls:
        computed_row(get_entry(name).diagram)
    assert sum(n for n, budget in calls if budget is None) > 0


def tree_leaf(tree, x):
    """Index of the leaf of a matching tree that the cell x walks to."""
    i = 0
    while tree[i].__class__ is tuple:
        p, with_p, without_p = tree[i]
        i = with_p if x & p else without_p
    return i


def test_matching_tree_checks_see_a_leaf_with_a_wrong_cone_point():
    # each cone leaf of 4_1's tree in turn, re-pointed at each vertex that
    # does not pair the cells reaching it
    t = build_tait(get_entry("4_1").diagram)
    cells = {x.mask for x in enumerate_matchings(t, "all")}
    betti = homology(maximal_matchings(t)).betti
    critical, tree = complexes._matching_tree(matching_complex(t).conflicts)
    mutants = 0
    for leaf, v in enumerate(tree):
        if v.__class__ is not int or not v:
            continue
        held = {x for x in cells if tree_leaf(tree, x) == leaf}
        assert held and all(x ^ v in held for x in held)
        for w in (1 << i for i in range(t.n_edges)):
            if any(x ^ w not in held for x in held):
                up = tree_pairs(tree[:leaf] + [w] + tree[leaf + 1:], cells)
                with pytest.raises(AssertionError):
                    assert_acyclic_morse_matching(cells, critical, up, betti, "matching")
                mutants += 1
    assert mutants > 100


def test_independence_complex_takes_its_dimension_from_its_counts():
    # the path 0 - 1 - 2: its faces are the vertices and the two ends
    c = IndependenceComplex([0b010, 0b101, 0b010], (3, 1))
    assert (c.dimension, c.face_counts(), c.euler_characteristic()) == (1, (3, 1), 2)
    assert homology(c).ranks() == {0: 1}
    empty = IndependenceComplex([], ())
    assert empty.dimension == -1 and homology(empty).betti == ()


def independent_sets(conflicts):
    """Vertex masks of the independent sets, by brute force."""
    n = len(conflicts)
    return {m for m in range(1 << n) if not any(m >> i & 1 and conflicts[i] & m for i in range(n))}


def maximal_independent_sets(conflicts):
    """Vertex masks of the maximal independent sets, by brute force."""
    n = len(conflicts)
    independent = independent_sets(conflicts)
    return [m for m in independent
            if not any(m | 1 << i in independent for i in range(n) if not m >> i & 1)]


@st.composite
def graphs(draw, max_vertices=10):
    """Neighbour masks of a graph on at most max_vertices vertices."""
    n = draw(st.integers(1, max_vertices))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    conflicts = [0] * n
    for i, j in edges:
        conflicts[i] |= 1 << j
        conflicts[j] |= 1 << i
    return conflicts


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(conflicts=graphs(), gap=st.integers(1, 5))
def test_matching_tree_agrees_with_the_closure_on_random_graphs(conflicts, gap):
    # vertex i is named gap * i, so bit i stands for the i-th smallest name
    facets = [tuple(gap * i for i in range(len(conflicts)) if m >> i & 1)
              for m in maximal_independent_sets(conflicts)]
    sizes = [m.bit_count() for m in independent_sets(conflicts)]
    counts = tuple(sizes.count(k) for k in range(1, max(sizes) + 1))
    c, plain = IndependenceComplex(conflicts, counts), SimplicialComplex(facets)
    assert (c.dimension, c.face_counts()) == (plain.dimension, plain.face_counts())
    assert homology(c) == homology(plain) == oracle_homology(plain)


def subdivided_projective_plane():
    """The barycentric subdivision of RP2, a flag complex: the independence
    complex of the graph joining two faces when neither holds the other, and
    the same complex by its facets."""
    faces = sorted({g for f in RP2 for k in (1, 2, 3) for g in combinations(f, k)})
    index = {g: i for i, g in enumerate(faces)}
    conflicts = [sum(1 << j for j, h in enumerate(faces)
                     if not (set(g) <= set(h) or set(h) <= set(g))) for g in faces]
    # one maximal chain vertex < edge < triangle per ordered pair in a triangle
    facets = [(index[(a,)], index[tuple(sorted((a, b)))], index[f])
              for f in RP2 for a in f for b in f if a != b]
    # its faces are the chains of faces of RP2, counted by length
    chains = [[(g,) for g in faces]]
    for _ in range(2):
        chains.append([ch + (h,) for ch in chains[-1] for h in faces if set(ch[-1]) < set(h)])
    return IndependenceComplex(conflicts, tuple(map(len, chains))), SimplicialComplex(facets)


def test_matching_tree_finds_the_two_torsion_of_a_subdivided_projective_plane():
    c, plain = subdivided_projective_plane()
    assert c.dimension == plain.dimension == 2
    assert c.face_counts() == plain.face_counts() == (31, 90, 60)
    got = homology(c)
    assert got == homology(plain) == oracle_homology(plain)
    assert got.ranks() == {}
    assert got.torsion_by_degree() == {1: (2,)}


def test_cycle_free_check_sees_a_closed_gradient_path():
    # vertices 0..3 of a square, each paired with the edge to the next one
    up = {0b0001: 0b0011, 0b0010: 0b0110, 0b0100: 0b1100, 0b1000: 0b1001}
    assert not gradient_cycle_free(set(), up)
    assert gradient_cycle_free(set(), {0b0001: 0b0011, 0b0010: 0b0110})


@pytest.mark.parametrize(
    "facets",
    [
        [(3, 4, 5)],
        [(1000, 1001)],
        [(1000, 1001), (3, 1001), (3, 7)],
        [(-5, -2), (-2, 0), (0, -5), (0, 9)],
        [],
        [()],
        [(4,)],
        [(0,), (1,)],
        [(-1,), (10**6,)],
        [tuple((40, -3, 17, 5, 2, 900)[v] for v in f) for f in RP2],
    ],
    ids=["sparse", "far", "mixed", "negative", "empty", "empty-facet", "vertex",
         "two-points", "two-far-points", "permuted-rp2"],
)
def test_homology_agrees_with_the_oracle_on_any_vertex_ids(facets):
    c = SimplicialComplex(facets)
    assert homology(c) == oracle_homology(c)
    # the faces are every vertex subset of a given facet, counted apart
    top = max(map(len, facets), default=0)
    expected = [{g for f in facets for g in combinations(sorted(f), k)} for k in range(1, top + 1)]
    assert c.face_counts() == tuple(map(len, expected))
    assert decoded_faces(c) == [set(bucket) for bucket in oracle_faces(c)] == expected


# ---------------------------------------------------------------------------
# Invariant checks raise, also under python -O
# ---------------------------------------------------------------------------

def test_negative_betti_number_raises(monkeypatch):
    # an invented rank larger than the critical cells allow
    monkeypatch.setattr(complexes, "_dense_smith", lambda rows: [2, 2, 2])
    with pytest.raises(InvariantViolation):
        homology(SimplicialComplex(RP2))


# a square 0-1-2-3 with a tail 0-4: the empty face goes with vertex 4, each
# corner with the edge to the next one round the square, which closes a
# gradient cycle under the critical tail edge 04
CYCLIC = ({0b10001}, {0: 0b10000, 0b0001: 0b0011, 0b0010: 0b0110,
                      0b0100: 0b1100, 0b1000: 0b1001})


def test_cyclic_matching_raises(monkeypatch):
    monkeypatch.setattr(complexes, "_element_matching", lambda order, cells: CYCLIC)
    with pytest.raises(InvariantViolation, match="cycle"):
        homology(SimplicialComplex([(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)]))


def test_cyclic_tree_style_partner_raises():
    # the same pairs read as a matching tree gives them, 0 for any cell that
    # is not a lower one, under the budget the tree path passes
    critical, up = CYCLIC
    partner = lambda x: up.get(x, 0)
    with pytest.raises(InvariantViolation, match="cycle"):
        complexes._morse_boundary(sorted(critical), critical, partner, complexes.DEFAULT_MAX_FACES)


@pytest.mark.parametrize("fault", ["repeated", "oversized"])
def test_pure_morse_from_trees_raises_on_bad_tree_triples(monkeypatch, fault):
    real = complexes.kpw
    if fault == "repeated":  # every root pair of a tree gives one simplex
        faulty = lambda t, tree, v_b, v_w: real(t, tree, t.black_faces[0], t.white_faces[0])
    else:
        faulty = lambda t, tree, v_b, v_w: Matching(real(t, tree, v_b, v_w).edges + (99,))
    monkeypatch.setattr(complexes, "kpw", faulty)
    with pytest.raises(InvariantViolation):
        pure_morse_from_trees(get_entry("3_1").diagram)


# Every test above that checks an InvariantViolation raise, and those in
# test_counting.py, test_states.py, test_corpus.py, test_diagram.py and
# test_moves.py; under -O a bare assert would vanish and these would fail.
# test_char_poly_fault_raises and test_forest_determinant_disagreement_raises
# are left out: they check test code (a helper and the polynomial oracle).
INVARIANT_TESTS = (
    "test_complexes.py::test_negative_betti_number_raises",
    "test_complexes.py::test_cyclic_matching_raises",
    "test_complexes.py::test_cyclic_tree_style_partner_raises",
    "test_complexes.py::test_pure_morse_from_trees_raises_on_bad_tree_triples",
    "test_counting.py::test_tree_count_disagreement_raises",
    "test_counting.py::test_closed_forms_disagreement_raises",
    "test_states.py::test_induced_forests_component_without_a_root_raises",
    "test_corpus.py::test_twist_vector_determinant_mismatch_raises",
    "test_corpus.py::test_repeated_crossings_and_determinant_raises",
    "test_corpus.py::test_entry_checks_raise",
    "test_diagram.py::test_colour_graph_edge_off_its_colour_raises",
    "test_diagram.py::test_tait_square_with_mismatched_arc_ends_raises",
    "test_moves.py::test_clock_move_strand_count_fault_raises",
    "test_moves.py::test_click_path_needs_one_unmatched_region_per_colour",
    "test_moves.py::test_two_click_connect_faults_raise",
    "test_moves.py::test_two_moves_with_the_same_ends_raise",
)


def test_invariant_checks_survive_python_O():
    # as many pass under -O as the same ids collect without it
    tests = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(tests.parent / "src"), env.get("PYTHONPATH")])
    )

    def pytest_summary(*flags):
        proc = subprocess.run(
            [sys.executable, *flags, "-q", "-p", "no:cacheprovider",
             *(str(tests / t) for t in INVARIANT_TESTS)],
            capture_output=True, text=True, env=env, cwd=tests.parent,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        # the last line, e.g. "24 passed, 1 warning in 2.31s": {"passed": 24, "warning": 1}
        return {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", proc.stdout.splitlines()[-1])}

    collected = pytest_summary("-m", "pytest", "--collect-only")
    assert collected.keys() <= {"test", "tests"} and sum(collected.values()) >= len(INVARIANT_TESTS)
    passed = pytest_summary("-O", "-m", "pytest")
    assert passed.keys() <= {"passed", "warning", "warnings"}, passed
    assert passed["passed"] == sum(collected.values()), (passed, collected)


# ---------------------------------------------------------------------------
# Complexes of a diagram: structure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", SMALL)
def test_matching_complex_faces_are_exactly_the_nonempty_matchings(name):
    t = build_tait(get_entry(name).diagram)
    c = matching_complex(t)
    everything = {x.edges for x in enumerate_matchings(t, "all")} - {()}
    got = {f for bucket in oracle_faces(maximal_matchings(t)) for f in bucket}
    assert got == everything
    # a set of edges is a matching iff each pair of it is one, so the
    # conflict graph's independent sets are the matchings iff two edges
    # conflict exactly when they form no matching
    pairs = {f for f in everything if len(f) == 2}
    assert all(bool(c.conflicts[e] >> f & 1) == (e != f and tuple(sorted((e, f))) not in pairs)
               for e in range(t.n_edges) for f in range(t.n_edges))
    sizes = [len(f) for f in everything]
    assert c.face_counts() == tuple(sizes.count(k) for k in range(1, max(sizes) + 1))


def test_trefoil_matching_complex_dimension_is_two():
    t = build_tait(get_entry("3_1").diagram)
    assert matching_complex(t).dimension == 2


@pytest.mark.parametrize("name", SMALL)
def test_morse_facets_are_loop_free_maximal_matchings(name):
    t = build_tait(get_entry(name).diagram)
    matching_facets = set(maximal_matchings(t).facets)
    for f in morse_complex(t).facets:
        assert f in matching_facets
        assert not monochromatic_loops(t, Matching(f))


@pytest.mark.parametrize("name", SMALL)
def test_morse_faces_are_loop_free_matchings(name):
    t = build_tait(get_entry(name).diagram)
    acyclic = {x.edges for x in enumerate_matchings(t, "dmf")} - {()}
    got = {f for bucket in oracle_faces(morse_complex(t)) for f in bucket}
    assert got <= acyclic


@pytest.mark.parametrize("name", ("3_1", "4_1", "kink"))
def test_small_morse_complexes_carry_every_loop_free_matching(name):
    # with no non-extendable matchings around, the closure of the perfect
    # facets reaches every loop-free matching
    t = build_tait(get_entry(name).diagram)
    acyclic = {x.edges for x in enumerate_matchings(t, "dmf")} - {()}
    got = {f for bucket in oracle_faces(morse_complex(t)) for f in bucket}
    assert got == acyclic


def test_five_one_excludes_loop_free_matchings_with_no_loop_free_completion():
    # 5_1 has loop-free matchings whose every maximal completion supports a
    # loop; they are deliberately not faces
    t = build_tait(get_entry("5_1").diagram)
    acyclic = {x.edges for x in enumerate_matchings(t, "dmf")} - {()}
    got = {f for bucket in oracle_faces(morse_complex(t)) for f in bucket}
    assert got < acyclic


@pytest.mark.parametrize("name", SMALL)
def test_pure_parts_are_generated_by_perfect_matchings(name):
    t = build_tait(get_entry(name).diagram)
    n = t.n_crossings
    for c in (maximal_matchings(t), morse_complex(t)):
        p = pure_part(c)
        assert all(len(f) == n for f in p.facets)
    assert set(pure_part(morse_complex(t)).facets) == {
        x.edges for x in enumerate_matchings(t, "perfect_dmf")
    }


@pytest.mark.parametrize("name", corpus_names())
def test_pure_matching_complex_is_the_pure_part_of_the_maximal_matchings(name):
    t = build_tait(get_entry(name).diagram)
    assert pure_matching_complex(t) == pure_part(maximal_matchings(t))


def test_trefoil_pure_morse_has_eighteen_triangles():
    t = build_tait(get_entry("3_1").diagram)
    p = pure_part(morse_complex(t))
    assert len(p.facets) == 18
    assert p.dimension == 2


def test_figure_eight_pure_morse_has_fortyfive_tetrahedra():
    p = pure_morse_from_trees(get_entry("4_1").diagram)
    assert len(p.facets) == 45
    assert p.dimension == 3


@pytest.mark.parametrize("name", SIX_OR_LESS + ("7_1", "7_2"))
def test_tree_triples_generate_the_pure_morse_complex(name):
    d = get_entry(name).diagram
    t = build_tait(d)
    from_trees = pure_morse_from_trees(d)
    assert set(from_trees.facets) == set(pure_part(morse_complex(t)).facets)
    black, white = colour_graphs(d)
    expected = (
        count_spanning_trees(black) * len(t.black_faces) * len(t.white_faces)
    )
    assert len(from_trees.facets) == expected


@pytest.mark.parametrize("name", ("3_1", "4_1", "5_2"))
def test_rooted_tree_pairs_name_each_top_simplex_once_per_colour(name):
    # the white forest, its root, and the black root identify the same
    # simplex that the black data generated, and exactly once
    t = build_tait(get_entry(name).diagram)
    seen = {}
    for x in enumerate_matchings(t, "perfect_dmf"):
        blacks, _, whites = critical_cells(t, x)
        pair = induced_forests(t, x)
        key = (pair.white_edges, whites[0], blacks[0])
        assert key not in seen
        seen[key] = x.edges
    assert len(seen) == len({v for v in seen.values()})


@pytest.mark.parametrize("name", ("4_1", "5_2"))
def test_clock_adjacent_top_facets_share_all_but_two_vertices(name):
    t = build_tait(get_entry(name).diagram)
    n = t.n_crossings
    for x in enumerate_matchings(t, "perfect_dmf"):
        for move, y in clock_moves(t, x):
            if is_dmf(t, y):
                assert len(set(x.edges) & set(y.edges)) == n - 2


@pytest.mark.parametrize("name", ("4_1", "5_2"))
def test_one_step_click_paths_share_all_but_one_vertex(name):
    t = build_tait(get_entry(name).diagram)
    n = t.n_crossings
    hits = 0
    for x in enumerate_matchings(t, "perfect_dmf"):
        for move, y in click_path_moves(t, x):
            if len(move.site[1]) == 2 and is_dmf(t, y):
                hits += 1
                assert len(set(x.edges) & set(y.edges)) == n - 1
    assert hits > 0


def test_marked_kauffman_states_span_a_circle_on_the_figure_eight():
    t = build_tait(get_entry("4_1").diagram)
    for arc in range(2 * t.n_crossings):
        v_b, v_w = marked_arc_roots(t, arc)
        states = kauffman_states(t, v_b, v_w)
        assert len(states) == 5
        h = homology(SimplicialComplex([s.edges for s in states]))
        assert h.ranks() == {1: 1}


# ---------------------------------------------------------------------------
# Homology of the diagram complexes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ("3_1", "4_1", "5_1", "5_2"))
def test_reference_homology_small_diagrams(name):
    row = computed_row(get_entry(name).diagram)
    for column, result in row.items():
        assert result.ranks() == REFERENCE_HOMOLOGY[name][column], column
        assert result.is_torsion_free(), column


@pytest.mark.parametrize("name", ("6_1", "6_2", "6_3"))
def test_reference_homology_six_crossings(name):
    row = computed_row(get_entry(name).diagram)
    for column, result in row.items():
        assert result.ranks() == REFERENCE_HOMOLOGY[name][column], column
        assert result.is_torsion_free(), column


@pytest.mark.parametrize("name", ("7_1", "7_2", "7_3", "7_4", "7_5", "7_6", "7_7"))
def test_reference_homology_seven_crossings(name):
    row = computed_row(get_entry(name).diagram)
    for column, result in row.items():
        assert result.ranks() == REFERENCE_HOMOLOGY[name][column], column
        assert result.is_torsion_free(), column


def test_computed_row_runs_the_skip_search_only_for_the_morse_column(monkeypatch):
    real = complexes._maximal_stream
    calls = []
    monkeypatch.setattr(complexes, "_maximal_stream", lambda t, **kw: calls.append(kw) or real(t, **kw))
    row = computed_row(get_entry("5_2").diagram)
    assert {column: h.ranks() for column, h in row.items()} == REFERENCE_HOMOLOGY["5_2"]
    # the pure matching column reads the perfect stream, the matching column none
    assert sorted(calls, key=len) == [{}, {"skip": True, "acyclic": True}]


def test_five_two_pure_morse_euler_count_forces_the_degree_two_class():
    # the 84 top facets close up to reduced Euler characteristic -5, which
    # rules out a table of ranks supported in degree 3 alone
    t = build_tait(get_entry("5_2").diagram)
    p = pure_part(morse_complex(t))
    assert len(p.facets) == 84
    assert p.euler_characteristic() == -4
    assert homology(p).ranks() == {2: 1, 3: 6}


@pytest.mark.parametrize("name", SMALL)
def test_euler_characteristic_matches_alternating_betti_sum(name):
    for column, c in reference_complexes(get_entry(name).diagram).items():
        h = homology(c)
        chi = sum((-1) ** k * b for k, b in enumerate(h.betti))
        assert chi == c.euler_characteristic() - 1, column


# ---------------------------------------------------------------------------
# Connectivity bounds
# ---------------------------------------------------------------------------

def test_trefoil_connectivity_bound_is_zero():
    assert connectivity_bound(get_entry("3_1").diagram) == 0


def test_figure_eight_is_simply_connected_by_the_bound():
    d = get_entry("4_1").diagram
    assert connectivity_bound(d) == 1
    report = connectivity_report(d)
    assert report["connected_guaranteed"]
    assert report["simply_connected_guaranteed"]
    assert report["max_face_degree"] == 3
    assert report["crossings"] == 4


@pytest.mark.parametrize("name", corpus_names())
def test_connectivity_report_guarantees_are_the_face_degree_inequalities(name):
    d = get_entry(name).diagram
    n, f = d.n_crossings, max(face.degree for face in d.faces)
    report = connectivity_report(d)
    assert (report["crossings"], report["max_face_degree"]) == (n, f)
    assert report["connected_guaranteed"] == (4 * n >= 2 * f + 1)
    assert report["simply_connected_guaranteed"] == (4 * n >= 4 * f + 1)


@pytest.mark.parametrize("name", corpus_names())
def test_betti_numbers_vanish_through_the_guaranteed_range(name):
    d = get_entry(name).diagram
    bound = connectivity_bound(d)
    t = build_tait(d)
    for c in (matching_complex(t), morse_complex(t)):
        h = homology(c)
        for k in range(bound + 1):
            assert (k >= len(h.betti)) or h.betti[k] == 0
            assert (k >= len(h.torsion)) or h.torsion[k] == ()


# ---------------------------------------------------------------------------
# Resource cap
# ---------------------------------------------------------------------------

def test_face_cap_raises_resource_limit(monkeypatch):
    monkeypatch.setenv("KNOTMORSE_MAX_FACES", "10")
    c = SimplicialComplex([(0, 1, 2, 3, 4)])
    with pytest.raises(ResourceLimit):
        c.faces()


def test_face_cap_ignores_malformed_values(monkeypatch):
    monkeypatch.setenv("KNOTMORSE_MAX_FACES", "lots")
    c = SimplicialComplex([(0, 1, 2)])
    assert c.face_counts() == (3, 3, 1)
    monkeypatch.setenv("KNOTMORSE_MAX_FACES", "-3")
    assert SimplicialComplex([(0, 1, 2)]).face_counts() == (3, 3, 1)


def test_homology_reports_the_cap_through_resource_limit(monkeypatch):
    monkeypatch.setenv("KNOTMORSE_MAX_FACES", "5")
    t = build_tait(get_entry("3_1").diagram)
    with pytest.raises(ResourceLimit) as raised:
        homology(matching_complex(t))
    assert raised.value.stage == "matching tree"
    with pytest.raises(ResourceLimit) as raised:
        homology(morse_complex(t))
    assert raised.value.stage == "face closure"


def test_matching_tree_lists_no_face_of_the_torus_knot_t_2_11(monkeypatch):
    # the matching complex of T(2,11) has 1,270,744 faces, past this cap;
    # the tree and the count of matchings by size never list them
    # and at 50,000 the tree's 839 nodes and at most 14,134 flows live at once
    c = matching_complex(build_tait(build_diagram(parse_pd(torus_pd(11)))))
    for cap in ("1000000", "50000"):
        monkeypatch.setenv("KNOTMORSE_MAX_FACES", cap)
        h = homology(c)
        assert h.ranks() == {7: 65} and h.is_torsion_free()
        assert h.face_counts == (44, 759, 6864, 36740, 123200, 264187, 359788, 300443,
                                 142780, 33275, 2664)
        assert sum(h.face_counts) == 1_270_744


def test_matching_tree_counts_its_live_flows_against_the_cap(monkeypatch):
    # 5,000 holds the 839 nodes of the tree of T(2,11), but not its flows
    monkeypatch.setenv("KNOTMORSE_MAX_FACES", "5000")
    c = matching_complex(build_tait(build_diagram(parse_pd(torus_pd(11)))))
    assert len(complexes._matching_tree(c.conflicts)[1]) == 839
    with pytest.raises(ResourceLimit) as raised:
        homology(c)
    assert (raised.value.stage, raised.value.size) == ("matching tree", 5001)
    assert str(raised.value) == "complex exceeds the face cap of 5000 (set KNOTMORSE_MAX_FACES)"


# ---------------------------------------------------------------------------
# Spanning tree enumeration
# ---------------------------------------------------------------------------

def reaches_every_vertex(g, edges):
    """Whether a search from the first vertex over the edges meets them all."""
    adjacent = {v: [] for v in g.vertices}
    for e in edges:
        a, b = g.edge_ends[e]
        adjacent[a].append(b)
        adjacent[b].append(a)
    seen, stack = {g.vertices[0]}, [g.vertices[0]]
    while stack:
        for w in adjacent[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == set(g.vertices)


@pytest.mark.parametrize(
    "d",
    [get_entry(name).diagram for name in corpus_names()]
    + [build_diagram(parse_pd(torus_pd(9))), build_diagram(parse_pd(rational_pd([2, 2, 2, 2])))],
    ids=[*corpus_names(), "T(2,9)", "R(2,2,2,2)"],
)
def test_spanning_tree_enumeration_matches_the_determinant_count(d):
    for g in colour_graphs(d):
        trees = spanning_trees(g)
        assert list(trees) == sorted(set(trees))  # distinct, in lexicographic order
        assert len(trees) == count_spanning_trees(g)
        for tree in trees:
            # |V| - 1 distinct edges, sorted, that reach every vertex: a tree
            assert list(tree) == sorted(set(tree)) and set(tree) <= set(range(g.n_edges))
            assert len(tree) == g.n_vertices - 1
            assert reaches_every_vertex(g, tree)
