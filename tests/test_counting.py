"""Determinant counts, the forest-polynomial oracle, and the closed Fibonacci form."""

from fractions import Fraction

import pytest

import forest_polynomial_oracle
from forest_polynomial_oracle import (
    ForestPolynomial,
    count_all_dmfs_by_polynomials,
    forest_polynomial,
)
from knotmorse import BLACK, build_diagram, parse_pd
from knotmorse import counting
from knotmorse.corpus import corpus_names, get_entry, rational_pd, torus_pd
from knotmorse.counting import (
    count_all_dmfs,
    count_perfect_dmfs,
    count_spanning_trees,
    count_via_enumeration,
    det,
    fibonacci_family_count,
    laplacian,
)
from knotmorse.errors import InvariantViolation


def diagram(name):
    return get_entry(name).diagram


def char_poly(m):
    """Coefficients of det(t*I - M), leading first, by exact interpolation.

    The polynomial is monic of degree n; evaluating it with counting.det at
    n+1 integer points and solving with Fractions keeps everything exact (the
    result is checked monic and integral).
    """
    n = len(m)
    if n == 0:
        return (1,)
    xs = list(range(n + 1))
    ys = []
    for t in xs:
        shifted = [[(t if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)]
        ys.append(counting.det(shifted))
    # Newton's divided differences, then expand to monomial coefficients.
    divided = [Fraction(y) for y in ys]
    for level in range(1, n + 1):
        for i in range(n, level - 1, -1):
            divided[i] = (divided[i] - divided[i - 1]) / (xs[i] - xs[i - level])
    coeffs = [Fraction(0)] * (n + 1)  # ascending powers
    basis = [Fraction(0)] * (n + 1)
    basis[0] = Fraction(1)  # product of (t - x_0)...(t - x_{k-1}), degree k
    for k in range(n + 1):
        if k > 0:
            root = xs[k - 1]
            for p in range(k, 0, -1):
                basis[p] = basis[p - 1] - root * basis[p]
            basis[0] = -root * basis[0]
        for p in range(k + 1):
            coeffs[p] += divided[k] * basis[p]
    if any(f.denominator != 1 for f in coeffs) or coeffs[n] != 1:
        raise InvariantViolation(
            "characteristic polynomial must be monic and integral, got %s" % coeffs[::-1]
        )
    return tuple(int(f) for f in reversed(coeffs))


# -- integer matrices ------------------------------------------------------

def test_matrix_must_be_square():
    with pytest.raises(ValueError, match="matrix must be square"):
        det([[1, 2]])
    with pytest.raises(ValueError, match="matrix must be square"):
        det([[1, 2], [3]])


def test_bareiss_determinants():
    assert det([]) == 1
    assert det([[7]]) == 7
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[0, 1], [1, 0]]) == -1  # needs a swap
    assert det([[1, 2], [2, 4]]) == 0
    assert det(((1, 2), (3, 4))) == -2  # any rows of integers
    big = [[10**12, 1, 0], [1, 10**12, 1], [0, 1, 10**12]]
    x = 10**12
    assert det(big) == x**3 - 2 * x  # exact, no overflow


def test_det_leaves_its_input_alone():
    rows = [[0, 1, 2], [3, 4, 5], [6, 7, 9]]
    copy = [list(row) for row in rows]
    assert det(rows) == -3
    assert rows == copy


def test_trefoil_laplacians():
    gw, gb = diagram("3_1").plane_graphs
    assert laplacian(gb) == [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    assert laplacian(gw) == [[3, -3], [-3, 3]]


def test_laplacian_ignores_loops():
    gw, gb = diagram("kink").plane_graphs
    assert laplacian(gb) == [[0]]
    assert laplacian(gw) == [[1, -1], [-1, 1]]


def test_laplacian_of_an_edge_subset():
    gw, gb = diagram("3_1").plane_graphs
    assert laplacian(gb, iter([0])) == [[1, -1, 0], [-1, 1, 0], [0, 0, 0]]
    assert laplacian(gb, []) == [[0, 0, 0]] * 3
    assert laplacian(gw, [1, 2]) == [[2, -2], [-2, 2]]
    assert laplacian(gb, range(gb.n_edges)) == laplacian(gb)
    gw, _ = diagram("kink").plane_graphs
    assert laplacian(gw, [0]) == [[1, -1], [-1, 1]]


def test_laplacian_shape_invariants():
    for name in ("3_1", "4_1", "6_2", "7_4"):
        for g in diagram(name).plane_graphs:
            L = laplacian(g)
            assert all(sum(row) == 0 for row in L)
            assert L == [list(column) for column in zip(*L)]  # symmetric


def test_char_poly_frozen():
    gw, gb = diagram("3_1").plane_graphs
    assert char_poly(laplacian(gb)) == (1, -6, 9, 0)  # t(t-3)^2
    assert char_poly(laplacian(gw)) == (1, -6, 0)  # t(t-6)
    assert char_poly([]) == (1,)


# -- spanning trees and perfect counts -------------------------------------

def test_tree_counts_frozen():
    gw, gb = diagram("3_1").plane_graphs
    assert count_spanning_trees(gb) == 3
    assert count_spanning_trees(gw) == 3
    gw, gb = diagram("4_1").plane_graphs
    assert count_spanning_trees(gb) == 5
    assert count_spanning_trees(gw) == 5


def test_single_vertex_with_loop_has_one_tree():
    _, gb = diagram("kink").plane_graphs
    assert len(gb.vertices) == 1
    assert count_spanning_trees(gb) == 1


def test_spanning_trees_of_a_cycle_visit_few_forests(monkeypatch):
    # the black graph of T(2, 13) is a 13-cycle, whose 13 trees each drop one
    # edge; every forest but the empty one comes from one successful union
    visited = [1]

    class CountingUnionFind(counting.UnionFind):
        def union(self, a, b):
            joined = super().union(a, b)
            visited[0] += joined
            return joined

    monkeypatch.setattr(counting, "UnionFind", CountingUnionFind)
    black = build_diagram(parse_pd(torus_pd(13))).plane_graphs[BLACK]
    assert (black.n_vertices, black.n_edges) == (13, 13)
    assert counting.spanning_trees(black) == tuple(
        tuple(e for e in range(13) if e != dropped) for dropped in reversed(range(13)))
    # the empty forest and those with at most one edge skipped before their
    # last, 1 + 2 + ... + 13, against all 2^13 - 1 forests of the cycle
    assert visited[0] <= 1 + 13 * 14 // 2
    # the matrix-forest sum still walks every forest
    assert sum(1 for _ in counting._forests(black)) == 2 ** 13 - 1


def test_tree_cotree_duality_across_corpus():
    for name in ("3_1", "4_1", "5_1", "5_2", "6_1", "6_2", "6_3", "7_3", "7_7"):
        gw, gb = diagram(name).plane_graphs
        assert count_spanning_trees(gb) == count_spanning_trees(gw)


PERFECT = {"3_1": 18, "4_1": 45, "kink": 2, "5_1": 50, "7_1": 98}


@pytest.mark.parametrize("name,expected", sorted(PERFECT.items()))
def test_perfect_counts_frozen(name, expected):
    assert count_perfect_dmfs(diagram(name)) == expected


def test_perfect_count_matches_enumeration():
    for name in ("3_1", "4_1", "kink", "5_2"):
        d = diagram(name)
        n_perfect, n_all = count_via_enumeration(d)
        assert count_perfect_dmfs(d) == n_perfect
        assert count_all_dmfs(d) == n_all


# -- the forest-polynomial oracle ------------------------------------------

def test_single_edge_polynomial():
    gw, _ = diagram("kink").plane_graphs
    p = forest_polynomial(gw, ["e"], debug=True)
    assert dict(p.coeffs) == {frozenset(): 1, frozenset(["e"]): 2}
    assert p.constant == 1
    assert p.evaluate_ones() == 3


def test_theta_polynomial():
    gw, _ = diagram("3_1").plane_graphs
    p = forest_polynomial(gw, ["e1", "e2", "e3"], debug=True)
    assert dict(p.coeffs) == {
        frozenset(): 1,
        frozenset(["e1"]): 2,
        frozenset(["e2"]): 2,
        frozenset(["e3"]): 2,
    }


def test_triangle_polynomial():
    _, gb = diagram("3_1").plane_graphs
    p = forest_polynomial(gb, debug=True)
    assert p.coefficient([0, 1]) == 3  # a spanning tree roots three ways
    assert p.coefficient([0, 1, 2]) == 0  # the full cycle is no forest
    assert p.evaluate_ones() == 16


def test_default_variables_are_edge_indices():
    _, gb = diagram("3_1").plane_graphs
    assert forest_polynomial(gb).variables() == frozenset({0, 1, 2})


def test_variable_count_is_checked():
    _, gb = diagram("3_1").plane_graphs
    with pytest.raises(ValueError, match="one variable per edge"):
        forest_polynomial(gb, ["a", "b"])


def test_symbolic_route_agrees_across_corpus():
    for name in ("3_1", "4_1", "kink", "5_2", "6_3"):
        for g in diagram(name).plane_graphs:
            forest_polynomial(g, debug=True)  # debug asserts the agreement


def test_char_poly_coefficients_count_weighted_forests():
    # |c_k| of det(tI - L) equals the rooting-weighted number of k-edge
    # spanning forests.
    for name in ("3_1", "4_1", "kink", "5_1", "6_2"):
        for g in diagram(name).plane_graphs:
            L = laplacian(g)
            coeffs = char_poly(L)
            p = forest_polynomial(g)
            by_size = {}
            for mono, c in p.coeffs.items():
                by_size[len(mono)] = by_size.get(len(mono), 0) + c
            for k in range(len(L) + 1):
                assert abs(coeffs[k]) == by_size.get(k, 0)


def test_multiply_drops_shared_variables():
    p = ForestPolynomial(coeffs={frozenset(): 1, frozenset(["a"]): 2})
    q = ForestPolynomial(coeffs={frozenset(): 1, frozenset(["a"]): 5, frozenset(["b"]): 1})
    r = p.multiply(q)
    assert r.coefficient(["a"]) == 7  # a*a dropped as non-squarefree
    assert r.coefficient(["a", "b"]) == 2
    forbidden = lambda m: {"a", "b"} <= m
    assert p.multiply(q, annihilates=forbidden).coefficient(["a", "b"]) == 0


# -- total counts ----------------------------------------------------------

ALL_DMFS = {"3_1": 64, "4_1": 260, "kink": 3, "5_1": 671, "7_1": 6119}


@pytest.mark.parametrize("name,expected", sorted(ALL_DMFS.items()))
def test_all_dmf_counts_frozen(name, expected):
    assert count_all_dmfs(diagram(name)) == expected
    assert count_all_dmfs_by_polynomials(diagram(name), debug=True) == expected


# The sum enumerates the forests of one colour graph and takes determinants
# of the other; count_all_dmfs picks the graph with fewer vertices, so the
# black sum is checked on its own, and the swap puts each colour first.
@pytest.mark.parametrize(
    "name, swap",
    [pytest.param(name, swap, id=name + "-swapped" * swap)
     for name in corpus_names() for swap in (False, True)],
)
def test_all_dmf_formula_equals_the_polynomial_oracle(name, swap):
    d = build_diagram(diagram(name).pd, swap_colours=swap)
    want = count_all_dmfs_by_polynomials(d)
    assert count_all_dmfs(d) == want
    assert counting._forest_sum(*d.plane_graphs[::-1]) == want


# R(2^6) and R(2^7), twelve and fourteen crossings, counted by both formulas
# and by the transfer of count_via_enumeration; too slow for the polynomial
# oracle.
FRONTIER = [
    pytest.param((2,) * 6, (8281, 7001579), id="R(2^6)"),
    pytest.param((2,) * 7, (26112, 84114105), id="R(2^7)"),
]


@pytest.mark.parametrize("twists, expected", FRONTIER)
def test_frontier_counts_frozen(twists, expected):
    d = build_diagram(parse_pd(rational_pd(twists)))
    assert (count_perfect_dmfs(d), count_all_dmfs(d)) == expected
    assert count_via_enumeration(d) == expected


@pytest.mark.parametrize("m", [11, 13, 15])
def test_frontier_torus_counts_agree(m):
    d = build_diagram(parse_pd(torus_pd(m)))
    counts = count_via_enumeration(d)
    assert counts == (count_perfect_dmfs(d), count_all_dmfs(d))
    assert counts[1] == fibonacci_family_count((m - 1) // 2)


def test_all_at_least_perfect():
    for name in ("3_1", "4_1", "5_2", "6_1", "7_6"):
        d = diagram(name)
        assert count_all_dmfs(d) >= count_perfect_dmfs(d)


# -- the torus family ------------------------------------------------------

def test_fibonacci_values():
    assert fibonacci_family_count(1) == 64
    assert fibonacci_family_count(2) == 671
    assert fibonacci_family_count(3) == 6119


def test_fibonacci_matches_generated_diagrams():
    # T(2, 3) to T(2, 15) in both colourings; the black sum enumerates the
    # cycle's forests in one and the two-vertex graph's in the other
    for n in range(1, 8):
        for swap in (False, True):
            d = build_diagram(parse_pd(torus_pd(2 * n + 1)), swap_colours=swap)
            assert count_all_dmfs(d) == fibonacci_family_count(n)
            assert counting._forest_sum(*d.plane_graphs[::-1]) == fibonacci_family_count(n)


def test_tree_count_disagreement_raises(monkeypatch):
    counts = iter([3, 4])
    monkeypatch.setattr(counting, "count_spanning_trees", lambda g: next(counts))
    with pytest.raises(InvariantViolation):
        count_perfect_dmfs(diagram("3_1"))


def test_closed_forms_disagreement_raises(monkeypatch):
    # a sequence off the Fibonacci recurrence splits the two closed forms
    monkeypatch.setattr(counting, "_fibonacci", lambda k: list(range(k + 1)))
    with pytest.raises(InvariantViolation):
        fibonacci_family_count(1)


def test_forest_determinant_disagreement_raises(monkeypatch):
    monkeypatch.setattr(
        forest_polynomial_oracle, "_forest_polynomial_by_determinant",
        lambda g, varlist: ForestPolynomial(coeffs={frozenset(): 1}),
    )
    _, black = diagram("3_1").plane_graphs
    forest_polynomial(black)
    with pytest.raises(InvariantViolation):
        forest_polynomial(black, debug=True)


# faked determinants at t = 0, 1, 2: t(t-1)/2 is not integral, 2t(t-1) not monic
@pytest.mark.parametrize("dets", [(0, 0, 1), (0, 0, 4)])
def test_char_poly_fault_raises(monkeypatch, dets):
    values = iter(dets)
    monkeypatch.setattr(counting, "det", lambda rows: next(values))
    with pytest.raises(InvariantViolation, match="monic and integral"):
        char_poly([[0, 0], [0, 0]])


def test_fibonacci_rejects_nonpositive():
    with pytest.raises(ValueError):
        fibonacci_family_count(0)
