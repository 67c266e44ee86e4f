"""Exact counting of discrete Morse matchings by determinants.

Perfect acyclic matchings are counted by Kirchhoff's theorem: the black and
white colour graphs have the same spanning-tree count, and rooting one tree
per colour gives

    #perfect dMfs = #trees(G_b) * |V(G_b)| * |V(G_w)|.

All acyclic matchings (partial included) are counted by the matrix-forest
theorem (Chebotarev & Shamis, 1997): det(I + L(H)) is the number of rooted
spanning forests of a graph H, where a forest with components of sizes
s_1, ..., s_k roots in rho = s_1 * ... * s_k ways.  Edge i of either colour
graph is crossing i, and a dMf is a rooted forest in each colour graph, the
two on disjoint crossing sets.  Fixing the black forest F leaves the white
forest free on the other crossings, so

    #dMfs = sum over forests F of G_b of rho(F) * det(I + L(G_w - F)),

where G_w - F keeps every white vertex and drops the edges of F's crossings.
One colour's forests suffice because the determinant counts all the other
colour's rooted forests at once; only one side is enumerated, by the
depth-first forest search that spanning_trees also reads (there it drops
every branch that can no longer grow to a tree).  The roles of the
colours can be exchanged, and count_all_dmfs enumerates the colour graph
with fewer vertices (black on a tie): its forests have fewer edges, so there
are fewer of them, and T(2, m), a cycle against two vertices, then visits
m + 1 forests instead of checking 2^m edge subsets.

Everything is integer arithmetic: det is Bareiss elimination over plain
integer rows.  No floats anywhere.
"""

from __future__ import annotations

from collections import Counter
from math import prod
from typing import Iterable, Iterator

from .diagram import Diagram, PlaneGraph, UnionFind
from .errors import InvariantViolation
from .states import _dmf_sizes

__all__ = [
    "det",
    "laplacian",
    "count_spanning_trees",
    "spanning_trees",
    "count_perfect_dmfs",
    "count_all_dmfs",
    "count_via_enumeration",
    "fibonacci_family_count",
]


# ---------------------------------------------------------------------------
# Exact integer linear algebra
# ---------------------------------------------------------------------------

def det(rows: Iterable[Iterable[int]]) -> int:
    """Fraction-free Bareiss elimination on a copy of the rows; the empty
    matrix has det 1.  ValueError unless the rows are square."""
    m = [list(row) for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def laplacian(g: PlaneGraph, edges: Iterable[int] | None = None) -> list[list[int]]:
    """L = D - A over the graph's vertex order, from the given edge ids (all
    of them by default); loop edges contribute nothing."""
    idx = g.vertex_index
    n = len(g.vertices)
    m = [[0] * n for _ in range(n)]
    ends = g.edge_ends
    for e in range(len(ends)) if edges is None else edges:
        a, b = ends[e]
        if a == b:
            continue
        u, v = idx[a], idx[b]
        m[u][u] += 1
        m[v][v] += 1
        m[u][v] -= 1
        m[v][u] -= 1
    return m


def count_spanning_trees(g: PlaneGraph) -> int:
    """Matrix-tree count: any principal minor of the Laplacian (1 when g
    has at most one vertex, the determinant of the empty matrix)."""
    return det([row[1:] for row in laplacian(g)[1:]])


def _forests(g: PlaneGraph, size: int = 0) -> Iterator[tuple[tuple[int, ...], UnionFind]]:
    """The spanning forests of g as sorted edge-id tuples in lexicographic
    order, each beside the shared union-find of its components (over vertex
    positions, valid until the next is drawn).  Edges join by ascending id, a
    union that closes a cycle or loop prunes, and backtracking restores the
    parent list saved before the union.  A branch whose edges left can no
    longer make up size edges is dropped: size 0 yields every forest, and
    size |V| - 1 every tree with only the forests on the way to one."""
    idx = g.vertex_index
    ends = [(idx[a], idx[b]) for a, b in g.edge_ends]
    uf = UnionFind(g.n_vertices)
    chosen: list[int] = []

    def grow(start: int) -> Iterator[tuple[tuple[int, ...], UnionFind]]:
        yield tuple(chosen), uf
        # edge e leaves len(ends) - e - 1 edges to fill size - len(chosen) - 1
        for e in range(start, min(len(ends), len(ends) + len(chosen) + 1 - size)):
            saved = uf.parent[:]
            if uf.union(*ends[e]):
                chosen.append(e)
                yield from grow(e + 1)
                chosen.pop()
                uf.parent = saved

    return grow(0)


def spanning_trees(g: PlaneGraph) -> tuple[tuple[int, ...], ...]:
    """All spanning trees as sorted edge-id tuples, in lexicographic order:
    the forests with |V| - 1 edges, from a search that walks only the
    forests on the way to one.

    Exponential in the edge count; meant for the desk-scale colour graphs
    where count_spanning_trees provides the cross-check.
    """
    size = max(g.n_vertices - 1, 0)
    return tuple(forest for forest, _ in _forests(g, size) if len(forest) == size)


def count_perfect_dmfs(d: Diagram) -> int:
    """Tree count times the two root choices; the colours must agree."""
    gw, gb = d.plane_graphs
    tb, tw = count_spanning_trees(gb), count_spanning_trees(gw)
    if tb != tw:
        raise InvariantViolation("plane dual graphs disagree on tree count: %d vs %d" % (tb, tw))
    return tb * len(gb.vertices) * len(gw.vertices)


def _forest_sum(g: PlaneGraph, other: PlaneGraph) -> int:
    """Sum of rho(F) * det(I + L(other - F)) over the forests F of g."""
    vertices = range(g.n_vertices)
    total = 0
    for forest, uf in _forests(g):
        rho = prod(Counter(map(uf.find, vertices)).values())
        drop = set(forest)
        rows = laplacian(other, [e for e in range(other.n_edges) if e not in drop])
        for i, row in enumerate(rows):
            row[i] += 1
        total += rho * det(rows)
    return total


def count_all_dmfs(d: Diagram) -> int:
    """Count every acyclic matching, the empty one included.

    The forest sum of the module docstring, over the forests of the colour
    graph with fewer vertices, the black one on a tie (the sort is stable).
    """
    return _forest_sum(*sorted(d.plane_graphs[::-1], key=lambda g: g.n_vertices))


def count_via_enumeration(d: Diagram) -> tuple[int, int]:
    """(perfect dMfs, all dMfs) in one transfer over the crossings.

    states._dmf_sizes counts the acyclic matchings by size without building
    them, reading only the region map and its loop walk; the perfect ones
    are those of size n.
    """
    sizes = _dmf_sizes(d)
    return sizes[d.n_crossings], sum(sizes)


# ---------------------------------------------------------------------------
# The closed formula for the (2, 2n+1) torus family
# ---------------------------------------------------------------------------

def _fibonacci(k: int) -> list[int]:
    """phi(0), ..., phi(k) with phi(1) = phi(2) = 1."""
    phi = [0, 1]
    while len(phi) <= k:
        phi.append(phi[-1] + phi[-2])
    return phi


def fibonacci_family_count(n: int) -> int:
    """Total dMf count for the standard (2, 2n+1) torus diagram, closed form.

    Both printed forms of the formula are computed and must agree.  They
    differ by phi(4n+3) - phi(4n+2) - phi(4n+1), so the check guards the
    recurrence and the arithmetic, not the indexing: a shifted sequence
    passes it, and only the enumeration cross-checks pin phi(1) = phi(2) = 1.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    phi = _fibonacci(4 * n + 3)
    a = phi[4 * n + 1] + phi[4 * n + 3] + (4 * n + 2) * phi[4 * n + 2] - 2
    b = 2 * phi[4 * n + 1] + (4 * n + 3) * phi[4 * n + 2] - 2
    if a != b:
        raise InvariantViolation("the two closed forms disagree: %d vs %d" % (a, b))
    return a
