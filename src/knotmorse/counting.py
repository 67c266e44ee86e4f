"""Exact counting of discrete Morse matchings by determinants and forests.

Perfect acyclic matchings are counted by Kirchhoff's theorem: the black and
white colour graphs have the same spanning-tree count, and rooting one tree
per colour gives

    #perfect dMfs = #trees(G_b) * |V(G_b)| * |V(G_w)|.

All acyclic matchings (partial included) are counted through forest
polynomials.  For a graph with formal edge variables, the sum over spanning
forests F of rho(F) * prod(e in F), where rho(F) multiplies the component
sizes, equals det(I + L_symb) by the weighted matrix-forest theorem; a dMf is
a pair of rooted forests, one per colour, using disjoint crossing sets, so
the total count is the product of the two colour polynomials in the quotient
that kills e_black(i) * e_white(i), with every variable then set to 1.

Everything is integer arithmetic: Bareiss elimination for determinants and
dict-of-frozenset monomial maps for the symbolic route.  No floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

from .diagram import Diagram, PlaneGraph, UnionFind, build_tait, colour_graphs
from .errors import InvariantViolation
from .states import _dmf_sizes

__all__ = [
    "IntegerMatrix",
    "ForestPolynomial",
    "laplacian",
    "count_spanning_trees",
    "spanning_trees",
    "count_perfect_dmfs",
    "forest_polynomial",
    "count_all_dmfs",
    "count_via_enumeration",
    "fibonacci_family_count",
]


# ---------------------------------------------------------------------------
# Exact integer linear algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegerMatrix:
    """A dense square matrix of Python integers."""

    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntegerMatrix":
        rs = tuple(tuple(int(v) for v in row) for row in rows)
        if any(len(r) != len(rs) for r in rs):
            raise ValueError("matrix must be square")
        return cls(rows=rs)

    @property
    def n(self) -> int:
        return len(self.rows)

    def delete(self, i: int) -> "IntegerMatrix":
        """Remove row i and column i."""
        return IntegerMatrix(
            rows=tuple(
                tuple(v for k, v in enumerate(row) if k != i)
                for j, row in enumerate(self.rows)
                if j != i
            )
        )

    def det(self) -> int:
        """Fraction-free Bareiss elimination; the empty matrix has det 1."""
        n = self.n
        if n == 0:
            return 1
        m = [list(r) for r in self.rows]
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


def _nonloop_edges(g: PlaneGraph) -> list[int]:
    return [e for e, (u, v) in enumerate(g.edge_ends) if u != v]


def laplacian(g: PlaneGraph) -> IntegerMatrix:
    """L = D - A over the graph's vertex order; loop edges contribute nothing."""
    idx = g.vertex_index
    n = len(g.vertices)
    m = [[0] * n for _ in range(n)]
    for e in _nonloop_edges(g):
        u, v = (idx[w] for w in g.edge_ends[e])
        m[u][u] += 1
        m[v][v] += 1
        m[u][v] -= 1
        m[v][u] -= 1
    return IntegerMatrix(rows=tuple(tuple(r) for r in m))


def count_spanning_trees(g: PlaneGraph) -> int:
    """Matrix-tree count: any principal minor of the Laplacian."""
    L = laplacian(g)
    if L.n <= 1:
        return 1
    return L.delete(0).det()


def spanning_trees(g: PlaneGraph) -> tuple[tuple[int, ...], ...]:
    """All spanning trees as sorted edge-id tuples, by exhaustive search.

    Exponential in the edge count; meant for the desk-scale colour graphs
    where count_spanning_trees provides the cross-check.
    """
    n = g.n_vertices
    if n <= 1:
        return ((),)
    trees = []
    for sub in combinations(_nonloop_edges(g), n - 1):
        uf = UnionFind(g.vertices)
        if all(uf.union(*g.edge_ends[e]) for e in sub):
            trees.append(sub)
    return tuple(trees)


def count_perfect_dmfs(d: Diagram) -> int:
    """Tree count times the two root choices; the colours must agree."""
    gb, gw = colour_graphs(d)
    tb, tw = count_spanning_trees(gb), count_spanning_trees(gw)
    if tb != tw:
        raise InvariantViolation("plane dual graphs disagree on tree count: %d vs %d" % (tb, tw))
    return tb * len(gb.vertices) * len(gw.vertices)


# ---------------------------------------------------------------------------
# Forest polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ForestPolynomial:
    """Squarefree monomials (frozensets of edge variables) -> coefficients."""

    coeffs: Mapping[frozenset, int]

    def coefficient(self, monomial: Iterable) -> int:
        return self.coeffs.get(frozenset(monomial), 0)

    @property
    def constant(self) -> int:
        return self.coeffs.get(frozenset(), 0)

    def evaluate_ones(self) -> int:
        return sum(self.coeffs.values())

    def variables(self) -> frozenset:
        out: set = set()
        for mono in self.coeffs:
            out |= mono
        return frozenset(out)

    def multiply(
        self,
        other: "ForestPolynomial",
        annihilates: Callable[[frozenset], bool] | None = None,
    ) -> "ForestPolynomial":
        """Product with squarefree reduction; annihilated monomials drop to 0."""
        out: dict[frozenset, int] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                if m1 & m2:
                    continue  # a repeated variable is not squarefree
                m = m1 | m2
                if annihilates is not None and annihilates(m):
                    continue
                out[m] = out.get(m, 0) + c1 * c2
        return ForestPolynomial(coeffs={m: c for m, c in out.items() if c != 0})


def _resolve_variables(g: PlaneGraph, variables) -> list:
    n = len(g.edge_ends)
    if variables is None:
        return list(range(n))
    vs = list(variables)
    if len(vs) != n:
        raise ValueError("need one variable per edge, got %d for %d" % (len(vs), n))
    return vs


def forest_polynomial(g: PlaneGraph, variables=None, debug: bool = False) -> ForestPolynomial:
    """Sum over spanning forests of rho(F) * prod of edge variables.

    rho(F) is the product of component sizes over all vertices, isolated ones
    included, which counts the ways of rooting F.  Loop edges can never lie
    in a forest and are skipped.  With debug=True the result is recomputed as
    det(I + L_symb) and the two must agree.
    """
    varlist = _resolve_variables(g, variables)
    idx = g.vertex_index
    n = len(g.vertices)
    edges = _nonloop_edges(g)

    parent = list(range(n))
    size = [1] * n

    def find(i: int) -> int:
        # No path compression: unions are undone on backtrack.
        while parent[i] != i:
            i = parent[i]
        return i

    coeffs: dict[frozenset, int] = {}
    chosen: list[int] = []

    def rho() -> int:
        out = 1
        for v in range(n):
            if find(v) == v:
                out *= size[v]
        return out

    def rec(start: int) -> None:
        mono = frozenset(varlist[e] for e in chosen)
        coeffs[mono] = coeffs.get(mono, 0) + rho()
        for pos in range(start, len(edges)):
            e = edges[pos]
            u, v = (idx[w] for w in g.edge_ends[e])
            ru, rv = find(u), find(v)
            if ru == rv:
                continue  # closes a cycle
            parent[rv] = ru
            size[ru] += size[rv]
            chosen.append(e)
            rec(pos + 1)
            chosen.pop()
            size[ru] -= size[rv]
            parent[rv] = rv

    rec(0)
    result = ForestPolynomial(coeffs=coeffs)
    if debug:
        other = _forest_polynomial_by_determinant(g, varlist)
        if dict(result.coeffs) != dict(other.coeffs):
            raise InvariantViolation("forest enumeration and symbolic determinant disagree")
    return result


def _forest_polynomial_by_determinant(g: PlaneGraph, varlist: Sequence) -> ForestPolynomial:
    """det(I + L_symb) expanded over the monomial ring, memoized by column set.

    Any monomial with a repeated variable is dropped as soon as it appears;
    the final determinant is squarefree, and dropped monomials cancel in
    matching pairs, so discarding them early is sound.
    """
    idx = g.vertex_index
    n = len(g.vertices)
    entries: list[list[dict[frozenset, int]]] = [
        [dict() for _ in range(n)] for _ in range(n)
    ]
    for i in range(n):
        entries[i][i][frozenset()] = 1
    for e in _nonloop_edges(g):
        u, v = (idx[w] for w in g.edge_ends[e])
        var = frozenset([varlist[e]])
        for i in (u, v):
            entries[i][i][var] = entries[i][i].get(var, 0) + 1
        entries[u][v][var] = entries[u][v].get(var, 0) - 1
        entries[v][u][var] = entries[v][u].get(var, 0) - 1

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def minor(cols: frozenset) -> tuple:
        if not cols:
            return ((frozenset(), 1),)
        r = n - len(cols)
        out: dict[frozenset, int] = {}
        sign = 1
        for j in sorted(cols):
            entry = entries[r][j]
            if entry:
                for sm, sc in minor(cols - {j}):
                    for em, ec in entry.items():
                        if em & sm:
                            continue
                        m = em | sm
                        out[m] = out.get(m, 0) + sign * ec * sc
            sign = -sign
        return tuple(sorted(
            ((m, c) for m, c in out.items() if c != 0),
            key=lambda kv: (len(kv[0]), sorted(map(str, kv[0]))),
        ))

    return ForestPolynomial(coeffs=dict(minor(frozenset(range(n)))))


def count_all_dmfs(d: Diagram, debug: bool = False) -> int:
    """Count every acyclic matching, the empty one included.

    An acyclic matching is a pair of rooted forests on the colour graphs with
    disjoint crossing sets, so the count is the product of the two forest
    polynomials in the quotient killing black(i)*white(i), all variables 1.
    """
    gb, gw = colour_graphs(d)
    pb = forest_polynomial(gb, [("b", e) for e in range(d.n_crossings)], debug=debug)
    pw = forest_polynomial(gw, [("w", e) for e in range(d.n_crossings)], debug=debug)

    def shares_a_crossing(mono: frozenset) -> bool:
        crossings = [i for _, i in mono]
        return len(crossings) != len(set(crossings))

    return pb.multiply(pw, annihilates=shares_a_crossing).evaluate_ones()


def count_via_enumeration(d: Diagram) -> tuple[int, int]:
    """Brute-force (perfect dMfs, all dMfs) in one search over the crossings.

    states._dmf_sizes counts the acyclic matchings by size without building
    them, pruning only by the region-map loop walk; the perfect ones are
    those of size n.
    """
    sizes = _dmf_sizes(build_tait(d))
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
