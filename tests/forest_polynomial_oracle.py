"""Forest polynomials and the all-dMf count through them, kept as a test oracle.

This is the package's original all-dMf count.  Each colour graph is expanded
into its forest polynomial, the sum over spanning forests F of rho(F) times
the product of F's edge variables, where rho(F) multiplies the component
sizes; the expansion is a search over forests, cross-checked on request by
det(I + L_symb) expanded over the monomial ring.  A dMf is a pair of rooted
forests, one per colour, on disjoint crossing sets, so the count is the
product of the two colour polynomials in the quotient that kills
e_black(i) * e_white(i), with every variable then set to 1.  The engine under
test instead sums det(I + L) of the white graph over the black forests; the
two share only ``colour_graphs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

from knotmorse.diagram import Diagram, PlaneGraph, colour_graphs
from knotmorse.errors import InvariantViolation


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


def _nonloop_edges(g: PlaneGraph) -> list[int]:
    return [e for e, (u, v) in enumerate(g.edge_ends) if u != v]


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


def count_all_dmfs_by_polynomials(d: Diagram, debug: bool = False) -> int:
    """Every acyclic matching, counted as the product of the two colours'
    forest polynomials in the quotient killing black(i) * white(i), with all
    variables set to 1."""
    gb, gw = colour_graphs(d)
    pb = forest_polynomial(gb, [("b", e) for e in range(d.n_crossings)], debug=debug)
    pw = forest_polynomial(gw, [("w", e) for e in range(d.n_crossings)], debug=debug)

    def shares_a_crossing(mono: frozenset) -> bool:
        crossings = [i for _, i in mono]
        return len(crossings) != len(set(crossings))

    return pb.multiply(pw, annihilates=shares_a_crossing).evaluate_ones()
