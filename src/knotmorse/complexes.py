"""Matching and Morse complexes with exact integer homology.

The matching complex of the overlay has the Tait edges as vertices and the
matchings as simplices, so its facets are the maximal matchings; the Morse
complex keeps the loop-free facets among them, and both have pure parts
generated by the top-dimensional facets.  The pure Morse facets are exactly
the images of the tree-pair construction, one top simplex per (spanning
tree, black root, white root) triple.

Homology is computed over the integers by coreduction (Mrozek and Batko), a
discrete Morse reduction of the augmented chain complex: cells joined by a
unit incidence are removed in pairs, and only the boundaries between the
critical cells that survive go through a dense Smith normal form, so torsion
is exact.  Face enumeration respects the KNOTMORSE_MAX_FACES cap and raises
ResourceLimit before allocating past it.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from itertools import combinations
from math import gcd
from typing import Iterable

from .counting import spanning_trees
from .diagram import Diagram, TaitGraph, build_tait, colour_graphs
from .errors import InvariantViolation, ResourceLimit
from .states import _maximal_stream, kpw

__all__ = [
    "SimplicialComplex",
    "HomologyResult",
    "matching_complex",
    "morse_complex",
    "pure_part",
    "pure_morse_from_trees",
    "homology",
    "connectivity_bound",
    "connectivity_report",
    "DEFAULT_MAX_FACES",
]

DEFAULT_MAX_FACES = 2_000_000


def _max_faces() -> int:
    raw = os.environ.get("KNOTMORSE_MAX_FACES", "")
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_MAX_FACES
    return value if value > 0 else DEFAULT_MAX_FACES


class SimplicialComplex:
    """Finite abstract simplicial complex given by its facets.

    Facets are canonical sorted vertex-id tuples, pairwise non-contained;
    the full face lists per dimension are materialized lazily and cached.
    """

    __slots__ = ("facets", "_faces")

    def __init__(self, facets: Iterable[Iterable[int]]):
        canonical = sorted({tuple(sorted(f)) for f in facets}, key=lambda f: (len(f), f))
        holding: dict[int, set[int]] = {}
        for i, f in enumerate(canonical):
            for v in f:
                holding.setdefault(v, set()).add(i)
        # a facet is kept when no other one holds all its vertices; the empty
        # facet lies in every other one
        self.facets: tuple[tuple[int, ...], ...] = tuple(
            f
            for f in canonical
            if (len(set.intersection(*(holding[v] for v in f))) == 1 if f else len(canonical) == 1)
        )
        self._faces: tuple[tuple[tuple[int, ...], ...], ...] | None = None

    @property
    def dimension(self) -> int:
        if not self.facets:
            return -1
        return len(self.facets[-1]) - 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SimplicialComplex) and self.facets == other.facets

    def __hash__(self) -> int:
        return hash(self.facets)

    def __repr__(self) -> str:
        return "SimplicialComplex(%d facets, dim %d)" % (len(self.facets), self.dimension)

    def faces(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """All faces grouped by dimension, 0 through dimension, sorted."""
        if self._faces is None:
            cap = _max_faces()
            per_dim: list[set[tuple[int, ...]]] = [set() for _ in range(self.dimension + 1)]
            total = 0
            for facet in self.facets:
                for size in range(1, len(facet) + 1):
                    bucket = per_dim[size - 1]
                    for face in combinations(facet, size):
                        if face not in bucket:
                            total += 1
                            if total > cap:
                                raise ResourceLimit(
                                    "complex exceeds the face cap of %d (set KNOTMORSE_MAX_FACES)"
                                    % cap
                                )
                            bucket.add(face)
            self._faces = tuple(tuple(sorted(bucket)) for bucket in per_dim)
        return self._faces

    def face_counts(self) -> tuple[int, ...]:
        return tuple(len(bucket) for bucket in self.faces())

    def n_faces(self) -> int:
        return sum(self.face_counts())

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * n for k, n in enumerate(self.face_counts()))

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "n_facets": len(self.facets),
            "facets": [list(f) for f in self.facets],
        }


def matching_complex(t: TaitGraph) -> SimplicialComplex:
    """Faces are the matchings; facets the maximal ones, perfect or not,
    taken from one pass of the maximal-matching search."""
    return SimplicialComplex([x.edges for x in _maximal_stream(t, skip=True)])


def morse_complex(t: TaitGraph) -> SimplicialComplex:
    """Subcomplex of the matching complex spanned by its loop-free facets.

    Facets are the maximal matchings that support no monochromatic loop,
    perfect or not, found in one pass of the maximal-matching search that
    prunes every edge closing a loop.  Faces are therefore the loop-free
    matchings that extend to a loop-free maximal one; a loop-free matching
    whose every completion acquires a loop is deliberately not a face.
    """
    return SimplicialComplex([x.edges for x in _maximal_stream(t, skip=True, acyclic=True)])


def pure_part(c: SimplicialComplex) -> SimplicialComplex:
    """The subcomplex generated by the top-dimensional facets."""
    top = c.dimension + 1
    return SimplicialComplex(f for f in c.facets if len(f) == top)


def pure_morse_from_trees(d: Diagram) -> SimplicialComplex:
    """One top simplex per (black spanning tree, black root, white root).

    Every simplex has dimension n - 1 for n crossings; the facet set equals
    the pure part of the Morse complex.
    """
    t = build_tait(d)
    black = colour_graphs(d)[0]
    facets = [
        kpw(t, tree, v_b, v_w).edges
        for tree in spanning_trees(black)
        for v_b in t.black_faces
        for v_w in t.white_faces
    ]
    if len(set(facets)) != len(facets) or any(len(f) != d.n_crossings for f in facets):
        raise InvariantViolation(
            "tree triples must give distinct simplices on all %d crossings" % d.n_crossings
        )
    return SimplicialComplex(facets)


# ---------------------------------------------------------------------------
# Integer homology
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomologyResult:
    """Reduced or unreduced integer homology, one entry per degree."""

    reduced: bool
    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    face_counts: tuple[int, ...]

    def ranks(self) -> dict[int, int]:
        """Nonzero betti numbers as a degree -> rank map."""
        return {k: b for k, b in enumerate(self.betti) if b}

    def torsion_by_degree(self) -> dict[int, tuple[int, ...]]:
        return {k: tor for k, tor in enumerate(self.torsion) if tor}

    def is_torsion_free(self) -> bool:
        return not any(self.torsion)

    def to_dict(self) -> dict:
        return {
            "reduced": self.reduced,
            "betti": {str(k): b for k, b in self.ranks().items()},
            "torsion": {str(k): list(v) for k, v in self.torsion_by_degree().items()},
            "face_counts": list(self.face_counts),
        }


def _dense_smith(rows: list[list[int]]) -> list[int]:
    """Invariant factors (positive, divisibility-chained) of a dense matrix."""
    m = [row[:] for row in rows]
    n_r = len(m)
    n_c = len(m[0]) if m else 0
    invs: list[int] = []
    t = 0
    while t < n_r and t < n_c:
        pi = pj = -1
        best = 0
        for i in range(t, n_r):
            for j in range(t, n_c):
                v = abs(m[i][j])
                if v and (best == 0 or v < best):
                    best, pi, pj = v, i, j
        if best == 0:
            break
        m[t], m[pi] = m[pi], m[t]
        for row in m:
            row[t], row[pj] = row[pj], row[t]
        while True:
            dirty = False
            for i in range(t + 1, n_r):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    for j in range(t, n_c):
                        m[i][j] -= q * m[t][j]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
                        dirty = True
            for j in range(t + 1, n_c):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    for i in range(t, n_r):
                        m[i][j] -= q * m[i][t]
                    if m[t][j]:
                        for i in range(t, n_r):
                            m[i][t] += m[i][j]
                        dirty = True
            if not dirty:
                break
        pivot = abs(m[t][t])
        stray = None
        for i in range(t + 1, n_r):
            for j in range(t + 1, n_c):
                if m[i][j] % pivot:
                    stray = i
                    break
            if stray is not None:
                break
        if stray is not None:
            for j in range(t, n_c):
                m[t][j] += m[stray][j]
            continue
        invs.append(pivot)
        t += 1
    for i in range(len(invs)):
        for j in range(i + 1, len(invs)):
            a, b = invs[i], invs[j]
            if b % a:
                g = gcd(a, b)
                invs[i], invs[j] = g, a * b // g
    return invs


def _reduce(bd: list, cbd: list) -> set[int]:
    """Remove cell pairs joined by a unit incidence; return the survivors.

    bd[b] maps each face a of cell b to <d b, a>; cbd[a] has the cofaces of a
    as keys (a dict is smaller than a set).  Both are updated in place.
    Removing a pair with <d b, a> = u = +-1 and setting d c -= <d c, a> u d b
    for the other cofaces c of a is a chain homotopy equivalence over the
    integers.  A FIFO queue finds the pairs that need no fill first:
    coreductions (b has no other face) and collapses (a has no other coface).
    Then the unit pivot of least Markowitz cost is used.
    """
    live = set(range(len(bd)))
    queue = deque(live)

    def remove(a: int, b: int) -> None:
        for z in (a, b):
            for y in bd[z]:
                del cbd[y][z]
                queue.append(y)
            for w in cbd[z]:
                del bd[w][z]
                queue.append(w)
            bd[z] = cbd[z] = None
            live.discard(z)

    while True:
        while queue:
            x = queue.popleft()
            if bd[x] is None:
                continue
            if len(bd[x]) == 1:
                ((a, v),) = bd[x].items()
                if v in (1, -1):
                    remove(a, x)
                    continue
            if len(cbd[x]) == 1:
                (b,) = cbd[x]
                if bd[b][x] in (1, -1):
                    remove(x, b)
        units = [
            ((len(bd[b]) - 1) * (len(cbd[a]) - 1), a, b)
            for b in live for a, v in bd[b].items() if v in (1, -1)
        ]
        if not units:
            return live
        _, a, b = min(units)
        for c in [c for c in cbd[a] if c != b]:
            col = bd[c]
            f = col[a] * bd[b][a]
            for x, v in bd[b].items():
                new = col.get(x, 0) - f * v
                if new:
                    col[x] = new
                    cbd[x][c] = None
                else:
                    del col[x]
                    del cbd[x][c]
            queue.append(c)
        remove(a, b)


def homology(c: SimplicialComplex, reduced: bool = True) -> HomologyResult:
    """Exact integer homology by discrete Morse reduction of the chain complex.

    The cells are the faces and the empty face, so the chain complex is
    augmented and its homology is reduced; unreduced homology adds one free
    class in degree 0.  After _reduce, the boundaries between the surviving
    cells go degree by degree through a dense Smith normal form.
    """
    faces = c.faces()
    if not faces:
        return HomologyResult(reduced=reduced, betti=(), torsion=(), face_counts=())
    cells = [()] + [face for bucket in faces for face in bucket]
    index = {face: i for i, face in enumerate(cells)}
    bd = [
        {index[face[:i] + face[i + 1 :]]: -1 if i & 1 else 1 for i in range(len(face))}
        for face in cells
    ]
    del index
    cbd: list = [{} for _ in cells]
    for b, col in enumerate(bd):
        for a in col:
            cbd[a][b] = None
    dim = len(faces) - 1
    # alive[s], invs[s]: surviving cells with s vertices, their boundary's factors
    alive: list[list[int]] = [[] for _ in range(dim + 2)]
    for x in sorted(_reduce(bd, cbd)):
        alive[len(cells[x])].append(x)
    invs: list[list[int]] = [[] for _ in range(dim + 3)]
    for s in range(1, dim + 2):
        if any(bd[b] for b in alive[s]):
            invs[s] = _dense_smith([[bd[b].get(a, 0) for b in alive[s]] for a in alive[s - 1]])
    if any(1 in factors for factors in invs):
        raise InvariantViolation("a unit invariant factor reached the dense Smith core")
    betti = [len(alive[k + 1]) - len(invs[k + 1]) - len(invs[k + 2]) for k in range(dim + 1)]
    if min(betti) < 0:
        raise InvariantViolation("negative betti number in %s" % betti)
    if not reduced:
        betti[0] += 1
    return HomologyResult(
        reduced=reduced,
        betti=tuple(betti),
        torsion=tuple(tuple(invs[k + 2]) for k in range(dim + 1)),
        face_counts=tuple(len(bucket) for bucket in faces),
    )


# ---------------------------------------------------------------------------
# Connectivity bounds
# ---------------------------------------------------------------------------

def connectivity_bound(d: Diagram) -> int:
    """Guaranteed connectivity degree of the matching complex.

    With n crossings and f the largest number of arcs on a face boundary,
    the complex is at least (floor((4n - 1) / (2f)) - 1)-connected.
    """
    f = max(face.degree for face in d.faces)
    return (4 * d.n_crossings - 1) // (2 * f) - 1


def connectivity_report(d: Diagram) -> dict:
    f = max(face.degree for face in d.faces)
    n = d.n_crossings
    return {
        "crossings": n,
        "max_face_degree": f,
        "bound": connectivity_bound(d),
        "connected_guaranteed": 4 * n >= 2 * f + 1,
        "simply_connected_guaranteed": 4 * n >= 4 * f + 1,
    }
