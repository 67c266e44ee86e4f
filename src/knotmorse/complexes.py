"""Matching and Morse complexes with exact integer homology.

The matching complex of the overlay has the Tait edges as vertices and the
matchings as simplices, so its facets are the maximal matchings; the Morse
complex keeps the loop-free facets among them, and both have pure parts
generated by the top-dimensional facets.  The pure Morse facets are exactly
the images of the tree-pair construction, one top simplex per (spanning
tree, black root, white root) triple.

Homology is computed over the integers by discrete Morse theory on the
complex itself.  The faces are int masks; an iterated element matching
(Jonsson) pairs all of them and the empty face but a few critical cells, and
the boundary between those follows the gradient paths (Forman).  The
boundaries between critical cells of adjacent sizes go through a dense Smith
normal form, so torsion is exact.  The face closure respects the
KNOTMORSE_MAX_FACES cap and raises ResourceLimit before allocating past it.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

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


class FaceLevel(Sequence):
    """Faces with one number of vertices: int masks, seen as sorted tuples."""

    def __init__(self, vertices: tuple[int, ...], masks: set[int]):
        self.masks, self._vertices, self._tuples = masks, vertices, None

    def __len__(self) -> int:
        return len(self.masks)

    def __getitem__(self, i):
        if self._tuples is None:
            vs = self._vertices
            self._tuples = tuple(sorted(tuple(v for j, v in enumerate(vs) if m >> j & 1)
                                        for m in self.masks))
        return self._tuples[i]

    def __eq__(self, other: object) -> bool:
        return tuple(self) == other

    def __repr__(self) -> str:
        return repr(tuple(self))


class SimplicialComplex:
    """Finite abstract simplicial complex given by its facets.

    Facets are canonical sorted vertex-id tuples, pairwise non-contained;
    the face closure is built from them lazily, as int masks, and cached.
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
        self._faces: tuple[FaceLevel, ...] | None = None

    @property
    def dimension(self) -> int:
        return len(self.facets[-1]) - 1 if self.facets else -1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SimplicialComplex) and self.facets == other.facets

    def __hash__(self) -> int:
        return hash(self.facets)

    def __repr__(self) -> str:
        return "SimplicialComplex(%d facets, dim %d)" % (len(self.facets), self.dimension)

    def faces(self) -> tuple[FaceLevel, ...]:
        """All faces grouped by dimension, 0 through dimension: bit i of a mask
        is the i-th smallest vertex; each level comes from its facets and the
        level above, and the KNOTMORSE_MAX_FACES cap is checked face by face."""
        if self._faces is None:
            vertices = tuple(sorted({v for f in self.facets for v in f}))
            bit = {v: 1 << i for i, v in enumerate(vertices)}
            levels: list[set[int]] = [set() for _ in range(self.dimension + 2)]
            cap = _max_faces()
            over = ResourceLimit("complex exceeds the face cap of %d (set KNOTMORSE_MAX_FACES)"
                                 % cap, stage="face closure", size=cap + 1)
            total = len(self.facets) if self.dimension >= 0 else 0
            if total > cap:
                raise over
            for f in self.facets:
                levels[len(f)].add(sum(bit[v] for v in f))
            for s in range(self.dimension + 1, 1, -1):
                level = levels[s - 1]
                for m in levels[s]:
                    rest = m
                    while rest:
                        b = rest & -rest
                        rest ^= b
                        if m ^ b not in level:
                            total += 1
                            if total > cap:
                                raise over
                            level.add(m ^ b)
            self._faces = tuple(FaceLevel(vertices, level) for level in levels[1:])
        return self._faces

    def face_counts(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.faces())

    def n_faces(self) -> int:
        return sum(self.face_counts())

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * n for k, n in enumerate(self.face_counts()))


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
    """Nonzero invariant factors (positive, divisibility-chained) of a dense
    matrix; there are as many as its rank.

    Each pivot is the least entry left; row and column remainders replace it
    until its row and column are clear, and a row with an entry it does not
    divide is added to its row, so every pivot divides all that follows.
    """
    m = [row[:] for row in rows]
    n_r = len(m)
    n_c = len(m[0]) if m else 0
    invs: list[int] = []
    t = 0
    while t < n_r and t < n_c:
        best, pi, pj = min(
            ((abs(m[i][j]), i, j) for i in range(t, n_r) for j in range(t, n_c) if m[i][j]),
            default=(0, -1, -1),
        )
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
                        for row in m[t:]:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
            if not dirty:
                break
        pivot = abs(m[t][t])
        # 1 divides every entry; any other pivot must divide all that is left
        stray = None if pivot == 1 else next(
            (i for i in range(t + 1, n_r) if any(m[i][j] % pivot for j in range(t + 1, n_c))), None
        )
        if stray is not None:
            for j in range(t, n_c):
                m[t][j] += m[stray][j]
            continue
        invs.append(pivot)
        t += 1
    return invs


def _element_matching(n_vertices: int, levels: list[set[int]]) -> tuple[set[int], dict[int, int]]:
    """Critical cells and pairs (lower -> upper) of the iterated element
    matching: for each vertex v in turn, every unpaired cell without v goes
    with the cell that adds v, when that one is unpaired too.  It is acyclic
    by the element-matching lemma (Jonsson, Simplicial Complexes of Graphs).
    """
    free = set().union(*levels)
    up: dict[int, int] = {}
    for v in (1 << i for i in range(n_vertices)):
        highs = [t for t in free if t & v and t ^ v in free]
        up.update((t ^ v, t) for t in highs)
        free.difference_update(highs, [t ^ v for t in highs])
    return free, up


def _signed_faces(t: int) -> list[tuple[int, int]]:
    """(<d t, g>, g) for each face g of the cell t."""
    out = []
    sign, rest = 1, t
    while rest:
        b = rest & -rest
        rest ^= b
        out.append((sign, t ^ b))
        sign = -sign
    return out


def _morse_boundary(critical: set[int], up: dict[int, int]) -> dict[int, dict[int, int]]:
    """Boundary of each critical cell in the Morse complex of the matching.

    By gradient paths (Forman, Morse theory for cell complexes, 1998): a face
    g flows to itself when it is critical, to 0 when it is the upper cell of
    a pair, and to -<d t, g> sum <d t, h> flow(h) over the other faces h of t
    when it is the lower cell of a pair (g, t).  Each flow is computed once,
    depth first on an explicit stack; a cell reached again while its flow is
    still open means that the gradient paths close a cycle.
    """
    flow: dict[int, dict[int, int]] = {}  # also the boundary of each critical cell
    opened: dict[int, list[tuple[int, int]]] = {}
    for c in critical:
        stack = [c]
        while stack:
            x = stack[-1]
            if x in flow:
                stack.pop()
                continue
            terms = opened.pop(x, None)
            if terms is None:
                t = up.get(x, x)
                faces = _signed_faces(t)
                unit = 1 if t == x else -next(k for k, g in faces if g == x)
                terms = [(unit * k, g) for k, g in faces if g != x and (g in up or g in critical)]
                todo = [g for _, g in terms if g in up and g not in flow]
                if todo:
                    if not opened.keys().isdisjoint(todo):
                        raise InvariantViolation(
                            "gradient paths close a cycle through the cell with mask %#x" % x)
                    opened[x] = terms
                    stack.extend(todo)
                    continue
            acc: dict[int, int] = {}
            for k, g in terms:
                for h, w in [(g, 1)] if g in critical else flow[g].items():
                    acc[h] = acc.get(h, 0) + k * w
            flow[x] = {h: w for h, w in acc.items() if w}
            stack.pop()
    return {c: flow[c] for c in critical}


def homology(c: SimplicialComplex, reduced: bool = True) -> HomologyResult:
    """Exact integer homology through an element matching on the faces.

    The cells are the faces and the empty face, so the chain complex is
    augmented and its homology is reduced; unreduced homology adds one free
    class in degree 0.  Only the critical cells of the element matching go
    on: their Morse boundary between adjacent sizes goes through a dense
    Smith normal form, whose number of factors is the rank and whose factors
    above 1 are the torsion.
    """
    if c.dimension < 0:
        return HomologyResult(reduced=reduced, betti=(), torsion=(), face_counts=())
    levels = [{0}] + [level.masks for level in c.faces()]
    critical, up = _element_matching(len(levels[1]), levels)
    bd = _morse_boundary(critical, up)
    dim = c.dimension
    # cells[s], invs[s]: critical cells with s vertices, their boundary's factors
    cells: list[list[int]] = [[] for _ in range(dim + 2)]
    for x in sorted(critical):
        cells[x.bit_count()].append(x)
    invs: list[list[int]] = [[] for _ in range(dim + 3)]
    for s in range(1, dim + 2):
        if any(bd[b] for b in cells[s]):
            invs[s] = _dense_smith([[bd[b].get(a, 0) for b in cells[s]] for a in cells[s - 1]])
    betti = [len(cells[k + 1]) - len(invs[k + 1]) - len(invs[k + 2]) for k in range(dim + 1)]
    if min(betti) < 0:
        raise InvariantViolation("negative betti number in %s" % betti)
    if not reduced:
        betti[0] += 1
    return HomologyResult(
        reduced=reduced,
        betti=tuple(betti),
        torsion=tuple(tuple(v for v in invs[k + 2] if v > 1) for k in range(dim + 1)),
        face_counts=c.face_counts(),
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
