"""PD codes, face tracing, chequerboard colouring, and the Tait overlay graph.

A planar diagram (PD) code lists the crossings of a connected 4-valent plane
graph.  Each crossing is written X(a,b,c,d): the four arc labels met counter-
clockwise around the crossing, starting anywhere.  Over/under information is
ignored throughout; only the underlying projection matters.  Every arc label
occurs exactly twice in the whole code, once for each end of the arc.

Conventions, fixed once and used everywhere
-------------------------------------------

Slots and darts.  The four positions of a crossing c are slots 0..3 in the
order written.  A dart is a pair (c, s): the departure of the arc occupying
slot s of crossing c.  Each arc has two darts, one per end.

Corners.  Corner k of a crossing is the wedge between slots k and k+1 (mod 4).
Adjacent corners flank a common arc, so the chequerboard colouring alternates
around each crossing; corners k and k+2 are diagonally opposite.

Face walk.  From departure (c, s), cross the arc to its other end (c', s'),
sweep corner (c', s'), and depart along slot (s'+1) mod 4 of c'.  Iterating
closes up into a face.  Faces are discovered in a fixed order: arcs ascending
by id, each arc's two darts in (crossing, slot) order, first untraced dart
starts the next face.  Face indices count up from 0 in discovery order.

Arc ids.  Labels may be any positive integers; internally arcs are renumbered
0..2n-1 in increasing label order.  All public structures use arc ids; the
original labels are kept for round-tripping.

Colours.  Face 0 is white (colour 0); the colouring propagates across arcs.
build_diagram(pd, swap_colours=True) flips every colour instead.

Colour graphs.  The black graph has one vertex per black face and one edge per
crossing, joining the faces at the crossing's two black corners (loops and
parallel edges kept); likewise the white graph.  Edge ids are crossing ids, so
an edge and its dual (the white edge at the same crossing) share an id.  Each
vertex carries its rotation: the cyclic sequence of (crossing, corner) edge
ends in face-walk order.

Tait overlay.  The overlay graph has a vertex for every face (region vertices,
ids 0..F-1) and every crossing (ids F..F+n-1), and one edge per corner: edge
4c+k joins crossing c to the face at corner k.  Each arc spans a square face
of the overlay: for an arc with darts (c1,s1), (c2,s2) the square is the
4-cycle  f_left -[4c1+(s1-1)%4]- c1 -[4c1+s1]- f_right -[4c2+(s2-1)%4]- c2
-[4c2+s2]- f_left, where f_left is the face at corner (c1, s1-1) and f_right
the face at corner (c1, s1).  The poset orientation points white -> crossing
-> black.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

from .errors import (
    ArcMultiplicityError,
    ColouringConflict,
    EmptyDiagram,
    InvariantViolation,
    MalformedSyntax,
    NonPlanarCode,
)

__all__ = [
    "PDCode",
    "Face",
    "Diagram",
    "PlaneGraph",
    "Square",
    "TaitGraph",
    "parse_pd",
    "build_diagram",
    "colour_graphs",
    "build_tait",
    "is_reduced",
    "UnionFind",
]

WHITE = 0
BLACK = 1

_CROSSING_RE = re.compile(r"X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")


# ---------------------------------------------------------------------------
# PD codes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PDCode:
    """An ordered list of crossings, each a counterclockwise 4-tuple of labels."""

    crossings: tuple[tuple[int, int, int, int], ...]

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    def to_text(self) -> str:
        return " ".join("X(%d,%d,%d,%d)" % c for c in self.crossings)

    def to_dict(self) -> dict:
        return {"crossings": [list(c) for c in self.crossings]}


def parse_pd(text: str) -> PDCode:
    """Parse PD text like ``X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)``.

    Crossings are separated by whitespace or commas.  Raises MalformedSyntax
    on anything that is not a well-formed crossing list, EmptyDiagram when no
    crossing is present, and ArcMultiplicityError when some label does not
    occur exactly twice.
    """
    crossings: list[tuple[int, int, int, int]] = []
    pos = 0
    for m in _CROSSING_RE.finditer(text):
        gap = text[pos:m.start()]
        if gap.strip(" \t\r\n,"):
            raise MalformedSyntax("unexpected text %r in PD code" % gap.strip())
        crossings.append(tuple(int(g) for g in m.groups()))  # type: ignore[arg-type]
        pos = m.end()
    tail = text[pos:]
    if tail.strip(" \t\r\n,"):
        raise MalformedSyntax("unexpected text %r in PD code" % tail.strip())
    if not crossings:
        raise EmptyDiagram("PD code contains no crossings")
    counts: dict[int, int] = {}
    for c in crossings:
        for label in c:
            if label <= 0:
                raise MalformedSyntax("arc labels must be positive, got %d" % label)
            counts[label] = counts.get(label, 0) + 1
    bad = {label: k for label, k in sorted(counts.items()) if k != 2}
    if bad:
        detail = ", ".join("arc %d occurs %d times" % (lb, k) for lb, k in bad.items())
        raise ArcMultiplicityError(detail + " (expected 2)")
    return PDCode(crossings=tuple(crossings))


# ---------------------------------------------------------------------------
# Faces and diagrams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Face:
    """One face of the projection, as swept by the face walk.

    corners[i] is swept immediately after crossing arcs[i]; both tuples are
    cyclic and aligned.  The degree counts arc incidences with multiplicity.
    """

    index: int
    colour: int
    corners: tuple[tuple[int, int], ...]
    arcs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.arcs)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "colour": self.colour,
            "corners": [list(c) for c in self.corners],
            "arcs": list(self.arcs),
            "degree": self.degree,
        }


@dataclass(frozen=True)
class Diagram:
    """A parsed projection: arcs, faces, and colours, cross-linked by ids."""

    pd: PDCode
    arc_labels: tuple[int, ...]
    arc_ends: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    faces: tuple[Face, ...]
    colours_swapped: bool = False

    @property
    def n_crossings(self) -> int:
        return self.pd.n_crossings

    @property
    def n_arcs(self) -> int:
        return len(self.arc_labels)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @cached_property
    def dart_arc(self) -> tuple[int, ...]:
        """Arc id occupying dart (crossing c, slot s), indexed by 4 * c + s."""
        out = [0] * (4 * self.n_crossings)
        for a, ends in enumerate(self.arc_ends):
            for c, s in ends:
                out[4 * c + s] = a
        return tuple(out)

    @cached_property
    def mate(self) -> dict[tuple[int, int], tuple[int, int]]:
        """Dart -> the other end of the same arc."""
        out: dict[tuple[int, int], tuple[int, int]] = {}
        for d1, d2 in self.arc_ends:
            out[d1] = d2
            out[d2] = d1
        return out

    @cached_property
    def face_at_corner(self) -> dict[tuple[int, int], int]:
        """Corner (crossing, k) -> index of the face sweeping it."""
        out: dict[tuple[int, int], int] = {}
        for f in self.faces:
            for corner in f.corners:
                out[corner] = f.index
        return out

    @cached_property
    def face_colour(self) -> tuple[int, ...]:
        return tuple(f.colour for f in self.faces)

    @cached_property
    def white_faces(self) -> tuple[int, ...]:
        return tuple(f.index for f in self.faces if f.colour == WHITE)

    @cached_property
    def black_faces(self) -> tuple[int, ...]:
        return tuple(f.index for f in self.faces if f.colour == BLACK)

    def to_dict(self) -> dict:
        return {
            "crossings": [list(c) for c in self.pd.crossings],
            "colours_swapped": self.colours_swapped,
            "arcs": [
                {"id": a, "label": self.arc_labels[a], "ends": [list(d) for d in self.arc_ends[a]]}
                for a in range(self.n_arcs)
            ],
            "faces": [f.to_dict() for f in self.faces],
            "colour_classes": {"white": list(self.white_faces), "black": list(self.black_faces)},
        }


def build_diagram(pd: PDCode, swap_colours: bool = False) -> Diagram:
    """Trace faces, check planarity, and 2-colour the result.

    Raises NonPlanarCode when the projection is disconnected or the face count
    fails Euler's formula V - E + F = 2, and ColouringConflict if the face
    adjacency were not 2-colourable (unreachable once the Euler check passes;
    kept as a guard).
    """
    n = pd.n_crossings
    labels = sorted({label for c in pd.crossings for label in c})
    label_to_arc = {label: a for a, label in enumerate(labels)}
    ends_by_arc: dict[int, list[tuple[int, int]]] = {a: [] for a in range(len(labels))}
    for c, crossing in enumerate(pd.crossings):
        for s, label in enumerate(crossing):
            ends_by_arc[label_to_arc[label]].append((c, s))
    arc_ends = tuple(tuple(sorted(ends_by_arc[a])) for a in range(len(labels)))

    arc_at = {d: a for a, ends in enumerate(arc_ends) for d in ends}
    mate: dict[tuple[int, int], tuple[int, int]] = {}
    for d1, d2 in arc_ends:
        mate[d1], mate[d2] = d2, d1

    # Connectivity of the projection, crossing to crossing through arcs.
    seen = {0}
    stack = [0]
    while stack:
        c = stack.pop()
        for s in range(4):
            c2 = mate[(c, s)][0]
            if c2 not in seen:
                seen.add(c2)
                stack.append(c2)
    if len(seen) != n:
        raise NonPlanarCode(
            "projection is disconnected (%d of %d crossings reachable)" % (len(seen), n)
        )

    # Face walk over all darts in the fixed discovery order.
    dart_order = [d for ends in arc_ends for d in ends]
    face_of_dart: dict[tuple[int, int], int] = {}
    traced: list[tuple[tuple[tuple[int, int], ...], tuple[int, ...]]] = []
    for d0 in dart_order:
        if d0 in face_of_dart:
            continue
        corners: list[tuple[int, int]] = []
        arcs: list[int] = []
        d = d0
        while True:
            face_of_dart[d] = len(traced)
            c, s = d
            arcs.append(arc_at[(c, s)])
            c2, s2 = mate[(c, s)]
            corners.append((c2, s2))
            d = (c2, (s2 + 1) % 4)
            if d == d0:
                break
        traced.append((tuple(corners), tuple(arcs)))

    if n - 2 * n + len(traced) != 2:
        raise NonPlanarCode(
            "face count %d fails Euler check for %d crossings" % (len(traced), n)
        )

    # Chequerboard colouring across arcs, face 0 white.
    colour = {0: WHITE}
    stack = [0]
    arc_faces = {a: (face_of_dart[d1], face_of_dart[d2]) for a, (d1, d2) in enumerate(arc_ends)}
    while stack:
        f = stack.pop()
        for a, (fa, fb) in arc_faces.items():
            if fa == f or fb == f:
                g = fb if fa == f else fa
                want = 1 - colour[f]
                if g in colour:
                    if colour[g] != want:
                        raise ColouringConflict(
                            "faces %d and %d share arc %d but need equal colours" % (f, g, a)
                        )
                else:
                    colour[g] = want
                    stack.append(g)
    if len(colour) != len(traced):
        raise ColouringConflict("face adjacency is disconnected")
    if swap_colours:
        colour = {f: 1 - col for f, col in colour.items()}

    faces = tuple(
        Face(index=i, colour=colour[i], corners=corners, arcs=arcs)
        for i, (corners, arcs) in enumerate(traced)
    )
    return Diagram(
        pd=pd,
        arc_labels=tuple(labels),
        arc_ends=arc_ends,
        faces=faces,
        colours_swapped=swap_colours,
    )


# ---------------------------------------------------------------------------
# Colour graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlaneGraph:
    """One colour class of faces with an edge per crossing, plus rotations.

    Edge i joins the two faces at crossing i's corners of this colour;
    edge_corners[i] holds those corner slots.  rotations[j] lists the edge
    ends (crossing, corner) around vertices[j] in face-walk order, so loops
    appear twice and parallel edges keep their places.
    """

    colour: int
    vertices: tuple[int, ...]
    edge_ends: tuple[tuple[int, int], ...]
    edge_corners: tuple[tuple[int, int], ...]
    rotations: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edge_ends)

    @cached_property
    def vertex_index(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def rotation_at(self) -> dict[int, tuple[tuple[int, int], ...]]:
        return {v: rot for v, rot in zip(self.vertices, self.rotations)}

    def to_dict(self) -> dict:
        return {
            "colour": self.colour,
            "vertices": list(self.vertices),
            "edges": [
                {"id": i, "ends": list(self.edge_ends[i]), "corners": list(self.edge_corners[i])}
                for i in range(self.n_edges)
            ],
            "rotations": {
                str(v): [list(end) for end in rot]
                for v, rot in zip(self.vertices, self.rotations)
            },
        }


def _one_colour_graph(d: Diagram, colour: int) -> PlaneGraph:
    vertices = d.white_faces if colour == WHITE else d.black_faces
    vset = set(vertices)
    edge_ends: list[tuple[int, int]] = []
    edge_corners: list[tuple[int, int]] = []
    for c in range(d.n_crossings):
        # Corners alternate colours around a crossing; this colour sits at
        # either {0, 2} or {1, 3}.
        k0 = 0 if d.face_colour[d.face_at_corner[(c, 0)]] == colour else 1
        edge_ends.append((d.face_at_corner[(c, k0)], d.face_at_corner[(c, k0 + 2)]))
        edge_corners.append((k0, k0 + 2))
    rotations = []
    for v in vertices:
        face = d.faces[v]
        rotations.append(tuple(face.corners))
    if not all(f in vset for ends in edge_ends for f in ends):
        raise InvariantViolation(
            "a %s graph edge ends off its colour" % ("white" if colour == WHITE else "black")
        )
    return PlaneGraph(
        colour=colour,
        vertices=tuple(vertices),
        edge_ends=tuple(edge_ends),
        edge_corners=tuple(edge_corners),
        rotations=tuple(rotations),
    )


def colour_graphs(d: Diagram) -> tuple[PlaneGraph, PlaneGraph]:
    """The (black, white) face graphs, edge i at crossing i in both."""
    return _one_colour_graph(d, BLACK), _one_colour_graph(d, WHITE)


class UnionFind:
    """Disjoint sets over hashable items, with path halving.

    Which member becomes a root is unspecified; callers order components by
    their members, never by their roots.
    """

    __slots__ = ("parent",)

    def __init__(self, items) -> None:
        self.parent = {i: i for i in items}

    def find(self, i):
        parent = self.parent
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    def union(self, a, b) -> bool:
        """Join the sets of a and b; False when they were already one set."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


# ---------------------------------------------------------------------------
# Tait overlay graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Square:
    """The overlay 4-cycle spanned by one arc.

    edges runs f_left - c1 - f_right - c2 - f_left; the two opposite pairs
    (edges[0], edges[2]) and (edges[1], edges[3]) are the only ways a matching
    can use two edges of the square.
    """

    arc: int
    crossings: tuple[int, int]
    regions: tuple[int, int]
    edges: tuple[int, int, int, int]

    @property
    def pattern_a(self) -> tuple[int, int]:
        return (self.edges[0], self.edges[2])

    @property
    def pattern_b(self) -> tuple[int, int]:
        return (self.edges[1], self.edges[3])

    def to_dict(self) -> dict:
        return {
            "arc": self.arc,
            "crossings": list(self.crossings),
            "regions": list(self.regions),
            "edges": list(self.edges),
        }


@dataclass(frozen=True)
class TaitGraph:
    """The overlay of both colour graphs with its square faces.

    Vertices: region vertices are face ids 0..n_faces-1, crossing c is vertex
    n_faces + c.  Edge 4c+k joins crossing c to the region at corner k of c.
    The poset orientation directs white -> crossing -> black.
    """

    diagram: Diagram = field(repr=False)
    n_crossings: int
    n_faces: int
    face_colour: tuple[int, ...]
    edge_region: tuple[int, ...]
    squares: tuple[Square, ...]

    @property
    def n_edges(self) -> int:
        return 4 * self.n_crossings

    @property
    def n_vertices(self) -> int:
        return self.n_faces + self.n_crossings

    @cached_property
    def white_faces(self) -> tuple[int, ...]:
        return tuple(f for f in range(self.n_faces) if self.face_colour[f] == WHITE)

    @cached_property
    def black_faces(self) -> tuple[int, ...]:
        return tuple(f for f in range(self.n_faces) if self.face_colour[f] == BLACK)

    def crossing_vertex(self, c: int) -> int:
        return self.n_faces + c

    def edge_crossing(self, e: int) -> int:
        return e // 4

    def edge_corner(self, e: int) -> int:
        return e % 4

    def edge_colour(self, e: int) -> int:
        return self.face_colour[self.edge_region[e]]

    def corner_pair(self, c: int, colour: int) -> tuple[int, int]:
        """The two corner slots of the given colour at crossing c."""
        k0 = 0 if self.face_colour[self.edge_region[4 * c]] == colour else 1
        return (k0, k0 + 2)

    def edge_to_region(self, c: int, region: int, colour: int) -> int:
        """The unique colour-corner edge of c landing in the given region.

        Valid only when exactly one corner of that colour at c touches the
        region (always true off loops of the colour graph).
        """
        k0, k2 = self.corner_pair(c, colour)
        hits = [4 * c + k for k in (k0, k2) if self.edge_region[4 * c + k] == region]
        if len(hits) != 1:
            raise InvariantViolation(
                "corner edge (crossing %d, region %d) is not unique: %d hits" % (c, region, len(hits))
            )
        return hits[0]

    def to_dict(self) -> dict:
        return {
            "n_faces": self.n_faces,
            "n_crossings": self.n_crossings,
            "vertices": {
                "regions": [
                    {"id": f, "colour": self.face_colour[f]} for f in range(self.n_faces)
                ],
                "crossings": [
                    {"id": self.crossing_vertex(c), "crossing": c}
                    for c in range(self.n_crossings)
                ],
            },
            "edges": [
                {
                    "id": e,
                    "crossing": self.edge_crossing(e),
                    "corner": self.edge_corner(e),
                    "region": self.edge_region[e],
                    "colour": self.edge_colour(e),
                }
                for e in range(self.n_edges)
            ],
            "squares": [sq.to_dict() for sq in self.squares],
        }


def build_tait(d: Diagram) -> TaitGraph:
    """Overlay both colour graphs: one edge per corner, one square per arc."""
    edge_region = tuple(
        d.face_at_corner[(c, k)] for c in range(d.n_crossings) for k in range(4)
    )
    squares = []
    for a in range(d.n_arcs):
        (c1, s1), (c2, s2) = d.arc_ends[a]
        f_left = d.face_at_corner[(c1, (s1 + 3) % 4)]
        f_right = d.face_at_corner[(c1, s1)]
        # The other end sees the same two regions from the far side.
        if f_left != d.face_at_corner[(c2, s2)] or f_right != d.face_at_corner[(c2, (s2 + 3) % 4)]:
            raise InvariantViolation("the two ends of arc %d see different regions" % a)
        squares.append(
            Square(
                arc=a,
                crossings=(c1, c2),
                regions=(f_left, f_right),
                edges=(
                    4 * c1 + (s1 + 3) % 4,
                    4 * c1 + s1,
                    4 * c2 + (s2 + 3) % 4,
                    4 * c2 + s2,
                ),
            )
        )
    return TaitGraph(
        diagram=d,
        n_crossings=d.n_crossings,
        n_faces=d.n_faces,
        face_colour=d.face_colour,
        edge_region=edge_region,
        squares=tuple(squares),
    )


# ---------------------------------------------------------------------------
# Reducedness
# ---------------------------------------------------------------------------

def is_reduced(d: Diagram) -> bool:
    """True when no region meets two diagonally opposite corners of a crossing.

    Also computed as "both colour graphs are loopless" and the two answers
    checked equal.  (Both colour graphs 2-connected is a stronger condition:
    reduced and prime.)
    """
    by_corners = True
    for c in range(d.n_crossings):
        if (
            d.face_at_corner[(c, 0)] == d.face_at_corner[(c, 2)]
            or d.face_at_corner[(c, 1)] == d.face_at_corner[(c, 3)]
        ):
            by_corners = False
            break
    by_graphs = not any(u == v for g in colour_graphs(d) for u, v in g.edge_ends)
    if by_corners != by_graphs:
        raise InvariantViolation(
            "reducedness characterizations disagree: corners=%s graphs=%s"
            % (by_corners, by_graphs)
        )
    return by_corners
