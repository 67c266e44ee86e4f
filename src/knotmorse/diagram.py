"""PD codes, face tracing, chequerboard colouring, and the Tait overlay graph.

A Diagram is the one object per projection: its faces and corners, and the
tables read off them (colour graphs, squares, region masks, poset tables),
each held in one form, behind one accessor, and computed on first use.

A planar diagram (PD) code lists the crossings of a connected 4-valent plane
graph.  Each crossing is written X(a,b,c,d): the four arc labels met counter-
clockwise around the crossing, starting anywhere.  Over/under information is
ignored throughout; only the underlying projection matters.  Every arc label
occurs exactly twice in the whole code, once for each end of the arc.

Conventions, fixed once and used everywhere
-------------------------------------------

Slots and darts.  The four positions of a crossing c are slots 0..3 in the
order written.  Dart 4c+s, an int like every dart and corner id, is the
departure of the arc in slot s of c.  Each arc has two darts, one per end.

Corners.  Corner 4c+k is the wedge of crossing c between slots k and k+1
(mod 4).  Adjacent corners flank a common arc, so the chequerboard colouring
alternates around each crossing; corners i and i ^ 2 are diagonally opposite.

Face walk.  From dart i, cross the arc to its other end j, sweep corner j, and
depart along dart j & ~3 | (j+1) & 3, the next slot of that crossing.
Iterating closes up into a face.  Faces are discovered in a fixed order: arcs
ascending by id, each arc's two darts lower first, first untraced dart starts
the next face.  Face indices count up from 0 in discovery order.

Arc ids.  Labels may be any positive integers; internally arcs are renumbered
0..2n-1 in increasing label order.  All public structures use arc ids; the
original labels are kept for round-tripping.

Colours.  Face 0 is white (colour 0); the colouring propagates across arcs.
build_diagram(pd, swap_colours=True) flips every colour instead.

Colour graphs.  The black graph has one vertex per black face and one edge per
crossing, joining the faces at the crossing's two black corners (loops and
parallel edges kept); likewise the white graph.  Edge ids are crossing ids, so
an edge and its dual (the white edge at the same crossing) share an id.
Diagram.plane_graphs holds the two, indexed by colour: (white, black).

Tait overlay.  The overlay graph has a vertex for every face (region vertices,
ids 0..F-1) and every crossing (ids F..F+n-1), and one edge per corner: edge
4c+k joins crossing c to the face at corner 4c+k, so a face's corners are its
overlay edges.  Each arc spans a square face of the overlay: for an arc with
darts i at crossing c1 and j at c2, and i' = i & ~3 | (i-1) & 3 the corner
before i (likewise j'), the square is the 4-cycle  f_left -[i']- c1 -[i]-
f_right -[j']- c2 -[j]- f_left, where f_left is the face at corner i' and
f_right the face at corner i.  The poset orientation points white -> crossing
-> black.  Diagram.edge_region is the one corner -> region table: the face
at corner 4c+k, which is the region end of overlay edge 4c+k.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
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
    "parse_pd",
    "build_diagram",
    "build_tait",
    "is_reduced",
    "UnionFind",
]

WHITE = 0
BLACK = 1
COLOUR_NAME = ("white", "black")  # indexed by colour

_CROSSING_RE = re.compile(r"X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")


# ---------------------------------------------------------------------------
# PD codes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PDCode:
    """An ordered list of crossings, each a counterclockwise 4-tuple of labels;
    raises ArcMultiplicityError when some label does not occur exactly twice."""

    crossings: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self) -> None:
        counts = Counter(label for c in self.crossings for label in c)
        bad = ["arc %d occurs %d times" % (lb, k) for lb, k in sorted(counts.items()) if k != 2]
        if bad:
            raise ArcMultiplicityError(", ".join(bad) + " (expected 2)")

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    def to_text(self) -> str:
        return " ".join("X(%d,%d,%d,%d)" % c for c in self.crossings)


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
    for c in crossings:
        for label in c:
            if label <= 0:
                raise MalformedSyntax("arc labels must be positive, got %d" % label)
    return PDCode(crossings=tuple(crossings))


# ---------------------------------------------------------------------------
# Faces and diagrams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Face:
    """One face of the projection, as swept by the face walk.

    corners, cyclic, are the corner ids 4c+k the walk sweeps, each an overlay
    edge of the face; corner k is swept right after crossing the arc of dart
    k, Diagram.dart_arc[k].  The degree counts arc incidences with
    multiplicity.
    """

    index: int
    colour: int
    corners: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.corners)


@dataclass(frozen=True)
class Square:
    """The overlay 4-cycle spanned by one arc.

    edges runs f_left - c1 - f_right - c2 - f_left; the two opposite pairs
    (edges[0], edges[2]) and (edges[1], edges[3]) are the only ways a matching
    can use two edges of the square.
    """

    arc: int
    edges: tuple[int, int, int, int]


@dataclass(frozen=True)
class Diagram:
    """A parsed projection: arcs (arc_darts[a] is arc a's two darts, the lower
    first), faces, and colours, cross-linked by ids, with its Tait overlay.

    Overlay vertices: region vertices are face ids 0..n_faces-1, crossing c
    is vertex n_faces + c.  Edge 4c+k joins crossing c to the region
    edge_region[4c+k] at corner k of c.  The poset orientation directs
    white -> crossing -> black.
    """

    pd: PDCode
    arc_labels: tuple[int, ...]
    arc_darts: tuple[tuple[int, int], ...]
    faces: tuple[Face, ...]

    @property
    def n_crossings(self) -> int:
        return self.pd.n_crossings

    @property
    def n_arcs(self) -> int:
        return len(self.arc_labels)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @property
    def n_edges(self) -> int:
        return 4 * self.n_crossings

    @property
    def n_vertices(self) -> int:
        return self.n_faces + self.n_crossings

    @cached_property
    def dart_arc(self) -> tuple[int, ...]:
        """Arc id occupying slot s of crossing c, indexed by dart 4 * c + s."""
        out = [0] * (4 * self.n_crossings)
        for a, (i, j) in enumerate(self.arc_darts):
            out[i] = out[j] = a
        return tuple(out)

    @cached_property
    def next_dart(self) -> tuple[int, ...]:
        """Dart 4 * c + (s + 1) % 4, indexed by dart 4 * c + s: the dart each
        leads to when every crossing is a double point."""
        return tuple(i + 1 if i & 3 != 3 else i - 3 for i in range(4 * self.n_crossings))

    @cached_property
    def arc_pairs(self) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
        """Arc pairs for the strand count of moves: by edge e = 4c + k, the two its
        smoothing joins, slots {p, p+1} and {p+2, p+3} with p = (k + 1) % 2; by
        crossing c, the three that join c's four arcs as a double point."""
        a = self.dart_arc
        pairs = lambda i, slots: tuple((a[i + s], a[i + r]) for s, r in slots)
        joins = (((1, 2), (3, 0)), ((0, 1), (2, 3)))  # by k % 2
        return (tuple(pairs(e & ~3, joins[e & 1]) for e in range(4 * self.n_crossings)),
                tuple(pairs(4 * c, ((0, 1), (0, 2), (0, 3))) for c in range(self.n_crossings)))

    @cached_property
    def edge_region(self) -> tuple[int, ...]:
        """Face at corner k of crossing c, the region end of overlay edge
        4 * c + k, indexed by 4 * c + k."""
        out = [0] * (4 * self.n_crossings)
        for f in self.faces:
            for k in f.corners:
                out[k] = f.index
        return tuple(out)

    @cached_property
    def face_colour(self) -> tuple[int, ...]:
        return tuple(f.colour for f in self.faces)

    @cached_property
    def white_faces(self) -> tuple[int, ...]:
        return tuple(f.index for f in self.faces if f.colour == WHITE)

    @cached_property
    def black_faces(self) -> tuple[int, ...]:
        return tuple(f.index for f in self.faces if f.colour == BLACK)

    @cached_property
    def plane_graphs(self) -> tuple[PlaneGraph, PlaneGraph]:
        """The colour graphs, indexed by colour: (white, black)."""
        black = _one_colour_graph(self, BLACK)
        return _one_colour_graph(self, WHITE), black

    @cached_property
    def squares(self) -> tuple[Square, ...]:
        """One overlay square per arc; raises InvariantViolation when the two
        ends of an arc see different regions."""
        edge_region = self.edge_region
        squares = []
        for a, (i, j) in enumerate(self.arc_darts):
            edges = (i & ~3 | (i - 1) & 3, i, j & ~3 | (j - 1) & 3, j)
            f_left, f_right, g_right, g_left = (edge_region[e] for e in edges)
            # The other end sees the same two regions from the far side.
            if (f_left, f_right) != (g_left, g_right):
                raise InvariantViolation("the two ends of arc %d see different regions" % a)
            squares.append(Square(arc=a, edges=edges))
        return tuple(squares)

    @cached_property
    def face_masks(self) -> tuple[int, int]:
        """(white, black): the regions of each colour as a bit mask."""
        return sum(1 << f for f in self.white_faces), sum(1 << f for f in self.black_faces)

    @cached_property
    def square_masks(self) -> tuple[tuple[int, int], ...]:
        """Each square's pairs (edges[0], edges[2]) and (edges[1], edges[3]) as bit masks."""
        return tuple((1 << a | 1 << c, 1 << b | 1 << d) for a, b, c, d in (q.edges for q in self.squares))

    @cached_property
    def poset_tables(self) -> tuple[tuple[tuple[int, int, bool], ...], tuple[int, ...], tuple[int, ...]]:
        """(arrows, successors, predecessors) of the poset orientation:
        arrows[e] is (tail, head, lone) of edge e, lone unless another edge
        has the same ends (a kink's region meets its crossing at two opposite
        corners); successors[v] and predecessors[v] are vertex bit masks."""
        n_faces, colour = self.n_faces, self.face_colour
        arrows = [(r, n_faces + e // 4) if colour[r] == WHITE else (n_faces + e // 4, r)
                  for e, r in enumerate(self.edge_region)]
        succ, pred = [0] * self.n_vertices, [0] * self.n_vertices
        for u, v in arrows:
            succ[u] |= 1 << v
            pred[v] |= 1 << u
        return tuple((u, v, arrows.count((u, v)) == 1) for u, v in arrows), tuple(succ), tuple(pred)


def build_diagram(pd: PDCode, swap_colours: bool = False) -> Diagram:
    """Trace faces, check planarity, 2-colour the result, and check its squares.

    Raises NonPlanarCode when the projection is disconnected or the face count
    fails Euler's formula V - E + F = 2, ColouringConflict if the face
    adjacency were not 2-colourable (unreachable once the Euler check passes;
    kept as a guard), and InvariantViolation if the two ends of an arc saw
    different regions (Diagram.squares, likewise a guard).
    """
    n = pd.n_crossings
    dart_label = [label for crossing in pd.crossings for label in crossing]
    darts: dict[int, list[int]] = {}  # label -> its darts, ascending
    for i, label in enumerate(dart_label):
        darts.setdefault(label, []).append(i)
    labels = sorted(darts)
    arc_darts = tuple(tuple(darts[label]) for label in labels)
    mate = [0] * (4 * n)  # dart -> the dart at the other end of its arc
    for i, j in arc_darts:
        mate[i], mate[j] = j, i

    # Connectivity of the projection, crossing to crossing through arcs.
    seen, stack = {0}, [0]
    while stack:
        c = stack.pop()
        for i in range(4 * c, 4 * c + 4):
            c2 = mate[i] >> 2
            if c2 not in seen:
                seen.add(c2)
                stack.append(c2)
    if len(seen) != n:
        raise NonPlanarCode(
            "projection is disconnected (%d of %d crossings reachable)" % (len(seen), n)
        )

    # Face walk over all darts in the fixed discovery order.
    face_of_dart = [-1] * (4 * n)
    traced: list[tuple[int, ...]] = []
    for d0 in (i for ends in arc_darts for i in ends):
        if face_of_dart[d0] >= 0:
            continue
        corners: list[int] = []
        i = d0
        while True:
            face_of_dart[i] = len(traced)
            j = mate[i]
            corners.append(j)
            i = j & ~3 | (j + 1) & 3
            if i == d0:
                break
        traced.append(tuple(corners))

    if n - 2 * n + len(traced) != 2:
        raise NonPlanarCode(
            "face count %d fails Euler check for %d crossings" % (len(traced), n)
        )

    # Chequerboard colouring across arcs, face 0 white.  across[f] lists
    # (arc, face on its other side) for the arcs of f, ascending by arc.
    across: list[list[tuple[int, int]]] = [[] for _ in traced]
    for a, (i, j) in enumerate(arc_darts):
        fa, fb = face_of_dart[i], face_of_dart[j]
        across[fa].append((a, fb))
        if fb != fa:
            across[fb].append((a, fa))
    colour, stack = {0: WHITE}, [0]
    while stack:
        f = stack.pop()
        want = 1 - colour[f]
        for a, g in across[f]:
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

    faces = tuple(Face(index=i, colour=colour[i], corners=corners)
                  for i, corners in enumerate(traced))
    d = Diagram(pd=pd, arc_labels=tuple(labels), arc_darts=arc_darts, faces=faces)
    d.squares  # builds and checks every square
    return d


def build_tait(d: Diagram) -> Diagram:
    """d itself, once its squares are checked: the Tait overlay tables are
    cached on Diagram.  Kept public for callers of the earlier overlay
    object, the perfbench census workload among them."""
    d.squares
    return d


# ---------------------------------------------------------------------------
# Colour graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlaneGraph:
    """One colour class of faces with an edge per crossing.

    Edge c is crossing c's corner corners[c] = 4c+k of this colour, k 0 or 1,
    and joins the faces edge_ends[c] at corners 4c+k and 4c+k+2.
    """

    colour: int
    vertices: tuple[int, ...]
    corners: tuple[int, ...]
    edge_ends: tuple[tuple[int, int], ...]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edge_ends)

    @cached_property
    def vertex_index(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.vertices)}


def _one_colour_graph(d: Diagram, colour: int) -> PlaneGraph:
    # Corners alternate colours around a crossing, so the colour sits at
    # corners k and k + 2 of each, k the one of 0 and 1 that has it.
    face, face_colour = d.edge_region, d.face_colour
    corners = tuple(e + (face_colour[face[e]] != colour) for e in range(0, len(face), 4))
    edge_ends = tuple((face[e], face[e ^ 2]) for e in corners)
    vertices = d.white_faces if colour == WHITE else d.black_faces
    vset = set(vertices)
    if not all(f in vset for ends in edge_ends for f in ends):
        raise InvariantViolation("a %s graph edge ends off its colour" % COLOUR_NAME[colour])
    return PlaneGraph(colour=colour, vertices=vertices, corners=corners, edge_ends=edge_ends)


class UnionFind:
    """Disjoint sets over the items 0..n-1, kept in a list, with path halving.

    Which member becomes a root is unspecified; callers order components by
    their members, never by their roots.
    """

    __slots__ = ("parent",)

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        parent = self.parent
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    def union(self, a: int, b: int) -> bool:
        """Join the sets of a and b; False when they were already one set.

        Walks to both roots inline, halving the paths as find does, a's
        first; the root of a then hangs below the root of b.
        """
        parent = self.parent
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            return False
        parent[a] = b
        return True


# ---------------------------------------------------------------------------
# Reducedness
# ---------------------------------------------------------------------------

def is_reduced(d: Diagram) -> bool:
    """True when no region meets two diagonally opposite corners of a crossing.

    Also computed as "both colour graphs are loopless" and the two answers
    checked equal.  (Both colour graphs 2-connected is a stronger condition:
    reduced and prime.)
    """
    f = d.edge_region
    by_corners = all(
        f[4 * c] != f[4 * c + 2] and f[4 * c + 1] != f[4 * c + 3] for c in range(d.n_crossings)
    )
    by_graphs = not any(u == v for g in d.plane_graphs for u, v in g.edge_ends)
    if by_corners != by_graphs:
        raise InvariantViolation(
            "reducedness characterizations disagree: corners=%s graphs=%s"
            % (by_corners, by_graphs)
        )
    return by_corners
