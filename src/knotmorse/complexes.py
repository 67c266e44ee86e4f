"""Matching and Morse complexes with exact integer homology.

The matching complex of the overlay has the Tait edges as vertices and the
matchings as simplices: the independence complex of a conflict graph on the
corner edges (two conflict when they share a crossing or a region), held as
that graph and a count of matchings by size, with no facet listed.  Its
pure part is generated by the perfect matchings, the Morse complex by the
loop-free maximal matchings, and the pure Morse complex by the top ones
among these: exactly the images of the tree-pair construction, one top
simplex per (spanning tree, black root, white root) triple.

Homology is computed over the integers by discrete Morse theory on the
complex itself, with cells as int masks.  On the matching complex a
matching tree on the conflict graph (Bousquet-Melou, Linusson & Nevo) pairs
all cells and the empty face but a few critical cells without listing any
face.  Any other complex builds its face closure, and an iterated element
matching (Jonsson) pairs those faces instead, vertex by vertex in
decreasing order of the number of facets that hold the vertex, so the
apexes of the largest cones go first.  The boundary between the
critical cells follows the gradient paths (Forman), and the boundaries
between critical cells of adjacent sizes go through a dense Smith normal
form, so torsion is exact.

homologies is the one entry: it matches each independence complex by its
matching tree first, then closes the facets of all the other complexes
once (_closure), over one vertex-bit map, tagging each face with one bit
per complex that holds it, and matches each of them on the faces with its
tag in its own _element_order.  The bits follow the vertices' order, so
masks keep their integer order and the critical cells, boundaries and
Smith inputs are those of the complex alone.  A lone complex is the
one-tag case, whose closure it caches for faces() as well.  The
KNOTMORSE_MAX_FACES cap bounds the faces the closure stores, or the
matching tree's nodes plus the flows live for one size of critical cell;
ResourceLimit is raised before allocating past it.
"""

from __future__ import annotations

import os
from collections import Counter
from collections.abc import Callable, Iterable, KeysView, Sequence
from dataclasses import dataclass
from functools import partial

from .counting import spanning_trees
from .diagram import BLACK, Diagram
from .errors import InvariantViolation, ResourceLimit
from .states import _maximal_stream, kpw

__all__ = [
    "SimplicialComplex",
    "IndependenceComplex",
    "HomologyResult",
    "matching_complex",
    "pure_matching_complex",
    "morse_complex",
    "pure_part",
    "pure_morse_from_trees",
    "homology",
    "homologies",
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


def _over_cap(cap: int, stage: str) -> ResourceLimit:
    return ResourceLimit("complex exceeds the face cap of %d (set KNOTMORSE_MAX_FACES)" % cap,
                         stage=stage, size=cap + 1)


class SimplicialComplex:
    """Finite abstract simplicial complex given by its facets.

    The facets must be pairwise non-contained, as the maximal matchings and
    the tree triples are: they are kept as given, as canonical sorted
    vertex-id tuples, deduplicated and ordered by size.  The face closure is
    built from them lazily, as int masks, and cached.
    """

    __slots__ = ("facets", "_closed")

    def __init__(self, facets: Iterable[Iterable[int]]):
        self.facets: tuple[tuple[int, ...], ...] = tuple(
            sorted({tuple(sorted(f)) for f in facets}, key=lambda f: (len(f), f)))
        self._closed: tuple[dict[int, int], list[dict[int, int]]] | None = None

    @property
    def dimension(self) -> int:
        return len(self.facets[-1]) - 1 if self.facets else -1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SimplicialComplex) and self.facets == other.facets

    def __hash__(self) -> int:
        return hash(self.facets)

    def __repr__(self) -> str:
        return "SimplicialComplex(%d facets, dim %d)" % (len(self.facets), self.dimension)

    def _own_closure(self) -> tuple[dict[int, int], list[dict[int, int]]]:
        """_closure([self]), built once: faces() and homologies share it."""
        if self._closed is None:
            self._closed = _closure([self])
        return self._closed

    def faces(self) -> tuple[KeysView[int], ...]:
        """All faces grouped by dimension, 0 through dimension, as read-only
        sets of int masks: bit i of a mask is the i-th smallest vertex of
        this complex's facets.  They are the one-tag levels of _closure,
        which checks the KNOTMORSE_MAX_FACES cap face by face."""
        return tuple(level.keys() for level in self._own_closure()[1])

    def face_counts(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.faces())

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * n for k, n in enumerate(self.face_counts()))


def _vertex_bits(facets: Iterable[Sequence[int]]) -> dict[int, int]:
    """Bit 1 << i for the i-th smallest vertex of the facets, keyed by vertex
    in increasing order."""
    return {v: 1 << i for i, v in enumerate(sorted({v for f in facets for v in f}))}


def _closure(cs: Sequence[SimplicialComplex]) -> tuple[dict[int, int], list[dict[int, int]]]:
    """The vertex bits and the face closure of all the facets of cs, as
    tagged levels: levels[k] maps each face with k + 1 vertices to its tag
    bits, where bit j is set when the face lies in cs[j].

    A facet carries the bits of the complexes that list it.  Each level
    passes its tags to its faces one size down, OR-ed into those already
    there, and is final before that level is read in turn.  The
    KNOTMORSE_MAX_FACES cap counts the faces stored, each once whatever its
    tags; ResourceLimit is raised before storing one past it.
    """
    bit = _vertex_bits(f for c in cs for f in c.facets)
    top: dict[int, int] = {}
    for j, c in enumerate(cs):
        for f in c.facets:
            m = sum(bit[v] for v in f)
            top[m] = top.get(m, 0) | 1 << j
    dim = max((c.dimension for c in cs), default=-1)
    levels: list[dict[int, int]] = [{} for _ in range(dim + 2)]
    for m, tags in top.items():
        levels[m.bit_count()][m] = tags
    cap = _max_faces()
    total = len(top)
    if total > cap:
        raise _over_cap(cap, "face closure")
    for s in range(dim + 1, 1, -1):
        level = levels[s - 1]
        get = level.get
        for m, tags in levels[s].items():
            rest = m
            while rest:
                b = rest & -rest
                rest ^= b
                old = get(m ^ b)
                if old is None:
                    total += 1
                    if total > cap:
                        raise _over_cap(cap, "face closure")
                    level[m ^ b] = tags
                elif old | tags != old:
                    level[m ^ b] = old | tags
    return bit, levels[1:]


class IndependenceComplex:
    """The independence complex of a graph, held as the graph and its face
    counts: conflicts[i] is the neighbour mask of vertex i, and counts[k]
    the number of independent sets of k + 1 vertices, found another way.
    homology takes the matching tree of this graph and lists no face.
    """

    __slots__ = ("conflicts", "_counts")

    def __init__(self, conflicts: Iterable[int], counts: tuple[int, ...]):
        self.conflicts, self._counts = tuple(conflicts), counts

    @property
    def dimension(self) -> int:
        return len(self._counts) - 1

    def face_counts(self) -> tuple[int, ...]:
        return self._counts

    euler_characteristic = SimplicialComplex.euler_characteristic


def _matching_counts(d: Diagram) -> tuple[int, ...]:
    """Number of matchings of each size from 1 up, crossing by crossing.

    The state is the mask of the used regions that a later crossing meets;
    its value counts the matchings so far by size, packed in an int with w
    bits per coefficient, so adding a corner edge is a shift.  No count
    exceeds 5^n, one of five choices per crossing.
    """
    region_of = d.edge_region
    last_chance = {r: e // 4 for e, r in enumerate(region_of)}  # ascending: the last wins
    w = (5 ** d.n_crossings).bit_length()
    states = {0: 1}
    for c in range(d.n_crossings):
        corners = region_of[4 * c:4 * c + 4]
        live = ~sum(1 << r for r in set(corners) if last_chance[r] == c)
        grown: dict[int, int] = {}
        for used, poly in states.items():
            key = used & live  # c left unmatched
            grown[key] = grown.get(key, 0) + poly
            for r in corners:
                if not used >> r & 1:
                    key = (used | 1 << r) & live
                    grown[key] = grown.get(key, 0) + (poly << w)
        states = grown
    total = sum(states.values())
    return tuple(total >> k * w & (1 << w) - 1 for k in range(1, (total.bit_length() - 1) // w + 1))


def matching_complex(d: Diagram) -> IndependenceComplex:
    """Faces are the matchings: the independence complex of the corner
    edges, two of which conflict when they share a crossing or a region.

    Edge e is vertex e, and the face counts come from _matching_counts; no
    matching is listed.
    """
    region = d.edge_region
    conflicts = [
        sum(1 << f for f in range(d.n_edges) if f != e and (f // 4 == e // 4 or region[f] == region[e]))
        for e in range(d.n_edges)
    ]
    return IndependenceComplex(conflicts, _matching_counts(d))


def pure_matching_complex(d: Diagram) -> SimplicialComplex:
    """The pure part of the matching complex: its top facets are the
    perfect matchings, which every knot diagram has."""
    return SimplicialComplex(x.edges for x in _maximal_stream(d))


def morse_complex(d: Diagram) -> SimplicialComplex:
    """Subcomplex of the matching complex spanned by its loop-free facets.

    Facets are the maximal matchings that support no monochromatic loop,
    perfect or not, found in one pass of the maximal-matching search that
    prunes every edge closing a loop.  Faces are therefore the loop-free
    matchings that extend to a loop-free maximal one; a loop-free matching
    whose every completion acquires a loop is deliberately not a face.
    """
    return SimplicialComplex([x.edges for x in _maximal_stream(d, skip=True, acyclic=True)])


def pure_part(c: SimplicialComplex) -> SimplicialComplex:
    """The subcomplex generated by the top-dimensional facets."""
    top = c.dimension + 1
    return SimplicialComplex(f for f in c.facets if len(f) == top)


def pure_morse_from_trees(d: Diagram) -> SimplicialComplex:
    """One top simplex per (black spanning tree, black root, white root).

    Every simplex has dimension n - 1 for n crossings; the facet set equals
    the pure part of the Morse complex.
    """
    black = d.plane_graphs[BLACK]
    facets = [
        kpw(d, tree, v_b, v_w).edges
        for tree in spanning_trees(black)
        for v_b in d.black_faces
        for v_w in d.white_faces
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
    """Reduced integer homology, one entry per degree."""

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
            "reduced": True,
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


def _element_order(facets: Iterable[Sequence[int]], bit: dict[int, int]) -> list[int]:
    """The bits that bit gives the vertices of the facets, in decreasing
    order of the number of facets that hold the vertex, ties by the smaller
    vertex.

    A vertex held by many facets lies in many faces, so a step on it pairs
    many cells while most are still free; on the scrambled 7_7 closures
    this leaves fewer critical cells and shorter gradient paths than
    taking the vertices in increasing order, and least-degree-first leaves
    far more.
    """
    degree = Counter(v for f in facets for v in f)
    return [bit[v] for v in sorted(degree, key=lambda v: (-degree[v], v))]


def _element_matching(order: Iterable[int], free: set[int]) -> tuple[set[int], dict[int, int]]:
    """Critical cells and pairs (lower -> upper) of the iterated element
    matching on the cells free, which it consumes: for each vertex bit v of
    the order in turn, every unpaired cell without v goes with the cell that
    adds v, when that one is unpaired too.  It is acyclic by the
    element-matching lemma (Jonsson, Simplicial Complexes of Graphs) in any
    order of the vertices.  The pairs of one step are disjoint, so each
    leaves the free cells as it is found; the cells left are the critical
    ones.
    """
    up: dict[int, int] = {}
    for v in order:
        for t in [t for t in free if t & v and t ^ v in free]:
            up[t ^ v] = t
            free.remove(t)
            free.remove(t ^ v)
    return free, up


def _tree_partner(tree: list, x: int) -> int:
    """The upper cell that a matching tree pairs with a lower cell x, or 0
    for any other cell.

    The cell walks the tree by whether it holds each pivot.  The leaf it
    reaches is a cone vertex v, and the cell is the lower one of its pair
    when it lacks v, or 0, the critical cell.
    """
    node = tree[0]
    while node.__class__ is tuple:
        p, with_p, without_p = node
        node = tree[with_p if x & p else without_p]
    return x | node if node and not x & node else 0


def _matching_tree(conflicts: Sequence[int]) -> tuple[set[int], list]:
    """Critical cells and the tree of a matching tree on the independence
    complex of a graph (Bousquet-Melou, Linusson & Nevo, J. Algebraic
    Combin. 2008), without listing its faces; _tree_partner reads its pairs.

    A node (A, B) holds the independent sets that contain A and avoid B,
    where B holds every neighbour of A; its free vertices are the rest.  A
    free vertex with no free neighbour is a cone point, and the node pairs
    each of its sets s with s ^ v.  Otherwise the node splits on a pivot p,
    a free neighbour of the free vertex with the fewest, into (A + p, B and
    the neighbours of p) and (A, B + p).  A node with no free vertex is the
    critical cell A.  The matching is acyclic by Jonsson's cluster lemma.
    Tree nodes count against the KNOTMORSE_MAX_FACES cap.
    """
    cap = _max_faces()
    everything = (1 << len(conflicts)) - 1
    # a node is (pivot, index with it, index without it), a cone vertex bit,
    # or 0 for a critical cell
    tree: list = [None]
    critical: set[int] = set()
    stack = [(0, 0, 0)]  # (node index, A, B)
    while stack:
        i, a, b = stack.pop()
        free = everything & ~(a | b)
        best, fewest, rest = 0, None, free
        while rest and fewest != 0:
            v = rest & -rest
            rest ^= v
            k = (conflicts[v.bit_length() - 1] & free).bit_count()
            if fewest is None or k < fewest:
                best, fewest = v, k
        if not fewest:
            tree[i] = best
            if not best:
                critical.add(a)
            continue
        neighbours = conflicts[best.bit_length() - 1] & free
        p = neighbours & -neighbours
        j = len(tree)
        tree[i] = (p, j, j + 1)
        tree += [None, None]
        if len(tree) > cap:
            raise _over_cap(cap, "matching tree")
        stack += [(j, a | p, b | conflicts[p.bit_length() - 1]), (j + 1, a, b | p)]
    return critical, tree


def _morse_boundary(cells: list[int], critical: set[int], partner: Callable[[int], int | None],
                    budget: int | None) -> list[dict[int, int]]:
    """Boundary of each of the critical cells of one size in the Morse
    complex of the matching, whose pairs partner gives: the upper cell of a
    lower cell x, or a false value for any other cell.

    By gradient paths (Forman, Morse theory for cell complexes, 1998): a face
    g flows to itself when it is critical, to 0 when it is the upper cell of
    a pair, and to -<d t, g> sum <d t, h> flow(h) over the other faces h of t
    when it is the lower cell of a pair (g, t).  As <d t, t ^ b> is -1 to the
    number of bits of t below b, one pass over the bits of t alternates the
    signs.  Each flow is computed once, depth first on a stack of cells that
    carry their t, so no partner is looked up twice; a cell met again while
    its flow is open means that the gradient paths close a cycle.  Paths from
    cells with s vertices stay on cells with s - 1, so the flows live for one
    call.  A flow past the budget, the KNOTMORSE_MAX_FACES cap less the
    tree's nodes (None sets none), raises ResourceLimit at stage matching tree.
    """
    flow: dict[int, dict[int, int]] = {}  # also the boundary of each critical cell
    opened: dict[int, tuple] = {}  # x -> (the sum over its critical faces, its lower faces)
    for c in cells:
        stack = [(c, partner(c) or c)]
        while stack:
            x, t = stack[-1]
            if x in flow:
                stack.pop()
                continue
            acc, terms = opened.pop(x, (None, None))
            if terms is None:
                k = 1 if t == x else -(-1) ** (t & ((t ^ x) - 1)).bit_count()
                acc, terms, todo, rest = {}, [], [], t
                while rest:
                    b = rest & -rest
                    rest ^= b
                    g = t ^ b
                    if g != x:
                        if g in critical:
                            acc[g] = k
                        elif g in flow:
                            terms.append((k, g))
                        elif p := partner(g):
                            if g in opened:
                                raise InvariantViolation(
                                    "gradient paths close a cycle through the cell with mask %#x" % x)
                            terms.append((k, g))
                            todo.append((g, p))
                    k = -k
                if todo:
                    opened[x] = acc, terms
                    stack += todo
                    continue
            for k, g in terms:
                for h, w in flow[g].items():
                    acc[h] = acc.get(h, 0) + k * w
            if len(flow) == budget:
                raise _over_cap(_max_faces(), "matching tree")
            flow[x] = {h: w for h, w in acc.items() if w}
            stack.pop()
    return [flow[c] for c in cells]


def homology(c: SimplicialComplex | IndependenceComplex) -> HomologyResult:
    """Exact reduced integer homology through an acyclic matching on the
    cells: homologies([c])[0]."""
    return homologies([c])[0]


def homologies(cs: Sequence[SimplicialComplex | IndependenceComplex]) -> list[HomologyResult]:
    """homology of each complex of cs, in order.

    The cells are the faces and the empty face, so the chain complex is
    augmented and its homology is reduced.  Each independence complex is
    matched by its matching tree, whose nodes and the live flows of one
    size count against the KNOTMORSE_MAX_FACES cap; these go first, so that
    no tree is live beside the closure.  All the other complexes share one
    face closure (_closure, or a lone complex's own cached one), whose
    faces the cap counts once, and are matched one after another on their
    tagged cells (_closure_column), so one column's cells are live at a
    time.
    """
    trees = {i: _tree_homology(c) for i, c in enumerate(cs) if isinstance(c, IndependenceComplex)}
    closed = [c for c in cs if not isinstance(c, IndependenceComplex)]
    bit, levels = closed[0]._own_closure() if len(closed) == 1 else _closure(closed)
    columns = iter([_closure_column(c, 1 << j, bit, levels) for j, c in enumerate(closed)])
    return [trees[i] if i in trees else next(columns) for i in range(len(cs))]


def _tree_homology(c: IndependenceComplex) -> HomologyResult:
    """_morse_homology of the matching tree on the conflict graph of c."""
    critical, tree = _matching_tree(c.conflicts)
    return _morse_homology(c.dimension, critical, partial(_tree_partner, tree),
                           _max_faces() - len(tree), c.face_counts())


def _closure_column(c: SimplicialComplex, tag: int, bit: dict[int, int],
                    levels: list[dict[int, int]]) -> HomologyResult:
    """_morse_homology of the element matching on the cells of c, the
    complex of tag bit tag in the closure levels over the vertex bits bit.

    The cells are the faces with that tag and the empty face, gathered with
    their counts by size in one pass over the levels.
    """
    cells, counts = {0}, []
    for level in levels[:c.dimension + 1]:
        n = len(cells)
        cells.update([m for m, tags in level.items() if tags & tag])
        counts.append(len(cells) - n)
    critical, up = _element_matching(_element_order(c.facets, bit), cells)
    return _morse_homology(c.dimension, critical, up.get, None, tuple(counts))


def _morse_homology(dim: int, critical: set[int], partner: Callable[[int], int | None],
                    budget: int | None, face_counts: tuple[int, ...]) -> HomologyResult:
    """Reduced homology of a complex of dimension dim from the critical
    cells of an acyclic matching whose pairs partner gives (see
    _morse_boundary, which also takes the budget): their Morse boundary, one
    size at a time, goes through a dense Smith normal form, whose number of
    factors is the rank and whose factors above 1 are the torsion.
    """
    if dim < 0:
        return HomologyResult(betti=(), torsion=(), face_counts=())
    # cells[s], invs[s]: critical cells with s vertices, their boundary's factors
    cells = [sorted(x for x in critical if x.bit_count() == s) for s in range(dim + 2)]
    invs: list[list[int]] = [[] for _ in range(dim + 3)]
    for s in range(1, dim + 2):
        bd = _morse_boundary(cells[s], critical, partner, budget)
        if any(bd):
            invs[s] = _dense_smith([[col.get(a, 0) for col in bd] for a in cells[s - 1]])
    betti = [len(cells[k + 1]) - len(invs[k + 1]) - len(invs[k + 2]) for k in range(dim + 1)]
    if min(betti) < 0:
        raise InvariantViolation("negative betti number in %s" % betti)
    return HomologyResult(
        betti=tuple(betti),
        torsion=tuple(tuple(v for v in invs[k + 2] if v > 1) for k in range(dim + 1)),
        face_counts=face_counts,
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
    bound = connectivity_bound(d)
    return {
        "crossings": d.n_crossings,
        "max_face_degree": max(face.degree for face in d.faces),
        "bound": bound,
        "connected_guaranteed": bound >= 0,
        "simply_connected_guaranteed": bound >= 1,
    }
