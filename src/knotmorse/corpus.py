"""Built-in projection corpus: torus braids, twist-vector knots, and a kink.

Every named entry is a reduced alternating knot projection, constructed
either from the closed 2-strand braid formula or from a twist vector via the
tangle machine below, and validated at load time: the PD code must build, be
connected and reduced, trace a single closed curve, have the advertised
crossing number, and the spanning-tree count of its black graph must equal
the advertised determinant.  The (crossings, determinant) pair is unique
across the corpus, which pins each entry to its intended knot.

The tangle machine grows a 4-ended tangle in a square with corners NW, NE,
SW, SE.  twist_east crosses the NE and SE ends over a new crossing placed to
the right; twist_south crosses SW and SE under a new crossing placed below.
A twist vector [a1, a2, ...] applies a1 east twists, then a2 south twists,
alternating, and the numerator closure joins NW to NE and SW to SE.  The
determinant of the result is the numerator of the continued fraction
a1 + 1/(a2 + 1/(...)), which the loader checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .counting import count_spanning_trees
from .diagram import BLACK, Diagram, UnionFind, build_diagram, is_reduced, parse_pd
from .errors import InvariantViolation

__all__ = [
    "CorpusEntry",
    "load_corpus",
    "corpus_names",
    "get_entry",
    "torus_pd",
    "rational_pd",
    "continued_fraction_determinant",
]


def torus_pd(m: int) -> str:
    """PD code of the closed 2-strand braid with m crossings (m >= 2).

    For odd m one curve runs through labels 1..2m.  For even m the braid
    closes to two curves, labelled a_i = i and b_i = m + i (a_0 = a_m), and
    crossing i is X(a_{i-1}, b_{i-1}, b_i, a_i).
    """
    if m < 2:
        raise ValueError("need at least two crossings")
    if m % 2 == 0:
        a = lambda i: (i - 1) % m + 1
        return " ".join(
            "X(%d,%d,%d,%d)" % (a(i - 1), m + a(i - 1), m + a(i), a(i)) for i in range(1, m + 1)
        )
    w = lambda x: ((x - 1) % (2 * m)) + 1
    return " ".join(
        "X(%d,%d,%d,%d)" % (w(2 * i + 1), w(2 * i + m + 1), w(2 * i + 2), w(2 * i + m + 2))
        for i in range(m)
    )


class _Tangle:
    """Wire-level tangle builder; wires become arc labels at closure time."""

    __slots__ = ("crossings", "wires", "nw", "ne", "sw", "se")

    def __init__(self) -> None:
        self.crossings: list[tuple[int, int, int, int]] = []
        self.wires = 0
        # the 0-tangle: two horizontal strands
        self.nw = self.ne = self._fresh()
        self.sw = self.se = self._fresh()

    def _fresh(self) -> int:
        self.wires += 1
        return self.wires - 1

    def twist_east(self) -> None:
        # New crossing east of the box; CCW slots from NW: (NW, SW, SE, NE).
        new_ne, new_se = self._fresh(), self._fresh()
        self.crossings.append((self.ne, self.se, new_se, new_ne))
        self.ne, self.se = new_ne, new_se

    def twist_south(self) -> None:
        new_sw, new_se = self._fresh(), self._fresh()
        self.crossings.append((self.sw, new_sw, new_se, self.se))
        self.sw, self.se = new_sw, new_se

    def numerator_pd(self) -> str:
        uf = UnionFind(self.wires)
        uf.union(self.nw, self.ne)
        uf.union(self.sw, self.se)
        labels: dict[int, int] = {}
        out = []
        for slots in self.crossings:
            resolved = []
            for w in slots:
                root = uf.find(w)
                if root not in labels:
                    labels[root] = len(labels) + 1
                resolved.append(labels[root])
            out.append("X(%d,%d,%d,%d)" % tuple(resolved))
        return " ".join(out)


def rational_pd(twists: Sequence[int]) -> str:
    """PD code of the numerator closure of the twist-vector tangle.

    The tangle must end on an east twist or the closure would kink the last
    crossing, so an even-length vector is first rewritten to the odd-length
    expansion with the same value and crossing count: [..., a] -> [..., a-1, 1].
    """
    if not twists or any(a < 1 for a in twists):
        raise ValueError("twist vector must be nonempty with positive entries")
    ts = list(twists)
    if len(ts) % 2 == 0:
        last = ts.pop()
        if last < 2:
            raise ValueError("an even-length twist vector must end with at least 2")
        ts += [last - 1, 1]
    t = _Tangle()
    for i, a in enumerate(ts):
        op = t.twist_east if i % 2 == 0 else t.twist_south
        for _ in range(a):
            op()
    return t.numerator_pd()


def continued_fraction_determinant(twists: Sequence[int]) -> int:
    """Numerator of a1 + 1/(a2 + 1/(...)), the determinant of the closure;
    the vectors rational_pd accepts, else its ValueError."""
    if not twists or any(a < 1 for a in twists):
        raise ValueError("twist vector must be nonempty with positive entries")
    value = Fraction(twists[-1])
    for a in reversed(twists[:-1]):
        value = a + 1 / value
    return value.numerator


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    pd_text: str
    crossings: int
    determinant: int
    diagram: Diagram


# Explicit codes for the two classical examples; twist vectors for the rest.
_EXPLICIT = {
    "3_1": "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)",
    "4_1": "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)",
    "kink": "X(1,2,2,1)",
}

_TWISTS = {
    "5_1": [5],
    "5_2": [3, 2],
    "6_1": [4, 2],
    "6_2": [3, 1, 2],
    "6_3": [2, 1, 1, 2],
    "7_1": [7],
    "7_2": [5, 2],
    "7_3": [4, 3],
    "7_4": [3, 1, 3],
    "7_5": [3, 2, 2],
    "7_6": [2, 2, 1, 2],
    "7_7": [2, 1, 1, 1, 2],
}

_EXPECTED = {
    "3_1": (3, 3),
    "4_1": (4, 5),
    "5_1": (5, 5),
    "5_2": (5, 7),
    "6_1": (6, 9),
    "6_2": (6, 11),
    "6_3": (6, 13),
    "7_1": (7, 7),
    "7_2": (7, 11),
    "7_3": (7, 13),
    "7_4": (7, 15),
    "7_5": (7, 17),
    "7_6": (7, 19),
    "7_7": (7, 21),
    "kink": (1, 1),
}


def _make_entry(name: str, pd_text: str) -> CorpusEntry:
    d = build_diagram(parse_pd(pd_text))
    expected_cr, expected_det = _EXPECTED[name]
    if d.n_crossings != expected_cr:
        raise InvariantViolation(
            "%s: expected %d crossings, built %d" % (name, expected_cr, d.n_crossings)
        )
    # A strand runs straight through each crossing, from slot s to slot s + 2.
    curves = UnionFind(d.n_arcs)
    for c in range(d.n_crossings):
        for s in (0, 1):
            curves.union(d.dart_arc[4 * c + s], d.dart_arc[4 * c + s + 2])
    strands = len({curves.find(a) for a in range(d.n_arcs)})
    if strands != 1:
        raise InvariantViolation("%s: %d closed curves, expected a knot" % (name, strands))
    det = count_spanning_trees(d.plane_graphs[BLACK])
    if det != expected_det:
        raise InvariantViolation("%s: determinant %d, expected %d" % (name, det, expected_det))
    if name != "kink" and not is_reduced(d):
        raise InvariantViolation("%s: projection is not reduced" % name)
    return CorpusEntry(
        name=name,
        pd_text=pd_text,
        crossings=d.n_crossings,
        determinant=det,
        diagram=d,
    )


@lru_cache(maxsize=1)
def load_corpus() -> dict[str, CorpusEntry]:
    entries = {}
    for name, text in _EXPLICIT.items():
        entries[name] = _make_entry(name, text)
    for name, twists in _TWISTS.items():
        det = continued_fraction_determinant(twists)
        if det != _EXPECTED[name][1]:
            raise InvariantViolation(
                "%s: twist vector %s has determinant %d, expected %d"
                % (name, twists, det, _EXPECTED[name][1])
            )
        entries[name] = _make_entry(name, rational_pd(twists))
    pairs = [(e.crossings, e.determinant) for e in entries.values() if e.name != "kink"]
    if len(pairs) != len(set(pairs)):
        raise InvariantViolation("(crossings, determinant) must identify entries")
    return entries


def corpus_names() -> tuple[str, ...]:
    return tuple(sorted(load_corpus()))


def get_entry(name: str) -> CorpusEntry:
    corpus = load_corpus()
    if name not in corpus:
        raise KeyError(
            "unknown corpus entry %r (have: %s)" % (name, ", ".join(sorted(corpus)))
        )
    return corpus[name]
