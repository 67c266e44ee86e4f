"""Frozen reference homology for the bundled minimal diagrams.

Every value below was produced by the engine in this package and is
checked by the test suite in three ways: every cell of every row, betti
numbers and torsion, against a second engine that eliminates each boundary
matrix on its own (tests/test_complexes.py,
test_reference_rows_agree_with_the_oracle_engine); the 3_1 and 4_1 rows
against a fraction-arithmetic rank computation; and every small row against
the Euler characteristic forced by the face counts.  All cells are
torsion-free, so each cell is recorded as a degree -> rank map of reduced
betti numbers.

One cell deserves a note.  For 5_2 the pure Morse complex is generated by
its 84 top facets, whose downward closure has reduced Euler characteristic
-5; the degree-2 generator in that cell is therefore forced, since dropping
it would require characteristic -6.  Computing the same cell from every
rational presentation of the diagram gives the identical answer.

A row is computed by complexes.homologies.  The matching column is an
independence complex, whose matching tree lists no face.  The other three
are generated by nested families of facets: a pure Morse facet is both a
Morse facet and a perfect matching, so every pure Morse face lies in the
other two closures.  homologies closes the union of their facets once,
each face tagged with the columns that hold it, and each column's homology
reads only the faces with its tag; the KNOTMORSE_MAX_FACES cap bounds the
faces of that one closure.
"""

from __future__ import annotations

from .complexes import (
    HomologyResult,
    IndependenceComplex,
    SimplicialComplex,
    homologies,
    matching_complex,
    morse_complex,
    pure_matching_complex,
    pure_part,
)
from .diagram import Diagram

__all__ = [
    "COLUMNS",
    "REFERENCE_HOMOLOGY",
    "reference_complexes",
    "computed_row",
]

# column order used by reports and the command line table
COLUMNS = ("morse", "matching", "pure_morse", "pure_matching")

REFERENCE_HOMOLOGY: dict[str, dict[str, dict[int, int]]] = {
    "3_1": {
        "morse": {1: 4},
        "matching": {2: 4},
        "pure_morse": {1: 4},
        "pure_matching": {2: 4},
    },
    "4_1": {
        "morse": {2: 12},
        "matching": {2: 5, 3: 1},
        "pure_morse": {2: 12},
        "pure_matching": {2: 5, 3: 1},
    },
    "5_1": {
        "morse": {2: 1, 3: 2},
        "matching": {3: 19},
        "pure_morse": {2: 1, 3: 2},
        "pure_matching": {3: 9},
    },
    "5_2": {
        "morse": {3: 6},
        "matching": {3: 20},
        "pure_morse": {2: 1, 3: 6},  # degree-2 rank forced by Euler count
        "pure_matching": {3: 13},
    },
    "6_1": {
        "morse": {3: 6, 4: 4},
        "matching": {4: 28},
        "pure_morse": {3: 3, 4: 4},
        "pure_matching": {3: 2, 4: 3},
    },
    "6_2": {
        "morse": {3: 14, 4: 2},
        "matching": {4: 30},
        "pure_morse": {3: 5, 4: 2},
        "pure_matching": {3: 2, 4: 1},
    },
    "6_3": {
        "morse": {3: 26},
        "matching": {4: 34},
        "pure_morse": {3: 32},
        "pure_matching": {3: 2, 4: 6},
    },
    "7_1": {
        "morse": {2: 1, 5: 2},
        "matching": {4: 2, 5: 1},
        "pure_morse": {2: 1, 5: 2},
        "pure_matching": {4: 1},
    },
    "7_2": {
        "morse": {4: 2, 5: 4},
        "matching": {4: 2, 5: 8},
        "pure_morse": {3: 3, 5: 4},
        "pure_matching": {4: 12},
    },
    "7_3": {
        "morse": {4: 9},
        "matching": {4: 2, 5: 3},
        "pure_morse": {4: 6},
        "pure_matching": {4: 12},
    },
    "7_4": {
        "morse": {4: 10, 5: 2},
        "matching": {4: 2, 5: 6},
        "pure_morse": {3: 2, 5: 2},
        "pure_matching": {4: 16},
    },
    "7_5": {
        "morse": {4: 23},
        "matching": {4: 2, 5: 9},
        "pure_morse": {4: 8},
        "pure_matching": {4: 22},
    },
    "7_6": {
        "morse": {4: 43},
        "matching": {4: 2, 5: 14},
        "pure_morse": {3: 4, 4: 12},
        "pure_matching": {4: 26},
    },
    "7_7": {
        "morse": {4: 50},
        "matching": {4: 2, 5: 14},
        "pure_morse": {3: 9, 4: 8},
        "pure_matching": {4: 30},
    },
}


def reference_complexes(d: Diagram) -> dict[str, SimplicialComplex | IndependenceComplex]:
    """The four complexes of a diagram keyed like the reference table."""
    morse = morse_complex(d)
    return {
        "morse": morse,
        "matching": matching_complex(d),
        "pure_morse": pure_part(morse),
        "pure_matching": pure_matching_complex(d),
    }


def computed_row(d: Diagram) -> dict[str, HomologyResult]:
    """Reduced homology of all four complexes, keyed like the table."""
    complexes = reference_complexes(d)
    return dict(zip(COLUMNS, homologies([complexes[name] for name in COLUMNS])))
