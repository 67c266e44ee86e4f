"""Seeded inputs for the benchmark workloads.

Everything a workload feeds the program is made here from the run's seed,
and every generated PD text is recorded in the run's output, so a run can be
replayed from its output alone.
"""

from __future__ import annotations

import random
import re

_CROSSING_RE = re.compile(r"X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")

# Minimal diagrams of the `table` workload as rational twist vectors (the
# same vectors the package's corpus uses), one per crossing number 5 to 7.
TABLE_TWISTS = {
    "5_2": (3, 2),
    "6_3": (2, 1, 1, 2),
    "7_7": (2, 1, 1, 1, 2),
}

# Reduced homology ranks (degree -> rank) of the four complexes, copied from
# REFERENCE_HOMOLOGY so that an edit to the package's table cannot move the
# benchmark's gate.  3_1 and 4_1 are used by the benchmark's own tests.
EXPECTED_HOMOLOGY = {
    "3_1": {"morse": {1: 4}, "matching": {2: 4}, "pure_morse": {1: 4}, "pure_matching": {2: 4}},
    "4_1": {
        "morse": {2: 12},
        "matching": {2: 5, 3: 1},
        "pure_morse": {2: 12},
        "pure_matching": {2: 5, 3: 1},
    },
    "5_2": {
        "morse": {3: 6},
        "matching": {3: 20},
        "pure_morse": {2: 1, 3: 6},
        "pure_matching": {3: 13},
    },
    "6_3": {
        "morse": {3: 26},
        "matching": {4: 34},
        "pure_morse": {3: 32},
        "pure_matching": {3: 2, 4: 6},
    },
    "7_7": {
        "morse": {4: 50},
        "matching": {4: 2, 5: 14},
        "pure_morse": {3: 9, 4: 8},
        "pure_matching": {4: 30},
    },
}

# The `census` draws three vectors from the 8-crossing rational diagrams with
# at least three twist regions and no twist region of a single crossing.
# These do comparable work (about 36k to 46k loop-free matchings each), so
# the draw changes which diagrams are counted but not how much is counted;
# the torus-like vectors ((8), (2, 6), ...) are left out because T(2,9)
# already covers that shape.
CENSUS_POOL = (
    (2, 2, 4),
    (2, 3, 3),
    (2, 4, 2),
    (3, 2, 3),
    (3, 3, 2),
    (4, 2, 2),
    (2, 2, 2, 2),
)
CENSUS_DRAWS = 3

# T(2,9): 162 perfect dMfs, and fibonacci_family_count(4) dMfs in all.
TORUS_CROSSINGS = 9
TORUS_PERFECT = 162
TORUS_ALL = 52_288


def crossings_of(pd_text: str) -> list[tuple[int, ...]]:
    return [tuple(int(g) for g in m.groups()) for m in _CROSSING_RE.finditer(pd_text)]


def scramble_pd(pd_text: str, rng: random.Random) -> str:
    """The same projection written differently: crossings shuffled, each
    X(...) tuple rotated by a random amount and the arc labels renamed by a
    random permutation of 1..2n."""
    crossings = crossings_of(pd_text)
    labels = sorted({label for c in crossings for label in c})
    renamed = list(range(1, len(labels) + 1))
    rng.shuffle(renamed)
    rename = dict(zip(labels, renamed))
    rng.shuffle(crossings)
    out = []
    for c in crossings:
        k = rng.randrange(4)
        out.append(tuple(rename[label] for label in c[k:] + c[:k]))
    return " ".join("X(%d,%d,%d,%d)" % c for c in out)


def table_inputs(seed: int, bases: dict[str, str], passes: int) -> list[dict]:
    """A fresh scramble of every row's base PD text for each of ``passes``
    passes.  The program's cost depends on the labelling, so each pass of
    a run times another one."""
    rng = random.Random("table:%d" % seed)
    return [
        {"pass": k, "item": name, "pd": scramble_pd(pd, rng)}
        for k in range(passes)
        for name, pd in bases.items()
    ]


def census_inputs(seed: int, torus_pd, rational_pd) -> list[dict]:
    """T(2,9) first, then three distinct vectors drawn from CENSUS_POOL."""
    rng = random.Random("census:%d" % seed)
    drawn = rng.sample(CENSUS_POOL, CENSUS_DRAWS)
    items = [{"item": "T(2,%d)" % TORUS_CROSSINGS, "pd": torus_pd(TORUS_CROSSINGS)}]
    for twists in drawn:
        items.append(
            {
                "item": "R(%s)" % ",".join(map(str, twists)),
                "twists": list(twists),
                "pd": rational_pd(list(twists)),
            }
        )
    return items
