"""A speed gauge: a fixed pure-Python computation timed between operations.

The machine this benchmark was tuned on shares its cores with other tenants,
and its speed swings by about 1.5x in phases of ten seconds to a minute.
A run is too short to average over those phases, so the benchmark measures
the machine's speed beside the program: it times `sample()` at the start
and end of each pass and after every half second of calls, and scales each
call's wall time by NOMINAL_SECONDS over the mean of the samples just
before and just after it.  A scaled time is the time the call would have
taken with the machine at the speed at which `sample()` takes
NOMINAL_SECONDS.

The computation is exact rational Gaussian elimination with
`fractions.Fraction`, the same kind of work heisflag's exact linear algebra
does, and it does not use heisflag, so no change to the program can change
it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# seconds one sample() takes on a 2-vCPU x86-64 VM in its common, slower
# phase; only the ratio to a measured sample matters
NOMINAL_SECONDS = 0.014
REPEATS = 5
SIZE = 10

_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 4) + (SIZE if i == j else 0)
            for j in range(SIZE)] for i in range(SIZE)]


def _eliminate(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    m = [list(row) for row in rows]
    for c in range(SIZE):
        pivot = m[c][c]
        for r in range(c + 1, SIZE):
            f = m[r][c] / pivot
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return m


def sample() -> float:
    """Wall seconds of REPEATS eliminations of a fixed 10 x 10 rational matrix."""
    start = time.perf_counter()
    for _ in range(REPEATS):
        _eliminate(_MATRIX)
    return time.perf_counter() - start
