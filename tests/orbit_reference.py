"""Reference counts that only the tests use: orbit sizes by counting column
fillings, and the group-averaged indicator of a code, a feasible point of
the assembled problem."""

from fractions import Fraction
from itertools import combinations
from math import factorial

from mixedsdp.codes import (
    N_BIN_PATTERNS,
    N_TER_PATTERNS,
    PATTERN_PERMS,
    Code,
    OrbitId,
    OrbitTable,
    ProblemSpec,
    _apply_pattern_perm,
    canonical_orbit,
)

# Number of column fillings realizing each pattern (choices of letters).
_BIN_FILLINGS = (2, 2, 2, 2)
_TER_FILLINGS = (3, 6, 6, 6, 6)


def _multinomial(counts) -> int:
    n = sum(counts)
    out = factorial(n)
    for c in counts:
        out //= factorial(c)
    return out


def orbit_size(spec: ProblemSpec, w: OrbitId) -> int:
    """Number of codes in the orbit.

    Ordered triples with a fixed pattern count vector number
    multinomial(columns) * (letter fillings per column); a set of size >= 2
    corresponds to exactly 6 ordered triples ranging over the distinct
    relabelings of the canonical counts, a singleton to one.
    """
    if w.size == 0:
        return 1
    variants = {
        (
            _apply_pattern_perm(w.bin_counts, pm, N_BIN_PATTERNS),
            _apply_pattern_perm(w.ter_counts, pm, N_TER_PATTERNS),
        )
        for pm in PATTERN_PERMS
    }
    total = 0
    for bc, tc in variants:
        fill = 1
        for c, f in zip(bc, _BIN_FILLINGS):
            fill *= f ** c
        for c, f in zip(tc, _TER_FILLINGS):
            fill *= f ** c
        total += _multinomial(bc) * _multinomial(tc) * fill
    return total // (6 if w.size >= 2 else 1)


def code_indicator_assignment(
    spec: ProblemSpec, table: OrbitTable, c: Code
) -> dict[int, Fraction]:
    """Group-averaged indicator of a code: the fraction of each orbit's
    codes that are subcodes of ``c``.  Feasible for the assembled problem
    whenever ``c`` has minimum distance >= d, with objective |c|."""
    counts: dict[int, int] = {}
    for size in (1, 2, 3):
        for sub in combinations(c.words, size):
            w = canonical_orbit(spec, Code(tuple(sub)))
            idx = table.index_of(w)
            counts[idx] = counts.get(idx, 0) + 1
    return {
        idx: Fraction(cnt, orbit_size(spec, table.orbits[idx]))
        for idx, cnt in counts.items()
    }
