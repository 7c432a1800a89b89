"""Reference counts that only the tests use: the library's orbit of a code
by padding it to a triple and counting its columns, word distances, the
orbit of a count vector by reordering its patterns directly, the variables
found one count tuple at a time, orbit sizes by counting column fillings,
the group-averaged indicator of a code, a feasible point of the assembled
problem, and the float matrix of a block at a point."""

from fractions import Fraction
from itertools import combinations
from math import factorial

import numpy as np

from mixedsdp.codes import (
    N_BIN_PATTERNS,
    N_TER_PATTERNS,
    PAT_23,
    PAT_ALL_EQUAL,
    PATTERN_PERMS,
    OrbitId,
    ProblemSpec,
    _compositions,
    _pattern_of,
    _size_from_counts,
    orbit_from_counts,
    orbit_is_feasible,
)

# Number of column fillings realizing each pattern (choices of letters).
_BIN_FILLINGS = (2, 2, 2, 2)
_TER_FILLINGS = (3, 6, 6, 6, 6)


def canonical_orbit(spec: ProblemSpec, c) -> OrbitId:
    """The orbit of a code of one to three distinct words, given as letter
    rows: the code padded to a triple, (v, v, v) or (x, y, y), its column
    patterns counted per alphabet and canonicalised by the library's
    ``orbit_from_counts``."""
    triple = (*c, c[-1], c[-1])[:3]
    patterns = [_pattern_of(*col) for col in zip(*triple)]
    return orbit_from_counts(
        tuple(map(patterns[:spec.n2].count, range(N_BIN_PATTERNS))),
        tuple(map(patterns[spec.n2:].count, range(N_TER_PATTERNS))),
    )


def hamming_distance(v, w) -> int:
    return sum(a != b for a, b in zip(v, w))


def min_distance(c) -> int | None:
    return min((hamming_distance(v, w) for v, w in combinations(c, 2)), default=None)


def _apply_pattern_perm(counts, perm_map, npat):
    out = [0] * npat
    for p, c in enumerate(counts):
        out[perm_map[p]] += c
    return tuple(out)


def reorderings(bin_counts, ter_counts) -> set:
    """The (binary, ternary) count pairs of the six reorderings of a triple
    with the given pattern counts."""
    return {
        (
            _apply_pattern_perm(bin_counts, pm, N_BIN_PATTERNS),
            _apply_pattern_perm(ter_counts, pm, N_TER_PATTERNS),
        )
        for pm in PATTERN_PERMS
    }


def reference_orbit(bin_counts, ter_counts) -> OrbitId:
    """The orbit of the counts: the least of their reorderings, binary
    counts compared first."""
    cb, ct = min(reorderings(bin_counts, ter_counts))
    return OrbitId(_size_from_counts(cb, ct), cb, ct)


def _count_vectors(total: int, width: int, patterns: tuple[int, ...]):
    """Count vectors of ``width`` patterns summing to ``total``, zero
    outside ``patterns``."""
    for comp in _compositions(total, len(patterns)):
        out = [0] * width
        for p, c in zip(patterns, comp):
            out[p] = c
        yield tuple(out)


def tuple_orbits(spec: ProblemSpec) -> dict[OrbitId, int]:
    """The map of ``enumerate_orbits``, built from count tuples one vector
    at a time with ``reference_orbit``, at both levels: no packed keys and
    no distance profiles.  A code of at most two words pads to a triple
    (x, y, y), whose columns show only the patterns {123} and {1|23}, so
    level 2 counts only those."""
    patterns = tuple(range(N_TER_PATTERNS)) if spec.k == 3 else (PAT_ALL_EQUAL, PAT_23)
    bins = list(_count_vectors(spec.n2, N_BIN_PATTERNS, tuple(p for p in patterns if p < N_BIN_PATTERNS)))
    ters = list(_count_vectors(spec.n3, N_TER_PATTERNS, patterns))
    found = {reference_orbit(bc, tc) for bc in bins for tc in ters}
    kept = sorted(w for w in found if orbit_is_feasible(w, spec.d))
    return {w: i for i, w in enumerate(kept)}


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
    total = 0
    for bc, tc in reorderings(w.bin_counts, w.ter_counts):
        fill = 1
        for c, f in zip(bc, _BIN_FILLINGS):
            fill *= f ** c
        for c, f in zip(tc, _TER_FILLINGS):
            fill *= f ** c
        total += _multinomial(bc) * _multinomial(tc) * fill
    return total // (6 if w.size >= 2 else 1)


def code_indicator_assignment(
    spec: ProblemSpec, variables: dict[OrbitId, int], c
) -> dict[int, Fraction]:
    """Group-averaged indicator of a code, given as letter rows, by variable
    index: the fraction of each orbit's codes that are subcodes of ``c``.
    Feasible for the assembled problem whenever ``c`` has minimum distance
    >= d, with objective |c|."""
    counts: dict[OrbitId, int] = {}
    for size in (1, 2, 3):
        for sub in combinations(c, size):
            w = canonical_orbit(spec, sub)
            counts[w] = counts.get(w, 0) + 1
    return {
        variables[w]: Fraction(cnt, orbit_size(spec, w))
        for w, cnt in counts.items()
    }


def block_at(block, y) -> np.ndarray:
    """The dense float matrix F0 + sum_v y_v F_v of a block at the point y."""
    m = np.zeros((block.dim, block.dim))
    for matno, i, j, val in block.entries():
        m[i, j] += (y[matno - 1] if matno else 1.0) * val
    return m + np.triu(m, 1).T
