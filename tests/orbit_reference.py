"""Reference counts that only the tests use: the canonical row of a count
vector through the library's packed keys, the orbit of a code by padding it
to a triple and counting its columns, word distances, the orbit of a count
vector by reordering its patterns directly, the variables found one count
tuple at a time, orbit sizes by counting column fillings, the
group-averaged indicator of a code, a feasible point of the assembled
problem, and the float matrix of a block at a point.

An orbit is a row of its nine canonical pattern counts, binary then
ternary, as ``enumerate_orbits`` gives it; here a row is a tuple of ints,
so that it can key a dict."""

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
    ProblemSpec,
    _compositions,
    _distances_allowed,
    _pattern_of,
    _size_from_counts,
    pack_counts,
    reordered_keys,
    unpack_keys,
)

# Number of column fillings realizing each pattern (choices of letters).
_BIN_FILLINGS = (2, 2, 2, 2)
_TER_FILLINGS = (3, 6, 6, 6, 6)


def orbit_from_counts(counts) -> tuple:
    """The canonical row of any ordered triple with these nine column-pattern
    counts: the least of the six library ``reordered_keys`` of their packed
    key.  So each count must fit a 5-bit key digit; ``pack_counts`` refuses
    one above ``KEY_COUNT_MAX`` with a ``ValueError``."""
    (canon,) = unpack_keys(reordered_keys(pack_counts(counts)).min(axis=1)).tolist()
    return tuple(canon)


def canonical_orbit(spec: ProblemSpec, c) -> tuple:
    """The orbit of a code of one to three distinct words, given as letter
    rows: the code padded to a triple, (v, v, v) or (x, y, y), its column
    patterns counted per alphabet and canonicalised by
    ``orbit_from_counts``."""
    triple = (*c, c[-1], c[-1])[:3]
    patterns = [_pattern_of(*col) for col in zip(*triple)]
    return orbit_from_counts(
        [*map(patterns[:spec.n2].count, range(N_BIN_PATTERNS)),
         *map(patterns[spec.n2:].count, range(N_TER_PATTERNS))]
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


def reorderings(counts) -> set:
    """The count rows of the six reorderings of a triple with the given nine
    pattern counts."""
    return {
        _apply_pattern_perm(counts[:N_BIN_PATTERNS], pm, N_BIN_PATTERNS)
        + _apply_pattern_perm(counts[N_BIN_PATTERNS:], pm, N_TER_PATTERNS)
        for pm in PATTERN_PERMS
    }


def reference_orbit(counts) -> tuple:
    """The orbit of the counts: the least of their reorderings, binary
    counts compared first."""
    return min(reorderings(tuple(counts)))


def pair_row(spec: ProblemSpec, a: int, b: int) -> tuple:
    """The canonical row of the pair of words at profile (a, b), differing
    in a binary and b ternary coordinates: the counts of (x, y, y), a and b
    columns {1|23}; the singleton's row at (0, 0)."""
    return (spec.n2 - a, 0, 0, a, spec.n3 - b, 0, 0, b, 0)


def variable_index(variables, w) -> int:
    """The index of the row ``w`` among the rows of ``variables``."""
    return [tuple(r) for r in variables.tolist()].index(tuple(w))


def orbit_order(row) -> tuple:
    """The sort key of a row among the variables: code size, then counts."""
    return int(_size_from_counts(row)), tuple(row)


def _count_vectors(total: int, width: int, patterns: tuple[int, ...]):
    """Count vectors of ``width`` patterns summing to ``total``, zero
    outside ``patterns``."""
    for comp in _compositions(total, len(patterns)):
        out = [0] * width
        for p, c in zip(patterns, comp):
            out[p] = c
        yield tuple(out)


def tuple_orbits(spec: ProblemSpec) -> list[tuple]:
    """The rows of ``enumerate_orbits``, built from count tuples one vector
    at a time with ``reference_orbit``, at both levels: no packed keys and
    no distance profiles.  A code of at most two words pads to a triple
    (x, y, y), whose columns show only the patterns {123} and {1|23}, so
    level 2 counts only those."""
    patterns = tuple(range(N_TER_PATTERNS)) if spec.k == 3 else (PAT_ALL_EQUAL, PAT_23)
    bins = list(_count_vectors(spec.n2, N_BIN_PATTERNS, tuple(p for p in patterns if p < N_BIN_PATTERNS)))
    ters = list(_count_vectors(spec.n3, N_TER_PATTERNS, patterns))
    found = {reference_orbit(bc + tc) for bc in bins for tc in ters}
    return sorted((w for w in found if _distances_allowed(w, spec.d)), key=orbit_order)


def _multinomial(counts) -> int:
    n = sum(counts)
    out = factorial(n)
    for c in counts:
        out //= factorial(c)
    return out


def orbit_size(spec: ProblemSpec, w) -> int:
    """Number of codes in the orbit.

    Ordered triples with a fixed pattern count vector number
    multinomial(columns) * (letter fillings per column); a set of size >= 2
    corresponds to exactly 6 ordered triples ranging over the distinct
    relabelings of the canonical counts, a singleton to one.
    """
    total = 0
    for r in reorderings(tuple(w)):
        bc, tc = r[:N_BIN_PATTERNS], r[N_BIN_PATTERNS:]
        fill = 1
        for c, f in zip(bc, _BIN_FILLINGS):
            fill *= f ** c
        for c, f in zip(tc, _TER_FILLINGS):
            fill *= f ** c
        total += _multinomial(bc) * _multinomial(tc) * fill
    return total // (6 if _size_from_counts(w) >= 2 else 1)


def code_indicator_assignment(
    spec: ProblemSpec, variables, c
) -> dict[int, Fraction]:
    """Group-averaged indicator of a code, given as letter rows, by variable
    index, the row of ``variables`` holding the orbit's counts: the fraction
    of each orbit's codes that are subcodes of ``c``.  Feasible for the
    assembled problem whenever ``c`` has minimum distance >= d, with
    objective |c|."""
    index = {tuple(w): i for i, w in enumerate(variables.tolist())}
    counts: dict[tuple, int] = {}
    for size in (1, 2, 3):
        for sub in combinations(c, size):
            w = canonical_orbit(spec, sub)
            counts[w] = counts.get(w, 0) + 1
    return {
        index[w]: Fraction(cnt, orbit_size(spec, w))
        for w, cnt in counts.items()
    }


def block_at(block, y) -> np.ndarray:
    """The dense float matrix F0 + sum_v y_v F_v of a block at the point y."""
    m = np.zeros((block.dim, block.dim))
    for matno, i, j, val in block.entries():
        m[i, j] += (y[matno - 1] if matno else 1.0) * val
    return m + np.triu(m, 1).T
