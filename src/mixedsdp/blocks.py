"""Exact integer block coefficients of the reduced matrices, computed with
the dual-basis polynomial method, plus a brute-force verifier that builds the
unreduced objects explicitly at tiny sizes.

Every contraction of a representative-set column pair against an orbit
indicator matrix is the coefficient sum, over one orbit fiber, of a sparse
polynomial in dual variables indexed by column patterns.  The polynomial
factorizes over the three (binary / ternary-trivial / ternary-sign) tensor
factors.  A column is its three counts of 1s (see ``tableaux``), so a
factor's polynomial depends only on its shape (a, b) and the two counts of
that factor; only the verifier writes a column out, as the Kronecker
product of its factors' tableau vectors over the words.  Summed over
row rearrangements and signed column swaps, each of the b height-2
columns of a factor contributes the one nonzero entry of a signed 2x2
combination of base-change terms, and each height-1 column one
base-change term per pair of cells, so the polynomials of all count pairs
of a shape are one product det^b * base^(a - b) whose marker digits count
the 1s of the two tableaux.

A dual monomial is a packed key of ``codes``: its nine pattern counts as
5-bit digits, so multiplying two monomials adds their ints, and its orbit
is the least of the key's six reorderings.  A polynomial is a pair of
arrays, sorted monomials and their coefficients.  ``build_blocks_d0``
forms the terms of all column pairs of a shape at once, as slices of one
ragged outer product of two factor polynomials, finds each term's variable
by a binary search over the variables' keys and sums the terms of each
(variable, pair) after one sort.  Coefficients are int64 where a bound
proves that every product and sum fits, and Python ints otherwise, so all
arithmetic is exact; floating point enters this module only in that bound
and in the verifier's eigenvalue cross-check.  A build keeps its factor
polynomials for its shapes; nothing is kept between builds.  The reduced
blocks are very sparse, so a block holds only the columns of its nonzero
upper-triangle entries.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, replace
from functools import reduce
from itertools import permutations, product
from math import comb
from typing import NamedTuple

import numpy as np

from mixedsdp.codes import (
    KEY_DIGIT,
    KEY_WEIGHTS,
    N_BIN_PATTERNS,
    N_COUNTS,
    N_TER_PATTERNS,
    PAT_12,
    PAT_13,
    PAT_23,
    PAT_ALL_EQUAL,
    PAT_DISTINCT,
    OrbitId,
    ProblemSpec,
    ResourceError,
    _letters,
    _pattern_of,
    check_key_digits,
    enumerate_orbits,
    orbit_from_counts,
    orbit_is_feasible,
    pack_counts,
    pair_orbit,
    reordered_keys,
    singleton_orbit,
)
from mixedsdp.tableaux import (
    ShapeD0,
    ShapeEmpty,
    build_shape_index_d0,
    build_shape_index_empty,
)


def _bin(p: int) -> int:
    """Packed degree-1 monomial of binary pattern p."""
    return int(KEY_WEIGHTS[p])


def _ter(p: int) -> int:
    """Packed degree-1 monomial of ternary pattern p."""
    return int(KEY_WEIGHTS[N_BIN_PATTERNS + p])


# Base-change tables: the expansion of column-pair tensors in the dual
# variables of the pattern bases.  Keys are (first, second) column indices;
# values map a packed degree-1 monomial to its integer coefficient.
_A1 = {
    (1, 1): {_bin(PAT_ALL_EQUAL): 1},
    (1, 2): {_bin(PAT_12): 1},
    (2, 1): {_bin(PAT_13): 1},
    (2, 2): {_bin(PAT_23): 1},
}
_A2 = {
    (1, 1): {_ter(PAT_ALL_EQUAL): 1},
    (1, 2): {_ter(PAT_12): 2},
    (2, 1): {_ter(PAT_13): 2},
    (2, 2): {_ter(PAT_23): 2, _ter(PAT_DISTINCT): 2},
}
_A3 = {
    (1, 1): {_ter(PAT_23): 2, _ter(PAT_DISTINCT): -2},
}

_ZERO_TABLES = {1: _A1, 2: _A2, 3: _A3}

CASE_ZERO = "zero"
CASE_EMPTY = "empty"

# Two marker digits above the nine counts: s counts the 1s in the first row
# of the tableau feeding the first base-change slot, t those of the tableau
# feeding the second, so a term's key shifted down by _STATE_SHIFT is the
# state s * 32 + t of its tableau pair.
_STATE_SHIFT = KEY_DIGIT * N_COUNTS
_T_MARK = 1 << _STATE_SHIFT
_S_MARK = _T_MARK << KEY_DIGIT
_COUNTS_MASK = _T_MARK - 1
_N_STATES = 1 << 2 * KEY_DIGIT

# Sums of |coefficients| are taken in float64, with a relative error of at
# most (n + 1) * 2**-53 over n terms, so an estimate below 2**62, or a product
# of two, proves the exact value below 2**63.
_INT64_SAFE = 2.0 ** 62
# A Python int column is int64 when every value and its negation fit.
_INT64_LIMIT = 2 ** 63


class _Poly(NamedTuple):
    """A sparse polynomial: its distinct packed monomials, sorted, and their
    nonzero integer coefficients, int64 or Python ints (dtype object)."""

    keys: np.ndarray
    coefs: np.ndarray


def _l1(coefs: np.ndarray) -> float:
    """The sum of |coefficients| in float64: a bound on every partial sum."""
    return float(np.abs(coefs).astype(np.float64).sum())


def _exact(coefs: np.ndarray, bound: float) -> np.ndarray:
    """The coefficients as int64 when ``bound``, a product of ``_l1``s of
    the operands, proves that the arithmetic ahead fits, else as Python
    ints."""
    return coefs.astype(np.int64 if bound < _INT64_SAFE else object, copy=False)


def _collect(keys: np.ndarray, coefs: np.ndarray) -> _Poly:
    """The polynomial of these terms: the coefficients of equal keys summed
    exactly, zero sums dropped."""
    if not len(keys):
        return _Poly(keys, coefs)
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    sums = np.add.reduceat(_exact(coefs, _l1(coefs))[order], starts)
    keep = sums != 0
    return _Poly(keys[starts][keep], sums[keep])


def _product(p: _Poly, q: _Poly) -> _Poly:
    """The exact product of two polynomials."""
    bound = _l1(p.coefs) * _l1(q.coefs)
    return _collect(
        np.add.outer(p.keys, q.keys).ravel(),
        np.multiply.outer(_exact(p.coefs, bound), _exact(q.coefs, bound)).ravel(),
    )


def _column(factor: int, height: int) -> _Poly:
    """The polynomial of one column of a factor's tableau pair, summed over
    its fillings, with their marker digits.  A height-1 column holding x in
    the first tableau and u in the second contributes T(x, u), T the
    factor's table.  A height-2 column holds x over 2 and u over 2, and with
    its signed swap contributes 2 T(x, u) T(2, 2) - 2 T(x, 2) T(2, u), which
    vanishes unless x = u = 1."""
    table = _ZERO_TABLES[factor]
    if height == 1:
        terms = [
            (e + _S_MARK * (x == 1) + _T_MARK * (u == 1), c)
            for (x, u), form in table.items() for e, c in form.items()
        ]
    else:
        terms = [
            (_S_MARK + _T_MARK + e1 + e2, sign * c1 * c2)
            for first, second, sign in (((1, 1), (2, 2), 2), ((1, 2), (2, 1), -2))
            for e1, c1 in table[first].items() for e2, c2 in table[second].items()
        ]
    keys, coefs = zip(*terms)
    return _collect(np.array(keys, dtype=np.int64), np.array(coefs, dtype=np.int64))


def _column_power(powers: dict, factor: int, height: int, r: int) -> _Poly:
    """The r-th power of a factor's column of that height, from the build's
    ``powers``, which holds one list of powers per (factor, height), grown
    from the unit polynomial as far as a shape needs."""
    unit = _Poly(np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64))
    found = powers.setdefault((factor, height), [unit])
    if len(found) <= r:
        column = _column(factor, height)
        while len(found) <= r:
            found.append(_product(found[-1], column))
    return found[r]


def _factor_poly(powers: dict, factor: int, lam: tuple[int, int]) -> _Poly:
    """The dual polynomials of one tensor factor of shape ``lam`` = (a, b)
    for all tableau pairs at once, summed over row rearrangements and signed
    column swaps: det^b * base^(a - b) for its height-2 column det and its
    height-1 column base (see ``_column``).  A term's marker digits name
    its pair by the counts of 1s in the first rows of the tableaux feeding
    the first and the second base-change slot; a pair without terms has
    polynomial 0."""
    a, b = lam
    return _product(_column_power(powers, factor, 2, b), _column_power(powers, factor, 1, a - b))


class _Operand(NamedTuple):
    """A polynomial of all tableau pairs as the pair products read it: the
    first term of each state s * 32 + t, and past the last one the end; the
    six reorderings of each term's counts (``codes.reordered_keys``; column
    0 is the counts' own key); the coefficients and their ``_l1``."""

    starts: np.ndarray
    reordered: np.ndarray
    coefs: np.ndarray
    l1: float


def _operand(poly: _Poly) -> _Operand:
    return _Operand(
        np.searchsorted(poly.keys, np.arange(_N_STATES + 1) << _STATE_SHIFT),
        reordered_keys(poly.keys & _COUNTS_MASK),
        poly.coefs,
        _l1(poly.coefs),
    )


def _ternary_poly(powers: dict, lam2: tuple[int, int], lam3: tuple[int, int]) -> _Poly:
    """The product of a shape's two ternary factor polynomials, with the
    trivial factor's marker digits: the sign factor has the one tableau
    pair (l3, l3)."""
    sign = _factor_poly(powers, 3, lam3)
    return _product(
        _factor_poly(powers, 2, lam2), _Poly(sign.keys & _COUNTS_MASK, sign.coefs)
    )


def _pair_terms(
    binary: _Operand, ternary: _Operand, cols: tuple[tuple[int, int, int], ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every term of the dual polynomial of every column pair i <= j of a
    shape, unsummed, as one ragged outer product: the pair's cell i * dim +
    j, and the indices of the term's factors in ``binary`` and ``ternary``.
    Column j feeds the first base-change slot."""
    cols = np.array(cols)
    dim = len(cols)
    i, j = np.nonzero(np.arange(dim)[:, None] <= np.arange(dim))
    s1 = cols[j, 0] << KEY_DIGIT | cols[i, 0]
    s2 = cols[j, 1] << KEY_DIGIT | cols[i, 1]
    lo1, lo2 = binary.starts[s1], ternary.starts[s2]
    n1, n2 = binary.starts[s1 + 1] - lo1, ternary.starts[s2 + 1] - lo2
    counts = n1 * n2
    pair = np.repeat(np.arange(len(counts)), counts)
    offset = np.arange(len(pair)) - np.repeat(np.cumsum(counts) - counts, counts)
    q, r = np.divmod(offset, n2[pair])
    return (i * dim + j)[pair], lo1[pair] + q, lo2[pair] + r


@dataclass(frozen=True, eq=False)
class Block:
    """One affine matrix constraint F0 + sum_v y_v F_v >= 0 of the reduced
    problem, as the columns of its nonzero exact upper-triangle entries,
    sorted by (matno, i, j), one per position, i <= j, matno 0 for F0 and
    v + 1 for F_v.  ``matno``, ``i`` and ``j`` are int64; ``value`` is int64
    when every value and its negation fit, else an object array of Python
    ints."""

    label: str
    dim: int
    matno: np.ndarray
    i: np.ndarray
    j: np.ndarray
    value: np.ndarray

    @classmethod
    def from_entries(cls, label: str, dim: int, entries) -> Block:
        """The block of (matno, i, j, value) entries in any order; a value
        that is not an int is refused, since int64 would truncate it."""
        entries = sorted(entries)
        matno, i, j, value = zip(*entries) if entries else ((),) * 4
        if not all(isinstance(v, int) for v in value):
            raise TypeError(f"block {label}: values must be ints")
        exact = all(-_INT64_LIMIT < v < _INT64_LIMIT for v in value)
        return cls(
            label, dim, *(np.array(c, dtype=np.int64) for c in (matno, i, j)),
            np.array(value, dtype=np.int64 if exact else object),
        )

    def entries(self):
        """The entries (matno, i, j, value) in order, as Python ints."""
        return zip(*(c.tolist() for c in (self.matno, self.i, self.j, self.value)))

    def __eq__(self, other):
        """Equal label, order and entries, compared as Python ints."""
        if not isinstance(other, Block):
            return NotImplemented
        return (self.label, self.dim) == (other.label, other.dim) and (
            list(self.entries()) == list(other.entries())
        )

    @property
    def coeff(self) -> dict[int, list[list[int]]]:
        """Dense {v: F_v} view, only for perfbench/workloads.py::_problem_counts;
        it goes when that read goes."""
        mats: dict[int, list[list[int]]] = {}
        for matno, i, j, val in self.entries():
            if matno:
                mat = mats.setdefault(matno - 1, [[0] * self.dim for _ in range(self.dim)])
                mat[i][j] = mat[j][i] = val
        return mats


def build_blocks_d0(
    spec: ProblemSpec,
    shapes: list[ShapeD0],
    variables: dict[OrbitId, int],
) -> list[Block]:
    """Reduced blocks for the all-zero-word stabilizer, one per shape.

    ``variables`` maps orbits of nonempty codes to variable indices
    (``enumerate_orbits``); coefficients of orbits outside it (those fixed
    to zero) are dropped.  A shape's terms are those of ``_pair_terms``:
    each term's canonical key is the least of the six sums of its factors'
    reordered keys, and a binary search over the variables' sorted keys
    gives its variable.  The terms of each (variable, cell) are summed by
    ``_collect``, and the sums, already sorted, are the block's columns.
    The build's shapes share the powers of the factors' columns and each
    shape's factor polynomials (``_factor_poly``, ``_ternary_poly``); both
    go with the build.
    """
    check_key_digits(spec)
    keys = pack_counts([w.bin_counts + w.ter_counts for w in variables])
    order = np.argsort(keys)
    # the sentinel above every key ends each search inside the array
    var_keys = np.append(keys[order], np.iinfo(np.int64).max)
    var_index = np.fromiter(variables.values(), dtype=np.int64, count=len(variables))[order]
    powers: dict = {}
    binaries: dict = {}
    ternaries: dict = {}
    out = []
    for shape in shapes:
        lam1, lam2, lam3 = shape.lambdas
        if lam1 not in binaries:
            binaries[lam1] = _operand(_factor_poly(powers, 1, lam1))
        if (lam2, lam3) not in ternaries:
            ternaries[lam2, lam3] = _operand(_ternary_poly(powers, lam2, lam3))
        binary, ternary = binaries[lam1], ternaries[lam2, lam3]
        cell, k1, k2 = _pair_terms(binary, ternary, shape.admissible)
        canon = (binary.reordered[k1] + ternary.reordered[k2]).min(axis=1)
        pos = np.searchsorted(var_keys, canon)
        hit = var_keys[pos] == canon
        bound = binary.l1 * ternary.l1
        dim = len(shape.admissible)
        sums = _collect(
            var_index[pos[hit]] * dim * dim + cell[hit],
            _exact(binary.coefs, bound)[k1[hit]] * _exact(ternary.coefs, bound)[k2[hit]],
        )
        v, cell = np.divmod(sums.keys, dim * dim)
        i, j = np.divmod(cell, dim)
        out.append(Block(f"{CASE_ZERO}:{shape.label()}", dim, v + 1, i, j, sums.coefs))
    return out


def _binomial_poly(l_plus: int, l_minus: int, plus_scale: int = 1) -> list[int]:
    """Coefficients of (1 + plus_scale*z)^l_plus * (1 - z)^l_minus."""
    poly = [1]
    for _ in range(l_plus):
        poly = [a + plus_scale * b for a, b in zip(poly + [0], [0] + poly)]
    for _ in range(l_minus):
        poly = [a - b for a, b in zip(poly + [0], [0] + poly)]
    return poly


def build_blocks_empty(
    spec: ProblemSpec,
    shapes: list[ShapeEmpty],
    variables: dict[OrbitId, int],
) -> list[Block]:
    """Reduced blocks for the empty-code stabilizer: 1x1 per shape, except
    the augmented shape which gains the empty-code row and column.  Orbits
    outside ``variables`` are dropped, as in ``build_blocks_d0``."""
    full = spec.num_words
    out = []
    for shape in shapes:
        l1, l2, l3, l4 = shape.counts
        scale = 2 ** (l1 + l2) * 3 ** l3 * 2 ** l4
        binpoly = _binomial_poly(l1, l2)
        terpoly = _binomial_poly(l3, l4, plus_scale=2)
        slot = int(shape.augmented)  # slot 0 of the augmented block is the empty code
        entries = []
        for a in range(spec.n2 + 1):
            for b in range(spec.n3 + 1):
                val = scale * binpoly[a] * terpoly[b]
                if val == 0:
                    continue
                v = variables.get(
                    singleton_orbit(spec) if a == b == 0 else pair_orbit(spec, a, b)
                )
                if v is not None:
                    entries.append((v + 1, slot, slot, val))
        if shape.augmented:
            svar = variables[singleton_orbit(spec)]
            entries += [(0, 0, 0, 1), (svar + 1, 0, 1, full)]
        out.append(Block.from_entries(f"{CASE_EMPTY}:{shape.label()}", slot + 1, entries))
    return out


# ---------------------------------------------------------------------------
# Brute-force verification at tiny sizes.

VERIFY_WORD_CAP = 108
VERIFY_SEED = 2024  # seeds the assignment of check (d)

# Column vectors of the representative matrices, indexed by entry value - 1.
_A_BASES = {
    1: ((1, 0), (0, 1)),
    2: ((1, 0, 0), (0, 1, 1)),
    3: ((0, 1, -1),),
}
_B_BASES = {1: (1, 1), 2: (1, -1), 3: (1, 1, 1), 4: (1, -1, 0)}


def _kron(vectors) -> np.ndarray:
    """The Kronecker product of integer vectors, [1] for none: the entry at
    a tuple of letters, the first letter slowest as in ``all_words``, is the
    product of the vectors' entries at those letters."""
    return reduce(lambda u, v: np.outer(u, v).ravel(), vectors, np.ones(1, dtype=np.int64))


def _tableau_vector(lam: tuple[int, int], ones: int, basis) -> np.ndarray:
    """The column vector over its factor space of the tableau of shape
    ``lam`` with rows 1^ones 2^(a - ones) and 2^b: the sum over distinct row
    rearrangements and signed column swaps of the Kronecker product of the
    basis columns of its cells, first row then second row.  Each entry sums
    at most C(a, ones) 2^b <= 2^(a+b) terms in {-1, 0, 1}, so a column's
    entries are at most 2^(n2+n3) in absolute value and int64 is exact."""
    a, b = lam
    out = np.zeros(len(basis[0]) ** (a + b), dtype=np.int64)
    # the second row is all 2s, so only the first row rearranges
    for first in set(permutations((1,) * ones + (2,) * (a - ones))):
        for swaps in product((0, 1), repeat=b):
            r0, r1 = list(first), [2] * b
            for i in np.flatnonzero(swaps):
                r0[i], r1[i] = r1[i], r0[i]
            out += (-1) ** sum(swaps) * _kron(basis[v - 1] for v in r0 + r1)
    return out


def representative_vector_zero(shape: ShapeD0, col: tuple[int, ...]) -> np.ndarray:
    """Explicit word-space vector, in ``all_words`` order, of one
    all-zero-word-case column, given by its counts of 1s: the Kronecker
    product of its three factors' tableau vectors.

    Binary coordinates follow the first factor's cells row-major; ternary
    coordinates take the trivial-type cells first, then the sign-type cells.
    """
    return _kron(
        _tableau_vector(lam, ones, _A_BASES[factor])
        for factor, lam, ones in zip((1, 2, 3), shape.lambdas, col)
    )


def representative_vector_empty(shape: ShapeEmpty) -> np.ndarray:
    """Explicit word-space vector, in ``all_words`` order, of the unique
    empty-code-case column: the Kronecker product of one ``_B_BASES`` column
    per coordinate, l1, l2, l3 and l4 of the four types in turn."""
    return _kron(
        _B_BASES[kind]
        for kind, count in zip((1, 2, 3, 4), shape.counts) for _ in range(count)
    )


@dataclass
class VerifyReport:
    spec: ProblemSpec
    checks: list[tuple[str, bool, str]]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def first_failure(self) -> str | None:
        for name, ok, detail in self.checks:
            if not ok:
                return f"{name}: {detail}"
        return None

    def summary(self) -> str:
        lines = [
            f"verify ({self.spec.n2},{self.spec.n3},d={self.spec.d}): "
            f"{'PASS' if self.passed else 'FAIL'}"
        ]
        for name, ok, detail in self.checks:
            lines.append(f"  [{'ok' if ok else 'FAIL'}] {name}" + (f" {detail}" if detail and not ok else ""))
        return "\n".join(lines)


def standard_tableaux(lam: tuple[int, int]) -> int:
    """The number of standard tableaux of shape (a, b): C(a+b, b) - C(a+b, b-1)."""
    a, b = lam
    return comb(a + b, b) - comb(a + b, b - 1) if b else 1


def _inertia(mat: np.ndarray) -> np.ndarray:
    """The numbers of negative and of positive eigenvalues of a symmetric
    matrix; one counts as zero when |eigenvalue| <= 1e-9 * max |eigenvalue|."""
    eig = np.linalg.eigvalsh(mat)
    tol = 1e-9 * np.abs(eig).max(initial=0.0)
    return np.array([(eig < -tol).sum(), (eig > tol).sum()])


# _PATTERNS[a, b, c] is the column pattern of the letters a, b, c.
_PATTERNS = np.array([[[_pattern_of(a, b, c) for c in range(3)] for b in range(3)] for a in range(3)])


def _orbit_table(spec: ProblemSpec, variables: dict[OrbitId, int], lookup: np.ndarray) -> np.ndarray:
    """The matno, orbit index + 1, of every ordered word pair (x, y), in
    ``all_words`` order, for the triple whose column pattern at a coordinate
    of letters x_c, y_c is ``lookup[x_c, y_c]``.  Each pair's nine pattern
    counts are summed coordinate by coordinate as one mixed-radix key, and
    ``orbit_from_counts`` runs once per distinct key."""
    radix = np.array([spec.n2 + 1] * N_BIN_PATTERNS + [spec.n3 + 1] * N_TER_PATTERNS)
    place = np.cumprod(np.concatenate(([1], radix[:-1])))
    keys = np.zeros((spec.num_words, spec.num_words), dtype=np.int64)
    for c, col in enumerate(_letters(spec).T):
        keys += place[N_BIN_PATTERNS * (c >= spec.n2) + lookup[col[:, None], col]]
    distinct, inverse = np.unique(keys.ravel(), return_inverse=True)
    matnos = np.array([
        variables[orbit_from_counts(counts[:N_BIN_PATTERNS], counts[N_BIN_PATTERNS:])] + 1
        for counts in (distinct[:, None] // place % radix).tolist()
    ])
    return matnos[inverse].reshape(keys.shape)


def _contraction_mismatch(
    table, columns, block: Block, label: str, orbits: list[OrbitId]
) -> str | None:
    """The first entry, in (i, j, matno) order, where ``block`` differs from
    the contraction of the integer vectors ``columns`` over the table's rows
    against the explicit matno ``table``, over the keys of both; None when
    they agree.  The contraction runs over the columns' nonzero entries."""
    columns = [{int(x): int(c[x]) for x in np.flatnonzero(c)} for c in columns]
    want: dict[tuple[int, int, int], int] = defaultdict(int)
    for j, v in enumerate(columns):
        for i, u in enumerate(columns[:j + 1]):
            for x, cx in u.items():
                for y, cy in v.items():
                    want[i, j, int(table[x, y])] += cx * cy
    got = {(i, j, m): val for m, i, j, val in block.entries()}
    for i, j, m in sorted(want.keys() | got.keys()):
        explicit, engine = want.get((i, j, m), 0), got.get((i, j, m), 0)
        if explicit != engine:
            what = f"orbit {orbits[m - 1].describe()}" if m else "constant"
            return f"shape {label} entry ({i},{j}) {what}: engine {engine}, explicit {explicit}"
    return None


def _multiplicities(
    spec: ProblemSpec, shapes_zero: list[ShapeD0], shapes_empty: list[ShapeEmpty]
) -> tuple[list[int], list[int]]:
    """How often each block of the two cases repeats: once per dimension of
    its irreducible representation, C(n3, l2) f(lam1) f(lam2) in the zero
    case and C(n2, l2) C(n3, l4) 2^l4 in the empty case, f counting standard
    tableaux."""
    mult_zero = [
        comb(spec.n3, s.counts[1]) * standard_tableaux(s.lambdas[0]) * standard_tableaux(s.lambdas[1])
        for s in shapes_zero
    ]
    mult_empty = [comb(spec.n2, s.counts[1]) * comb(spec.n3, s.counts[3]) * 2 ** s.counts[3] for s in shapes_empty]
    return mult_zero, mult_empty


def dimension_count(
    spec: ProblemSpec, shapes_zero: list[ShapeD0], shapes_empty: list[ShapeEmpty]
) -> tuple[str, bool, str]:
    """Check (b) of ``verify_reduction``, as (name, passed, detail): each
    case's block dimensions times their multiplicities count its kept words,
    in the zero case the 1 + sum over a + b >= d of C(n2, a) C(n3, b) 2^b
    words of weight 0 or at least d, in the empty case every word.  It
    writes no word out, so it runs at every size."""
    mult_zero, mult_empty = _multiplicities(spec, shapes_zero, shapes_empty)
    count_zero = sum(m * len(s.admissible) for m, s in zip(mult_zero, shapes_zero))
    kept = 1 + sum(
        comb(spec.n2, a) * comb(spec.n3, b) * 2 ** b
        for a in range(spec.n2 + 1) for b in range(spec.n3 + 1) if a + b >= spec.d
    )
    return (
        "block dimensions times multiplicities count the words",
        count_zero == kept and sum(mult_empty) == spec.num_words,
        f"zero case {count_zero} for {kept} words of weight 0 or >= {spec.d}; "
        f"empty case {sum(mult_empty)} for {spec.num_words} words",
    )


def verify_reduction(spec: ProblemSpec) -> VerifyReport:
    """Check the reduction engine against explicit unreduced objects.

    (a) builds every representative column explicitly in the word space,
    as an integer vector in ``all_words`` order: a Kronecker product of
    tableau vectors (``representative_vector_zero``) or of per-coordinate
    basis columns (``representative_vector_empty``);
    (b) builds one explicit table per stabilizer case, holding the SDPA
    matno of each entry of the full matrix (orbit index + 1, 0 for the
    constant 1; the index is that in the d = 1 map of ``enumerate_orbits``,
    which holds every nonempty orbit) from the column patterns of each word
    pair's triple (``_orbit_table``), and counts each case's kept words
    against its block dimensions (``dimension_count``); (c) compares
    every engine block entry with the explicit contraction of its columns in
    exact integer arithmetic, over the keys of both, so an entry either side
    lacks is caught too; (d) draws one assignment in (-1, 1) on the feasible orbits
    and checks, by Sylvester's law of inertia, that each full matrix has as
    many negative and as many positive eigenvalues as its blocks counted
    with their multiplicities.  Zero eigenvalues are not compared: a word of
    weight 1..d-1 gives the zero-case matrix a zero row.
    """
    if spec.num_words > VERIFY_WORD_CAP:
        raise ResourceError(
            f"word space {spec.num_words} exceeds verifier cap {VERIFY_WORD_CAP}"
        )
    checks: list[tuple[str, bool, str]] = []
    # every nonempty orbit; the zero case meets triples
    variables = enumerate_orbits(replace(spec, d=1, k=3))
    orbits = list(variables)
    # zero case: the words as rows, the orbit of {0, x, y}, that of the
    # triple (0, x, y), at (x, y); empty case: the empty code first, then
    # the words, the orbit of {x, y}, that of the triple (x, y, y), at (x, y)
    table_zero = _orbit_table(spec, variables, _PATTERNS[0])
    table_empty = np.zeros((spec.num_words + 1, spec.num_words + 1), dtype=np.int64)
    table_empty[0, 1:] = table_empty[1:, 0] = variables[singleton_orbit(spec)] + 1
    table_empty[1:, 1:] = _orbit_table(spec, variables, np.diagonal(_PATTERNS, axis1=1, axis2=2))

    shapes_zero = build_shape_index_d0(spec)
    shapes_empty = build_shape_index_empty(spec)
    blocks_zero = build_blocks_d0(spec, shapes_zero, variables)
    blocks_empty = build_blocks_empty(spec, shapes_empty, variables)

    checks.append(dimension_count(spec, shapes_zero, shapes_empty))

    # (c) zero-word case
    mismatch = None
    for shape, block in zip(shapes_zero, blocks_zero):
        columns = [representative_vector_zero(shape, col) for col in shape.admissible]
        mismatch = _contraction_mismatch(table_zero, columns, block, shape.label(), orbits)
        if mismatch:
            break
    checks.append((
        "zero-case block entries equal explicit contraction",
        mismatch is None,
        mismatch or "",
    ))

    # (c) empty case; the augmented shape leads with the empty code's row
    mismatch = None
    empty_code = np.eye(1, spec.num_words + 1, dtype=np.int64)[0]
    for shape, block in zip(shapes_empty, blocks_empty):
        vec = np.concatenate(([0], representative_vector_empty(shape)))
        columns = [empty_code, vec] if shape.augmented else [vec]
        mismatch = _contraction_mismatch(table_empty, columns, block, shape.label(), orbits)
        colsum = int(vec.sum())
        if not mismatch and not shape.augmented and colsum:
            mismatch = f"non-augmented shape {shape.label()} has column sum {colsum}"
        if mismatch:
            break
    checks.append((
        "empty-case block entries equal explicit contraction",
        mismatch is None,
        mismatch or "",
    ))

    # (d) y is zero outside the feasible orbits, so indexing the values by
    # the tables gives the full matrices
    rng = random.Random(VERIFY_SEED)
    scale = np.array([1.0] + [rng.uniform(-1.0, 1.0) if orbit_is_feasible(w, spec.d) else 0.0 for w in orbits])

    def block_inertia(block_list, mults):
        total = np.zeros(2, dtype=np.int64)
        for block, mult in zip(block_list, mults):
            m = np.zeros((block.dim, block.dim))
            np.add.at(m, (block.i, block.j), scale[block.matno] * block.value.astype(np.float64))
            total += mult * _inertia(m + np.triu(m, 1).T)
        return total

    mult_zero, mult_empty = _multiplicities(spec, shapes_zero, shapes_empty)
    full = np.array([_inertia(scale[table_zero]), _inertia(scale[table_empty])])
    reduced = np.array([block_inertia(blocks_zero, mult_zero), block_inertia(blocks_empty, mult_empty)])
    checks.append((
        "(negative, positive) eigenvalue counts equal blocks times multiplicities",
        np.array_equal(full, reduced),
        f"(zero case, empty case): full matrices {full.tolist()}, blocks {reduced.tolist()}",
    ))

    return VerifyReport(spec, checks)
