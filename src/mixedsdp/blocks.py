"""Exact integer block coefficients of the reduced matrices, computed with
the dual-basis polynomial method, plus a brute-force verifier that builds the
unreduced objects explicitly at tiny sizes.

Every contraction of a representative-set column pair against an orbit
indicator matrix is the coefficient sum, over one orbit fiber, of a sparse
polynomial in dual variables indexed by column patterns.  The polynomial
factorizes over the three (binary / ternary-trivial / ternary-sign) tensor
factors; within a factor, the sum over row rearrangements and column-swap
signs is collected by a dynamic program over Ferrers columns, each height-2
column contributing a signed 2x2 combination of base-change terms and each
height-1 column a single term.

A dual monomial is one int of 5-bit digits: the four binary pattern counts,
then the five ternary ones, so multiplying two monomials adds their ints.
A column is its three counts of 1s (see ``tableaux``), so a factor's
polynomial depends only on its shape and the two counts of that factor, and
one dynamic programme per (factor, shape) yields the polynomials of all its
count pairs at once; only the verifier writes a column's rows out.
``build_blocks_d0`` keeps all of one build's state and shares it across the
build's shapes: a memo of those programmes' results and of the product of
the two ternary factors' polynomials for each pair of their keys, and the
variable of each monomial met so far, which is unpacked once to find its
orbit.  Nothing is kept between builds.  The reduced blocks are very
sparse, so the builders append only their nonzero upper-triangle triplets.
All arithmetic is integer; no floating point enters this module outside the
verifier's eigenvalue cross-check.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, replace
from itertools import permutations, product
from math import comb

import numpy as np

from mixedsdp.codes import (
    N_BIN_PATTERNS,
    N_TER_PATTERNS,
    PAT_12,
    PAT_13,
    PAT_23,
    PAT_ALL_EQUAL,
    PAT_DISTINCT,
    OrbitId,
    ProblemSpec,
    ResourceError,
    Word,
    all_words,
    canonical_orbit,
    code,
    enumerate_orbits,
    orbit_from_counts,
    orbit_is_feasible,
    pair_orbit,
    singleton_orbit,
    zero_word,
)
from mixedsdp.tableaux import (
    ShapeD0,
    ShapeEmpty,
    build_shape_index_d0,
    build_shape_index_empty,
)

DIGIT = 5
MAX_COUNT = (1 << DIGIT) - 1


def _bin(p: int) -> int:
    """Packed degree-1 monomial of binary pattern p."""
    return 1 << DIGIT * p


def _ter(p: int) -> int:
    """Packed degree-1 monomial of ternary pattern p."""
    return 1 << DIGIT * (N_BIN_PATTERNS + p)


def unpack_monomial(mono: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (binary, ternary) pattern counts of a packed monomial."""
    digits = [
        mono >> DIGIT * i & MAX_COUNT
        for i in range(N_BIN_PATTERNS + N_TER_PATTERNS)
    ]
    return tuple(digits[:N_BIN_PATTERNS]), tuple(digits[N_BIN_PATTERNS:])


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


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = defaultdict(int)
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] += c1 * c2
    return {e: c for e, c in out.items() if c}


def _poly_axpy(acc: dict, p: dict, scale: int) -> None:
    for e, c in p.items():
        acc[e] += c * scale


def _factor_polys(
    factor: int, lam: tuple[int, int]
) -> dict[tuple[int, int], dict[int, int]]:
    """Dual polynomials of one tensor factor of shape ``lam`` for every
    tableau pair, summed over row rearrangements and signed column swaps,
    as maps from packed monomials to integer coefficients, keyed by the
    counts of 1s in the first rows of the tableaux feeding the first and
    the second base-change slot; a pair missing here has polynomial 0.

    A dynamic programme over the columns keeps, per count of 1s placed in
    each first row, the polynomial of the columns so far; each transition
    adds the products of its terms with the column's factor straight into
    the next state.  No state is pruned, so the end states serve every pair.
    """
    table = _ZERO_TABLES[factor]
    a, b = lam
    values = (1, 2) if factor != 3 else (1,)

    det = {}
    if b:
        for x in values:
            for u in values:
                term = defaultdict(int)
                _poly_axpy(term, _poly_mul(table[(x, u)], table[(2, 2)]), 2)
                _poly_axpy(term, _poly_mul(table[(x, 2)], table[(2, u)]), -2)
                det[(x, u)] = {e: c for e, c in term.items() if c}

    states: dict[tuple[int, int], dict] = {(0, 0): {0: 1}}
    for col in range(a):
        factor_for = det if col < b else table
        new: dict[tuple[int, int], dict] = {}
        for (i, j), poly in states.items():
            for x in values:
                for u in values:
                    acc = new.setdefault(
                        (i + (x == 1), j + (u == 1)), defaultdict(int)
                    )
                    for e2, c2 in factor_for[(x, u)].items():
                        for e, c in poly.items():
                            acc[e + e2] += c * c2
        states = {
            k: {e: c for e, c in p.items() if c} for k, p in new.items()
        }
    return states


def _factor_poly(
    memo: dict, factor: int, lam: tuple[int, int], first: int, second: int
) -> dict[int, int]:
    """One pair's polynomial, from the memo's ``_factor_polys`` of its
    factor and shape."""
    states = memo.get((factor, lam))
    if states is None:
        states = memo[(factor, lam)] = _factor_polys(factor, lam)
    return states.get((first, second), {})


def expand_p(
    lambdas: tuple, sigma: tuple[int, ...], tau: tuple[int, ...], memo: dict
) -> dict[int, int]:
    """Dual polynomial of a column pair of a shape with partitions
    ``lambdas``, each column given by its counts of 1s: sparse map from
    packed monomials (``unpack_monomial`` gives their binary and ternary
    pattern counts) to integer coefficients.

    Summing the coefficients over the monomials whose counts give one orbit
    (``orbit_from_counts``) yields the contraction of the two columns
    against that orbit's indicator matrix.  The first base-change slot
    carries ``tau``.  ``memo`` holds what earlier pairs computed: the
    ``_factor_polys`` of each (factor, lambda), and the product of the two
    ternary factors' polynomials for each pair of their (lambda, counts of
    1s); it only saves work.
    """
    k2 = (2, lambdas[1], tau[1], sigma[1])
    k3 = (3, lambdas[2], tau[2], sigma[2])
    p23 = memo.get((k2, k3))
    if p23 is None:
        p23 = memo[(k2, k3)] = _poly_mul(
            _factor_poly(memo, *k2), _factor_poly(memo, *k3)
        )
    p1 = _factor_poly(memo, 1, lambdas[0], tau[0], sigma[0])
    # the binary and ternary digits are disjoint, so no two products collide
    return {eb + et: cb * ct for eb, cb in p1.items() for et, ct in p23.items()}


@dataclass(frozen=True)
class Block:
    """One affine matrix constraint F0 + sum_v y_v F_v >= 0 of the reduced
    problem: ``entries`` holds its nonzero exact upper-triangle values, sorted,
    as (matno, i, j, value) with i <= j, matno 0 for F0 and v + 1 for F_v."""

    label: str
    dim: int
    entries: tuple[tuple[int, int, int, int], ...]

    @property
    def coeff(self) -> dict[int, list[list[int]]]:
        """Dense {v: F_v} view, only for perfbench/workloads.py::_problem_counts;
        it goes when that read goes."""
        mats: dict[int, list[list[int]]] = {}
        for matno, i, j, val in self.entries:
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

    ``variables`` maps orbits to variable indices (``enumerate_orbits``);
    coefficients of orbits outside it (those fixed to zero) are dropped.
    Each pair's polynomial is read from ``expand_p``.  The build's shapes
    share one memo (one dynamic programme per factor shape and the ternary
    products, see ``expand_p``) and one table from packed monomial to
    variable, ``None`` for a dropped orbit; both go with the build.
    """
    if max(spec.n2, spec.n3) > MAX_COUNT:
        raise ValueError(
            f"({spec.n2}, {spec.n3}): a pattern count above {MAX_COUNT} "
            f"does not fit a {DIGIT}-bit monomial digit"
        )
    memo: dict = {}
    var_of_mono: dict[int, int | None] = {}
    out = []
    for shape in shapes:
        cols = shape.admissible
        dim = len(cols)
        entries = []
        for i in range(dim):
            for j in range(i, dim):
                agg: dict[int | None, int] = defaultdict(int)
                for mono, c in expand_p(shape.lambdas, cols[i], cols[j], memo).items():
                    try:
                        v = var_of_mono[mono]
                    except KeyError:
                        v = var_of_mono[mono] = variables.get(
                            orbit_from_counts(*unpack_monomial(mono))
                        )
                    agg[v] += c
                entries += [
                    (v + 1, i, j, val) for v, val in agg.items() if val and v is not None
                ]
        out.append(Block(f"{CASE_ZERO}:{shape.label()}", dim, tuple(sorted(entries))))
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
        out.append(Block(f"{CASE_EMPTY}:{shape.label()}", slot + 1, tuple(sorted(entries))))
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


def _tableau_vector(lam: tuple[int, int], ones: int, basis) -> dict:
    """The column vector over its factor space of the tableau of shape
    ``lam`` with rows 1^ones 2^(a - ones) and 2^b, as a sparse map from
    letter-index tuples to integers: sum over distinct row rearrangements
    and signed column swaps of the tensor of basis columns."""
    a, b = lam
    rows = [(1,) * ones + (2,) * (a - ones), (2,) * b]
    row_arrs = [sorted(set(permutations(row))) for row in rows]
    out: dict = defaultdict(int)
    for arrangement in product(*row_arrs):
        for swaps in product((0, 1), repeat=b):
            sign = -1 if sum(swaps) % 2 else 1
            r0, r1 = map(list, arrangement)
            for i, sw in enumerate(swaps):
                if sw:
                    r0[i], r1[i] = r1[i], r0[i]
            vecs = [basis[v - 1] for v in r0 + r1]
            for idx in product(*[range(len(v)) for v in vecs]):
                coef = sign
                for vec, i in zip(vecs, idx):
                    coef *= vec[i]
                if coef:
                    out[idx] += coef
    return {k: v for k, v in out.items() if v}


def representative_vector_zero(shape: ShapeD0, col: tuple[int, ...]) -> dict[Word, int]:
    """Explicit word-space vector of one all-zero-word-case column, given by
    its counts of 1s.

    Binary coordinates follow the first factor's cells row-major; ternary
    coordinates take the trivial-type cells first, then the sign-type cells.
    """
    u1 = _tableau_vector(shape.lambdas[0], col[0], _A_BASES[1])
    u2 = _tableau_vector(shape.lambdas[1], col[1], _A_BASES[2])
    u3 = _tableau_vector(shape.lambdas[2], col[2], _A_BASES[3])
    out: dict[Word, int] = {}
    for kb, cb in u1.items():
        for k2, c2 in u2.items():
            for k3, c3 in u3.items():
                out[Word(kb, k2 + k3)] = cb * c2 * c3
    return out


def representative_vector_empty(spec: ProblemSpec, shape: ShapeEmpty) -> dict[Word, int]:
    """Explicit word-space vector of the unique empty-code-case column."""
    l1, l2, l3, l4 = shape.counts
    out: dict[Word, int] = {}
    for w in all_words(spec):
        val = 1
        for i, bit in enumerate(w.bits):
            val *= _B_BASES[1][bit] if i < l1 else _B_BASES[2][bit]
        for i, trit in enumerate(w.trits):
            val *= _B_BASES[3][trit] if i < l3 else _B_BASES[4][trit]
        if val:
            out[w] = val
    return out


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


def _contraction_mismatch(
    table, columns, block: Block, label: str, orbits: list[OrbitId]
) -> str | None:
    """The first entry, in (i, j, matno) order, where ``block`` differs from
    the contraction of the sparse ``columns`` (maps from table rows to
    integers) against the explicit matno ``table``, over the keys of both;
    None when they agree."""
    want: dict[tuple[int, int, int], int] = defaultdict(int)
    for j, v in enumerate(columns):
        for i, u in enumerate(columns[:j + 1]):
            for x, cx in u.items():
                for y, cy in v.items():
                    want[i, j, int(table[x, y])] += cx * cy
    got = {(i, j, m): val for m, i, j, val in block.entries}
    for i, j, m in sorted(want.keys() | got.keys()):
        explicit, engine = want.get((i, j, m), 0), got.get((i, j, m), 0)
        if explicit != engine:
            what = f"orbit {orbits[m - 1].describe()}" if m else "constant"
            return f"shape {label} entry ({i},{j}) {what}: engine {engine}, explicit {explicit}"
    return None


def verify_reduction(spec: ProblemSpec) -> VerifyReport:
    """Check the reduction engine against explicit unreduced objects.

    (a) builds every representative column explicitly in the word space;
    (b) builds one explicit table per stabilizer case, holding the SDPA
    matno of each entry of the full matrix (orbit index + 1, 0 for the
    constant 1; the index is that in the d = 1 map of ``enumerate_orbits``,
    which holds every nonempty orbit), and checks that each case's block
    dimensions times their multiplicities count its kept words (weight 0 or
    at least d in the zero case, every word in the empty case); (c) compares
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
    words = list(all_words(spec))
    nwords = len(words)
    pos = {w: i for i, w in enumerate(words)}
    # every nonempty orbit; the zero case meets triples
    variables = enumerate_orbits(replace(spec, d=1, k=3))
    orbits = list(variables)
    zero = zero_word(spec)

    def matno_of(*ws: Word) -> int:
        return variables[canonical_orbit(spec, code(*ws))] + 1

    # zero case: the words as rows, the orbit of {0, x, y} at (x, y); empty
    # case: the empty code first, then the words, the orbit of {x, y} at (x, y)
    table_zero = np.array([[matno_of(zero, x, y) for y in words] for x in words])
    table_empty = np.zeros((nwords + 1, nwords + 1), dtype=np.int64)
    table_empty[0, 1:] = table_empty[1:, 0] = variables[singleton_orbit(spec)] + 1
    table_empty[1:, 1:] = [[matno_of(x, y) for y in words] for x in words]

    shapes_zero = build_shape_index_d0(spec)
    shapes_empty = build_shape_index_empty(spec)
    blocks_zero = build_blocks_d0(spec, shapes_zero, variables)
    blocks_empty = build_blocks_empty(spec, shapes_empty, variables)

    # completeness: a block repeats once per dimension of its irreducible
    # representation, C(n3, l2) f(lam1) f(lam2) in the zero case and
    # C(n2, l2) C(n3, l4) 2^l4 in the empty case, f counting standard tableaux
    mult_zero = [
        comb(spec.n3, s.counts[1]) * standard_tableaux(s.lambdas[0]) * standard_tableaux(s.lambdas[1])
        for s in shapes_zero
    ]
    mult_empty = [comb(spec.n2, s.counts[1]) * comb(spec.n3, s.counts[3]) * 2 ** s.counts[3] for s in shapes_empty]
    count_zero = sum(m * len(s.admissible) for m, s in zip(mult_zero, shapes_zero))
    kept = sum(1 for w in words if not 0 < sum(map(bool, w.bits + w.trits)) < spec.d)
    checks.append((
        "block dimensions times multiplicities count the words",
        count_zero == kept and sum(mult_empty) == nwords,
        f"zero case {count_zero} for {kept} words of weight 0 or >= {spec.d}; "
        f"empty case {sum(mult_empty)} for {nwords} words",
    ))

    # (c) zero-word case
    mismatch = None
    for shape, block in zip(shapes_zero, blocks_zero):
        columns = [
            {pos[w]: c for w, c in representative_vector_zero(shape, col).items()}
            for col in shape.admissible
        ]
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
    for shape, block in zip(shapes_empty, blocks_empty):
        vec = {pos[w] + 1: c for w, c in representative_vector_empty(spec, shape).items()}
        columns = [{0: 1}, vec] if shape.augmented else [vec]
        mismatch = _contraction_mismatch(table_empty, columns, block, shape.label(), orbits)
        colsum = sum(vec.values())
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
            for matno, i, j, val in block.entries:
                m[i, j] += scale[matno] * val
            total += mult * _inertia(m + np.triu(m, 1).T)
        return total

    full = np.array([_inertia(scale[table_zero]), _inertia(scale[table_empty])])
    reduced = np.array([block_inertia(blocks_zero, mult_zero), block_inertia(blocks_empty, mult_empty)])
    checks.append((
        "(negative, positive) eigenvalue counts equal blocks times multiplicities",
        np.array_equal(full, reduced),
        f"(zero case, empty case): full matrices {full.tolist()}, blocks {reduced.tolist()}",
    ))

    return VerifyReport(spec, checks)
