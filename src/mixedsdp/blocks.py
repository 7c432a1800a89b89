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
``build_blocks_d0`` keeps all of one build's state and shares it across the
build's shapes: a memo of the factor polynomials of the tableau pairs met so
far, and the variable of each monomial met so far, which is unpacked once to
find its orbit.  Nothing is kept between builds.  The reduced blocks are very
sparse, so the builders append only their nonzero upper-triangle triplets.
All arithmetic is integer; no floating point enters this module outside the
verifier's eigenvalue cross-check.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from mixedsdp.codes import (
    N_BIN_PATTERNS,
    N_TER_PATTERNS,
    PAT_12,
    PAT_13,
    PAT_23,
    PAT_ALL_EQUAL,
    PAT_DISTINCT,
    OrbitTable,
    ProblemSpec,
    ResourceError,
    Word,
    all_words,
    canonical_orbit,
    code,
    enumerate_orbits,
    orbit_from_counts,
    pair_orbit,
    singleton_orbit,
    zero_word,
)
from mixedsdp.tableaux import (
    ShapeD0,
    ShapeEmpty,
    Tableau,
    TableauTriple,
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


def _factor_poly(
    factor: int,
    lam: tuple[int, ...],
    first: Tableau,
    second: Tableau,
) -> dict[int, int]:
    """Dual polynomial of one tensor factor for a tableau pair of common
    shape, summed over row rearrangements and signed column swaps, as a map
    from packed monomials to integer coefficients.

    ``first``/``second`` feed the first/second slot of the base-change
    tensors.  Within one build the same tableau pairs recur across many
    column pairs, so ``expand_p`` looks each one up in the build's memo
    before calling this.
    """
    table = _ZERO_TABLES[factor]
    if not lam:
        return {0: 1}
    a = lam[0]
    b = lam[1] if len(lam) > 1 else 0
    values = (1, 2) if factor != 3 else (1,)
    if b and (set(first[1]) != {2} or set(second[1]) != {2}):
        raise ValueError("second row of a two-row tableau must be all 2s")
    ones_first = first[0].count(1)
    ones_second = second[0].count(1)

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
        remaining = a - col - 1
        new: dict[tuple[int, int], dict] = {}
        for (i, j), poly in states.items():
            for x in values:
                ii = i + (x == 1)
                if ii > ones_first or ones_first - ii > remaining:
                    continue
                for u in values:
                    jj = j + (u == 1)
                    if jj > ones_second or ones_second - jj > remaining:
                        continue
                    acc = new.setdefault((ii, jj), defaultdict(int))
                    for e, c in _poly_mul(poly, factor_for[(x, u)]).items():
                        acc[e] += c
        states = {
            k: {e: c for e, c in p.items() if c} for k, p in new.items()
        }
    return states.get((ones_first, ones_second), {})


def expand_p(
    shape: ShapeD0, sigma: TableauTriple, tau: TableauTriple, memo: dict
) -> dict[int, int]:
    """Dual polynomial of a column pair: sparse map from packed monomials
    (``unpack_monomial`` gives their binary and ternary pattern counts) to
    integer coefficients.

    Summing the coefficients over the monomials whose counts give one orbit
    (``orbit_from_counts``) yields the contraction of the two columns
    against that orbit's indicator matrix.  The first base-change slot
    carries ``tau``.  ``memo`` holds the factor polynomials already
    computed, keyed by (factor, lambda, first, second); it only saves work.
    """
    polys = []
    for key in zip((1, 2, 3), shape.lambdas, tau, sigma):
        poly = memo.get(key)
        if poly is None:
            poly = memo[key] = _factor_poly(*key)
        polys.append(poly)
    p1, p2, p3 = polys
    p23 = _poly_mul(p2, p3)
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
    orbits: OrbitTable,
    var_of_orbit: dict[int, int],
) -> list[Block]:
    """Reduced blocks for the all-zero-word stabilizer, one per shape.

    ``var_of_orbit`` maps orbit indices to variable indices; coefficients of
    orbits outside it (those fixed to zero) are dropped.  The build's shapes
    share one memo of factor polynomials and one table from packed monomial
    to variable, ``None`` for a dropped orbit; both go with the build.
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
                for mono, c in expand_p(shape, cols[i], cols[j], memo).items():
                    try:
                        v = var_of_mono[mono]
                    except KeyError:
                        widx = orbits.index_of(
                            orbit_from_counts(*unpack_monomial(mono))
                        )
                        v = var_of_mono[mono] = var_of_orbit.get(widx)
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
    orbits: OrbitTable,
    var_of_orbit: dict[int, int],
) -> list[Block]:
    """Reduced blocks for the empty-code stabilizer: 1x1 per shape, except
    the augmented shape which gains the empty-code row and column.  Orbits
    outside ``var_of_orbit`` are dropped, as in ``build_blocks_d0``."""
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
                widx = orbits.index_of(
                    singleton_orbit(spec) if a == b == 0 else pair_orbit(spec, a, b)
                )
                if widx in var_of_orbit:
                    entries.append((var_of_orbit[widx] + 1, slot, slot, val))
        if shape.augmented:
            svar = var_of_orbit[orbits.index_of(singleton_orbit(spec))]
            entries += [(0, 0, 0, 1), (svar + 1, 0, 1, full)]
        out.append(Block(f"{CASE_EMPTY}:{shape.label()}", slot + 1, tuple(sorted(entries))))
    return out


# ---------------------------------------------------------------------------
# Brute-force verification at tiny sizes.

VERIFY_WORD_CAP = 108

# Column vectors of the representative matrices, indexed by entry value - 1.
_A_BASES = {
    1: ((1, 0), (0, 1)),
    2: ((1, 0, 0), (0, 1, 1)),
    3: ((0, 1, -1),),
}
_B_BASES = {1: (1, 1), 2: (1, -1), 3: (1, 1, 1), 4: (1, -1, 0)}


def _tableau_vector(lam: tuple[int, ...], tab: Tableau, basis) -> dict:
    """The column vector of one tableau over its factor space, as a sparse
    map from letter-index tuples to integers: sum over distinct row
    rearrangements and signed column swaps of the tensor of basis columns."""
    if not lam:
        return {(): 1}
    b = lam[1] if len(lam) > 1 else 0
    row_arrs = [sorted(set(permutations(row))) for row in tab]
    out: dict = defaultdict(int)
    for arrangement in product(*row_arrs):
        for swaps in product((0, 1), repeat=b):
            sign = -1 if sum(swaps) % 2 else 1
            r0 = list(arrangement[0])
            r1 = list(arrangement[1]) if len(arrangement) > 1 else []
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


def representative_vector_zero(shape: ShapeD0, col: TableauTriple) -> dict[Word, int]:
    """Explicit word-space vector of one all-zero-word-case column.

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


def _min_eig(mat: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(mat)[0])


def verify_reduction(
    spec: ProblemSpec, trials: int = 50, seed: int = 2024
) -> VerifyReport:
    """Check the reduction engine against explicit unreduced objects.

    (a) builds every representative column explicitly in the word space;
    (b) builds the orbit indicator matrices explicitly; (c) compares every
    engine block entry, over all orbits including infeasible ones, with the
    explicit contraction in exact integer arithmetic; (d) draws random
    assignments supported on feasible orbits and checks that the full
    matrices and the direct sums of reduced blocks agree on positive
    semidefiniteness at tolerance 1e-9 (equal smallest eigenvalues when
    d = 1, where no rows are filtered).  Needs trials >= 1.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got trials={trials}")
    if spec.num_words > VERIFY_WORD_CAP:
        raise ResourceError(
            f"word space {spec.num_words} exceeds verifier cap {VERIFY_WORD_CAP}"
        )
    checks: list[tuple[str, bool, str]] = []
    words = list(all_words(spec))
    nwords = len(words)
    pos = {w: i for i, w in enumerate(words)}
    orbits = enumerate_orbits(spec)
    zero = zero_word(spec)

    # explicit orbit index of {0, x, y} and of {x, y}
    triple_orbit = np.empty((nwords, nwords), dtype=np.int64)
    pair_orbit_idx = np.empty((nwords, nwords), dtype=np.int64)
    for i, x in enumerate(words):
        for j, y in enumerate(words):
            triple_orbit[i, j] = orbits.index_of(
                canonical_orbit(spec, code(zero, x, y))
            )
            pair_orbit_idx[i, j] = orbits.index_of(
                canonical_orbit(spec, code(x, y))
            )

    # completeness: every word pair lands in exactly one orbit fiber
    counts = np.bincount(triple_orbit.ravel(), minlength=len(orbits))
    checks.append((
        "orbit fibers partition word pairs (zero case)",
        int(counts.sum()) == nwords * nwords and counts[0] == 0,
        f"fiber sizes {counts.tolist()}",
    ))

    shapes_zero = build_shape_index_d0(spec)
    shapes_empty = build_shape_index_empty(spec)
    every_orbit = {i: i for i in range(len(orbits))}
    blocks_zero = build_blocks_d0(spec, shapes_zero, orbits, every_orbit)
    blocks_empty = build_blocks_empty(spec, shapes_empty, orbits, every_orbit)

    # (c) zero-word case: engine entries vs explicit contraction; orbit widx
    # is matrix widx + 1 here, and (i, j) is stored at (min, max)
    mismatch = None
    for shape, block in zip(shapes_zero, blocks_zero):
        vecs = [representative_vector_zero(shape, col) for col in shape.admissible]
        values = {(m, i, j): v for m, i, j, v in block.entries}
        for i in range(block.dim):
            for j in range(block.dim):
                agg: dict[int, int] = defaultdict(int)
                for x, cx in vecs[i].items():
                    for y, cy in vecs[j].items():
                        agg[int(triple_orbit[pos[x], pos[y]])] += cx * cy
                for widx in range(len(orbits)):
                    want = agg.get(widx, 0)
                    got_val = values.get((widx + 1, min(i, j), max(i, j)), 0)
                    if want != got_val and mismatch is None:
                        mismatch = (
                            f"shape {shape.label()} entry ({i},{j}) orbit "
                            f"{orbits.orbits[widx].describe()}: engine {got_val}, "
                            f"explicit {want}"
                        )
        if mismatch:
            break
    checks.append((
        "zero-case block entries equal explicit contraction",
        mismatch is None,
        mismatch or "",
    ))

    # (c) empty case
    mismatch = None
    for shape, block in zip(shapes_empty, blocks_empty):
        vec = representative_vector_empty(spec, shape)
        colsum = sum(vec.values())
        agg = defaultdict(int)
        for x, cx in vec.items():
            for y, cy in vec.items():
                agg[int(pair_orbit_idx[pos[x], pos[y]])] += cx * cy
        slot = 1 if shape.augmented else 0
        values = {(m, i, j): v for m, i, j, v in block.entries}
        for widx in range(len(orbits)):
            want = agg.get(widx, 0)
            got_val = values.get((widx + 1, slot, slot), 0)
            if want != got_val and mismatch is None:
                mismatch = (
                    f"shape {shape.label()} orbit {orbits.orbits[widx].describe()}: "
                    f"engine {got_val}, explicit {want}"
                )
        if shape.augmented:
            sidx = orbits.index_of(singleton_orbit(spec))
            off = values.get((sidx + 1, 0, 1), 0)
            if values.get((0, 0, 0)) != 1:
                mismatch = mismatch or "augmented corner is not 1"
            if off != spec.num_words or colsum != spec.num_words:
                mismatch = mismatch or (
                    f"augmented cross term {off} vs column sum {colsum} vs "
                    f"{spec.num_words}"
                )
        elif colsum != 0:
            mismatch = mismatch or f"non-augmented shape {shape.label()} has column sum {colsum}"
    checks.append((
        "empty-case block entries equal explicit contraction",
        mismatch is None,
        mismatch or "",
    ))

    # (d) PSD transport on random feasible assignments
    rng = random.Random(seed)
    feas = orbits.feasible_indices()
    feas = [i for i in feas if i != 0]
    n_orbits = len(orbits)

    def full_zero(y):
        m = np.zeros((nwords, nwords))
        for i in range(nwords):
            for j in range(nwords):
                widx = int(triple_orbit[i, j])
                if orbits.feasible[widx]:
                    m[i, j] = y[widx]
        return m

    def full_empty(y):
        m = np.zeros((nwords + 1, nwords + 1))
        m[0, 0] = 1.0
        sidx = orbits.index_of(singleton_orbit(spec))
        m[0, 1:] = y[sidx]
        m[1:, 0] = y[sidx]
        for i in range(nwords):
            for j in range(nwords):
                widx = int(pair_orbit_idx[i, j])
                if orbits.feasible[widx]:
                    m[1 + i, 1 + j] = y[widx]
        return m

    def blocks_min_eig(block_list, y):
        worst = np.inf
        scale = np.concatenate(([1.0], np.where(orbits.feasible, y, 0.0)))  # by matno
        for block in block_list:
            m = np.zeros((block.dim, block.dim))
            for matno, i, j, val in block.entries:
                m[i, j] += scale[matno] * val
            worst = min(worst, _min_eig(m + np.triu(m, 1).T))
        return worst

    tol = 1e-9
    transport_fail = None
    for t in range(trials):
        y = np.zeros(n_orbits)
        style = t % 3
        for widx in feas:
            if style == 0:
                y[widx] = rng.uniform(-1.0, 1.0)
            elif style == 1:
                y[widx] = rng.uniform(0.0, 1.0) ** orbits.orbits[widx].size
            else:
                y[widx] = rng.uniform(0.0, 0.05)
        y[0] = 0.0

        fz = _min_eig(full_zero(y))
        bz = blocks_min_eig(blocks_zero, y)
        fe = _min_eig(full_empty(y))
        be = blocks_min_eig(blocks_empty, y)
        if ((fz >= -tol) != (bz >= -tol)) or ((fe >= -tol) != (be >= -tol)):
            transport_fail = (
                f"trial {t}: zero case {fz:.3e} vs {bz:.3e}; "
                f"empty case {fe:.3e} vs {be:.3e}"
            )
            break
    checks.append((
        f"PSD transport on {trials} random assignments",
        transport_fail is None,
        transport_fail or "",
    ))

    return VerifyReport(spec, checks)
