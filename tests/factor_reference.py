"""Dictionary forms of the block builder's polynomials, to check its integer
arrays against: a polynomial is a map from packed monomials to integer
coefficients.  ``reference_factor_poly`` is a factor polynomial of one
tableau pair alone, by a dynamic programme pruned to that pair; a tableau is
given by the count of 1s in its first row.  ``state_poly`` and
``pair_polys`` read one tableau pair's and one column pair's polynomial out
of the builder's arrays."""

from collections import defaultdict

from mixedsdp import blocks
from mixedsdp.blocks import _ZERO_TABLES
from mixedsdp.codes import KEY_COUNT_MAX, KEY_DIGIT, N_BIN_PATTERNS, N_COUNTS


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = defaultdict(int)
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] += c1 * c2
    return {e: c for e, c in out.items() if c}


def _poly_axpy(acc: dict, p: dict, scale: int) -> None:
    for e, c in p.items():
        acc[e] += c * scale


def unpack_monomial(mono: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (binary, ternary) pattern counts of a packed monomial."""
    digits = [
        mono >> KEY_DIGIT * (N_COUNTS - 1 - i) & KEY_COUNT_MAX for i in range(N_COUNTS)
    ]
    return tuple(digits[:N_BIN_PATTERNS]), tuple(digits[N_BIN_PATTERNS:])


def as_dict(poly) -> dict:
    """A ``blocks._Poly`` as a map from packed monomials to coefficients."""
    return dict(zip(poly.keys.tolist(), poly.coefs.tolist()))


def reference_factor_poly(factor, lam, ones_first, ones_second):
    """Dual polynomial of one tensor factor for the tableau pair of shape
    ``lam`` with ``ones_first`` and ``ones_second`` 1s in their first rows,
    by a dynamic programme over the columns pruned to the paths that can
    reach those counts."""
    table = _ZERO_TABLES[factor]
    a, b = lam
    values = (1, 2) if factor != 3 else (1,)

    det = {}
    if b:
        for x in values:
            for u in values:
                term = defaultdict(int)
                _poly_axpy(term, poly_mul(table[(x, u)], table[(2, 2)]), 2)
                _poly_axpy(term, poly_mul(table[(x, 2)], table[(2, u)]), -2)
                det[(x, u)] = {e: c for e, c in term.items() if c}

    states = {(0, 0): {0: 1}}
    for col in range(a):
        factor_for = det if col < b else table
        remaining = a - col - 1
        new = {}
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
                    for e2, c2 in factor_for[(x, u)].items():
                        for e, c in poly.items():
                            acc[e + e2] += c * c2
        states = {
            k: {e: c for e, c in p.items() if c} for k, p in new.items()
        }
    return states.get((ones_first, ones_second), {})


def state_poly(poly, ones_first: int, ones_second: int) -> dict:
    """One tableau pair's polynomial out of a polynomial of all pairs
    (``blocks._factor_poly``), its marker digits dropped."""
    state = ones_first << KEY_DIGIT | ones_second
    return {
        key & blocks._COUNTS_MASK: c
        for key, c in as_dict(poly).items()
        if key >> blocks._STATE_SHIFT == state
    }


def pair_polys(lambdas, cols, powers=None) -> dict[tuple[int, int], dict]:
    """The builder's dual polynomial of every column pair i <= j of a shape
    with partitions ``lambdas`` and these columns (counts of 1s), keyed by
    (i, j); column j feeds the first base-change slot.  ``powers`` may be
    shared between calls, as a build shares it between shapes."""
    powers = {} if powers is None else powers
    binary = blocks._operand(blocks._factor_poly(powers, 1, lambdas[0]))
    ternary = blocks._operand(blocks._ternary_poly(powers, lambdas[1], lambdas[2]))
    cells, k1, k2 = blocks._pair_terms(binary, ternary, cols)
    out: dict = {}
    for cell, a, b in zip(cells.tolist(), k1.tolist(), k2.tolist()):
        acc = out.setdefault(divmod(cell, len(cols)), defaultdict(int))
        mono = int(binary.reordered[a, 0] + ternary.reordered[b, 0])
        acc[mono] += int(binary.coefs[a]) * int(ternary.coefs[b])
    return {ij: {e: c for e, c in p.items() if c} for ij, p in out.items()}


def expand_p(lambdas, sigma, tau) -> dict:
    """The builder's dual polynomial of one column pair; ``tau`` feeds the
    first base-change slot."""
    cols = (sigma,) if sigma == tau else (sigma, tau)
    return pair_polys(lambdas, cols).get((0, len(cols) - 1), {})
