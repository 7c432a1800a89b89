"""A factor polynomial of one tableau pair alone, by a dynamic programme
pruned to that pair, to check the block builder's one programme per factor
shape against.  A tableau is given by the count of 1s in its first row."""

from collections import defaultdict

from mixedsdp.blocks import _ZERO_TABLES, _poly_axpy, _poly_mul


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
                _poly_axpy(term, _poly_mul(table[(x, u)], table[(2, 2)]), 2)
                _poly_axpy(term, _poly_mul(table[(x, 2)], table[(2, u)]), -2)
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
