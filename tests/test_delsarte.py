"""Level 2 of the hierarchy against the exact Delsarte linear programming
bound of Brouwer, Hamalainen, Ostergard and Sloane ("Bounds on mixed
binary/ternary codes", IEEE Trans. Inform. Theory 44, 1998).

The LP maximises 1 + sum A_ij over the distance profiles (i, j) with
i + j >= d, subject to A >= 0 and, for every (k, l) != (0, 0),
sum A_ij K_k(i; n2, 2) K_l(j; n3, 3) >= -K_k(0; n2, 2) K_l(0; n3, 3),
K the Krawtchouk polynomial.  Some certified bounds exceed the LP optimum
by less than 1e-8, below any float LP's tolerance, so it is solved here
in exact rational arithmetic.
"""

from fractions import Fraction
from math import comb, floor

import pytest

from mixedsdp.cli import load_reference_rows
from mixedsdp.codes import ProblemSpec
from mixedsdp.model import build_lp_k2
from mixedsdp.solver import certify, solve

MAX_LENGTH = 9


def krawtchouk(k: int, x: int, n: int, q: int) -> int:
    """K_k(x; n, q) = sum_j (-1)^j (q - 1)^(k - j) C(x, j) C(n - x, k - j)."""
    return sum(
        (-1) ** j * (q - 1) ** (k - j) * comb(x, j) * comb(n - x, k - j)
        for j in range(k + 1)
    )


def simplex_max(c: list, rows: list[list], rhs: list) -> Fraction:
    """The optimum of max c.x subject to rows x <= rhs and x >= 0, for
    rhs >= 0, by a dense tableau simplex in Fractions with Bland's rule.
    The origin is feasible, so the slack basis starts it without a phase 1,
    and Bland's rule cannot cycle."""
    m, n = len(rows), len(c)
    tableau = [
        [Fraction(v) for v in row] + [Fraction(int(i == r)) for i in range(m)] + [Fraction(b)]
        for r, (row, b) in enumerate(zip(rows, rhs))
    ]
    # reduced costs, and in the last place minus the objective
    cost = [Fraction(v) for v in c] + [Fraction(0)] * (m + 1)
    basis = list(range(n, n + m))
    while True:
        enter = next((j for j in range(n + m) if cost[j] > 0), None)
        if enter is None:
            return -cost[-1]
        ratios = [
            (row[-1] / row[enter], basis[r], r)
            for r, row in enumerate(tableau) if row[enter] > 0
        ]
        if not ratios:
            raise ValueError("unbounded LP")
        _, _, leave = min(ratios)
        pivot_row = [v / tableau[leave][enter] for v in tableau[leave]]
        tableau = [
            pivot_row if r == leave
            else [a - row[enter] * p for a, p in zip(row, pivot_row)]
            for r, row in enumerate(tableau)
        ]
        cost = [a - cost[enter] * p for a, p in zip(cost, pivot_row)]
        basis[leave] = enter


def delsarte_bound(n2: int, n3: int, d: int) -> Fraction:
    """The exact optimum of the Delsarte LP of the (n2, n3, d) space."""
    profiles = [(i, j) for i in range(n2 + 1) for j in range(n3 + 1) if i + j >= d]
    duals = [(k, l) for k in range(n2 + 1) for l in range(n3 + 1) if (k, l) != (0, 0)]
    rows = [
        [-krawtchouk(k, i, n2, 2) * krawtchouk(l, j, n3, 3) for i, j in profiles]
        for k, l in duals
    ]
    rhs = [krawtchouk(k, 0, n2, 2) * krawtchouk(l, 0, n3, 3) for k, l in duals]
    return 1 + simplex_max([1] * len(profiles), rows, rhs)


def test_krawtchouk_orthogonality():
    # sum_x C(n, x) (q-1)^x K_k(x) K_l(x) = q^n C(n, k) (q-1)^k [k = l]
    for n, q in ((5, 2), (4, 3)):
        for k in range(n + 1):
            for l in range(n + 1):
                total = sum(
                    comb(n, x) * (q - 1) ** x * krawtchouk(k, x, n, q) * krawtchouk(l, x, n, q)
                    for x in range(n + 1)
                )
                assert total == (q ** n * comb(n, k) * (q - 1) ** k if k == l else 0)


def test_simplex_small_lp():
    # max x + y with x + 2y <= 4 and 3x + y <= 6: optimum at (8/5, 6/5)
    assert simplex_max([1, 1], [[1, 2], [3, 1]], [4, 6]) == Fraction(14, 5)


@pytest.mark.parametrize(
    "row",
    [r for r in load_reference_rows() if r.n2 + r.n3 <= MAX_LENGTH],
    ids=lambda r: f"{r.n2}-{r.n3}-{r.d}",
)
def test_level_two_is_the_delsarte_bound(row):
    """The certified level-2 integer is the floor of the Delsarte LP optimum,
    and its exact bound is at least that optimum, compared exactly.

    The check catches missing constraints well and small coefficient
    errors poorly.  Dropping the first, second or third non-augmented
    empty-case shape fails it on 9, 13 and 9 of these 14 rows, and, with a
    float LP, on 74, 105 and 87 of all 135 packaged rows; moving one 1x1
    coefficient one unit further from 0 failed it on only 4 or 2 of the
    135."""
    spec = ProblemSpec(row.n2, row.n3, row.d, k=2)
    problem = build_lp_k2(spec)
    bound = certify(problem, solve(problem))
    lp = delsarte_bound(row.n2, row.n3, row.d)
    assert bound.value == floor(lp), (bound, lp)
    assert bound.exact_bound >= lp, (bound, lp)
