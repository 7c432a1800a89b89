"""Partitions, semistandard Young tableaux, and the indexed families of
representative-set columns for the two stabilizer cases.

The block structure of the reduced problem is indexed by tuples of shapes.
For the all-zero-word stabilizer, the shape tuple distributes the ternary
coordinates over two irreducible types (trivial/sign) and carries partitions
of heights at most (2, 2, 1); columns are triples of semistandard tableaux
with entries in {1, 2} resp. {1}.  For the empty-code stabilizer every type
has multiplicity one, so each shape carries a single column.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from mixedsdp.codes import ProblemSpec

Partition = tuple[int, ...]
Tableau = tuple[tuple[int, ...], ...]  # rows, row-major


def partitions_up_to_height(n: int, h: int) -> list[Partition]:
    """All partitions of n with at most h parts, largest part first."""
    out: list[Partition] = []

    def rec(remaining: int, maxpart: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        if len(prefix) == h:
            return
        for part in range(min(remaining, maxpart), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(n, n, ())
    return out


def semistandard_tableaux(lam: Partition, m: int) -> list[Tableau]:
    """All fillings with entries in 1..m, rows weakly increasing and columns
    strictly increasing, sorted by their row-major entry sequence."""
    if not lam:
        return [()]
    if m < len(lam):
        return []
    rows: list[list[tuple[int, ...]]] = []
    for r, length in enumerate(lam):
        rows.append([
            row
            for row in product(range(1, m + 1), repeat=length)
            if all(row[i] <= row[i + 1] for i in range(length - 1))
        ])
    out = []
    for combo in product(*rows):
        ok = True
        for r in range(1, len(lam)):
            if any(combo[r][i] <= combo[r - 1][i] for i in range(lam[r])):
                ok = False
                break
        if ok:
            out.append(combo)
    out.sort(key=lambda t: tuple(x for row in t for x in row))
    return out


def count_entries(tab: Tableau, value: int) -> int:
    return sum(row.count(value) for row in tab)


# ---------------------------------------------------------------------------
# Stabilizer of the all-zero word.

TableauTriple = tuple[Tableau, Tableau, Tableau]


@dataclass(frozen=True)
class ShapeD0:
    """One block shape for the all-zero-word case.

    ``counts`` is (n2, l2, l3) with l2 + l3 = n3: l2 ternary coordinates
    carry the trivial type and l3 the sign type.  ``admissible`` is the
    subfamily of the tableau triples of shape ``lambdas`` whose word weight
    lies in {0} or {d, ..., n2+n3}.
    """

    counts: tuple[int, int, int]
    lambdas: tuple[Partition, Partition, Partition]
    admissible: tuple[TableauTriple, ...]

    def label(self) -> str:
        lam = ",".join("(" + ",".join(map(str, l)) + ")" for l in self.lambdas)
        return f"n={self.counts} lam=[{lam}]"


def column_weight(spec: ProblemSpec, tau: TableauTriple) -> int:
    """Weight of the words supporting a column: total coordinates carrying a
    nonzero letter, n2 + n3 - #1s(tau1) - #1s(tau2)."""
    return spec.n2 + spec.n3 - count_entries(tau[0], 1) - count_entries(tau[1], 1)


def build_shape_index_d0(spec: ProblemSpec) -> list[ShapeD0]:
    """All shapes with a nonempty admissible column family.

    Heights are capped by the per-type multiplicities (2, 2, 1); the weight
    filter keeps columns whose weight is 0 or at least d.
    """
    allowed = {0} | set(range(spec.d, spec.n2 + spec.n3 + 1))
    shapes = []
    for l2 in range(spec.n3 + 1):
        l3 = spec.n3 - l2
        for lam1 in partitions_up_to_height(spec.n2, 2):
            for lam2 in partitions_up_to_height(l2, 2):
                for lam3 in partitions_up_to_height(l3, 1):
                    keep = tuple(
                        t for t in product(
                            semistandard_tableaux(lam1, 2),
                            semistandard_tableaux(lam2, 2),
                            semistandard_tableaux(lam3, 1),
                        )
                        if column_weight(spec, t) in allowed
                    )
                    if not keep:
                        continue
                    shapes.append(ShapeD0(
                        (spec.n2, l2, l3), (lam1, lam2, lam3), keep,
                    ))
    return shapes


# ---------------------------------------------------------------------------
# Stabilizer of the empty code.

@dataclass(frozen=True)
class ShapeEmpty:
    """One block shape for the empty-code case: (l1, l2, l3, l4) with
    l1 + l2 = n2 and l3 + l4 = n3.  Every type has multiplicity one, so the
    column family is a singleton; the fully trivial shape (n2, 0, n3, 0) is
    the one augmented with the empty-code row."""

    counts: tuple[int, int, int, int]
    augmented: bool

    def label(self) -> str:
        return f"l={self.counts}" + (" +empty" if self.augmented else "")


def build_shape_index_empty(spec: ProblemSpec) -> list[ShapeEmpty]:
    """The (n2+1)(n3+1) shapes, exactly one flagged as augmented."""
    shapes = []
    for l1 in range(spec.n2 + 1):
        for l3 in range(spec.n3 + 1):
            counts = (l1, spec.n2 - l1, l3, spec.n3 - l3)
            shapes.append(ShapeEmpty(counts, counts == (spec.n2, 0, spec.n3, 0)))
    return shapes
