"""Two-row shapes and the indexed families of representative-set columns
for the two stabilizer cases.

The block structure of the reduced problem is indexed by tuples of shapes.
For the all-zero-word stabilizer, the shape tuple distributes the ternary
coordinates over two irreducible types (trivial/sign) and carries shapes of
heights at most (2, 2, 1).  A shape is the pair (a, b) with a >= b >= 0 of
its row lengths, an empty row as 0; the sign type's shape is (l3, 0).  A
column is a triple of semistandard tableaux with entries in {1, 2} resp.
{1}.  Such a tableau's second row is all 2s and the 1s fill a prefix of its
first row, so it is fixed by the count of 1s in that row, and a column is
the triple (x1, x2, x3) of those counts.  For the empty-code stabilizer
every type has multiplicity one, so each shape carries a single column.
"""

from __future__ import annotations

from dataclasses import dataclass

from mixedsdp.codes import ProblemSpec


def two_row_shapes(n: int) -> list[tuple[int, int]]:
    """The shapes (a, b) with a >= b >= 0 and a + b = n, largest first row
    first."""
    return [(n - b, b) for b in range(n // 2 + 1)]


def first_row_ones(lam: tuple[int, int]) -> range:
    """The semistandard tableaux of shape ``lam`` with entries in {1, 2},
    each given by the count of 1s in its first row, most 1s first, which is
    the row-major order of the fillings.  The second row is all 2s, so the
    1s fill a prefix of the first row at least as long as the second row:
    shape (a, b) has the counts a, a-1, ..., b."""
    a, b = lam
    return range(a, b - 1, -1)


# ---------------------------------------------------------------------------
# Stabilizer of the all-zero word.

@dataclass(frozen=True)
class ShapeD0:
    """One block shape for the all-zero-word case.

    ``counts`` is (n2, l2, l3) with l2 + l3 = n3: l2 ternary coordinates
    carry the trivial type and l3 the sign type.  ``admissible`` is the
    subfamily of the columns of shape ``lambdas``, as triples of counts of
    1s in the first rows, whose word weight lies in {0} or {d, ..., n2+n3}.
    """

    counts: tuple[int, int, int]
    lambdas: tuple[tuple[int, int], ...]
    admissible: tuple[tuple[int, int, int], ...]

    def label(self) -> str:
        lam = ",".join("(" + ",".join(str(r) for r in l if r) + ")" for l in self.lambdas)
        return f"n={self.counts} lam=[{lam}]"


def column_weight(spec: ProblemSpec, tau: tuple[int, int, int]) -> int:
    """Weight of the words supporting a column: total coordinates carrying a
    nonzero letter, n2 + n3 - x1 - x2 for the column's counts of 1s."""
    return spec.n2 + spec.n3 - tau[0] - tau[1]


def build_shape_index_d0(spec: ProblemSpec) -> list[ShapeD0]:
    """All shapes with a nonempty admissible column family.

    Heights are capped by the per-type multiplicities (2, 2, 1), so the
    sign type's shape is (l3, 0); the weight filter keeps columns whose
    weight is 0 or at least d.  The sign type's one tableau is all 1s, so
    every column has x3 = l3.
    """
    allowed = {0} | set(range(spec.d, spec.n2 + spec.n3 + 1))
    shapes = []
    for l2 in range(spec.n3 + 1):
        l3 = spec.n3 - l2
        for lam1 in two_row_shapes(spec.n2):
            for lam2 in two_row_shapes(l2):
                keep = tuple(
                    (x1, x2, l3)
                    for x1 in first_row_ones(lam1)
                    for x2 in first_row_ones(lam2)
                    if column_weight(spec, (x1, x2, l3)) in allowed
                )
                if keep:
                    shapes.append(ShapeD0(
                        (spec.n2, l2, l3), (lam1, lam2, (l3, 0)), keep,
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
