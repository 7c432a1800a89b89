"""Two-row shapes, columns as counts of 1s, and the two shape indices."""

from itertools import product
from math import comb

import pytest

from mixedsdp.codes import ProblemSpec
from mixedsdp.tableaux import (
    build_shape_index_d0,
    build_shape_index_empty,
    column_weight,
    first_row_ones,
    two_row_shapes,
)


class TestPartitions:
    """A shape is the pair (a, b) of its row lengths, a >= b >= 0."""

    def test_direct_listing(self):
        assert two_row_shapes(3) == [(3, 0), (2, 1)]

    def test_empty_partition(self):
        assert two_row_shapes(0) == [(0, 0)]

    def test_single_row(self):
        # the sign type's shape is the one row (l3, 0)
        for s in build_shape_index_d0(ProblemSpec(2, 4, 1)):
            assert s.lambdas[2] == (s.counts[2], 0)

    def test_lists_partitions_into_at_most_two_parts(self):
        for n in range(11):
            want = sorted(((a, n - a) for a in range(n + 1) if a >= n - a), reverse=True)
            assert two_row_shapes(n) == want, n


def enumerate_fillings(lam, m):
    """Oracle: filter all fillings by the two semistandard conditions."""
    cells = sum(lam)
    out = []
    for flat in product(range(1, m + 1), repeat=cells):
        rows = []
        k = 0
        for length in lam:
            rows.append(flat[k:k + length])
            k += length
        if any(r[i] > r[i + 1] for r in rows for i in range(len(r) - 1)):
            continue
        ok = True
        for r in range(1, len(lam)):
            if any(rows[r][i] <= rows[r - 1][i] for i in range(lam[r])):
                ok = False
        if ok:
            out.append(tuple(rows))
    return sorted(out, key=lambda t: tuple(x for row in t for x in row))


def ones(tab):
    """The count of 1s in a filling's first row."""
    return tab[0].count(1)


def filling(lam, x):
    """The filling of shape ``lam`` whose first row starts with x 1s and
    whose other cells are 2s."""
    a, b = lam
    return (1,) * x + (2,) * (a - x), (2,) * b


class TestSemistandardTableaux:
    """The fillings over {1, 2} as first_row_ones lists them."""

    def test_single_row_counts(self):
        for n in range(0, 8):
            assert len(first_row_ones((n, 0))) == n + 1

    def test_21_by_enumeration(self):
        got = [filling((2, 1), x) for x in first_row_ones((2, 1))]
        assert got == [((1, 1), (2,)), ((1, 2), (2,))]

    def test_stars_and_bars(self):
        for n in range(1, 13):
            assert len(first_row_ones((n, 0))) == comb(n + 1, 1)
            # the sign factor's alphabet {1}
            assert len(enumerate_fillings((n, 0), 1)) == comb(n, 0)

    def test_two_row_count(self):
        for a in range(1, 8):
            for b in range(1, a + 1):
                if a + b > 10:
                    continue
                assert len(first_row_ones((a, b))) == a - b + 1

    @pytest.mark.parametrize("lam,m", [((2, 0), 2), ((2, 1), 2), ((3, 2), 2)])
    def test_matches_filter_oracle(self, lam, m):
        got = [filling(lam, x) for x in first_row_ones(lam)]
        assert got == enumerate_fillings(lam, m)


class TestFirstRowOnes:
    @pytest.mark.parametrize("cells", range(11))
    def test_matches_filter_oracle(self, cells):
        # order included, and each count fixes its filling
        for lam in two_row_shapes(cells):
            got = [filling(lam, x) for x in first_row_ones(lam)]
            assert got == enumerate_fillings(lam, 2)
        # the sign factor's one filling over {1}: x3 = l3
        lam = (cells, 0)
        assert enumerate_fillings(lam, 1) == [filling(lam, cells)]


def full_fillings(shape):
    """Every triple of fillings of the shape, from the filter oracle."""
    lam1, lam2, lam3 = shape.lambdas
    return list(product(
        enumerate_fillings(lam1, 2),
        enumerate_fillings(lam2, 2),
        enumerate_fillings(lam3, 1),
    ))


def full_family(shape):
    """Every column of the shape before the weight filter, as counts of 1s."""
    return tuple(tuple(map(ones, col)) for col in full_fillings(shape))


class TestShapeIndexD0:
    def test_111_shapes(self):
        spec = ProblemSpec(1, 1, 1)
        shapes = build_shape_index_d0(spec)
        assert {s.counts for s in shapes} == {(1, 1, 0), (1, 0, 1)}
        by_counts = {s.counts: s for s in shapes}
        s = by_counts[(1, 1, 0)]
        assert len(full_family(s)) == 4
        assert len(s.admissible) == 4  # d=1 keeps everything
        assert sorted(column_weight(spec, t) for t in full_family(s)) == [0, 1, 1, 2]

    def test_112_weight_filter(self):
        spec = ProblemSpec(1, 1, 2)
        shapes = {s.counts: s for s in build_shape_index_d0(spec)}
        s = shapes[(1, 1, 0)]
        assert len(s.admissible) == 2  # weights 0 and 2 only
        kept_weights = sorted(column_weight(spec, t) for t in s.admissible)
        assert kept_weights == [0, 2]
        excluded = [t for t in full_family(s) if t not in s.admissible]
        assert all(column_weight(spec, t) == 1 for t in excluded)

    def test_weight_zero_column_always_kept(self):
        for d in (1, 2, 3, 4):
            spec = ProblemSpec(2, 2, d)
            shapes = build_shape_index_d0(spec)
            trivial = [s for s in shapes if s.counts == (2, 2, 0)
                       and s.lambdas == ((2, 0), (2, 0), (0, 0))]
            assert trivial, "trivial shape missing"
            weights = [column_weight(spec, t) for t in trivial[0].admissible]
            assert 0 in weights

    def test_w_prime_equals_w_at_d1(self):
        spec = ProblemSpec(2, 3, 1)
        for s in build_shape_index_d0(spec):
            assert s.admissible == full_family(s)

    def test_number_of_count_tuples(self):
        spec = ProblemSpec(2, 3, 1)
        counts = {s.counts for s in build_shape_index_d0(spec)}
        assert counts == {(2, l2, 3 - l2) for l2 in range(4)}

    def test_second_rows_are_all_twos(self):
        spec = ProblemSpec(4, 2, 1)
        for s in build_shape_index_d0(spec):
            for col in full_fillings(s):
                for tab in col[:2]:
                    if tab[1]:
                        assert set(tab[1]) == {2}

    def test_weight_formula(self):
        spec = ProblemSpec(2, 2, 1)
        for s in build_shape_index_d0(spec):
            for col in full_fillings(s):
                w = spec.n2 + spec.n3 - sum(row.count(1) for tab in col[:2] for row in tab)
                assert column_weight(spec, tuple(map(ones, col))) == w
                assert 0 <= w <= spec.length


class TestShapeIndexEmpty:
    def test_counts_11(self):
        assert len(build_shape_index_empty(ProblemSpec(1, 1, 1))) == 4

    def test_counts_25(self):
        assert len(build_shape_index_empty(ProblemSpec(2, 5, 1))) == 18

    @pytest.mark.parametrize("n2,n3", [(1, 1), (2, 3), (4, 2)])
    def test_exactly_one_augmented(self, n2, n3):
        shapes = build_shape_index_empty(ProblemSpec(n2, n3, 1))
        augmented = [s for s in shapes if s.augmented]
        assert len(augmented) == 1
        assert augmented[0].counts == (n2, 0, n3, 0)

    def test_split_constraints(self):
        spec = ProblemSpec(3, 2, 1)
        for s in build_shape_index_empty(spec):
            l1, l2, l3, l4 = s.counts
            assert l1 + l2 == spec.n2
            assert l3 + l4 == spec.n3
