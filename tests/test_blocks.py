"""Base-change identities, dual polynomials, and block coefficients."""

import dataclasses
import itertools
import math
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixedsdp
from mixedsdp import blocks
from mixedsdp.blocks import (
    _A1,
    _A2,
    _A3,
    _ZERO_TABLES,
    Block,
    build_blocks_d0,
    build_blocks_empty,
    dimension_count,
    representative_vector_empty,
    standard_tableaux,
    verify_reduction,
)
from mixedsdp.cli import EXIT_VERIFY, load_reference_rows, main
from mixedsdp.codes import (
    PATTERN_NAMES,
    ProblemSpec,
    ResourceError,
    all_words,
    enumerate_orbits,
    orbit_from_counts,
    pair_orbit,
    singleton_orbit,
)
from mixedsdp.model import build_problem, build_sdp
from mixedsdp.tableaux import build_shape_index_d0, build_shape_index_empty
from factor_reference import (
    as_dict,
    expand_p,
    pair_polys,
    poly_mul,
    reference_factor_poly,
    state_poly,
    unpack_monomial,
)


def named(form):
    """A base-change form with readable names: c* for a binary pattern
    variable, d* for a ternary one."""
    out = {}
    for mono, c in form.items():
        mu, nu = unpack_monomial(mono)
        assert sum(mu) + sum(nu) == 1
        prefix, counts = ("c", mu) if any(mu) else ("d", nu)
        out[f"{prefix}*{PATTERN_NAMES[counts.index(1)]}"] = c
    return out


def unpacked(poly):
    return {unpack_monomial(mono): c for mono, c in poly.items()}


def dense(block):
    """The block's matrices as dense symmetric lists, by SDPA matrix number
    (0 is F0, v + 1 is variable v's), filled from its triplets."""
    mats = {}
    for matno, i, j, val in block.entries():
        mat = mats.setdefault(matno, [[0] * block.dim for _ in range(block.dim)])
        mat[i][j] = mat[j][i] = val
    return mats


class TestBaseChange:
    """The thirteen expansion identities, by direct assertion."""

    def test_binary_factor(self):
        assert named(_A1[(1, 1)]) == {"c*123": 1}
        assert named(_A1[(1, 2)]) == {"c*12|3": 1}
        assert named(_A1[(2, 1)]) == {"c*13|2": 1}
        assert named(_A1[(2, 2)]) == {"c*1|23": 1}

    def test_ternary_trivial_factor(self):
        assert named(_A2[(1, 1)]) == {"d*123": 1}
        assert named(_A2[(1, 2)]) == {"d*12|3": 2}
        assert named(_A2[(2, 1)]) == {"d*13|2": 2}
        assert named(_A2[(2, 2)]) == {"d*1|23": 2, "d*1|2|3": 2}

    def test_ternary_sign_factor(self):
        assert named(_A3[(1, 1)]) == {"d*1|23": 2, "d*1|2|3": -2}

    def test_empty_case_factors(self):
        # per-alphabet forms over the (equal, unequal) pair patterns: c*123
        # and c*12|3 for the two binary types, d*123 and d*12|3 for the two
        # ternary ones.  At n2 = n3 = 1 each shape takes one binary and one
        # ternary type, and its coefficient of the pair orbit with a unequal
        # binary and b unequal ternary coordinates is the product of the two.
        binary = {(1, 0): (2, 2), (0, 1): (2, -2)}
        ternary = {(1, 0): (3, 6), (0, 1): (2, -2)}
        spec = ProblemSpec(1, 1, 1)
        variables = enumerate_orbits(spec)
        shapes = build_shape_index_empty(spec)
        built = build_blocks_empty(spec, shapes, variables)
        for shape, block in zip(shapes, built):
            slot = 1 if shape.augmented else 0
            fb, ft = binary[shape.counts[:2]], ternary[shape.counts[2:]]
            for a in (0, 1):
                for b in (0, 1):
                    w = singleton_orbit(spec) if a == b == 0 else pair_orbit(spec, a, b)
                    mat = dense(block)[variables[w] + 1]
                    assert mat[slot][slot] == fb[a] * ft[b]

    def test_invalid_indices(self):
        # column values run over {1, 2}, over {1} for the sign factor, and
        # there are three factors
        assert set(_A1) == set(_A2) == {(1, 1), (1, 2), (2, 1), (2, 2)}
        assert set(_A3) == {(1, 1)}
        assert set(_ZERO_TABLES) == {1, 2, 3}


def shape_for(spec, counts, lambdas):
    for s in build_shape_index_d0(spec):
        if s.counts == counts and s.lambdas == lambdas:
            return s
    raise LookupError((counts, lambdas))


class TestExpandP:
    def test_binary_only_unit(self):
        # single binary cell, both tableaux [1]: the all-equal pattern
        spec = ProblemSpec(1, 1, 1)
        shape = shape_for(spec, (1, 1, 0), ((1, 0), (1, 0), (0, 0)))
        col_11 = (1, 1, 0)  # ([1], [1], [])
        p = expand_p(shape.lambdas, col_11, col_11)
        assert unpacked(p) == {((1, 0, 0, 0), (1, 0, 0, 0, 0)): 1}

    def test_binary_mixed_slots(self):
        spec = ProblemSpec(1, 1, 1)
        shape = shape_for(spec, (1, 1, 0), ((1, 0), (1, 0), (0, 0)))
        sigma = (0, 1, 0)  # ([2], [1], [])
        tau = (1, 1, 0)  # ([1], [1], [])
        p = expand_p(shape.lambdas, sigma, tau)
        # tau feeds the first slot: the binary factor is the {12|3} term
        assert unpacked(p) == {((0, 1, 0, 0), (1, 0, 0, 0, 0)): 1}

    def test_sign_factor(self):
        spec = ProblemSpec(1, 1, 1)
        shape = shape_for(spec, (1, 0, 1), ((1, 0), (0, 0), (1, 0)))
        col = (1, 0, 1)  # ([1], [], [1])
        p = expand_p(shape.lambdas, col, col)
        assert unpacked(p) == {
            ((1, 0, 0, 0), (0, 0, 0, 1, 0)): 2,
            ((1, 0, 0, 0), (0, 0, 0, 0, 1)): -2,
        }

    def test_degree_counts(self):
        spec = ProblemSpec(2, 2, 1)
        for shape in build_shape_index_d0(spec):
            cols = shape.admissible
            p = expand_p(shape.lambdas, cols[0], cols[-1])
            for (mu, nu) in unpacked(p):
                assert sum(mu) == spec.n2
                assert sum(nu) == spec.n3

    @pytest.mark.parametrize("n2,n3,d", [(4, 8, 5), (1, 11, 5)])
    def test_shared_programme_matches_per_pair_reference(self, n2, n3, d):
        # every (factor, lambda, first, second) of the build's column pairs,
        # read from the one polynomial of all pairs per (factor, lambda),
        # against the programme pruned to that pair; and each pair's
        # polynomial, from the shape's one ragged product, against the
        # product of the three reference polynomials
        powers = {}
        want = {}
        for shape in build_shape_index_d0(ProblemSpec(n2, n3, d)):
            cols = shape.admissible
            got = pair_polys(shape.lambdas, cols, powers)
            for i, sigma in enumerate(cols):
                for j, tau in enumerate(cols[i:], start=i):
                    polys = []
                    for key in zip((1, 2, 3), shape.lambdas, tau, sigma):
                        if key not in want:
                            want[key] = reference_factor_poly(*key)
                            all_pairs = blocks._factor_poly(powers, *key[:2])
                            assert state_poly(all_pairs, *key[2:]) == want[key]
                        polys.append(want[key])
                    p1, p2, p3 = polys
                    assert got.get((i, j), {}) == poly_mul(poly_mul(p1, p2), p3)
        assert len({(factor, lam) for factor, lam, *_ in want}) < len(want)


# coefficients near and past 2**62, where int64 products and sums overflow
WIDE = st.one_of(
    st.integers(min_value=2**62 - 2**20, max_value=2**63 - 1),
    st.integers(min_value=-(2**63) + 1, max_value=-(2**62) + 2**20),
    st.integers(min_value=-3, max_value=3),
)
POLYS = st.dictionaries(st.integers(min_value=0, max_value=2**20), WIDE, max_size=6)


def array_poly(poly: dict):
    return blocks._Poly(
        np.array(list(poly), dtype=np.int64), np.array(list(poly.values()), dtype=np.int64)
    )


class TestExactArithmetic:
    """Products and sums of the array polynomials that would overflow int64
    are done in Python ints."""

    @settings(max_examples=200, deadline=None)
    @given(POLYS, POLYS)
    def test_product_of_wide_coefficients(self, p, q):
        assert as_dict(blocks._product(array_poly(p), array_poly(q))) == poly_mul(p, q)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=3), WIDE), max_size=12))
    def test_sum_of_wide_coefficients(self, terms):
        want = {}
        for key, c in terms:
            want[key] = want.get(key, 0) + c
        keys = np.array([key for key, _ in terms], dtype=np.int64)
        coefs = np.array([c for _, c in terms], dtype=np.int64)
        assert as_dict(blocks._collect(keys, coefs)) == {k: c for k, c in want.items() if c}

    def test_overflowing_examples(self):
        big = 2**62 + 1
        assert as_dict(blocks._product(array_poly({0: big, 1: big}), array_poly({0: 3, 2: -1}))) == {
            0: 3 * big, 1: 3 * big, 2: -big, 3: -big,
        }
        summed = blocks._collect(np.zeros(3, dtype=np.int64), np.full(3, big, dtype=np.int64))
        assert as_dict(summed) == {0: 3 * big}

    def test_widest_binary_factor(self):
        # the 31st power of the binary height-1 column has coefficients
        # summing to 4**31 = 2**62 in absolute value, so it is taken in
        # Python ints
        powers = {}
        poly = blocks._factor_poly(powers, 1, (31, 0))
        assert poly.coefs.dtype == object
        for first, second in ((31, 31), (16, 15), (0, 0)):
            assert state_poly(poly, first, second) == reference_factor_poly(1, (31, 0), first, second)

    def test_python_int_build_equals_int64_build(self, monkeypatch):
        spec = ProblemSpec(3, 3, 2)
        args = (spec, build_shape_index_d0(spec), enumerate_orbits(spec))
        want = build_blocks_d0(*args)
        monkeypatch.setattr(blocks, "_INT64_SAFE", 0.0)
        got = build_blocks_d0(*args)
        assert all(b.value.dtype == object for b in got)
        assert got == want


class TestKappa:
    """The orbits the block builders map monomials and empty-case pair
    patterns to."""

    def test_all_equal_is_singleton(self):
        spec = ProblemSpec(2, 1, 1)
        w = orbit_from_counts((2, 0, 0, 0), (1, 0, 0, 0, 0))
        assert w == singleton_orbit(spec)

    def test_pair_from_one_column(self):
        spec = ProblemSpec(1, 1, 1)
        w = orbit_from_counts((0, 0, 0, 1), (1, 0, 0, 0, 0))
        assert w == pair_orbit(spec, 1, 0)

    def test_relabeled_counts_collapse(self):
        # {12|3} and {13|2} raw counts canonicalize to the same orbit
        w1 = orbit_from_counts((0, 1, 0, 0), (1, 0, 0, 0, 0))
        w2 = orbit_from_counts((0, 0, 1, 0), (1, 0, 0, 0, 0))
        assert w1 == w2

    def test_empty_case(self):
        # no unequal coordinate is the singleton, which pair_orbit refuses
        spec = ProblemSpec(2, 1, 1)
        assert singleton_orbit(spec) == orbit_from_counts((2, 0, 0, 0), (1, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            pair_orbit(spec, 0, 0)
        assert pair_orbit(spec, 1, 1) == orbit_from_counts((1, 0, 0, 1), (0, 0, 0, 1, 0))


class TestBlocksD0:
    def test_frozen_pair_block_111(self):
        """The 2x2 sub-block on ([1],[1]) and ([2],[1]) for the (1,0) pair."""
        spec = ProblemSpec(1, 1, 1)
        variables = enumerate_orbits(spec)
        shapes = build_shape_index_d0(spec)
        blocks = build_blocks_d0(spec, shapes, variables)
        shape_idx = next(
            i for i, s in enumerate(shapes)
            if s.counts == (1, 1, 0) and s.lambdas == ((1, 0), (1, 0), (0, 0))
        )
        block = blocks[shape_idx]
        cols = shapes[shape_idx].admissible
        i = cols.index((1, 1, 0))  # ([1], [1])
        j = cols.index((0, 1, 0))  # ([2], [1])
        widx = variables[pair_orbit(spec, 1, 0)]
        mat = dense(block)[widx + 1]
        sub = [[mat[i][i], mat[i][j]], [mat[j][i], mat[j][j]]]
        assert sub == [[0, 1], [1, 1]]

    def test_singleton_coefficient_on_all_ones_column(self):
        for spec in (ProblemSpec(1, 1, 1), ProblemSpec(2, 2, 1), ProblemSpec(2, 1, 2)):
            variables = enumerate_orbits(spec)
            shapes = build_shape_index_d0(spec)
            blocks = build_blocks_d0(spec, shapes, variables)
            sidx = variables[singleton_orbit(spec)]
            found = False
            for shape, block in zip(shapes, blocks):
                for i, col in enumerate(shape.admissible):
                    # every binary and ternary-trivial cell holds a 1
                    if col == shape.counts and shape.counts[2] == 0:
                        found = True
                        assert dense(block)[sidx + 1][i][i] == 1
            assert found

    def test_infeasible_orbits_dropped(self):
        spec = ProblemSpec(1, 1, 2)
        variables = enumerate_orbits(spec)
        blocks = build_blocks_d0(spec, build_shape_index_d0(spec), variables)
        for block in blocks:
            # no constant either: the all-zero-word blocks have F0 = 0
            for matno, *_ in block.entries():
                assert 1 <= matno <= len(variables)

    def test_matrices_symmetric(self):
        # each symmetric matrix is stored once, as its sorted upper triangle
        spec = ProblemSpec(2, 2, 2)
        variables = enumerate_orbits(spec)
        for block in build_blocks_d0(spec, build_shape_index_d0(spec), variables):
            entries = list(block.entries())
            assert entries == sorted(entries)
            assert len({e[:3] for e in entries}) == len(entries)
            assert all(0 <= i <= j < block.dim for _, i, j, _ in entries)

    def test_entries_are_exact_integers(self):
        spec = ProblemSpec(2, 1, 1)
        variables = enumerate_orbits(spec)
        for block in build_blocks_d0(spec, build_shape_index_d0(spec), variables):
            assert all(c.dtype == np.int64 for c in (block.matno, block.i, block.j, block.value))
            for entry in block.entries():
                assert all(type(v) is int for v in entry)
                assert entry[3] != 0


class TestBuildState:
    def test_packing_guard(self):
        # a count of 32 would carry into the next 5-bit digit; the guard
        # fires before any shape or orbit is looked at
        for n2, n3 in ((32, 1), (1, 32)):
            with pytest.raises(ValueError, match="5-bit"):
                build_blocks_d0(ProblemSpec(n2, n3, 1), [], {})

    def test_no_process_wide_cache(self):
        cached = [
            name for name in dir(blocks)
            if hasattr(getattr(blocks, name), "cache_info")
        ]
        assert cached == []

    def test_blocks_do_not_depend_on_earlier_builds(self):
        # (2,2,2) built first in a fresh process, and here after other builds
        script = (
            "from mixedsdp.codes import ProblemSpec\n"
            "from mixedsdp.model import build_sdp\n"
            "print(repr(build_sdp(ProblemSpec(2, 2, 2)).blocks))\n"
        )
        src = str(Path(mixedsdp.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        first = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True, timeout=300, env=dict(os.environ, PYTHONPATH=path),
        ).stdout
        for n2, n3, d in ((2, 3, 2), (3, 2, 2), (2, 2, 1)):
            build_sdp(ProblemSpec(n2, n3, d))
        assert repr(build_sdp(ProblemSpec(2, 2, 2)).blocks) + "\n" == first


class TestBlocksEmpty:
    def test_augmented_pair_coefficient_11(self):
        spec = ProblemSpec(1, 1, 1)
        variables = enumerate_orbits(spec)
        blocks = build_blocks_empty(spec, build_shape_index_empty(spec), variables)
        aug = next(b for b in blocks if b.dim == 2)
        widx = variables[pair_orbit(spec, 1, 1)]
        assert dense(aug)[widx + 1][1][1] == 12

    def test_augmented_singleton_coefficient(self):
        spec = ProblemSpec(1, 1, 1)
        variables = enumerate_orbits(spec)
        blocks = build_blocks_empty(spec, build_shape_index_empty(spec), variables)
        aug = next(b for b in blocks if b.dim == 2)
        sidx = variables[singleton_orbit(spec)]
        mats = dense(aug)
        assert mats[sidx + 1][1][1] == 6
        assert mats[sidx + 1][0][1] == 6  # cross term with the empty row
        assert mats[0] == [[1, 0], [0, 0]]

    @pytest.mark.parametrize("n2,n3", [(1, 1), (2, 1), (2, 2)])
    def test_trivial_shape_closed_form(self, n2, n3):
        spec = ProblemSpec(n2, n3, 1)
        variables = enumerate_orbits(spec)
        blocks = build_blocks_empty(spec, build_shape_index_empty(spec), variables)
        aug = next(b for b in blocks if b.dim == 2)
        q = spec.num_words
        for a in range(n2 + 1):
            for b in range(n3 + 1):
                if a == b == 0:
                    continue
                widx = variables[pair_orbit(spec, a, b)]
                expected = q * comb(n2, a) * comb(n3, b) * 2 ** b
                assert dense(aug)[widx + 1][1][1] == expected

    def test_block_count_and_dims(self):
        spec = ProblemSpec(2, 3, 1)
        variables = enumerate_orbits(spec)
        blocks = build_blocks_empty(spec, build_shape_index_empty(spec), variables)
        assert len(blocks) == 12
        assert sorted(b.dim for b in blocks) == [1] * 11 + [2]

    @pytest.mark.parametrize("n2,n3", [(1, 1), (2, 1), (3, 2)])
    def test_empty_column_word_by_word(self, n2, n3):
        # entry w of the column of (l1, l2, l3, l4) is the product, over the
        # coordinates, of that coordinate type's basis column at w's letter
        spec = ProblemSpec(n2, n3, 1)
        for shape in build_shape_index_empty(spec):
            l1, _, l3, _ = shape.counts
            want = [
                math.prod((1, 1)[x] if i < l1 else (1, -1)[x] for i, x in enumerate(w.bits))
                * math.prod((1, 1, 1)[x] if i < l3 else (1, -1, 0)[x] for i, x in enumerate(w.trits))
                for w in all_words(spec)
            ]
            assert representative_vector_empty(shape).tolist() == want, shape

    def test_brute_force_contraction_21(self):
        # cross-check every shape coefficient against the explicit vector
        spec = ProblemSpec(2, 1, 1)
        variables = enumerate_orbits(spec)
        shapes = build_shape_index_empty(spec)
        blocks = build_blocks_empty(spec, shapes, variables)
        from mixedsdp.codes import canonical_orbit, code

        words = list(all_words(spec))
        for shape, block in zip(shapes, blocks):
            vec = representative_vector_empty(shape)
            assert len(vec) == len(words)
            agg = {}
            for x, cx in zip(words, vec.tolist()):
                for y, cy in zip(words, vec.tolist()):
                    widx = variables[canonical_orbit(spec, code(x, y))]
                    agg[widx] = agg.get(widx, 0) + cx * cy
            slot = 1 if shape.augmented else 0
            for widx, val in agg.items():
                got = dense(block).get(widx + 1)
                assert (got[slot][slot] if got else 0) == val


class TestBlockType:
    def test_fields(self):
        assert [f.name for f in dataclasses.fields(Block)] == ["label", "dim", "matno", "i", "j", "value"]

    def test_from_entries_columns(self):
        # sorted, int64 while every value and its negation fit, else Python
        # ints; a float would be truncated, so it is refused
        block = Block.from_entries("x", 2, ((1, 0, 1, 5), (0, 0, 0, -(2 ** 63 - 1))))
        assert list(block.entries()) == [(0, 0, 0, -(2 ** 63 - 1)), (1, 0, 1, 5)]
        assert block.value.dtype == np.int64
        assert block == Block.from_entries("x", 2, ((0, 0, 0, -(2 ** 63 - 1)), (1, 0, 1, 5)))
        assert block != Block.from_entries("x", 2, ((0, 0, 0, -(2 ** 63 - 1)), (1, 0, 1, 6)))
        wide = Block.from_entries("x", 1, ((0, 0, 0, -(2 ** 63)),))
        assert wide.value.dtype == object and list(wide.entries()) == [(0, 0, 0, -(2 ** 63))]
        with pytest.raises(TypeError, match="block x: values must be ints"):
            Block.from_entries("x", 1, ((0, 0, 0, 1.5),))

    @pytest.mark.parametrize("n2,n3,d,k", [(4, 5, 3, 3), (2, 5, 3, 2)])
    def test_dense_view_counts_variable_triplets(self, n2, n3, d, k):
        # the benchmark's coefficient-entry count reads the dense view with
        # this expression; it counts the variable triplets of each block
        for b in build_problem(ProblemSpec(n2, n3, d, k)).blocks:
            count = sum(1 for mat in b.coeff.values()
                        for i, row in enumerate(mat) for v in row[i:] if v)
            assert count == sum(1 for matno, *_ in b.entries() if matno >= 1)
            assert b.coeff == {m - 1: mat for m, mat in dense(b).items() if m}


def raise_first_coefficient(block_list):
    """The blocks with one added to the first entry of the first block."""
    first, *rest = block_list
    (matno, i, j, value), *entries = first.entries()
    return [Block.from_entries(first.label, first.dim, ((matno, i, j, value + 1), *entries)), *rest]


def double_augmented_corner(block_list):
    """The blocks with the constant corner of the augmented block set to 2."""
    return [
        Block.from_entries(b.label, b.dim, [
            e[:3] + (2,) if e[:3] == (0, 0, 0) else e for e in b.entries()
        ])
        for b in block_list
    ]


def add_zero_case_constant(block_list):
    """The blocks with a constant 1 added at (0, 0) of the first block."""
    first, *rest = block_list
    return [Block.from_entries(first.label, first.dim, ((0, 0, 0, 1), *first.entries())), *rest]


def add_augmented_cross_term(block_list):
    """The blocks with a cross term 7 of a non-singleton orbit added to the
    augmented block, whose only cross term is the singleton's."""
    out = []
    for b in block_list:
        if b.dim == 2:
            singleton = next(e[0] for e in b.entries() if e[1:3] == (0, 1))
            pair = next(e[0] for e in b.entries() if e[1:3] == (1, 1) and e[0] != singleton)
            b = Block.from_entries(b.label, b.dim, (*b.entries(), (pair, 0, 1, 7)))
        out.append(b)
    return out


def drop_widest_shape(shapes):
    """The zero-case shapes without the first one with the most columns."""
    widest = max(shapes, key=lambda s: len(s.admissible))
    return [s for s in shapes if s != widest]


def drop_last_column(shapes):
    """The zero-case shapes, the first widest one without its last column."""
    widest = max(shapes, key=lambda s: len(s.admissible))
    return [
        dataclasses.replace(s, admissible=s.admissible[:-1]) if s == widest else s
        for s in shapes
    ]


def drop_plain_shape(shapes):
    """The empty-case shapes without the first non-augmented one."""
    plain = next(s for s in shapes if not s.augmented)
    return [s for s in shapes if s != plain]


def ballot_sequences(a, b):
    """Brute force: the sequences of a 1s and b 2s in which no prefix holds
    more 2s than 1s."""
    count = 0
    for twos in itertools.combinations(range(a + b), b):
        seq = [2 if i in twos else 1 for i in range(a + b)]
        count += all(seq[:i].count(2) <= seq[:i].count(1) for i in range(1, a + b + 1))
    return count


class TestVerifyReduction:
    @pytest.mark.parametrize("n2,n3,d", [
        (1, 1, 1), (1, 1, 2), (2, 1, 2), (1, 2, 3),
        # the first specs with a two-row tableau of unequal rows, (2, 1)
        *((3, 1, d) for d in range(1, 5)), *((1, 3, d) for d in range(1, 5)),
        # the first with a binary multiplicity above 1: f((3,1)) = 3, f((2,2)) = 2
        *((4, 1, d) for d in range(1, 6)),
    ])
    def test_passes(self, n2, n3, d):
        report = verify_reduction(ProblemSpec(n2, n3, d))
        assert report.passed, report.summary()

    def test_level_two_spec(self):
        # the zero case meets triples, which a level-2 orbit map lacks
        assert verify_reduction(ProblemSpec(1, 1, 2, k=2)).passed

    def test_standard_tableaux_count_ballot_sequences(self):
        # a standard tableau of shape (a, b) is a ballot sequence: entry k
        # says which row holds k
        assert standard_tableaux((0, 0)) == 1
        for cells in range(1, 11):
            for b in range(cells // 2 + 1):
                lam = (cells - b, b)
                assert standard_tableaux(lam) == ballot_sequences(cells - b, b), lam

    def test_cap(self):
        with pytest.raises(ResourceError):
            verify_reduction(ProblemSpec(3, 3, 1))

    def test_report_summary_format(self):
        report = verify_reduction(ProblemSpec(1, 1, 1))
        text = report.summary()
        assert "PASS" in text
        assert report.first_failure() is None

    @pytest.mark.parametrize("builder, corrupt, failure, ending", [
        ("build_blocks_d0", raise_first_coefficient,
         "zero-case block entries equal explicit contraction: shape ",
         "engine 3, explicit 2"),
        ("build_blocks_empty", double_augmented_corner,
         "empty-case block entries equal explicit contraction: "
         "shape l=(2, 0, 1, 0) +empty entry (0,0) constant: engine 2, explicit 1",
         ""),
        # entries the explicit contraction lacks
        ("build_blocks_d0", add_zero_case_constant,
         "zero-case block entries equal explicit contraction: shape ",
         "entry (0,0) constant: engine 1, explicit 0"),
        ("build_blocks_empty", add_augmented_cross_term,
         "empty-case block entries equal explicit contraction: "
         "shape l=(2, 0, 1, 0) +empty entry (0,1) orbit size=2 ",
         "engine 7, explicit 0"),
    ], ids=["zero-case", "empty-case", "zero-case-extra-constant", "empty-case-extra-cross-term"])
    def test_corrupted_block_found(self, monkeypatch, capsys, builder, corrupt, failure, ending):
        build = getattr(blocks, builder)
        monkeypatch.setattr(blocks, builder, lambda *args: corrupt(build(*args)))
        report = verify_reduction(ProblemSpec(2, 1, 2))
        assert not report.passed
        assert report.first_failure().startswith(failure)
        assert report.first_failure().endswith(ending)
        assert main(["verify", "2", "1", "--d", "2"]) == EXIT_VERIFY
        assert "first discrepancy: " + failure in capsys.readouterr().out

    @pytest.mark.parametrize("index, mutate, detail", [
        ("build_shape_index_d0", drop_widest_shape, "zero case 27 for 36 words"),
        ("build_shape_index_d0", drop_last_column, "zero case 35 for 36 words"),
        ("build_shape_index_empty", drop_plain_shape, "empty case 32 for 36 words"),
    ], ids=["zero-case-shape", "zero-case-column", "empty-case-shape"])
    def test_incomplete_reduction_found(self, monkeypatch, capsys, index, mutate, detail):
        # every block that remains is still the exact contraction of its
        # columns, so only the count and the inertia comparison can fail
        build = getattr(blocks, index)
        monkeypatch.setattr(blocks, index, lambda spec: mutate(build(spec)))
        report = verify_reduction(ProblemSpec(2, 2, 1))
        assert [name for name, ok, _ in report.checks if not ok] == [
            "block dimensions times multiplicities count the words",
            "(negative, positive) eigenvalue counts equal blocks times multiplicities",
        ]
        assert report.first_failure().startswith(
            "block dimensions times multiplicities count the words: "
        )
        assert detail in report.first_failure()
        assert main(["verify", "2", "2", "--d", "1"]) == EXIT_VERIFY
        assert "first discrepancy: block dimensions" in capsys.readouterr().out

    def test_dimension_count_every_packaged_row(self):
        # the count writes no word out, so it reaches every row of the
        # table, far past the verifier's word cap
        rows = load_reference_rows()
        assert len(rows) == 135
        for r in rows:
            spec = ProblemSpec(r.n2, r.n3, r.d)
            _, ok, detail = dimension_count(
                spec, build_shape_index_d0(spec), build_shape_index_empty(spec)
            )
            assert ok, (spec, detail)

    def test_nonzero_column_sum_found(self, monkeypatch):
        # A column with sum s contracts to entries totalling s^2, and a
        # non-augmented engine block totals 0, so the contraction alone
        # catches a corrupted column.  The column-sum test fires when both
        # sides agree on a column that meets the empty code's row: one word,
        # contracted to the singleton orbit.
        spec = ProblemSpec(2, 1, 2)
        target = build_shape_index_empty(spec)[0]
        assert not target.augmented
        first_word = np.eye(1, spec.num_words, dtype=np.int64)[0]
        vector, build = blocks.representative_vector_empty, blocks.build_blocks_empty

        def one_word(shape):
            return first_word if shape == target else vector(shape)

        def singleton_block(spec, shapes, variables):
            first, *rest = build(spec, shapes, variables)
            matno = variables[singleton_orbit(spec)] + 1
            return [Block.from_entries(first.label, 1, ((matno, 0, 0, 1),)), *rest]

        monkeypatch.setattr(blocks, "representative_vector_empty", one_word)
        monkeypatch.setattr(blocks, "build_blocks_empty", singleton_block)
        assert verify_reduction(spec).first_failure() == (
            "empty-case block entries equal explicit contraction: "
            f"non-augmented shape {target.label()} has column sum 1"
        )
