"""Base-change identities, dual polynomials, and block coefficients."""

import dataclasses
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

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
    expand_p,
    representative_vector_empty,
    unpack_monomial,
    verify_reduction,
)
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


def feasible(table):
    """Orbit-to-variable map keeping each feasible orbit at its own index."""
    return {i: i for i, ok in enumerate(table.feasible) if ok}


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
    for matno, i, j, val in block.entries:
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
        table = enumerate_orbits(spec)
        shapes = build_shape_index_empty(spec)
        built = build_blocks_empty(spec, shapes, table, feasible(table))
        for shape, block in zip(shapes, built):
            slot = 1 if shape.augmented else 0
            fb, ft = binary[shape.counts[:2]], ternary[shape.counts[2:]]
            for a in (0, 1):
                for b in (0, 1):
                    w = singleton_orbit(spec) if a == b == 0 else pair_orbit(spec, a, b)
                    mat = dense(block)[table.index_of(w) + 1]
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
        shape = shape_for(spec, (1, 1, 0), ((1,), (1,), ()))
        col_11 = (((1,),), ((1,),), ())
        p = expand_p(shape, col_11, col_11, {})
        assert unpacked(p) == {((1, 0, 0, 0), (1, 0, 0, 0, 0)): 1}

    def test_binary_mixed_slots(self):
        spec = ProblemSpec(1, 1, 1)
        shape = shape_for(spec, (1, 1, 0), ((1,), (1,), ()))
        sigma = (((2,),), ((1,),), ())
        tau = (((1,),), ((1,),), ())
        p = expand_p(shape, sigma, tau, {})
        # tau feeds the first slot: the binary factor is the {12|3} term
        assert unpacked(p) == {((0, 1, 0, 0), (1, 0, 0, 0, 0)): 1}

    def test_sign_factor(self):
        spec = ProblemSpec(1, 1, 1)
        shape = shape_for(spec, (1, 0, 1), ((1,), (), (1,)))
        col = (((1,),), (), ((1,),))
        p = expand_p(shape, col, col, {})
        assert unpacked(p) == {
            ((1, 0, 0, 0), (0, 0, 0, 1, 0)): 2,
            ((1, 0, 0, 0), (0, 0, 0, 0, 1)): -2,
        }

    def test_degree_counts(self):
        spec = ProblemSpec(2, 2, 1)
        for shape in build_shape_index_d0(spec):
            cols = shape.admissible
            p = expand_p(shape, cols[0], cols[-1], {})
            for (mu, nu) in unpacked(p):
                assert sum(mu) == spec.n2
                assert sum(nu) == spec.n3

    def test_shape_mismatch_detected(self):
        spec = ProblemSpec(2, 1, 1)
        shapes = build_shape_index_d0(spec)
        two_row = [s for s in shapes if len(s.lambdas[0]) == 2]
        assert two_row
        shape = two_row[0]
        bad = ((( 1, 1),), ((1,),), ())  # wrong shape for lambda1=(1,1)
        with pytest.raises((ValueError, IndexError)):
            expand_p(shape, bad, bad, {})


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
        table = enumerate_orbits(spec)
        shapes = build_shape_index_d0(spec)
        blocks = build_blocks_d0(spec, shapes, table, feasible(table))
        shape_idx = next(
            i for i, s in enumerate(shapes)
            if s.counts == (1, 1, 0) and s.lambdas == ((1,), (1,), ())
        )
        block = blocks[shape_idx]
        cols = shapes[shape_idx].admissible
        i = cols.index(((((1,),), ((1,),), ())))
        j = cols.index(((((2,),), ((1,),), ())))
        widx = table.index_of(pair_orbit(spec, 1, 0))
        mat = dense(block)[widx + 1]
        sub = [[mat[i][i], mat[i][j]], [mat[j][i], mat[j][j]]]
        assert sub == [[0, 1], [1, 1]]

    def test_singleton_coefficient_on_all_ones_column(self):
        for spec in (ProblemSpec(1, 1, 1), ProblemSpec(2, 2, 1), ProblemSpec(2, 1, 2)):
            table = enumerate_orbits(spec)
            shapes = build_shape_index_d0(spec)
            blocks = build_blocks_d0(spec, shapes, table, feasible(table))
            sidx = table.index_of(singleton_orbit(spec))
            found = False
            for shape, block in zip(shapes, blocks):
                for i, col in enumerate(shape.admissible):
                    weights = [v for tab in col[:2] for row in tab for v in row]
                    if all(v == 1 for v in weights) and shape.counts[2] == 0:
                        found = True
                        assert dense(block)[sidx + 1][i][i] == 1
            assert found

    def test_infeasible_orbits_dropped(self):
        spec = ProblemSpec(1, 1, 2)
        table = enumerate_orbits(spec)
        blocks = build_blocks_d0(spec, build_shape_index_d0(spec), table, feasible(table))
        for block in blocks:
            # no constant either: the all-zero-word blocks have F0 = 0
            for matno, *_ in block.entries:
                assert matno >= 1 and table.feasible[matno - 1]

    def test_matrices_symmetric(self):
        # each symmetric matrix is stored once, as its sorted upper triangle
        spec = ProblemSpec(2, 2, 2)
        table = enumerate_orbits(spec)
        for block in build_blocks_d0(spec, build_shape_index_d0(spec), table, feasible(table)):
            assert list(block.entries) == sorted(block.entries)
            assert len({e[:3] for e in block.entries}) == len(block.entries)
            assert all(0 <= i <= j < block.dim for _, i, j, _ in block.entries)

    def test_entries_are_exact_integers(self):
        spec = ProblemSpec(2, 1, 1)
        table = enumerate_orbits(spec)
        for block in build_blocks_d0(spec, build_shape_index_d0(spec), table, feasible(table)):
            for entry in block.entries:
                assert all(type(v) is int for v in entry)
                assert entry[3] != 0


class TestBuildState:
    def test_packing_guard(self):
        # a count of 32 would carry into the next 5-bit digit; the guard
        # fires before any shape or orbit is looked at
        for n2, n3 in ((32, 1), (1, 32)):
            with pytest.raises(ValueError, match="5-bit"):
                build_blocks_d0(ProblemSpec(n2, n3, 1), [], None, {})

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
        table = enumerate_orbits(spec)
        blocks = build_blocks_empty(spec, build_shape_index_empty(spec), table, feasible(table))
        aug = next(b for b in blocks if b.dim == 2)
        widx = table.index_of(pair_orbit(spec, 1, 1))
        assert dense(aug)[widx + 1][1][1] == 12

    def test_augmented_singleton_coefficient(self):
        spec = ProblemSpec(1, 1, 1)
        table = enumerate_orbits(spec)
        blocks = build_blocks_empty(spec, build_shape_index_empty(spec), table, feasible(table))
        aug = next(b for b in blocks if b.dim == 2)
        sidx = table.index_of(singleton_orbit(spec))
        mats = dense(aug)
        assert mats[sidx + 1][1][1] == 6
        assert mats[sidx + 1][0][1] == 6  # cross term with the empty row
        assert mats[0] == [[1, 0], [0, 0]]

    @pytest.mark.parametrize("n2,n3", [(1, 1), (2, 1), (2, 2)])
    def test_trivial_shape_closed_form(self, n2, n3):
        spec = ProblemSpec(n2, n3, 1)
        table = enumerate_orbits(spec)
        blocks = build_blocks_empty(spec, build_shape_index_empty(spec), table, feasible(table))
        aug = next(b for b in blocks if b.dim == 2)
        q = spec.num_words
        for a in range(n2 + 1):
            for b in range(n3 + 1):
                if a == b == 0:
                    continue
                widx = table.index_of(pair_orbit(spec, a, b))
                expected = q * comb(n2, a) * comb(n3, b) * 2 ** b
                assert dense(aug)[widx + 1][1][1] == expected

    def test_block_count_and_dims(self):
        spec = ProblemSpec(2, 3, 1)
        table = enumerate_orbits(spec)
        blocks = build_blocks_empty(spec, build_shape_index_empty(spec), table, feasible(table))
        assert len(blocks) == 12
        assert sorted(b.dim for b in blocks) == [1] * 11 + [2]

    def test_brute_force_contraction_21(self):
        # cross-check every shape coefficient against the explicit vector
        spec = ProblemSpec(2, 1, 1)
        table = enumerate_orbits(spec)
        shapes = build_shape_index_empty(spec)
        blocks = build_blocks_empty(spec, shapes, table, feasible(table))
        from mixedsdp.codes import canonical_orbit, code

        words = list(all_words(spec))
        for shape, block in zip(shapes, blocks):
            vec = representative_vector_empty(spec, shape)
            agg = {}
            for x in words:
                for y in words:
                    widx = table.index_of(canonical_orbit(spec, code(x, y)))
                    agg[widx] = agg.get(widx, 0) + vec.get(x, 0) * vec.get(y, 0)
            slot = 1 if shape.augmented else 0
            for widx, val in agg.items():
                got = dense(block).get(widx + 1)
                assert (got[slot][slot] if got else 0) == val


class TestBlockType:
    def test_fields(self):
        assert [f.name for f in dataclasses.fields(Block)] == ["label", "dim", "entries"]

    @pytest.mark.parametrize("n2,n3,d,k", [(4, 5, 3, 3), (2, 5, 3, 2)])
    def test_dense_view_counts_variable_triplets(self, n2, n3, d, k):
        # the benchmark's coefficient-entry count reads the dense view with
        # this expression; it counts the variable triplets of each block
        for b in build_problem(ProblemSpec(n2, n3, d, k)).blocks:
            count = sum(1 for mat in b.coeff.values()
                        for i, row in enumerate(mat) for v in row[i:] if v)
            assert count == sum(1 for matno, *_ in b.entries if matno >= 1)
            assert b.coeff == {m - 1: mat for m, mat in dense(b).items() if m}


class TestVerifyReduction:
    @pytest.mark.parametrize("n2,n3,d", [(1, 1, 1), (1, 1, 2), (2, 1, 2), (1, 2, 3)])
    def test_passes(self, n2, n3, d):
        report = verify_reduction(ProblemSpec(n2, n3, d), trials=12)
        assert report.passed, report.summary()

    def test_cap(self):
        with pytest.raises(ResourceError):
            verify_reduction(ProblemSpec(3, 3, 1))

    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_refused(self, trials):
        # a transport check that never ran must not report a pass
        with pytest.raises(ValueError, match=f"got trials={trials}"):
            verify_reduction(ProblemSpec(1, 1, 1), trials=trials)

    def test_report_summary_format(self):
        report = verify_reduction(ProblemSpec(1, 1, 1), trials=3)
        text = report.summary()
        assert "PASS" in text
        assert report.first_failure() is None
