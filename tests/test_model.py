"""Problem assembly: variables, objective, blocks and LP mode."""

from fractions import Fraction

import numpy as np
import pytest

from mixedsdp.codes import (
    ProblemSpec,
    enumerate_orbits,
    exact_n,
    optimal_code,
    singleton_orbit,
)
from mixedsdp import blocks
from mixedsdp.blocks import Block, build_blocks_empty, verify_reduction
from mixedsdp.cli import EXIT_VERIFY, main
from mixedsdp.model import SdpProblem, build_lp_k2, build_problem, build_sdp
from mixedsdp.solver import certify, solve
from mixedsdp.tableaux import build_shape_index_empty
from orbit_reference import block_at, code_indicator_assignment, tuple_orbits


def eval_blocks(problem, y):
    """Min eigenvalue over all blocks at a variable assignment."""
    return min(float(np.linalg.eigvalsh(block_at(b, y))[0]) for b in problem.blocks)


class TestBuildSdp:
    def test_111_has_seven_variables(self):
        p = build_sdp(ProblemSpec(1, 1, 1))
        assert p.num_vars == 7

    def test_objective_on_singleton_only(self):
        spec = ProblemSpec(2, 2, 2)
        p = build_sdp(spec)
        sidx = p.variables.index(singleton_orbit(spec))
        assert p.objective[sidx] == spec.num_words
        assert all(c == 0 for i, c in enumerate(p.objective) if i != sidx)

    def test_excludes_empty_and_infeasible(self):
        # of the eight orbits of (1,1), the singleton and the pair at
        # distance 2
        p = build_sdp(ProblemSpec(1, 1, 2))
        assert sorted(w.size for w in p.variables) == [1, 2]

    def test_every_variable_constrained(self):
        p = build_sdp(ProblemSpec(2, 1, 2))
        covered = set()
        for b in p.blocks:
            covered.update(matno - 1 for matno, *_ in b.entries() if matno)
        assert covered == set(range(p.num_vars))

    def test_single_augmented_constant(self):
        p = build_sdp(ProblemSpec(2, 2, 3))
        f0s = [[e for e in b.entries() if e[0] == 0] for b in p.blocks]
        assert [f0 for f0 in f0s if f0] == [[(0, 0, 0, 1)]]

    def test_rejects_wrong_level(self):
        with pytest.raises(ValueError):
            build_sdp(ProblemSpec(1, 1, 1, k=2))


@pytest.mark.parametrize(
    "n2,n3,d,k", [(1, 1, 2, 3), (2, 2, 2, 2), (2, 2, 2, 3), (3, 3, 3, 3), (4, 8, 5, 2)]
)
def test_variables_are_the_orbit_map(n2, n3, d, k):
    spec = ProblemSpec(n2, n3, d, k)
    variables = enumerate_orbits(spec)
    assert build_problem(spec).variables == tuple(variables)
    assert list(variables.values()) == list(range(len(variables)))


class TestBuildLp:
    def test_variables_limited_to_pairs(self):
        p = build_lp_k2(ProblemSpec(2, 2, 2, k=2))
        assert all(w.size <= 2 for w in p.variables)

    @pytest.mark.parametrize("n2,n3,d", [(2, 2, 2), (3, 3, 3), (5, 2, 4), (4, 8, 5)])
    def test_variables_are_small_orbits_of_full_table(self, n2, n3, d):
        # the level-2 map stops at pairs; its variables are those of the
        # level-3 map, in the same order
        full = enumerate_orbits(ProblemSpec(n2, n3, d))
        want = tuple(w for w in full if w.size <= 2)
        assert build_lp_k2(ProblemSpec(n2, n3, d, k=2)).variables == want

    def test_only_empty_case_blocks(self):
        spec = ProblemSpec(2, 3, 2, k=2)
        p = build_lp_k2(spec)
        assert len(p.blocks) == (spec.n2 + 1) * (spec.n3 + 1)
        assert sorted(b.dim for b in p.blocks)[-1] == 2

    def test_d1_optimum_is_word_count(self):
        spec = ProblemSpec(2, 2, 1, k=2)
        p = build_lp_k2(spec)
        s = solve(p, tol=1e-8)
        assert abs(s.objective - spec.num_words) <= 1e-6 * spec.num_words

    def test_rejects_wrong_level(self):
        with pytest.raises(ValueError):
            build_lp_k2(ProblemSpec(1, 1, 1, k=3))

    def test_counts_above_five_bits(self):
        # level 2 packs no keys, so a ternary count of 32 builds;
        # the problem is the one the tuple enumeration gives
        spec = ProblemSpec(1, 32, 3, k=2)
        want = tuple_orbits(spec)
        p = build_problem(spec)
        assert p.variables == tuple(want)
        assert p.blocks == tuple(build_blocks_empty(spec, build_shape_index_empty(spec), want))


class TestCodeIndicator:
    @pytest.mark.parametrize("n2,n3,d", [(1, 1, 1), (1, 1, 2), (2, 1, 2), (1, 2, 2)])
    def test_prop1_feasible_with_exact_objective(self, n2, n3, d):
        spec = ProblemSpec(n2, n3, d)
        dstar = optimal_code(spec)
        p = build_sdp(spec)
        y = np.zeros(p.num_vars)
        for v, val in code_indicator_assignment(spec, enumerate_orbits(spec), dstar).items():
            y[v] = float(val)
        assert eval_blocks(p, y) >= -1e-9
        objective = sum(c * y[i] for i, c in enumerate(p.objective))
        assert abs(objective - len(dstar)) < 1e-9

    def test_values_are_exact_fractions(self):
        spec = ProblemSpec(1, 1, 2)
        variables = enumerate_orbits(spec)
        y = code_indicator_assignment(spec, variables, optimal_code(spec))
        assert all(isinstance(v, Fraction) for v in y.values())
        assert y[variables[singleton_orbit(spec)]] == Fraction(exact_n(spec), spec.num_words)


class TestMonotonicity:
    def test_optimum_weakly_decreasing_in_d(self):
        values = []
        for d in (1, 2, 3):
            p = build_sdp(ProblemSpec(1, 2, d))
            values.append(solve(p, tol=1e-8).objective)
        assert values[0] + 1e-6 >= values[1] >= values[2] - 1e-6

    def test_hierarchy_k3_below_k2(self):
        for (n2, n3, d) in [(1, 1, 2), (2, 1, 2), (2, 2, 3)]:
            p3 = build_sdp(ProblemSpec(n2, n3, d))
            p2 = build_lp_k2(ProblemSpec(n2, n3, d, k=2))
            b3 = certify(p3, solve(p3)).value
            b2 = certify(p2, solve(p2)).value
            assert b3 <= b2


class TestBlockInvariants:
    """A block enters a problem only whole: every later reader indexes with
    its entries unchecked.  One rule, ``Block.entry_fault``, refuses a
    faulty entry where a block enters a problem and in the verifier, with
    one message."""

    @pytest.mark.parametrize("entry, reason", [
        ((1, 0, 2, 7), "position outside 0 <= i <= j < 2"),  # j == dim
        ((1, 1, 0, 7), "position outside 0 <= i <= j < 2"),  # i > j
        ((16, 0, 0, 7), "matrix number outside 0..15"),
        ((-1, 0, 0, 7), "matrix number outside 0..15"),
        ((1, 0, 1, 7), "not after the entry before it in (matno, i, j) order"),  # repeated
        ((0, 1, 1, 7), "not after the entry before it in (matno, i, j) order"),  # unsorted
    ])
    def test_faulty_entry_refused(self, monkeypatch, capsys, entry, reason):
        good = Block.from_entries("good", 2, ((0, 0, 0, 1), (1, 0, 1, 1), (2, 1, 1, 1)))
        # the faulty entry goes in third, unsorted, as from_entries would
        # not leave it
        columns = (good.matno, good.i, good.j, good.value)
        faulty = Block("faulty", 2, *(np.insert(c, 2, v) for c, v in zip(columns, entry)))
        matno, i, j, _ = entry
        message = f"block faulty: entry 2 (matno, i, j) = ({matno}, {i}, {j}): {reason}"
        # 15 variables, as many as the orbits of the verifier's d = 1 map
        # of (2,1,2)
        spec = ProblemSpec(2, 1, 2)
        with pytest.raises(ValueError) as info:
            SdpProblem(spec, (None,) * 15, (0,) * 15, (good, faulty))
        assert str(info.value) == message
        # the verifier meets the block first among the engine's blocks
        build = blocks.build_blocks_d0
        monkeypatch.setattr(blocks, "build_blocks_d0", lambda *args: [faulty, *build(*args)])
        failure = f"block entries lie in order inside their blocks: {message}"
        assert verify_reduction(spec).first_failure() == failure
        assert main(["verify", "2", "1", "--d", "2"]) == EXIT_VERIFY
        assert f"first discrepancy: {failure}\n" in capsys.readouterr().out
