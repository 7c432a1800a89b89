"""Problem assembly: variables, objective, blocks, LP mode, derived bounds."""

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
from mixedsdp.model import build_lp_k2, build_sdp, derived_doubling_bound
from mixedsdp.solver import certify, solve
from orbit_reference import block_at, code_indicator_assignment


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
        spec = ProblemSpec(1, 1, 2)
        table = enumerate_orbits(spec)
        p = build_sdp(spec)
        assert len(p.variables) == sum(table.feasible) - 1
        assert all(w.size >= 1 for w in p.variables)

    def test_every_variable_constrained(self):
        p = build_sdp(ProblemSpec(2, 1, 2))
        covered = set()
        for b in p.blocks:
            covered.update(matno - 1 for matno, *_ in b.entries if matno)
        assert covered == set(range(p.num_vars))

    def test_single_augmented_constant(self):
        p = build_sdp(ProblemSpec(2, 2, 3))
        f0s = [[e for e in b.entries if e[0] == 0] for b in p.blocks]
        assert [f0 for f0 in f0s if f0] == [[(0, 0, 0, 1)]]

    def test_rejects_wrong_level(self):
        with pytest.raises(ValueError):
            build_sdp(ProblemSpec(1, 1, 1, k=2))


class TestBuildLp:
    def test_variables_limited_to_pairs(self):
        p = build_lp_k2(ProblemSpec(2, 2, 2, k=2))
        assert all(w.size <= 2 for w in p.variables)

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


class TestDoubling:
    def test_published_instances(self):
        # (2,12,8) from (1,12,8), and (5,3,3) from (4,3,3)
        assert derived_doubling_bound(67) == 134
        assert derived_doubling_bound(30) == 60

    def test_arithmetic(self):
        assert derived_doubling_bound(21) == 42


class TestCodeIndicator:
    @pytest.mark.parametrize("n2,n3,d", [(1, 1, 1), (1, 1, 2), (2, 1, 2), (1, 2, 2)])
    def test_prop1_feasible_with_exact_objective(self, n2, n3, d):
        spec = ProblemSpec(n2, n3, d)
        table = enumerate_orbits(spec)
        dstar = optimal_code(spec)
        y_by_orbit = code_indicator_assignment(spec, table, dstar)
        p = build_sdp(spec)
        y = np.zeros(p.num_vars)
        for oidx, val in y_by_orbit.items():
            y[p.variables.index(table.orbits[oidx])] = float(val)
        assert eval_blocks(p, y) >= -1e-9
        objective = sum(c * y[i] for i, c in enumerate(p.objective))
        assert abs(objective - len(dstar)) < 1e-9

    def test_values_are_exact_fractions(self):
        spec = ProblemSpec(1, 1, 2)
        table = enumerate_orbits(spec)
        y = code_indicator_assignment(spec, table, optimal_code(spec))
        assert all(isinstance(v, Fraction) for v in y.values())
        sidx = table.index_of(singleton_orbit(spec))
        assert y[sidx] == Fraction(exact_n(spec), spec.num_words)


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
