"""Assembly of the reduced optimization problem: orbit variables, objective
and the exact blocks from both stabilizer cases, plus the level-2
linear-programming mode and the doubling inequality for derived bounds.

Every variable satisfies y >= 0; the solver and the SDPA writer add
those constraints themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from mixedsdp.blocks import Block, build_blocks_d0, build_blocks_empty
from mixedsdp.codes import (
    Code,
    OrbitId,
    OrbitTable,
    ProblemSpec,
    canonical_orbit,
    enumerate_orbits,
    orbit_size,
    singleton_orbit,
)
from mixedsdp.tableaux import build_shape_index_d0, build_shape_index_empty


@dataclass(frozen=True)
class SdpProblem:
    """Block-diagonal linear matrix inequality in orbit variables y >= 0.

    Variables are the feasible orbits except the empty one, whose value is
    the constant 1 (substituted into the constant parts).  The objective is
    maximization of ``objective . y``.
    """

    spec: ProblemSpec
    k: int
    variables: tuple[OrbitId, ...]
    objective: tuple[int, ...]
    blocks: tuple[Block, ...]
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self._index.update({w: i for i, w in enumerate(self.variables)})

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    def variable_index(self, w: OrbitId) -> int:
        return self._index[w]

    def singleton_index(self) -> int:
        return self.variable_index(singleton_orbit(self.spec))


def _build(spec: ProblemSpec, table: OrbitTable | None) -> SdpProblem:
    """Level k keeps the feasible orbits of size 1..k as variables; level 3
    adds the all-zero-word blocks to the empty-code ones."""
    if table is None:
        table = enumerate_orbits(spec)
    variables = []
    var_of_orbit = {}
    for i, w in enumerate(table.orbits):
        if i and table.feasible[i] and w.size <= spec.k:
            var_of_orbit[i] = len(variables)
            variables.append(w)
    blocks = []
    if spec.k == 3:
        blocks += build_blocks_d0(spec, build_shape_index_d0(spec), table, var_of_orbit)
    blocks += build_blocks_empty(spec, build_shape_index_empty(spec), table, var_of_orbit)
    objective = [0] * len(variables)
    objective[var_of_orbit[table.index_of(singleton_orbit(spec))]] = spec.num_words
    return SdpProblem(spec, spec.k, tuple(variables), tuple(objective), tuple(blocks))


def build_sdp(spec: ProblemSpec, table: OrbitTable | None = None) -> SdpProblem:
    """The full level-3 problem: blocks from both stabilizer cases, with the
    augmented empty-code block carrying the constant."""
    if spec.k != 3:
        raise ValueError("build_sdp expects hierarchy level 3")
    return _build(spec, table)


def build_lp_k2(spec: ProblemSpec, table: OrbitTable | None = None) -> SdpProblem:
    """The level-2 problem: only the empty-code-case blocks (scalars plus
    the augmented 2x2) on singleton and pair variables."""
    if spec.k != 2:
        raise ValueError("build_lp_k2 expects hierarchy level 2")
    return _build(spec, table)


def build_problem(spec: ProblemSpec) -> SdpProblem:
    """The problem at the spec's hierarchy level, as ``build_sdp`` (k=3) or
    ``build_lp_k2`` (k=2) builds it."""
    return _build(spec, None)


def derived_doubling_bound(known_bound: int) -> int:
    """Bound for (n2+1, n3, d) from a valid bound for (n2, n3, d): adding a
    binary coordinate at most doubles the maximum code size."""
    return 2 * known_bound


def code_indicator_assignment(
    spec: ProblemSpec, table: OrbitTable, c: Code
) -> dict[int, Fraction]:
    """Group-averaged indicator of a code: the fraction of each orbit's
    codes that are subcodes of ``c``.  Feasible for the assembled problem
    whenever ``c`` has minimum distance >= d, with objective |c|."""
    counts: dict[int, int] = {}
    for size in (1, 2, 3):
        for sub in combinations(c.words, size):
            w = canonical_orbit(spec, Code(tuple(sub)))
            idx = table.index_of(w)
            counts[idx] = counts.get(idx, 0) + 1
    return {
        idx: Fraction(cnt, orbit_size(spec, table.orbits[idx]))
        for idx, cnt in counts.items()
    }
