"""Assembly of the reduced optimization problem: the objective on the orbit
variables and the exact blocks from both stabilizer cases, plus the level-2
linear-programming mode.  The variables are the rows of canonical pattern
counts of ``enumerate_orbits``; a problem keeps only their number.

Every variable satisfies y >= 0; the solver and the SDPA writer add
those constraints themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

from mixedsdp.blocks import Block, build_blocks_d0, build_blocks_empty
from mixedsdp.codes import ProblemSpec, enumerate_orbits
from mixedsdp.tableaux import build_shape_index_d0, build_shape_index_empty


@dataclass(frozen=True)
class SdpProblem:
    """Block-diagonal linear matrix inequality in orbit variables y >= 0.

    The variables are the orbits of ``enumerate_orbits(spec)``, in its
    order: nonempty codes of at most k words at distance >= d, so
    ``num_vars`` is the length of the objective.  The empty code is the
    constant 1 (substituted into the constant parts).  The objective is
    maximization of ``objective . y``.  A block enters a
    problem only whole: a block with an ``entry_fault`` for m = num_vars
    raises that text as a ``ValueError``, since every later reader indexes
    with the entries unchecked.
    """

    spec: ProblemSpec
    objective: tuple[int, ...]
    blocks: tuple[Block, ...]

    def __post_init__(self):
        for block in self.blocks:
            fault = block.entry_fault(self.num_vars)
            if fault:
                raise ValueError(fault)

    @property
    def num_vars(self) -> int:
        return len(self.objective)


def build_problem(spec: ProblemSpec) -> SdpProblem:
    """The problem at the spec's hierarchy level k: the rows of
    ``enumerate_orbits`` are the variables, and level 3 adds the
    all-zero-word blocks to the empty-code ones."""
    variables = enumerate_orbits(spec)
    blocks = []
    if spec.k == 3:
        blocks += build_blocks_d0(spec, build_shape_index_d0(spec), variables)
    blocks += build_blocks_empty(spec, build_shape_index_empty(spec), variables)
    # the singleton is variable 0
    objective = (spec.num_words,) + (0,) * (len(variables) - 1)
    return SdpProblem(spec, objective, tuple(blocks))


def build_sdp(spec: ProblemSpec) -> SdpProblem:
    """The full level-3 problem: blocks from both stabilizer cases, with the
    augmented empty-code block carrying the constant."""
    if spec.k != 3:
        raise ValueError("build_sdp expects hierarchy level 3")
    return build_problem(spec)


def build_lp_k2(spec: ProblemSpec) -> SdpProblem:
    """The level-2 problem: only the empty-code-case blocks (scalars plus
    the augmented 2x2) on singleton and pair variables."""
    if spec.k != 2:
        raise ValueError("build_lp_k2 expects hierarchy level 2")
    return build_problem(spec)
