"""Assembly of the reduced optimization problem: orbit variables, objective
and the exact blocks from both stabilizer cases, plus the level-2
linear-programming mode and the doubling inequality for derived bounds.

Every variable satisfies y >= 0; the solver and the SDPA writer add
those constraints themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

from mixedsdp.blocks import Block, build_blocks_d0, build_blocks_empty
from mixedsdp.codes import OrbitId, ProblemSpec, enumerate_orbits, singleton_orbit
from mixedsdp.tableaux import build_shape_index_d0, build_shape_index_empty


@dataclass(frozen=True)
class SdpProblem:
    """Block-diagonal linear matrix inequality in orbit variables y >= 0.

    The variables are the orbits of ``enumerate_orbits(spec)``, in its
    order: nonempty codes of at most k words at distance >= d.  The empty
    code is the constant 1 (substituted into the constant parts).  The
    objective is maximization of ``objective . y``.
    """

    spec: ProblemSpec
    variables: tuple[OrbitId, ...]
    objective: tuple[int, ...]
    blocks: tuple[Block, ...]

    @property
    def num_vars(self) -> int:
        return len(self.variables)


def build_problem(spec: ProblemSpec) -> SdpProblem:
    """The problem at the spec's hierarchy level k: the orbit map of
    ``enumerate_orbits`` gives the variables, and level 3 adds the
    all-zero-word blocks to the empty-code ones."""
    variables = enumerate_orbits(spec)
    blocks = []
    if spec.k == 3:
        blocks += build_blocks_d0(spec, build_shape_index_d0(spec), variables)
    blocks += build_blocks_empty(spec, build_shape_index_empty(spec), variables)
    objective = [0] * len(variables)
    objective[variables[singleton_orbit(spec)]] = spec.num_words
    return SdpProblem(spec, tuple(variables), tuple(objective), tuple(blocks))


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


def derived_doubling_bound(known_bound: int) -> int:
    """Bound for (n2+1, n3, d) from a valid bound for (n2, n3, d): adding a
    binary coordinate at most doubles the maximum code size."""
    return 2 * known_bound
