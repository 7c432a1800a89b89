"""Embedded primal-dual interior-point solver for block-diagonal linear
matrix inequalities, SDPA sparse-format interchange, and an exact check of
the solver's dual point that turns its output into certified integer bounds.

The solve runs named phases over one iterate (y, S, Z) of the problem with
each block rescaled to unit magnitude, which changes neither the feasible
set nor the dual objective value.  It starts from y = 0 and every slack
and dual matrix at 100 I (infeasible start).  The bound y_i >= 0 on each
variable is one more block, of order 1, whose only coefficient is
F_i = 1, so the problem is one block-diagonal inequality.  Each iteration
runs _residuals, which adds the trace entry, _stop, _scaling,
_newton_system, then _direction and _step_lengths for the affine
predictor, _corrector, the same two again for the corrector, and _update.
_stop ends the solve at the first iterate whose dual point, checked in
exact arithmetic against the exact integer data, proves the integer that
the primal value gives; the tolerance only caps the effort.
_scaling is Nesterov-Todd's, from one Cholesky factor each of S and Z and
one SVD, in which the scaled point is diagonal, so the corrector's
Lyapunov equation is solved elementwise and the step lengths follow from
the same factors; at order 1 the scaling and the step lengths are
elementwise.  _newton_system builds the Schur complement B in Gram form
(see _schur) and inverts its Cholesky factor in place, which serves all
four Newton solves; the last iteration's B and factor go before the next
B is built.  Each step is min(1, gamma * a) of the way to the boundary, a
being the primal or the dual step that reaches it, with SDPT3's adaptive
fraction gamma = 0.9 + 0.09 min(1, a_p, a_d) (Toh, Todd and Tutuncu,
Optim. Methods Softw. 11, 1999).
The blocks run in stacks, each of the blocks whose order pads to the same
order (_stack_order): 1 for the 1x1 blocks and the rows y >= 0, which take
no padding, else a power of two, at least 4.  So every phase but the Schur
build makes one numpy or LAPACK call per stack, not per block.  A block
fills the leading rows and columns of its member of the stack; its padded
ones are I in S and Z and zero in every other matrix, and stay so.  The
padding is inert: it is taken out of the primal residual, mu and mu_aff,
dS has none, _direction masks it out of dZ, and _nt_scaling makes it I in
G and G^-1 and one in d, so a step length sees the eigenvalue zero there,
which never decides.  So nu, mu, the objectives and the step lengths are
those of the blocks alone.  The Schur build reads each block's G^-1 from
its member's leading rows and columns.
A slack or dual matrix that loses positive definiteness raises
ConditioningError naming the block, or the row y_i >= 0, and the
iteration, found once a stack's factorization has failed; nothing is
clamped.
A phase's error carries no iterate: the loop's one handler gives every
SolverError of a solve the last iterate.
The solver and the exact check read the problem's blocks, with F0 and the
objective in their own signs.  Only the SDPA writer and reader know that
format's conventions.  The solver, as the writer, takes each exact value's
nearest double, so an emitted file holds the doubles the solver solves.
Nonzeros that do not round-trip through a double are counted and
reported, each upper-triangle entry, constant and objective entry once.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import re
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from mixedsdp.model import SdpProblem


class SolverError(RuntimeError):
    """Base class for solver failures.  A failure inside a solve carries
    the last iterate, with its trace, as ``solution``."""

    def __init__(self, message: str, solution: "Solution | None" = None):
        super().__init__(message)
        self.solution = solution


class NonConvergenceError(SolverError):
    """Iteration limit reached."""


class ConditioningError(SolverError):
    """An iterate or the Newton system lost positive definiteness or
    finiteness."""


class CertificationError(SolverError):
    """The dual point does not prove the integer bound."""


class SdpaParseError(ValueError):
    """Malformed SDPA file."""


@dataclass(frozen=True)
class CertifiedBound:
    """An integer upper bound and its proof: ``exact_bound`` is the exact
    bound the rounded dual point gives, ``penalty`` the part of it paid for
    that point's dual infeasibility, and ``value`` its floor."""

    value: int
    exact_bound: Fraction
    penalty: Fraction


@dataclass
class Solution:
    """Solver output: the primal value of the maximization at ``y``, the
    dual value that upper-bounds it, the unscaled dual point (``z``, the
    dual matrix of each block in block order, a 1x1 block's as a (1, 1)
    array, then ``u``, the multiplier of each bound y_i >= 0), the
    certificate of the exact check at this iterate when the solve ran one
    that succeeded, the trace of every iterate, whose ``pinf`` and ``dinf``
    are its primal and dual residuals, and the problem the solve ran on."""

    objective: float
    dual_objective: float
    y: np.ndarray
    z: list[np.ndarray]
    u: np.ndarray
    iterations: int
    converged: bool
    inexact_coefficients: int
    certificate: CertifiedBound | None = None
    trace: list[dict] = field(default_factory=list)
    problem: SdpProblem | None = field(default=None, repr=False, compare=False)

    @property
    def gap(self) -> float:
        return abs(self.objective - self.dual_objective)


@dataclass
class _PsdBlock:
    label: str
    dim: int
    gamma: float
    stack: int              # the index of its stack, and its member there
    member: int


@dataclass
class _Gram:
    """The Schur build's gather of a block of order 2 or more (_gram_rows);
    the blocks of order 1 are read from their stack."""

    block: _PsdBlock
    var_ids: np.ndarray     # (mk,)
    upper: tuple            # np.triu_indices(s): the svec order of the block
    tri: np.ndarray         # (mk, p) svec positions of each F_i's upper entries
    val: np.ndarray         # (mk, p) their values, off-diagonal ones doubled


@dataclass
class _Stack:
    """Blocks padded to one order n: member q's block fills the leading rows
    and columns of slice q of each (k, n, n) array.  The padded ones are
    those of I in S and Z and zero in every other matrix."""

    f0: np.ndarray          # (k, n, n)
    pad: np.ndarray         # (k, n, n) one on the padded diagonal, else zero
    mask: np.ndarray        # (k, n, n) one where row and column are the block's
    var: np.ndarray         # (e,) the variable of each upper entry of an F_i
    pos: np.ndarray         # (e,) its flat position in (k, n, n)
    val: np.ndarray         # (e,) its value, doubled off the diagonal
    pair: np.ndarray        # (e,) the index of its pair of member and variable
    pair_var: np.ndarray    # (p,) the variable of each such pair


# A problem as the solve reads it: the exact problem, its data from _prepare
# with b divided by bscale, and nu, the order of all blocks and rows y >= 0
# together.
_Scaled = namedtuple("_Scaled", "problem b bscale blocks grams stacks inexact nu")

# A point of the rescaled problem: y, and the slack S and the dual matrix Z
# of each stack.
_Iterate = namedtuple("_Iterate", "y S Z")


def _inexact(values: np.ndarray) -> int:
    """The number of exact values that a double does not hold.  An int64
    value is held exactly when its odd part is below 2**53; the test runs in
    integers, since numpy compares int64 with float64 by rounding."""
    if values.dtype == object:
        return sum(float(v) != v for v in values.tolist())
    mag = np.abs(values)
    return int(np.count_nonzero(mag // np.maximum(mag & -mag, 1) >= 2 ** 53))


def _stack_order(dim: int) -> int:
    """The order of the stack of a block: 1 for a block of order 1, which
    takes no padding, else the next power of two, at least 4."""
    return 1 if dim == 1 else max(4, 1 << (dim - 1).bit_length())


def _stack(order: int, members: list, m: int, rows: int) -> _Stack:
    """The stack of order ``order`` of the members (dim, matrix, i, j,
    value), each block given by its upper entries, F0's as matrix 0, with
    the values doubled off the diagonal, and then of the ``rows`` rows
    y_i >= 0, i < rows, each a member of order 1 whose only entry is
    F_i = 1."""
    dims = np.array([e[0] for e in members] + [1] * rows)
    k = len(dims)
    member = np.repeat(np.arange(k), [len(e[1]) for e in members] + [1] * rows)
    zeros = np.zeros(rows, dtype=np.int64)
    row_entries = (np.arange(1, rows + 1), zeros, zeros, np.ones(rows))
    mat, i, j, val = (
        np.concatenate(column) for column in zip(*(e[1:] for e in members), row_entries)
    )
    pos = (member * order + i) * order + j
    const = mat == 0
    f0 = np.bincount(pos[const], val[const], minlength=k * order * order)
    f0 = f0.reshape(k, order, order)
    inside = (np.arange(order) < dims[:, None]).astype(float)
    mask = inside[:, :, None] * inside[:, None, :]
    var, pos, val, member = mat[~const] - 1, pos[~const], val[~const], member[~const]
    # a member's entries are sorted by variable, as a block's are, so the
    # entries of each pair of member and variable are a run
    key = member * m + var
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    return _Stack(
        0.5 * (f0 + f0.swapaxes(1, 2)), np.eye(order) * (1.0 - mask), mask,
        var, pos, val, np.cumsum(first) - 1, var[first],
    )


def _gram(bl: _PsdBlock, mat, i, j, val) -> _Gram:
    """The gather of a block from its entries (matrix, i, j, value), with
    the values doubled off the diagonal and scaled; F0's are left out."""
    s = bl.dim
    keep = mat > 0
    mat, i, j = mat[keep], i[keep], j[keep]
    # the entries are sorted, so each matrix's entries are contiguous
    ids, slot, counts = np.unique(mat, return_inverse=True, return_counts=True)
    rank = np.arange(len(mat)) - (np.cumsum(counts) - counts)[slot]
    tri = np.zeros((len(ids), counts.max(initial=1)), dtype=np.int64)
    coef = np.zeros(tri.shape)
    tri[slot, rank] = i * s - i * (i - 1) // 2 + j - i  # row-major upper order
    coef[slot, rank] = val[keep]
    return _Gram(bl, ids - 1, np.triu_indices(s), tri, coef)


def _prepare(problem: SdpProblem) -> _Scaled:
    """The problem as the solve reads it: its rescaled float data, each
    exact value taken as its nearest double, and the number of its
    nonzeros, objective values included, that do not round-trip through a
    double.  The blocks go into stacks by _stack_order, each in block
    order, and a block of order 2 or more keeps each F_i sparse for the
    Schur build (_gram).  The stacks come in the order of their first
    blocks, but the stack of order 1 comes last, and the rows y_i >= 0 are
    its last members, so a problem with variables has it last."""
    m = problem.num_vars
    inexact = sum(_inexact(b.value) for b in problem.blocks)
    inexact += sum(float(c) != c for c in problem.objective)

    orders = sorted(
        dict.fromkeys([_stack_order(bl.dim) for bl in problem.blocks] + ([1] if m else [])),
        key=lambda order: order == 1,
    )
    groups: dict[int, list] = {order: [] for order in orders}  # each stack's members
    blocks: list[_PsdBlock] = []
    grams: list[_Gram] = []
    for bl in problem.blocks:
        s = bl.dim
        v = bl.value.astype(np.float64)
        gamma = max(1.0, float(np.abs(v).max(initial=0.0)))
        doubled = np.where(bl.i == bl.j, v, 2.0 * v) / gamma
        members = groups[_stack_order(s)]
        blocks.append(_PsdBlock(bl.label, s, gamma, orders.index(_stack_order(s)), len(members)))
        members.append((s, bl.matno, bl.i, bl.j, doubled))
        if s > 1:
            grams.append(_gram(blocks[-1], bl.matno, bl.i, bl.j, doubled))

    b = np.array(problem.objective, dtype=float)
    # objective normalized to unit magnitude; reported values are unscaled
    bscale = max(1.0, float(np.abs(b).max(initial=0.0)))
    nu = sum(bl.dim for bl in blocks) + m
    stacks = [
        _stack(order, members, m, m if order == 1 else 0) for order, members in groups.items()
    ]
    return _Scaled(problem, b / bscale, bscale, blocks, grams, stacks, inexact, nu)


def _apply(st: _Stack, y: np.ndarray) -> np.ndarray:
    """sum_i y_i F_i of each member of a stack."""
    out = np.bincount(st.pos, y[st.var] * st.val, minlength=st.f0.size).reshape(st.f0.shape)
    return 0.5 * (out + out.swapaxes(1, 2))


def _adjoint(st: _Stack, mats: np.ndarray) -> np.ndarray:
    """<F_i, M_q> of each pair of a member q of a stack and a variable i of
    that member, for symmetric M_q.  ``np.bincount(st.pair_var, ...)``
    sums them per variable: no (k, m) array is formed, which at order 1
    would be about as large as the Schur complement."""
    return np.bincount(st.pair, mats.ravel()[st.pos] * st.val, minlength=len(st.pair_var))


def _gram_rows(g: _Gram, h: np.ndarray, out: np.ndarray) -> None:
    """Write svec(H F_i H^T) of each variable i of one block into row i of
    ``out``, whose other rows are left as they are."""
    # symmetric Kronecker table: row (a, b) holds svec of the symmetric part
    # of h[:, a] h[:, b]^T, so H F_i H^T sums the rows of F_i's upper entries
    a, b = g.upper
    ha, hb = h.T[a], h.T[b]
    kron = ha[:, a] * hb[:, b] + ha[:, b] * hb[:, a]
    kron *= np.where(a == b, 0.5, np.sqrt(0.5))
    # variables per gather, so that its temporary is at most half as large
    # as B, and so at most half a slab
    step = max(1, len(out) ** 2 // (2 * kron.shape[1] * g.tri.shape[1]))
    for lo in range(0, len(g.tri), step):
        rows = slice(lo, lo + step)
        out[g.var_ids[rows]] = np.einsum("ip,ipc->ic", g.val[rows], kron[g.tri[rows]])


def _schur(data: _Scaled, inverses: list[np.ndarray]) -> np.ndarray:
    """Schur complement B_ij = sum_k tr(F_i W_k^-1 F_j W_k^-1) over the
    blocks and rows y >= 0, in Gram form B = C C^T + a diagonal.  With
    W_k^-1 = H^T H, H a member's G^-1 in ``inverses`` (one array per
    stack), tr(F_i W^-1 F_j W^-1) = <H F_i H^T, H F_j H^T>, so row i of C
    holds svec(H F_i H^T) of each block of order 2 or more, with
    off-diagonal weight sqrt 2 (Fujisawa, Kojima and Nakata, Math. Prog.
    79, 1997).  At order 1 that svec is val h^2: a member with several
    entries is one column of C, and one with a single entry, as each row
    y_i >= 0, adds val^2 h^4 to B's diagonal, which spares C a column
    that holds one nonzero.

    C is never held whole: B = sum_s C_s C_s^T over column slabs of C, each
    as wide as B is tall and at least a block's or the order-1 columns'
    width, so each product stays one syrk of a wide matrix."""
    m = len(data.b)
    # the stack of order 1 is the last, and a problem without variables,
    # which may lack it, has no entries in any stack
    ones, h = data.stacks[-1], inverses[-1]
    value = ones.val * h.ravel()[ones.pos] ** 2  # pos is the member at order 1
    count = np.bincount(ones.pos, minlength=len(h))
    several = count[ones.pos] > 1
    column = np.cumsum(count > 1) - 1  # of each member with several entries
    width = int(column[-1]) + 1
    slab = np.zeros((m, max([m, width] + [len(g.upper[0]) for g in data.grams])))
    B = None
    used = 0

    def flush():
        nonlocal B, used
        part = slab[:, :used]
        if B is None:
            B = part @ part.T
        else:
            B += part @ part.T
        part.fill(0.0)  # zero only the columns written
        used = 0

    def claim(w: int) -> np.ndarray:
        """The next w columns of the slab, flushed first if they do not fit."""
        nonlocal used
        if used + w > slab.shape[1]:
            flush()
        used += w
        return slab[:, used - w:used]

    for g in data.grams:
        bl = g.block
        _gram_rows(g, inverses[bl.stack][bl.member, :bl.dim, :bl.dim], claim(len(g.upper[0])))
    claim(width)[ones.var[several], column[ones.pos[several]]] = value[several]
    flush()
    B.flat[::m + 1] += np.bincount(ones.var[~several], value[~several] ** 2, minlength=m)
    return B


# Order at or below which _tril_inverse stops recursing.
_TRIL_BLOCK = 64


def _tril_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix, computed in place and returned,
    by blocked recursion, [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1,
    D^-1]], so the work is in matrix products, about n^3/3 multiply-adds
    against the LU of a general inverse.  The only temporary is the product
    D^-1 C.  The strict upper triangle is left as it is."""
    n = len(L)
    if n <= _TRIL_BLOCK:
        # the LU of an upper-triangular matrix makes no row exchange, so
        # this is LAPACK's triangular inverse; the LU of L itself would
        # pivot, and loses accuracy on a nearly singular factor
        L[:] = np.linalg.inv(L.T).T
        return L
    h = n // 2
    a_inv = _tril_inverse(L[:h, :h])
    d_inv = _tril_inverse(L[h:, h:])
    product = d_inv @ L[h:, :h]
    product *= -1.0
    np.matmul(product, a_inv, out=L[h:, :h])
    return L


def _cholesky(mat: np.ndarray, name: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise ConditioningError(f"{name} is not positive definite") from None


def _nt_scaling(S: np.ndarray, Z: np.ndarray, pad: np.ndarray, mask: np.ndarray):
    """Nesterov-Todd scaling of each member of a stack, in the factored
    form of Todd, Toh and Tutuncu (SIAM J. Optim. 8, 1998).  With S = L L^T,
    Z = R R^T and R^T L = U diag(d) V^T, G = L V diag(d)^-1/2 gives
    W = G G^T with W Z W = S, and the scaled point G^-1 S G^-T = G^T Z G =
    diag(d).  Returns (G, G^-1, d); G^-1 = diag(d)^-1/2 U^T R^T needs no
    inverse.

    The padding of R^T L, I like that of S and Z, is taken out before the
    SVD: its singular values are then zero, so they sort last and leave the
    padded coordinates of the scaled space where they are.  They go back
    as one, with I for their singular vectors, so the padding of G and G^-1
    is I as well.

    At order 1, where L = s^1/2 and R = z^1/2, the SVD is the number R L
    itself, so G = (L/R)^1/2 = (s/z)^1/4, G^-1 = (R/L)^1/2 and d = R L,
    taken elementwise: for 700 members a stacked SVD took 0.8 ms."""
    L = _cholesky(S, "S")
    R = _cholesky(Z, "Z")
    if len(L[0]) == 1:
        return np.sqrt(L / R), np.sqrt(R / L), (L * R)[:, 0]
    U, d, Vt = np.linalg.svd(R.swapaxes(1, 2) @ L - pad)
    d += np.einsum("kii->ki", pad)
    U, Vt = U * mask + pad, Vt * mask + pad
    root = np.sqrt(d)
    G = (L @ Vt.swapaxes(1, 2)) / root[:, None, :]
    return G, (U.swapaxes(1, 2) @ R.swapaxes(1, 2)) / root[:, :, None], d


def _max_step(d: np.ndarray, direction: np.ndarray) -> float:
    """Largest alpha with diag(d_q) + alpha*direction_q still positive
    definite for every member q of a stack.  A padded coordinate, where the
    direction is zero, adds the eigenvalue zero, which never decides.  At
    order 1 the eigenvalue is the entry, which a stacked eigvalsh takes 4
    to 10 times as long to return."""
    root = np.sqrt(d)
    w = direction / (root[:, :, None] * root[:, None, :])
    sym = 0.5 * (w + w.swapaxes(1, 2))
    lam = float((sym[:, 0, 0] if len(d[0]) == 1 else np.linalg.eigvalsh(sym)[:, 0]).min())
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


# The exact dual point lies on the grid of multiples of 1 / _GRID.
_GRID = 2 ** 60


def _shift(z: np.ndarray) -> np.ndarray:
    """The diagonal added to a dual block before it is rounded to the grid.
    It is relative to the block's own diagonal, since the coefficients of
    a variable can differ by many orders of magnitude across a block, and
    a shift costs the bound its inner product with them: delta * diag(Z),
    with delta four times any negative part of the spectrum of the
    unit-diagonal D^-1/2 Z D^-1/2 plus n eps for that eigenvalue's error.
    Another n / _GRID covers the rounding, by Gershgorin."""
    diag = np.diag(z)
    n = len(z)
    if diag.min() <= 0.0:
        return np.zeros(n)  # not positive definite, whatever the shift
    root = np.sqrt(diag)
    # at order 1 the unit-diagonal matrix is [1]
    lam = float(np.linalg.eigvalsh(z / np.outer(root, root))[0]) if n > 1 else 1.0
    delta = 4.0 * max(0.0, -lam) + n * np.finfo(float).eps
    return delta * diag + n / _GRID


def _positive_definite(a: np.ndarray) -> bool:
    """Whether a symmetric matrix of Python integers is positive definite:
    whether every leading principal minor is positive (Sylvester).  In
    Bareiss's fraction-free elimination the k-th pivot is the k-th leading
    minor, and every division is exact."""
    a = a.copy()
    prev = 1
    for k in range(len(a)):
        pivot = a[k, k]
        if pivot <= 0:
            return False
        rest = slice(k + 1, None)
        a[rest, rest] = (a[rest, rest] * pivot - np.multiply.outer(a[rest, k], a[k, rest])) // prev
        prev = pivot
    return True


def _on_grid(values: np.ndarray) -> list[int]:
    """The values times _GRID, rounded to integers."""
    return [int(v) for v in np.rint(values * _GRID).ravel().tolist()]


def _certificate(problem: SdpProblem, z: list[np.ndarray]) -> CertifiedBound:
    """The exact check of a dual point (see ``certify``), one dual matrix
    per block in block order, against the exact blocks of a problem.
    Raises CertificationError, naming the block, when a shifted dual block
    is neither positive definite nor zero."""
    # in units of 1 / _GRID, sums[0] is sum <F0_k, Z_k> and sums[i + 1] is
    # sum <F_ik, Z_k>
    sums = [0] * (problem.num_vars + 1)
    for bl, zk in zip(problem.blocks, z):
        # the upper triangle, which the data reads, mirrored
        shifted = np.triu(zk + np.diag(_shift(zk)))
        grid = _on_grid(shifted + np.triu(shifted, 1).T)
        # a block that rounds to zero is semidefinite and adds to no sum
        if any(grid) and not _positive_definite(np.array(grid, dtype=object).reshape(zk.shape)):
            raise CertificationError(f"shifted dual block {bl.label} is not positive definite")
        for matno, i, j, v in bl.entries():
            sums[matno] += (v if i == j else 2 * v) * grid[i * bl.dim + j]
    # the slack v_i = -c_i - sums[i + 1] of each variable; y_i <= 1 bounds
    # what a negative one can add
    penalty = sum(max(0, c * _GRID + t) for c, t in zip(problem.objective, sums[1:]))
    bound = Fraction(sums[0] + penalty, _GRID)
    return CertifiedBound(math.floor(bound), bound, Fraction(penalty, _GRID))


def _objectives(data: _Scaled, x: _Iterate) -> tuple[float, float]:
    """The unscaled primal and dual objective values at x."""
    dobj = sum(float(np.vdot(st.f0, zk)) for st, zk in zip(data.stacks, x.Z))
    return data.bscale * float(data.b @ x.y), data.bscale * dobj


def _solution(data: _Scaled, x: _Iterate, trace: list[dict]) -> Solution:
    """The unconverged solution at x, with the trace so far."""
    pobj, dobj = _objectives(data, x)
    z = [
        x.Z[bl.stack][bl.member, :bl.dim, :bl.dim] * (data.bscale / bl.gamma)
        for bl in data.blocks
    ]
    # the rows y >= 0 are the last members of the last stack (see _prepare)
    u = x.Z[-1][len(x.Z[-1]) - len(x.y):, 0, 0] * data.bscale
    return Solution(
        pobj, dobj, x.y.copy(), z, u, len(trace), False, data.inexact,
        trace=trace, problem=data.problem,
    )


def _residuals(data: _Scaled, x: _Iterate, trace: list[dict]):
    """The primal residual of each stack and the dual residual at x; x's
    entry goes on the trace.  The padding of S and Z, I, is taken out of
    the residuals and of mu."""
    stacks = data.stacks
    rp = [st.f0 + _apply(st, x.y) - sk + st.pad for st, sk in zip(stacks, x.S)]
    # dual residual, with the magnitude of each member's terms tracked so
    # infeasibility is measured backward-error style
    m = len(x.y)
    rd = -data.b.copy()
    rd_mag = np.abs(data.b).copy()
    for st, zk in zip(stacks, x.Z):
        terms = _adjoint(st, zk)
        rd -= np.bincount(st.pair_var, terms, minlength=m)
        rd_mag += np.bincount(st.pair_var, np.abs(terms), minlength=m)
    pobj, dobj = _objectives(data, x)
    mu = sum(float(np.vdot(sk - st.pad, zk)) for st, sk, zk in zip(stacks, x.S, x.Z))
    mu /= data.nu
    relgap = abs(pobj - dobj) / max(1.0, 0.5 * (abs(pobj) + abs(dobj)))
    pinf = max(float(np.abs(r).max(initial=0.0)) for r in rp)
    pinf /= 1.0 + float(np.abs(x.y).max(initial=0.0))
    dinf = float((np.abs(rd) / (1.0 + rd_mag)).max(initial=0.0))
    trace.append({
        "iter": len(trace), "pobj": pobj, "dobj": dobj, "mu": mu, "relgap": relgap,
        "pinf": pinf, "dinf": dinf, "alpha_p": 0.0, "alpha_d": 0.0, "sigma": 0.0,
    })
    return rp, rd


def _primal_holds(data: _Scaled, y: np.ndarray) -> bool:
    """Whether every block and every row y_i >= 0 holds at y to within 1e-6
    of its own magnitude |F0| + sum |y_i F_i|.  The residuals are measured
    against the largest coefficients, so a block whose entries at y are
    orders of magnitude smaller can be violated, and then the primal value
    overstates the optimum ((1,13,9) at level 3: 53.9 against 50.6).  A
    padded coordinate adds the eigenvalue zero, which never fails the
    test."""
    for st in data.stacks:
        k = len(st.f0)
        terms = np.bincount(st.pos, np.abs(y[st.var] * st.val), minlength=st.f0.size)
        mag = np.abs(st.f0).max(axis=(1, 2)) + terms.reshape(k, -1).max(axis=1)
        if (np.linalg.eigvalsh(st.f0 + _apply(st, y))[:, 0] < -1e-6 * mag).any():
            return False
    return True


def _stop(data: _Scaled, x: _Iterate, trace: list[dict], tol: float) -> Solution | None:
    """The converged solution at x, the trace's last iterate, if the solve
    stops there (see ``solve``), else None.  The cheap float test runs
    first, the exact check only when it or the tolerance test passes."""
    entry = trace[-1]
    pobj, dobj, pinf = entry["pobj"], entry["dobj"], entry["pinf"]
    if not (math.isfinite(pobj) and math.isfinite(dobj)):
        raise ConditioningError(f"objective lost finiteness at iteration {len(trace)}")
    float_test = (
        pinf <= 1e-6 and math.floor(dobj) == math.floor(pobj) and _primal_holds(data, x.y)
    )
    converged = entry["relgap"] <= tol and pinf <= tol and entry["dinf"] <= tol
    if not (float_test or converged):
        return None
    solution = _solution(data, x, trace)
    with contextlib.suppress(CertificationError):
        solution.certificate = _certificate(data.problem, solution.z)
    proof = solution.certificate
    if float_test:
        entry["exact"] = None if proof is None else float(proof.exact_bound)
    solution.converged = converged or (proof is not None and proof.value == math.floor(pobj))
    return solution if solution.converged else None


def _scaling(data: _Scaled, x: _Iterate, it: int):
    """The NT scaling (G, G^-1, d) of each stack and W^-1 = G^-T G^-1 of
    each."""
    try:
        scalings = [
            _nt_scaling(sk, zk, st.pad, st.mask) for st, sk, zk in zip(data.stacks, x.S, x.Z)
        ]
    except ConditioningError:
        # a failed stack names no member: the failure is that of the first
        # block, in block order, or else row y_i >= 0, the last members of
        # the last stack, whose S, or else Z, has no factor
        m = len(x.y)
        members = [(f"block {bl.label}", bl.stack, bl.member) for bl in data.blocks]
        members += [(f"row y[{i}] >= 0", -1, len(x.S[-1]) - m + i) for i in range(m)]
        for where, stack, member in members:
            for name, mats in (("S", x.S), ("Z", x.Z)):
                try:
                    _cholesky(mats[stack][member], name)
                except ConditioningError as exc:
                    raise ConditioningError(f"{exc} in {where} at iteration {it}") from None
        raise
    return scalings, [gi.swapaxes(1, 2) @ gi for _, gi, _ in scalings]


def _newton_system(data: _Scaled, nt, it: int):
    """The Schur complement B and its Cholesky factor inverted in place,
    which makes each Newton solve four matrix-vector products."""
    B = _schur(data, [gi for _, gi, _ in nt[0]])
    if not np.isfinite(B).all():
        raise ConditioningError(f"Newton system lost finiteness at iteration {it}")
    ridged = B
    for attempt in range(6):
        try:
            return B, _tril_inverse(np.linalg.cholesky(ridged))
        except np.linalg.LinAlgError:
            del ridged  # at most one copy of B
            # a ridge relative to B's largest entry, built only on failure
            ridge = float(np.abs(B).max(initial=1.0)) * 10.0 ** (-14 + 2 * attempt)
            ridged = B.copy()
            ridged.flat[::len(B) + 1] += ridge
    raise ConditioningError(f"Schur complement not positive definite at iteration {it}")


def _direction(data: _Scaled, residuals, nt, system, rc, it: int):
    """The Newton direction (dy, dS, dZ) for the right-hand sides rc, one
    rc_k for each stack, dy refined once.  The padding of rc_k need not be
    zero; that of dZ is."""
    rp, rd = residuals
    _, winv = nt
    B, chol_inv = system
    g = -rd.copy()
    for st, w, r, rck in zip(data.stacks, winv, rp, rc):
        g += np.bincount(st.pair_var, _adjoint(st, rck - w @ r @ w), minlength=len(g))
    dy = chol_inv.T @ (chol_inv @ g)
    dy += chol_inv.T @ (chol_inv @ (g - B @ dy))
    d_s = [r + _apply(st, dy) for st, r in zip(data.stacks, rp)]
    d_z = [rck - w @ ds @ w for w, ds, rck in zip(winv, d_s, rc)]
    d_z = [0.5 * (dz + dz.swapaxes(1, 2)) * st.mask for st, dz in zip(data.stacks, d_z)]
    # LAPACK's Cholesky passes NaN through, and the eigvalsh of a step
    # length fails on it, so no step is sized from such a direction
    if not all(np.isfinite(a).all() for a in (dy, *d_s, *d_z)):
        raise ConditioningError(f"Newton direction lost finiteness at iteration {it}")
    return dy, d_s, d_z


def _step_lengths(nt, direction) -> tuple[float, float]:
    """The primal and the dual step along a direction, each min(1, gamma a)
    for the step a that reaches the boundary."""
    _, d_s, d_z = direction
    # S and Z both scale to diag(d): S = G diag(d) G^T and
    # Z = G^-T diag(d) G^-1
    ap = min(_max_step(d, gi @ ds @ gi.swapaxes(1, 2)) for (_, gi, d), ds in zip(nt[0], d_s))
    ad = min(_max_step(d, g.swapaxes(1, 2) @ dz @ g) for (g, _, d), dz in zip(nt[0], d_z))
    # SDPT3's fraction to the boundary: closer as the steps lengthen
    gamma = 0.9 + 0.09 * min(1.0, ap, ad)
    return min(1.0, gamma * ap), min(1.0, gamma * ad)


def _corrector(data: _Scaled, x: _Iterate, nt, affine, steps, entry: dict, tol: float):
    """The centering parameter sigma, from the duality measure that the
    affine predictor's steps reach, and the corrector's right-hand sides."""
    _, ds_a, dz_a = affine
    ap_a, ad_a = steps
    mu = entry["mu"]
    mu_aff = sum(
        float(np.vdot(sk - st.pad + ap_a * ds, zk + ad_a * dz))
        for st, sk, ds, zk, dz in zip(data.stacks, x.S, ds_a, x.Z, dz_a)
    )
    mu_aff /= data.nu
    sigma = min(0.99, max(1e-8, (max(mu_aff, 0.0) / mu) ** 3))
    # centering floor: driving mu far below what the tolerance needs
    # destroys the Newton system's conditioning before the dual residual
    # has finished converging
    gap_scale = max(1.0, 0.5 * (abs(entry["pobj"]) + abs(entry["dobj"]))) / data.bscale
    sigma_mu = max(sigma * mu, min(0.5 * mu, 0.02 * tol * gap_scale / data.nu))
    # second-order term in the scaled space, where the point is diag(d)
    # and the Lyapunov equation D U + U D = 2 rhs with
    # rhs = sigma*mu*I - D^2 - H(G^-1 dS dZ G) is solved elementwise
    rc = []
    for (g, gi, d), ds, dz in zip(nt[0], ds_a, dz_a):
        cross = gi @ (ds @ dz) @ g
        rhs = -0.5 * (cross + cross.swapaxes(1, 2))
        diagonal = np.einsum("kii->ki", rhs)  # a view, added to in place
        diagonal += sigma_mu - d * d
        rc.append(gi.swapaxes(1, 2) @ (2.0 * rhs / (d[:, :, None] + d[:, None, :])) @ gi)
    return sigma, rc


def _update(x: _Iterate, direction, alpha_p: float, alpha_d: float) -> _Iterate:
    """The primal step along y and S, the dual one along Z."""
    dy, d_s, d_z = direction
    return _Iterate(
        x.y + alpha_p * dy,
        [0.5 * (sk + sk.swapaxes(1, 2)) + alpha_p * ds for sk, ds in zip(x.S, d_s)],
        [0.5 * (zk + zk.swapaxes(1, 2)) + alpha_d * dz for zk, dz in zip(x.Z, d_z)],
    )


MAX_ITER = 500  # iterations before NonConvergenceError


def solve(problem: SdpProblem, tol: float = 1e-8) -> Solution:
    """Maximize the problem objective subject to its matrix inequalities.

    Stops at the first iterate that proves its integer: the primal
    residual is at most 1e-6, the floors of the primal and the dual
    objective agree, every block and every row y_i >= 0 holds at y to 1e-6
    of its own magnitude, and the exact check of the dual point (see
    ``certify``) gives that same floor.  Otherwise it stops, as converged,
    when the relative duality gap and the scaled feasibility residuals all
    fall below ``tol``.  Deterministic for identical inputs.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got tol={tol}")
    data = _prepare(problem)
    # every slack and dual matrix starts at 100 I, and its padding at I; no
    # phase writes into an iterate, so they share
    eye = [100.0 * np.eye(st.pad.shape[-1]) - 99.0 * st.pad for st in data.stacks]
    x = _Iterate(np.zeros(problem.num_vars), eye, eye)
    trace: list[dict] = []
    tiny_steps = 0
    try:
        for it in range(1, MAX_ITER + 1):
            residuals = _residuals(data, x, trace)
            solution = _stop(data, x, trace, tol)
            if solution is not None:
                return solution
            nt = _scaling(data, x, it)
            system = None  # the last iteration's B and factor go before the next
            system = _newton_system(data, nt, it)
            rc = [-zk for zk in x.Z]  # the affine predictor's
            for corrector in (False, True):
                direction = _direction(data, residuals, nt, system, rc, it)
                steps = _step_lengths(nt, direction)
                if not corrector:
                    sigma, rc = _corrector(data, x, nt, direction, steps, trace[-1], tol)
            x = _update(x, direction, *steps)
            trace[-1].update(alpha_p=steps[0], alpha_d=steps[1], sigma=sigma)
            tiny_steps = tiny_steps + 1 if max(steps) < 1e-7 else 0
            if tiny_steps >= 5:
                achieved = max(min(t[key] for t in trace) for key in ("relgap", "pinf", "dinf"))
                raise ConditioningError(
                    f"no progress for {tiny_steps} iterations (iteration {it}); "
                    f"precision floor near {achieved:.1e}, consider a larger tol"
                )
        last = trace[-1]
        raise NonConvergenceError(
            f"no convergence within {MAX_ITER} iterations (relgap {last['relgap']:.2e}, "
            f"pinf {last['pinf']:.2e}, dinf {last['dinf']:.2e})"
        )
    except SolverError as err:
        err.solution = _solution(data, x, trace)  # the one place an error gets its iterate
        raise


def certify(problem: SdpProblem, solution: Solution) -> CertifiedBound:
    """Integer upper bound on the problem's optimum, proved by the dual
    point of a converged solve.

    For Z_k >= 0, every feasible y satisfies c.y <= D + sum_i y_i (-v_i),
    with D = sum <F0_k, Z_k> and the slack v_i = -c_i - sum <F_ik, Z_k> of
    each variable, the sums over the problem's blocks, 1x1 blocks
    included; the multipliers of y >= 0 do not enter.  Every variable of a
    problem that ``model`` builds lies in [0, 1]: a feasible
    reduced point lifts to a symmetric feasible point x of the unreduced
    problem, whose moment matrices have the 2x2 principal minors
    [[1, x_u], [x_u, x_u]] (rows: the empty code and {u}),
    [[x_u, x_uv], [x_uv, x_v]] (rows {u}, {v}) and, in the matrix of the
    codes that hold the zero word 0, [[x_0u, x_0uv], [x_0uv, x_0v]].  They
    give x_u <= 1, then x_uv <= 1 and x_0uv <= 1, and translation takes
    every code of three words to one that holds 0.  So c.y <= D +
    sum_i max(0, -v_i); the sum is the ``penalty``.

    The check is exact, with one rule for every block: each Z_k is shifted
    by a small multiple of its own diagonal (``_shift``), rounded to the
    grid 2^-60 and proved positive definite by its leading minors, unless
    it rounds to zero; and D and every v_i are computed from the exact
    integer data.  The bound's floor is the value.

    A certificate that the solve recorded for this iterate is returned as
    is when ``problem`` is the problem the solve ran on.  Otherwise the
    check runs against ``problem``, which proves a bound for ``problem``
    from any dual point of its shape.  Refused: an unconverged solution, a
    dual point whose variable count, block orders or count of multipliers
    of y >= 0 differ from the problem's, a shifted block that is neither
    positive definite nor zero, a 1x1 block's negative dual included, and
    an integer above the solution's dual objective by more than its float
    accuracy, 1e-6 relative, which the exact bound reaches only when the
    dual point is too infeasible to prove that objective's integer.  Each
    refusal carries ``solution``.
    """
    if not solution.converged:
        raise CertificationError("cannot certify an unconverged solution", solution)
    bound = solution.certificate
    if bound is None or solution.problem is not problem:
        got = (len(solution.y), [len(zk) for zk in solution.z], len(solution.u))
        want = (problem.num_vars, [bl.dim for bl in problem.blocks], problem.num_vars)
        if got != want:
            raise CertificationError(
                f"a solution with (variables, block orders, rows y >= 0) {got} "
                f"cannot prove a bound for a problem with {want}",
                solution,
            )
        try:
            bound = _certificate(problem, solution.z)
        except CertificationError as err:
            raise CertificationError(str(err), solution) from None
    dobj = solution.dual_objective
    if bound.value > dobj + 1e-6 * max(1.0, abs(dobj)):
        raise CertificationError(
            f"exact bound {float(bound.exact_bound):.9g} does not prove the "
            f"integer of the dual objective {dobj:.9g}",
            solution,
        )
    return bound


# ---------------------------------------------------------------------------
# SDPA sparse format (.dat-s) interchange.

@dataclass(frozen=True, eq=False)
class SdpaData:
    """Canonical content of an SDPA sparse file: the columns of its entries,
    sorted by (matno, blkno, i, j), one per position, each of a PSD block
    in its upper triangle.  ``matno``, ``blkno``, ``i`` and ``j`` are int64.
    Built from a problem, ``value`` holds the exact values, as a block does;
    parsed from a file, the doubles the file prints.  Two views are equal
    when every size, index and value is, compared exactly, so a problem's
    view equals its file's exactly when every value round-trips through a
    double.  It is the interchange view only: the writer prints the same
    columns, and the solver and the exact check read the blocks."""

    num_vars: int
    block_sizes: tuple[int, ...]
    objective: tuple[int | float, ...]
    matno: np.ndarray
    blkno: np.ndarray
    i: np.ndarray
    j: np.ndarray
    value: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, SdpaData):
            return NotImplemented
        return (self.num_vars, self.block_sizes, self.objective) == (
            other.num_vars, other.block_sizes, other.objective
        ) and all(
            _same_numbers(getattr(self, name), getattr(other, name))
            for name in ("matno", "blkno", "i", "j", "value")
        )


def _same_numbers(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two columns hold the same numbers, compared exactly.  numpy
    compares int64 with float64 by rounding the int, so a float column meets
    an int64 one as int64, once each of its values is shown to be a whole
    number in range; Python compares its ints and floats exactly."""
    if a.shape != b.shape:
        return False
    if a.dtype == object or b.dtype == object:
        return a.tolist() == b.tolist()
    if a.dtype == b.dtype:
        return bool(np.array_equal(a, b))
    ints, floats = (a, b) if a.dtype.kind == "i" else (b, a)
    whole = (np.abs(floats) < 2.0 ** 63) & (np.trunc(floats) == floats)
    return bool(whole.all()) and np.array_equal(floats.astype(np.int64), ints)


def _sdpa_columns(problem: SdpProblem):
    """The block sizes of the SDPA view of a problem (see
    ``problem_to_sdpa_data``), its five columns, block after block, and the
    order that sorts them.  Each block's entries are sorted, so a stable
    sort by matrix number sorts the whole view."""
    m = problem.num_vars
    sdp_blocks = [b for b in problem.blocks if b.dim >= 2]
    scalar_blocks = [b for b in problem.blocks if b.dim == 1]
    diag_size = len(scalar_blocks) + m
    sizes = tuple(b.dim for b in sdp_blocks) + ((-diag_size,) if diag_size else ())
    diag = len(sdp_blocks) + 1
    # each block's number and offset: the 1x1 blocks share the diagonal block
    places = [(k, 0, b) for k, b in enumerate(sdp_blocks, start=1)]
    places += [(diag, pos, b) for pos, b in enumerate(scalar_blocks)]
    # the rows y >= 0 follow, one per variable
    rows = np.arange(len(scalar_blocks) + 1, diag_size + 1)
    matno = np.concatenate([b.matno for *_, b in places] + [np.arange(1, m + 1)])
    blkno = np.concatenate([np.full(len(b.matno), k) for k, _, b in places] + [np.full(m, diag)])
    i = np.concatenate([b.i + (off + 1) for _, off, b in places] + [rows])
    j = np.concatenate([b.j + (off + 1) for _, off, b in places] + [rows])
    value = np.concatenate([b.value for *_, b in places] + [np.ones(m, dtype=np.int64)])
    value[matno == 0] *= -1
    return sizes, [matno, blkno, i, j, value], np.argsort(matno, kind="stable")


def problem_to_sdpa_data(problem: SdpProblem) -> SdpaData:
    """Exact view of a problem in SDPA terms: minimize (-objective).y with
    X = sum_i y_i F_i - (-F0) >= 0 blockwise; one trailing diagonal block
    collects the 1x1 blocks and one row y_i >= 0 per variable.  It relabels
    each block's entries with the block number, the 1-based offset in the
    diagonal block and F0's sign."""
    sizes, columns, order = _sdpa_columns(problem)
    # one column is sorted at a time, and its unsorted copy goes
    for k, column in enumerate(columns):
        columns[k] = column[order]
    return SdpaData(problem.num_vars, sizes, tuple(-c for c in problem.objective), *columns)


_SDPA_CHUNK = 4096  # entry lines per write of emit_sdpa, per read of parse_sdpa


def emit_sdpa(problem: SdpProblem, destination) -> Path:
    """Write the problem in SDPA sparse format (.dat-s).

    The header comment documents the sign conventions: the maximization is
    encoded by negating the objective vector, and constant matrices are
    emitted as -F0 per the SDPA convention X = sum_i x_i F_i - F0.
    The entry lines are gathered from byte tables, whose rows are
    right-aligned in zero bytes: one per index column, whose row k is the
    text of k and a space, and one per chunk of _SDPA_CHUNK lines, whose
    rows are the repr of the nearest double of each of the chunk's distinct
    values and a newline.  A chunk's rows of the five tables, gathered
    through the order that sorts the view's columns and set side by side,
    are its text once the zero bytes are dropped.  So the writer holds the
    columns, their order, the index tables and one chunk, never a sorted
    copy of the view or the file's text: 56 bytes an entry at (2,10,5).
    """
    sizes, columns, order = _sdpa_columns(problem)
    *index, value = columns
    tables = [_text_table([f"{k} " for k in range(c.max(initial=0) + 1)]) for c in index]
    spec = problem.spec
    header = [
        f'"mixed binary/ternary code bound: n2={spec.n2} n3={spec.n3} '
        f'd={spec.d} k={spec.k}',
        '"maximization encoded by negated objective; constant matrices are -F0',
        f"{problem.num_vars}",
        f"{len(sizes)}",
        " ".join(str(s) for s in sizes),
        # a zero is the negation of 0 and prints as -0.0
        " ".join(repr(float(-c) or -0.0) for c in problem.objective),
    ]
    path = Path(destination)
    with path.open("wb") as out:
        out.write(("\n".join(header) + "\n").encode())
        for start in range(0, len(order), _SDPA_CHUNK):
            rows = order[start:start + _SDPA_CHUNK]
            # each exact value as its nearest double
            distinct, which = np.unique(value[rows].astype(np.float64), return_inverse=True)
            numbers = _text_table([f"{v!r}\n" for v in distinct.tolist()])
            text = np.concatenate(
                [t[c[rows]] for t, c in zip(tables, index)] + [numbers[which]], axis=1
            )
            out.write(text[text != 0].tobytes())
    return path


def _text_table(texts: list[str]) -> np.ndarray:
    """The uint8 table whose row k holds the ASCII text texts[k],
    right-aligned in zero bytes."""
    width = max(map(len, texts))
    padded = "".join(text.rjust(width, "\0") for text in texts).encode()
    return np.frombuffer(padded, dtype=np.uint8).reshape(len(texts), width)


def parse_sdpa(path) -> SdpaData:
    """Read an SDPA sparse file back into its canonical content.  Block
    sizes must be nonzero and objective values finite.  An entry line holds
    four integers and a finite number, and names a matrix 0..num_vars, a
    declared block and a position inside it, on the diagonal of a diagonal
    (negative-size) block, that no other entry names; (i, j) and (j, i)
    name the same position of a symmetric matrix.

    The lines are read once, as a stream, _SDPA_CHUNK at a time, into one
    list per column; equal number tokens share one int or float.  Repeated
    positions are adjacent once the columns are sorted, and only then is
    the file read again, to name the first line that repeats an earlier
    one."""
    columns = [[] for _ in range(5)]
    with open(path) as file:
        header, lines = _read_sdpa(file)
        while chunk := [entry for _, entry in itertools.islice(lines, _SDPA_CHUNK)]:
            for column, part in zip(columns, zip(*chunk)):
                column.extend(part)
    # one column becomes an array at a time, and its list goes
    for k, column in enumerate(columns):
        columns[k] = np.array(column, dtype=np.float64 if k == 4 else np.int64)
    order = np.lexsort(columns[3::-1])
    for k, column in enumerate(columns):
        columns[k] = column[order]
    repeated = np.ones(max(len(order) - 1, 0), dtype=bool)
    for column in columns[:4]:
        repeated &= column[1:] == column[:-1]
    if repeated.any():
        with open(path) as file:
            seen = set()
            for line, (matno, blkno, i, j, _) in _read_sdpa(file)[1]:
                if (matno, blkno, i, j) in seen:
                    raise SdpaParseError(
                        f"repeated position ({i}, {j}) of matrix {matno} in block {blkno}: {line!r}"
                    )
                seen.add((matno, blkno, i, j))
    return SdpaData(*header, *columns)


def _read_sdpa(file):
    """The header (num_vars, sizes, objective) of an open SDPA file and an
    iterator over its entry lines, which gives each line without its newline,
    with its checked entry (matno, blkno, i, j, value), i <= j.  Blank lines
    and comments, which start with " or *, are skipped, in the header and
    among the entries alike."""
    lines = (line.rstrip("\n") for line in file)
    lines = (raw for raw in lines if (line := raw.strip()) and line[0] not in '"*')
    header = list(itertools.islice(lines, 3))
    if len(header) < 3:
        raise SdpaParseError("incomplete SDPA header")
    try:
        num_vars = int(header[0].split()[0])
        num_blocks = int(header[1].split()[0])
        sizes = tuple(
            int(t) for t in re.split(r"[\s,{}()]+", header[2]) if t
        )
        # the objective line of a problem without variables is empty, and so
        # skipped as blank: its entries follow the block sizes
        objective_line = next(lines, "").strip() if num_vars else ""
        objective = tuple(
            float(t) for t in re.split(r"[\s,{}()]+", objective_line) if t
        )
    except ValueError as exc:
        raise SdpaParseError(f"bad SDPA header: {exc}") from exc
    if 0 in sizes:
        raise SdpaParseError(f"bad SDPA header: block size 0 in {sizes}")
    if not all(map(math.isfinite, objective)):
        raise SdpaParseError(f"bad SDPA header: non-finite objective in {objective_line!r}")
    if len(sizes) != num_blocks:
        raise SdpaParseError(
            f"block count {num_blocks} does not match sizes line {sizes}"
        )
    if len(objective) != num_vars:
        raise SdpaParseError(
            f"variable count {num_vars} does not match objective length "
            f"{len(objective)}"
        )

    def entries():
        integer, real = functools.cache(int), functools.cache(float)
        # the header's lines are read, so the entry lines follow in the stream
        for line in lines:
            fields = line.split()
            try:
                matno, blkno, i, j, value = fields
                matno, blkno, i, j = integer(matno), integer(blkno), integer(i), integer(j)
                value = real(value)
            except ValueError:
                raise SdpaParseError(f"bad entry line: {line!r}") from None
            if i > j:
                i, j = j, i
            size = sizes[blkno - 1] if 1 <= blkno <= num_blocks else 0
            if not math.isfinite(value):
                fault = "non-finite value"
            elif not 0 <= matno <= num_vars:
                fault = f"matrix number outside 0..{num_vars}"
            elif not size:
                fault = f"block number outside 1..{num_blocks}"
            elif not (1 <= i <= abs(size) and 1 <= j <= abs(size)):
                fault = f"index outside block {blkno} of size {abs(size)}"
            elif size < 0 and i != j:
                fault = f"off-diagonal entry in diagonal block {blkno}"
            else:
                yield line, (matno, blkno, i, j, value)
                continue
            raise SdpaParseError(f"{fault}: {line!r}")

    return (num_vars, sizes, objective), entries()
