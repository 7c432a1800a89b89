"""Embedded primal-dual interior-point solver for block-diagonal linear
matrix inequalities, SDPA sparse-format interchange, and an exact check of
the solver's dual point that turns its output into certified integer bounds.

The solver follows the central path with Nesterov-Todd scaling and an
adaptive centering parameter from an affine predictor probe, starting from
identity slacks (infeasible start).  One-dimensional blocks and the bound
y >= 0 on every variable are handled as linear inequalities.
Each iteration factors every matrix once: the scaling of a PSD block comes
from one Cholesky factor each of the slack S and the dual matrix Z and one
SVD, in which the scaled point is diagonal, so the corrector's Lyapunov
equation is solved elementwise and the step lengths follow from the same
factors.  The coefficient matrices of a PSD block are kept sparse, as the
few upper-triangle entries of each variable, so sum_i y_i F_i is one
bincount and (<F_i, M>)_i one gather.  The Schur complement is built in
Gram form, B = C C^T, where row i of C holds svec(G^-1 F_i G^-T) of each
block, gathered from a symmetric Kronecker table of the scaling's G^-1,
followed by the 1x1 blocks' rows; the rows y >= 0 add a diagonal.  B is
Cholesky-factored once, and the factor's inverse, from a blocked recursion
of matrix products, serves all four Newton solves.
A slack or dual matrix that loses positive definiteness raises
ConditioningError naming the block and the iteration; nothing is clamped.
Every SolverError raised by a solve carries the last iterate.
The SDPA view of a problem relabels its blocks' exact triplets, and the
SDPA writer, the solver's float arrays and the exact check all read it; the
writer and the solver each take a value's nearest double.  Nonzeros that
do not round-trip through a double are counted and reported, each
upper-triangle entry, constant and objective entry once.
Each block is rescaled to unit magnitude, which changes neither the
feasible set nor the dual objective value.
The solve stops at the first iterate whose dual point, checked in exact
arithmetic against the exact integer data, proves the integer that the
primal value gives; the tolerance only caps the effort.
"""

from __future__ import annotations

import math
import re
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
    """Malformed SDPA file or solver output."""


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
    dual value that upper-bounds it, the unscaled dual point (``z`` per PSD
    block, ``w`` per 1x1 block, ``u`` per bound y_i >= 0), the certificate
    of the exact check at this iterate when the solve ran one that
    succeeded, and the trace of every iterate, whose ``pinf`` and ``dinf``
    are its primal and dual residuals."""

    objective: float
    dual_objective: float
    y: np.ndarray
    z: list[np.ndarray]
    w: np.ndarray
    u: np.ndarray
    iterations: int
    converged: bool
    inexact_coefficients: int
    certificate: CertifiedBound | None = None
    trace: list[dict] = field(default_factory=list)

    @property
    def gap(self) -> float:
        return abs(self.objective - self.dual_objective)


@dataclass
class _PsdBlock:
    dim: int
    gamma: float
    f0: np.ndarray          # (s, s)
    var_ids: np.ndarray     # (mk,)
    upper: tuple            # np.triu_indices(s): the svec order of the block
    tri: np.ndarray         # (mk, p) svec positions of each F_i's upper entries
    val: np.ndarray         # (mk, p) their values, off-diagonal ones doubled


@dataclass
class _LpData:
    l0: np.ndarray          # (n,)
    rows: np.ndarray        # (n - m, m) the 1x1 blocks; the last m rows are y >= 0
    gammas: np.ndarray      # (n,)


def _prepare(data: SdpaData):
    """Per-block rescaled float data of an SDPA view, and the number of its
    nonzeros, objective values included, that do not round-trip through a
    double.  Each coefficient matrix F_i of a PSD block is kept sparse, as
    its upper triangle padded with zeros to the longest in the block; the
    rows y >= 0, which close the diagonal block, are kept implicit."""
    m = data.num_vars
    inexact = sum(float(v) != v for v in [e[4] for e in data.entries] + list(data.objective))
    table = np.array(data.entries, dtype=float).reshape(-1, 5)
    matno, blkno, row, col = table[:, :4].astype(np.int64).T
    val = np.where(matno == 0, -table[:, 4], table[:, 4])  # the view holds -F0

    sdp_blocks: list[_PsdBlock] = []
    lp = _LpData(np.zeros(m), np.zeros((0, m)), np.ones(m))
    for k, s in enumerate(data.block_sizes, start=1):
        sel = blkno == k
        mat, i, j, v = matno[sel], row[sel] - 1, col[sel] - 1, val[sel]
        if s < 0:
            # the diagonal block: the 1x1 blocks, with the constants in
            # column 0, then the y >= 0 rows
            n = -s - m
            keep = i < n
            dense = np.zeros((n, m + 1))
            dense[i[keep], mat[keep]] = v[keep]
            l0, rows = dense[:, 0], dense[:, 1:]
            gammas = np.maximum(1.0, np.maximum(np.abs(rows).max(axis=1, initial=0.0), np.abs(l0)))
            lp = _LpData(
                np.concatenate([l0 / gammas, np.zeros(m)]),
                rows / gammas[:, None],
                np.concatenate([gammas, np.ones(m)]),
            )
            continue
        const = mat == 0
        f0 = np.zeros((s, s))
        f0[i[const], j[const]] = v[const]
        f0[j[const], i[const]] = v[const]
        mat, i, j, v = mat[~const], i[~const], j[~const], v[~const]
        # the view is sorted, so each matrix's entries are contiguous
        ids, slot, counts = np.unique(mat, return_inverse=True, return_counts=True)
        rank = np.arange(len(mat)) - (np.cumsum(counts) - counts)[slot]
        tri = np.zeros((len(ids), counts.max(initial=1)), dtype=np.int64)
        coef = np.zeros(tri.shape)
        tri[slot, rank] = i * s - i * (i - 1) // 2 + j - i  # row-major upper order
        coef[slot, rank] = np.where(i == j, v, 2.0 * v)
        gamma = max(1.0, np.abs(f0).max(initial=0.0), np.abs(v).max(initial=0.0))
        sdp_blocks.append(
            _PsdBlock(s, gamma, f0 / gamma, ids - 1, np.triu_indices(s), tri, coef / gamma)
        )
    b = np.array([-c for c in data.objective], dtype=float)
    return b, sdp_blocks, lp, inexact


def _apply(bl: _PsdBlock, y: np.ndarray) -> np.ndarray:
    """sum_i y_i F_i over the variables of one block."""
    vec = np.bincount(
        bl.tri.ravel(), (y[bl.var_ids, None] * bl.val).ravel(), minlength=len(bl.upper[0])
    )
    out = np.zeros((bl.dim, bl.dim))
    out[bl.upper] = vec
    return 0.5 * (out + out.T)


def _adjoint(bl: _PsdBlock, mat: np.ndarray) -> np.ndarray:
    """(<F_i, mat>)_i over the variables of one block, for symmetric mat."""
    return (mat[bl.upper][bl.tri] * bl.val).sum(axis=1)


def _lp_apply(lp: _LpData, y: np.ndarray) -> np.ndarray:
    """The rows of the 1x1 blocks applied to y, then y itself."""
    return np.concatenate([lp.rows @ y, y])


def _lp_adjoint(lp: _LpData, z: np.ndarray) -> np.ndarray:
    """The transpose of _lp_apply."""
    n = len(lp.rows)
    return lp.rows.T @ z[:n] + z[n:]


def _schur(blocks: list[_PsdBlock], lp: _LpData, inverses, lp_ratio: np.ndarray) -> np.ndarray:
    """Schur complement B_ij = sum_k tr(F_i W_k^-1 F_j W_k^-1) + the LP
    terms, in Gram form B = C C^T + diag(y >= 0 terms).  With W_k^-1 = H^T H
    for H in ``inverses``, tr(F_i W^-1 F_j W^-1) = <H F_i H^T, H F_j H^T>, so
    row i of C holds svec(H F_i H^T) of each block, with off-diagonal weight
    sqrt 2 (Fujisawa, Kojima and Nakata, Math. Prog. 79, 1997), followed by
    the 1x1 blocks' rows scaled by the root of their z/s."""
    m = lp.rows.shape[1]
    n = len(lp.rows)
    widths = [len(bl.upper[0]) for bl in blocks]
    C = np.zeros((m, sum(widths) + n))
    off = 0
    for bl, h, w in zip(blocks, inverses, widths):
        # symmetric Kronecker table: row (a, b) holds svec of the symmetric
        # part of h[:, a] h[:, b]^T, so H F_i H^T sums the rows of F_i's
        # upper entries
        a, b = bl.upper
        ha, hb = h.T[a], h.T[b]
        kron = ha[:, a] * hb[:, b] + ha[:, b] * hb[:, a]
        kron *= np.where(a == b, 0.5, np.sqrt(0.5))
        C[bl.var_ids, off:off + w] = np.einsum("ip,ipc->ic", bl.val, kron[bl.tri])
        off += w
    C[:, off:] = lp.rows.T * np.sqrt(lp_ratio[:n])
    B = C @ C.T
    B.flat[::m + 1] += lp_ratio[n:]
    return B


# Order at or below which _tril_inverse stops recursing.
_TRIL_BLOCK = 64


def _tril_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by blocked recursion,
    [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]], so the work is
    in matrix products, about n^3/3 multiply-adds against the LU of a
    general inverse.  The strict upper triangle of the result is zero."""
    n = len(L)
    if n <= _TRIL_BLOCK:
        # the LU of an upper-triangular matrix makes no row exchange, so
        # this is LAPACK's triangular inverse; the LU of L itself would
        # pivot, and loses accuracy on a nearly singular factor
        return np.linalg.inv(L.T).T
    h = n // 2
    X = np.zeros_like(L)
    X[:h, :h] = _tril_inverse(L[:h, :h])
    X[h:, h:] = _tril_inverse(L[h:, h:])
    X[h:, :h] = -(X[h:, h:] @ L[h:, :h]) @ X[:h, :h]
    return X


def _cholesky(mat: np.ndarray, name: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise ConditioningError(f"{name} is not positive definite") from None


def _nt_scaling(S: np.ndarray, Z: np.ndarray):
    """Nesterov-Todd scaling of one block, in the factored form of Todd, Toh
    and Tutuncu (SIAM J. Optim. 8, 1998).  With S = L L^T, Z = R R^T and
    R^T L = U diag(d) V^T, G = L V diag(d)^-1/2 gives W = G G^T with
    W Z W = S, and the scaled point G^-1 S G^-T = G^T Z G = diag(d).
    Returns (G, G^-1, d); G^-1 = diag(d)^-1/2 U^T R^T needs no inverse."""
    L = _cholesky(S, "S")
    R = _cholesky(Z, "Z")
    U, d, Vt = np.linalg.svd(R.T @ L)
    root = np.sqrt(d)
    return (L @ Vt.T) / root, (U.T @ R.T) / root[:, None], d


def _max_step(d: np.ndarray, direction: np.ndarray) -> float:
    """Largest alpha with diag(d) + alpha*direction still positive definite."""
    root = np.sqrt(d)
    w = direction / np.outer(root, root)
    lam = float(np.linalg.eigvalsh(0.5 * (w + w.T))[0])
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


def _lp_max_step(vec: np.ndarray, direction: np.ndarray) -> float:
    neg = direction < 0
    if not neg.any():
        return np.inf
    return float((-vec[neg] / direction[neg]).min())


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
    lam = float(np.linalg.eigvalsh(z / np.outer(root, root))[0])
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


def _certificate(data: SdpaData, z: list[np.ndarray], w: np.ndarray) -> CertifiedBound:
    """The exact check of a dual point (see ``certify``) against the exact
    SDPA view of a problem.  Raises CertificationError when a shifted dual
    block is not positive definite."""
    # one list of dual values per block, in units of 1 / _GRID: each PSD
    # block's matrix, row-major, then the multipliers of the 1x1 blocks
    grid = []
    for k, zk in enumerate(z):
        shifted = np.triu(zk + np.diag(_shift(zk)))
        ints = np.array(_on_grid(shifted), dtype=object).reshape(shifted.shape)
        ints += np.triu(ints, 1).T  # the upper triangle, which the data reads
        if not _positive_definite(ints):
            raise CertificationError(f"shifted dual block {k} is not positive definite")
        grid.append(ints.ravel().tolist())
    grid.append(_on_grid(np.maximum(w, 0.0)))
    # sums[0] is -(sum <F0_k, Z_k> + sum l0_j w_j), since the view holds
    # -F0, and sums[i + 1] is sum <F_ik, Z_k> + sum a_ji w_j
    sums = [0] * (data.num_vars + 1)
    for matno, blkno, i, j, v in data.entries:
        size = data.block_sizes[blkno - 1]
        if size < 0 and i > len(w):
            continue  # the rows y >= 0
        slot = (i - 1) * size + j - 1 if size > 0 else i - 1
        sums[matno] += (v if i == j else 2 * v) * grid[blkno - 1][slot]
    # the slack v_i = -c_i - sums[i + 1] of each variable, where the view
    # holds -c; y_i <= 1 bounds what a negative one can add
    penalty = sum(max(0, t - c * _GRID) for c, t in zip(data.objective, sums[1:]))
    bound = Fraction(penalty - sums[0], _GRID)
    return CertifiedBound(math.floor(bound), bound, Fraction(penalty, _GRID))


def solve(problem: SdpProblem, tol: float = 1e-8, max_iter: int = 500) -> Solution:
    """Maximize the problem objective subject to its matrix inequalities.

    Stops at the first iterate that proves its integer: the primal
    residual is at most 1e-6, the floors of the primal and the dual
    objective agree, every block holds at y to 1e-6 of its own magnitude,
    and the exact check of the dual point (see ``certify``) gives that
    same floor.  Otherwise it stops, as converged,
    when the relative duality gap and the scaled feasibility residuals all
    fall below ``tol``.  Deterministic for identical inputs.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    data = problem_to_sdpa_data(problem)
    b, blocks, lp, inexact = _prepare(data)
    m = data.num_vars
    nu = sum(bl.dim for bl in blocks) + len(lp.l0)
    n_lp = len(lp.rows)

    # objective normalized to unit magnitude; reported values are unscaled
    bscale = max(1.0, float(np.abs(b).max(initial=0.0)))
    b = b / bscale
    eta_p = 100.0
    eta_d = 100.0
    y = np.zeros(m)
    S = [eta_p * np.eye(bl.dim) for bl in blocks]
    Z = [eta_d * np.eye(bl.dim) for bl in blocks]
    s_lp = eta_p * np.ones(len(lp.l0))
    z_lp = eta_d * np.ones(len(lp.l0))

    trace: list[dict] = []
    tiny_steps = 0

    def objective_pair():
        pobj = bscale * float(b @ y)
        dobj = float(lp.l0 @ z_lp)
        for bl, zk in zip(blocks, Z):
            dobj += float(np.tensordot(bl.f0, zk))
        return pobj, bscale * dobj

    def dual_point():
        """The dual point of the unscaled problem: (Z_k, w, u)."""
        z_unscaled = z_lp * bscale / lp.gammas
        return (
            [zk * (bscale / bl.gamma) for bl, zk in zip(blocks, Z)],
            z_unscaled[:n_lp],
            z_unscaled[n_lp:],
        )

    def primal_holds() -> bool:
        """Whether every block holds at y to within 1e-6 of its own
        magnitude |F0| + sum |y_i F_i|.  The residuals are measured against
        the largest coefficients, so a block whose entries at y are orders
        of magnitude smaller can be violated, and then the primal value
        overstates the optimum ((1,13,9) at level 3: 53.9 against 50.6)."""
        for bl in blocks:
            terms = np.abs(y[bl.var_ids, None] * bl.val).ravel()
            mag = np.abs(bl.f0).max() + np.bincount(
                bl.tri.ravel(), terms, minlength=len(bl.upper[0])
            ).max()
            if np.linalg.eigvalsh(bl.f0 + _apply(bl, y))[0] < -1e-6 * mag:
                return False
        l0 = lp.l0[:n_lp]
        mag = np.abs(l0) + np.abs(lp.rows) @ np.abs(y)
        return bool((l0 + lp.rows @ y >= -1e-6 * mag).all())

    def exact_check() -> CertifiedBound | None:
        z, w, _ = dual_point()
        try:
            return _certificate(data, z, w)
        except CertificationError:
            return None

    def current(converged: bool, certificate: CertifiedBound | None = None) -> Solution:
        """The solution at the current iterate, with the trace so far."""
        pobj, dobj = objective_pair()
        z, w, u = dual_point()
        return Solution(
            objective=pobj,
            dual_objective=dobj,
            y=y.copy(),
            z=z,
            w=w,
            u=u,
            iterations=it,
            converged=converged,
            inexact_coefficients=inexact,
            certificate=certificate,
            trace=trace,
        )

    it = 0
    if m == 0:
        # the zero dual point proves the optimum 0
        Z = [0.0 * zk for zk in Z]
        z_lp = 0.0 * z_lp
        return current(True, exact_check())

    for it in range(1, max_iter + 1):
        rp = [bl.f0 + _apply(bl, y) - sk for bl, sk in zip(blocks, S)]
        rlp = lp.l0 + _lp_apply(lp, y) - s_lp
        # dual residual, with the magnitude of the summed terms tracked so
        # infeasibility is measured backward-error style
        rd = -b.copy()
        rd_mag = np.abs(b).copy()
        for k, bl in enumerate(blocks):
            contrib = _adjoint(bl, Z[k])
            rd[bl.var_ids] -= contrib
            rd_mag[bl.var_ids] += np.abs(contrib)
        lp_contrib = _lp_adjoint(lp, z_lp)
        rd -= lp_contrib
        rd_mag += np.abs(lp_contrib)
        pobj, dobj = objective_pair()
        mu = sum(float(np.tensordot(sk, zk)) for sk, zk in zip(S, Z))
        mu += float(s_lp @ z_lp)
        mu /= nu
        relgap = abs(pobj - dobj) / max(1.0, 0.5 * (abs(pobj) + abs(dobj)))
        pinf = max(
            [float(np.abs(r).max(initial=0.0)) for r in rp] + [float(np.abs(rlp).max(initial=0.0))]
        ) / (1.0 + float(np.abs(y).max(initial=0.0)))
        dinf = float((np.abs(rd) / (1.0 + rd_mag)).max(initial=0.0))
        entry = {
            "iter": it - 1, "pobj": pobj, "dobj": dobj, "mu": mu,
            "relgap": relgap, "pinf": pinf, "dinf": dinf,
            "alpha_p": 0.0, "alpha_d": 0.0, "sigma": 0.0,
        }
        trace.append(entry)
        # the cheap float test first; the exact check only when it passes
        float_test = (
            pinf <= 1e-6 and math.floor(dobj) == math.floor(pobj) and primal_holds()
        )
        if float_test:
            proof = exact_check()
            entry["exact"] = None if proof is None else float(proof.exact_bound)
            if proof is not None and proof.value == math.floor(pobj):
                return current(True, proof)
        if relgap <= tol and pinf <= tol and dinf <= tol:
            return current(True, proof if float_test else exact_check())

        # centering floor: driving mu far below what the tolerance needs
        # destroys the Newton system's conditioning before the dual residual
        # has finished converging
        gap_scale = max(1.0, 0.5 * (abs(pobj) + abs(dobj))) / bscale
        mu_target = 0.02 * tol * gap_scale / nu

        # NT scalings (G, G^-1, d) per block; W^-1 = G^-T G^-1
        scalings = []
        for k, (sk, zk) in enumerate(zip(S, Z)):
            try:
                scalings.append(_nt_scaling(sk, zk))
            except ConditioningError as exc:
                raise ConditioningError(
                    f"{exc} in block {k} at iteration {it}", current(False)
                ) from None
        winv = [gi.T @ gi for _, gi, _ in scalings]
        lp_ratio = z_lp / s_lp

        B = _schur(blocks, lp, [gi for _, gi, _ in scalings], lp_ratio)
        if not np.isfinite(B).all():
            raise ConditioningError(
                f"Newton system lost finiteness at iteration {it}", current(False)
            )

        # one Cholesky factor, kept as its inverse: each Newton solve is then
        # four matrix-vector products
        bmax = float(np.abs(B).max(initial=1.0))
        ridge = 0.0
        for attempt in range(6):
            try:
                chol_inv = _tril_inverse(np.linalg.cholesky(B + ridge * np.eye(m)))
                break
            except np.linalg.LinAlgError:
                ridge = bmax * 10.0 ** (-14 + 2 * attempt)
        else:
            raise ConditioningError(
                f"Schur complement not positive definite at iteration {it}", current(False)
            )

        def solve_newton(rc_blocks, rc_lp):
            g = -rd.copy()
            for k, bl in enumerate(blocks):
                mk = rc_blocks[k] - winv[k] @ rp[k] @ winv[k]
                g[bl.var_ids] += _adjoint(bl, mk)
            g += _lp_adjoint(lp, rc_lp - lp_ratio * rlp)
            dy = chol_inv.T @ (chol_inv @ g)
            dy += chol_inv.T @ (chol_inv @ (g - B @ dy))
            d_s = [rp[k] + _apply(bl, dy) for k, bl in enumerate(blocks)]
            d_z = []
            for k in range(len(blocks)):
                dz = rc_blocks[k] - winv[k] @ d_s[k] @ winv[k]
                d_z.append(0.5 * (dz + dz.T))
            d_slp = rlp + _lp_apply(lp, dy)
            d_zlp = rc_lp - lp_ratio * d_slp
            return dy, d_s, d_z, d_slp, d_zlp

        def step_lengths(d_s, d_z, d_slp, d_zlp):
            # S and Z both scale to diag(d): S = G diag(d) G^T and
            # Z = G^-T diag(d) G^-1
            ap = min(
                [_max_step(d, gi @ ds @ gi.T) for (_, gi, d), ds in zip(scalings, d_s)]
                + [_lp_max_step(s_lp, d_slp)]
            )
            ad = min(
                [_max_step(d, g.T @ dz @ g) for (g, _, d), dz in zip(scalings, d_z)]
                + [_lp_max_step(z_lp, d_zlp)]
            )
            return min(1.0, 0.98 * ap), min(1.0, 0.98 * ad)

        # affine predictor
        rc_aff = [-zk for zk in Z]
        dy_a, ds_a, dz_a, dslp_a, dzlp_a = solve_newton(rc_aff, -z_lp)
        ap_a, ad_a = step_lengths(ds_a, dz_a, dslp_a, dzlp_a)
        mu_aff = sum(
            float(np.tensordot(sk + ap_a * ds, zk + ad_a * dz))
            for sk, ds, zk, dz in zip(S, ds_a, Z, dz_a)
        )
        mu_aff += float((s_lp + ap_a * dslp_a) @ (z_lp + ad_a * dzlp_a))
        mu_aff /= nu
        sigma = min(0.99, max(1e-8, (max(mu_aff, 0.0) / mu) ** 3))
        sigma_mu = max(sigma * mu, min(0.5 * mu, mu_target))

        # corrector: second-order term in the scaled space, where the point
        # is diag(d) and the Lyapunov equation D U + U D = 2 rhs with
        # rhs = sigma*mu*I - D^2 - H(G^-1 dS dZ G) is solved elementwise
        rc_combined = []
        for (g, gi, d), ds, dz in zip(scalings, ds_a, dz_a):
            cross = gi @ (ds @ dz) @ g
            rhs = np.diag(sigma_mu - d * d) - 0.5 * (cross + cross.T)
            rc_combined.append(gi.T @ (2.0 * rhs / np.add.outer(d, d)) @ gi)
        rc_lp = sigma_mu / s_lp - z_lp - dslp_a * dzlp_a / s_lp
        dy, d_s, d_z, d_slp, d_zlp = solve_newton(rc_combined, rc_lp)
        # LAPACK's Cholesky passes NaN through, and its SVD may not return
        # on non-finite input, so a non-finite step must never be taken
        if not all(np.isfinite(a).all() for a in (dy, d_slp, d_zlp, *d_s, *d_z)):
            raise ConditioningError(
                f"Newton direction lost finiteness at iteration {it}", current(False)
            )
        alpha_p, alpha_d = step_lengths(d_s, d_z, d_slp, d_zlp)

        y += alpha_p * dy
        for k in range(len(blocks)):
            S[k] = 0.5 * (S[k] + S[k].T) + alpha_p * d_s[k]
            Z[k] = 0.5 * (Z[k] + Z[k].T) + alpha_d * d_z[k]
        s_lp = s_lp + alpha_p * d_slp
        z_lp = z_lp + alpha_d * d_zlp
        entry.update(alpha_p=alpha_p, alpha_d=alpha_d, sigma=sigma)

        if max(alpha_p, alpha_d) < 1e-7:
            tiny_steps += 1
            if tiny_steps >= 5:
                achieved = max(
                    min(t["relgap"] for t in trace),
                    min(t["pinf"] for t in trace),
                    min(t["dinf"] for t in trace),
                )
                raise ConditioningError(
                    f"no progress for {tiny_steps} iterations (iteration {it}); "
                    f"precision floor near {achieved:.1e}, consider a larger tol",
                    current(False),
                )
        else:
            tiny_steps = 0

    raise NonConvergenceError(
        f"no convergence within {max_iter} iterations "
        f"(relgap {trace[-1]['relgap']:.2e})",
        current(False),
    )


def certify(problem: SdpProblem, solution: Solution) -> CertifiedBound:
    """Integer upper bound on the problem's optimum, proved by the dual
    point of a converged solve.

    For Z_k >= 0 and w_j >= 0, every feasible y satisfies c.y <= D +
    sum_i y_i (-v_i), with D = sum <F0_k, Z_k> + sum l0_j w_j and the slack
    v_i = -c_i - sum <F_ik, Z_k> - sum a_ji w_j of each variable.  Every
    variable of a problem that ``model`` builds lies in [0, 1]: a feasible
    reduced point lifts to a symmetric feasible point x of the unreduced
    problem, whose moment matrices have the 2x2 principal minors
    [[1, x_u], [x_u, x_u]] (rows: the empty code and {u}),
    [[x_u, x_uv], [x_uv, x_v]] (rows {u}, {v}) and, in the matrix of the
    codes that hold the zero word 0, [[x_0u, x_0uv], [x_0uv, x_0v]].  They
    give x_u <= 1, then x_uv <= 1 and x_0uv <= 1, and translation takes
    every code of three words to one that holds 0.  So c.y <= D +
    sum_i max(0, -v_i); the sum is the ``penalty``.

    The check is exact: each Z_k is shifted by a small multiple of its own
    diagonal (``_shift``), rounded to the grid 2^-60 and proved positive
    definite by its leading minors; the w_j are clipped at 0 and rounded;
    and D and every v_i are computed from the exact integer data.  The
    bound's floor is the value.

    A certificate that the solve recorded for this iterate is returned as
    is; otherwise the check runs against ``problem``.  Refused: an
    unconverged solution, a shifted block that is not positive definite,
    and an integer above the solution's dual objective by more than its
    float accuracy, 1e-6 relative, which the exact bound reaches only when
    the dual point is too infeasible to prove that objective's integer.
    """
    if not solution.converged:
        raise CertificationError("cannot certify an unconverged solution")
    bound = solution.certificate
    if bound is None:
        bound = _certificate(problem_to_sdpa_data(problem), solution.z, solution.w)
    dobj = solution.dual_objective
    if bound.value > dobj + 1e-6 * max(1.0, abs(dobj)):
        raise CertificationError(
            f"exact bound {float(bound.exact_bound):.9g} does not prove the "
            f"integer of the dual objective {dobj:.9g}"
        )
    return bound


# ---------------------------------------------------------------------------
# SDPA sparse format (.dat-s) interchange.

@dataclass(frozen=True)
class SdpaData:
    """Canonical content of an SDPA sparse file: the entries sorted, one per
    position, each of a PSD block in its upper triangle.  Built from a
    problem it holds the exact values; parsed from a file, the doubles the
    file prints.  The two compare equal exactly when every value
    round-trips through a double."""

    num_vars: int
    block_sizes: tuple[int, ...]
    objective: tuple[int | float, ...]
    entries: tuple[tuple[int, int, int, int, int | float], ...]


def problem_to_sdpa_data(problem: SdpProblem) -> SdpaData:
    """Exact view of a problem in SDPA terms: minimize (-objective).y with
    X = sum_i y_i F_i - (-F0) >= 0 blockwise; one trailing diagonal block
    collects the 1x1 blocks and one row y_i >= 0 per variable.  It relabels
    each block's triplets with the block number, the 1-based offset in the
    diagonal block and F0's sign."""
    m = problem.num_vars
    sdp_blocks = [b for b in problem.blocks if b.dim >= 2]
    scalar_blocks = [b for b in problem.blocks if b.dim == 1]
    diag_size = len(scalar_blocks) + m
    sizes = tuple(b.dim for b in sdp_blocks) + ((-diag_size,) if diag_size else ())
    diag = len(sdp_blocks) + 1
    # each block's number and offset: the 1x1 blocks share the diagonal block
    places = [(k, 0, b) for k, b in enumerate(sdp_blocks, start=1)]
    places += [(diag, pos, b) for pos, b in enumerate(scalar_blocks)]
    entries = [
        (matno, blkno, off + i + 1, off + j + 1, val if matno else -val)
        for blkno, off, b in places
        for matno, i, j, val in b.entries
    ]
    first = len(scalar_blocks) + 1
    entries += [(v + 1, diag, first + v, first + v, 1) for v in range(m)]
    entries.sort()
    return SdpaData(m, sizes, tuple(-c for c in problem.objective), tuple(entries))


def emit_sdpa(problem: SdpProblem, destination) -> Path:
    """Write the problem in SDPA sparse format (.dat-s).

    The header comment documents the sign conventions: the maximization is
    encoded by negating the objective vector, and constant matrices are
    emitted as -F0 per the SDPA convention X = sum_i x_i F_i - F0.
    """
    data = problem_to_sdpa_data(problem)
    spec = problem.spec
    lines = [
        f'"mixed binary/ternary code bound: n2={spec.n2} n3={spec.n3} '
        f'd={spec.d} k={spec.k}',
        '"maximization encoded by negated objective; constant matrices are -F0',
        f"{data.num_vars}",
        f"{len(data.block_sizes)}",
        " ".join(str(s) for s in data.block_sizes),
        # a zero is the negation of 0 and prints as -0.0
        " ".join(repr(float(c) or -0.0) for c in data.objective),
    ]
    for matno, blkno, i, j, val in data.entries:
        lines.append(f"{matno} {blkno} {i} {j} {float(val)!r}")
    path = Path(destination)
    path.write_text("\n".join(lines) + "\n")
    return path


def parse_sdpa(source) -> SdpaData:
    """Read an SDPA sparse file (path, or text containing newlines) back
    into its canonical content.  Block sizes must be nonzero.  An entry line
    holds four integers and a number, and names a matrix 0..num_vars, a
    declared block and a position inside it, on the diagonal of a diagonal
    (negative-size) block, that no other entry names; (i, j) and (j, i)
    name the same position of a symmetric matrix."""
    text = str(source)
    if "\n" not in text:
        text = Path(source).read_text()
    header: list[str] = []
    body: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith('"') or line.startswith("*"):
            continue
        if len(header) < 4:
            header.append(line)
        else:
            body.append(raw)
    if len(header) < 4:
        raise SdpaParseError("incomplete SDPA header")
    try:
        num_vars = int(header[0].split()[0])
        num_blocks = int(header[1].split()[0])
        sizes = tuple(
            int(t) for t in re.split(r"[\s,{}()]+", header[2]) if t
        )
        objective = tuple(
            float(t) for t in re.split(r"[\s,{}()]+", header[3]) if t
        )
    except ValueError as exc:
        raise SdpaParseError(f"bad SDPA header: {exc}") from exc
    if 0 in sizes:
        raise SdpaParseError(f"bad SDPA header: block size 0 in {sizes}")
    if len(sizes) != num_blocks:
        raise SdpaParseError(
            f"block count {num_blocks} does not match sizes line {sizes}"
        )
    if len(objective) != num_vars:
        raise SdpaParseError(
            f"variable count {num_vars} does not match objective length "
            f"{len(objective)}"
        )
    entries: dict[tuple[int, int, int, int], float] = {}
    for raw in body:
        try:
            *index, text = raw.split()
            matno, blkno, i, j = map(int, index)
            value = float(text)
        except ValueError:
            raise SdpaParseError(f"bad entry line: {raw!r}") from None
        if i > j:
            i, j = j, i
        key = (matno, blkno, i, j)
        size = sizes[blkno - 1] if 1 <= blkno <= num_blocks else 0
        if not 0 <= matno <= num_vars:
            fault = f"matrix number outside 0..{num_vars}"
        elif not size:
            fault = f"block number outside 1..{num_blocks}"
        elif not (1 <= i <= abs(size) and 1 <= j <= abs(size)):
            fault = f"index outside block {blkno} of size {abs(size)}"
        elif size < 0 and i != j:
            fault = f"off-diagonal entry in diagonal block {blkno}"
        elif key in entries:
            fault = f"repeated position ({i}, {j}) of matrix {matno} in block {blkno}"
        else:
            entries[key] = value
            continue
        raise SdpaParseError(f"{fault}: {raw!r}")
    entries_sorted = tuple(sorted(key + (v,) for key, v in entries.items()))
    return SdpaData(num_vars, sizes, objective, entries_sorted)


_PRIMAL_PATTERNS = (
    re.compile(r"objValPrimal\s*=\s*([-+0-9.eE]+)"),
    re.compile(r"Primal objective value:\s*([-+0-9.eE]+)"),
)
_DUAL_PATTERNS = (
    re.compile(r"objValDual\s*=\s*([-+0-9.eE]+)"),
    re.compile(r"Dual objective value:\s*([-+0-9.eE]+)"),
)


def parse_sdpa_output(text: str) -> tuple[float, float]:
    """Extract (primal, dual) objective values from SDPA-family solver
    output; raises on malformed text."""
    primal = dual = None
    for pat in _PRIMAL_PATTERNS:
        match = pat.search(text)
        if match:
            primal = float(match.group(1))
            break
    for pat in _DUAL_PATTERNS:
        match = pat.search(text)
        if match:
            dual = float(match.group(1))
            break
    if primal is None or dual is None:
        raise SdpaParseError("missing objective values in solver output")
    return primal, dual
