"""Embedded interior-point solver, certification, and SDPA interchange."""

import dataclasses
import hashlib
import math
import shutil
import subprocess

import numpy as np
import pytest

from mixedsdp import solver
from mixedsdp.blocks import Block
from mixedsdp.codes import OrbitId, ProblemSpec, singleton_orbit
from mixedsdp.model import (
    SdpProblem,
    build_lp_k2,
    build_problem,
    build_sdp,
)
from mixedsdp.solver import (
    CertificationError,
    ConditioningError,
    SdpaParseError,
    _TRIL_BLOCK,
    _adjoint,
    _apply,
    _lp_adjoint,
    _lp_apply,
    _nt_scaling,
    _prepare,
    _schur,
    _tril_inverse,
    certify,
    emit_sdpa,
    parse_sdpa,
    parse_sdpa_output,
    problem_to_sdpa_data,
    solve,
)

DUMMY_ORBIT = OrbitId(1, (1, 0, 0, 0), (1, 0, 0, 0, 0))


def toy_problem(objective, blocks):
    return SdpProblem(
        spec=ProblemSpec(1, 1, 1),
        variables=tuple(DUMMY_ORBIT for _ in objective),
        objective=tuple(objective),
        blocks=tuple(blocks),
    )


def correlation_toy():
    """max y s.t. [[1, y], [y, 1]] psd, y >= 0; optimum 1."""
    return toy_problem(
        (1,),
        [Block("corr", 2, ((0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)))],
    )


def box_toy():
    """max y s.t. 1 - y >= 0, y >= 0; optimum 1, as pure LP."""
    return toy_problem(
        (1,),
        [Block("ub", 1, ((0, 0, 0, 1), (1, 0, 0, -1)))],
    )


class TestSolve:
    def test_correlation_toy(self):
        s = solve(correlation_toy(), tol=1e-8)
        assert abs(s.objective - 1.0) < 1e-6
        assert s.converged

    def test_pure_lp(self):
        s = solve(box_toy(), tol=1e-8)
        assert abs(s.objective - 1.0) < 1e-7

    def test_d1_exactness_111(self):
        p = build_sdp(ProblemSpec(1, 1, 1))
        s = solve(p, tol=1e-8)
        assert abs(s.objective - 6.0) < 1e-6

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            solve(correlation_toy(), tol=0.0)

    def test_rejects_bad_max_iter(self):
        with pytest.raises(ValueError, match="max_iter must be positive"):
            solve(correlation_toy(), max_iter=0)

    def test_weak_duality_on_certifiable_iterates(self):
        p = build_sdp(ProblemSpec(2, 1, 2))
        s = solve(p, tol=1e-8)
        scale = max(1.0, abs(s.objective))
        seen = 0
        for entry in s.trace:
            if entry["pinf"] <= 1e-6 and entry["dinf"] <= 1e-6:
                seen += 1
                assert entry["dobj"] >= entry["pobj"] - 1e-9 * scale
        assert seen > 0

    def test_determinism(self):
        p = build_sdp(ProblemSpec(2, 1, 2))
        s1 = solve(p, tol=1e-8)
        s2 = solve(p, tol=1e-8)
        assert s1.objective == s2.objective
        assert s1.dual_objective == s2.dual_objective
        assert np.array_equal(s1.y, s2.y)
        assert s1.trace == s2.trace

    def test_block_scaling_invariance(self):
        p = build_sdp(ProblemSpec(1, 1, 2))
        base = solve(p, tol=1e-8).objective
        scaled_blocks = []
        for i, b in enumerate(p.blocks):
            if i == 0:
                entries = tuple((mat, r, c, 2 * v) for mat, r, c, v in b.entries)
                scaled_blocks.append(Block(b.label, b.dim, entries))
            else:
                scaled_blocks.append(b)
        p2 = SdpProblem(
            spec=p.spec, variables=p.variables,
            objective=p.objective, blocks=tuple(scaled_blocks),
        )
        assert abs(solve(p2, tol=1e-8).objective - base) < 1e-6 * max(1.0, base)

    def test_variable_removal_never_increases(self):
        p = build_sdp(ProblemSpec(1, 1, 1))
        base = solve(p, tol=1e-8).objective
        drop = next(
            i for i, w in enumerate(p.variables)
            if w.size == 3 and p.objective[i] == 0
        )
        keep = [i for i in range(p.num_vars) if i != drop]
        remap = {old: new for new, old in enumerate(keep)}
        blocks = []
        for b in p.blocks:
            blocks.append(Block(b.label, b.dim, tuple(
                (remap[mat - 1] + 1 if mat else 0, i, j, v)
                for mat, i, j, v in b.entries if mat != drop + 1
            )))
        p2 = SdpProblem(
            spec=p.spec,
            variables=tuple(p.variables[i] for i in keep),
            objective=tuple(p.objective[i] for i in keep),
            blocks=tuple(blocks),
        )
        reduced = solve(p2, tol=1e-8).objective
        assert reduced <= base + 1e-6 * max(1.0, base)

    def test_inexact_coefficient_logging(self):
        big = 2 ** 60 + 1  # not representable in a double
        p = toy_problem(
            (1,),
            [Block("ub", 1, ((0, 0, 0, big), (1, 0, 0, -big)))],
        )
        s = solve(p, tol=1e-8)
        assert s.inexact_coefficients == 2
        assert abs(s.objective - 1.0) < 1e-6
        # max y s.t. big * [[1, y], [y, 1]] psd: the off-diagonal
        # coefficient is one entry of the upper triangle, counted once
        p = toy_problem(
            (1,),
            [Block("corr", 2, ((0, 0, 0, big), (0, 1, 1, big), (1, 0, 1, big)))],
        )
        s = solve(p, tol=1e-8)
        assert s.inexact_coefficients == 3
        assert abs(s.objective - 1.0) < 1e-6

    def test_error_carries_last_iterate(self):
        # a tolerance below this problem's double-precision floor
        with pytest.raises(ConditioningError) as info:
            solve(build_sdp(ProblemSpec(2, 1, 2)), tol=1e-13)
        solution = info.value.solution
        assert solution.trace
        assert not solution.converged
        assert solution.iterations == len(solution.trace)


def random_spd(rng, n, cond):
    """Random symmetric positive definite n x n matrix of condition cond."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.geomspace(1.0, 1.0 / cond, n)) @ q.T


class TestNtScaling:
    @pytest.mark.parametrize("seed", range(9))
    def test_scaled_point_is_diagonal(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 26))
        cond = (1.0, 1e4, 1e8)[seed % 3]
        S, Z = random_spd(rng, n, cond), random_spd(rng, n, cond)
        G, G_inv, d = _nt_scaling(S, Z)
        W = G @ G.T

        def close(a, b):
            return np.linalg.norm(a - b) <= 1e-9 * np.linalg.norm(b)

        assert (d > 0).all()
        assert close(W @ Z @ W, S)
        assert close(G_inv @ S @ G_inv.T, np.diag(d))
        assert close(G.T @ Z @ G, np.diag(d))
        assert close(G_inv @ G, np.eye(n))

    @pytest.mark.parametrize("singular", ["S", "Z"])
    def test_singular_matrix_raises(self, singular):
        mats = {"S": np.eye(3), "Z": np.eye(3)}
        mats[singular] = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ConditioningError, match=singular):
            _nt_scaling(mats["S"], mats["Z"])


def dense_sdpa_operators(problem):
    """Dense coefficient matrices of the SDPA view: per PSD block an array
    (m + 1, s, s) with F0 first, and the diagonal block as (n, m + 1)."""
    data = problem_to_sdpa_data(problem)
    m = data.num_vars
    mats = {k: np.zeros((m + 1, abs(s), abs(s))) for k, s in enumerate(data.block_sizes, 1)}
    for matno, blkno, i, j, val in data.entries:
        val = -val if matno == 0 else val  # the view holds -F0
        mats[blkno][matno, i - 1, j - 1] = mats[blkno][matno, j - 1, i - 1] = val
    psd = [mats[k] for k, s in enumerate(data.block_sizes, 1) if s > 0]
    diag = [np.diagonal(mats[k], axis1=1, axis2=2).T
            for k, s in enumerate(data.block_sizes, 1) if s < 0]
    return psd, diag[0]


class TestSchur:
    """The sparse Gram-form Schur complement and the sparse operators
    A(y) = sum_i y_i F_i and A^T(M) = (<F_i, M>)_i against dense forms."""

    @pytest.mark.parametrize("n2,n3,d,k", [
        (2, 5, 3, 3),
        (3, 2, 4, 3),  # two single-entry 1x1 rows on one variable
        (2, 5, 3, 2),  # level 2: an LP and one 2x2 block
    ])
    def test_matches_dense_reference(self, n2, n3, d, k):
        problem = build_problem(ProblemSpec(n2, n3, d, k))
        psd, diag = dense_sdpa_operators(problem)
        _, blocks, lp, _ = _prepare(problem_to_sdpa_data(problem))
        assert len(blocks) == len(psd)
        m = problem.num_vars
        rng = np.random.default_rng(n2 * 100 + n3 * 10 + d + k)
        y = rng.standard_normal(m)
        ref = np.zeros((m, m))
        inverses = []
        for bl, full in zip(blocks, psd):
            F = full / bl.gamma
            assert np.array_equal(F[0], bl.f0)
            assert np.allclose(bl.f0 + _apply(bl, y), np.tensordot(y, F[1:], axes=1) + F[0],
                               rtol=0, atol=1e-14)
            M = random_spd(rng, bl.dim, 1e3)
            adjoint = np.zeros(m)
            adjoint[bl.var_ids] = _adjoint(bl, M)
            assert np.allclose(adjoint, np.tensordot(F[1:], M), rtol=0, atol=1e-14)
            W = random_spd(rng, bl.dim, 1e3)
            w_inv = np.linalg.inv(W)
            inverses.append(np.linalg.cholesky(w_inv).T)  # H^T H = W^-1
            t = np.einsum("ab,ibc,cd->iad", w_inv, F[1:], w_inv)
            ref += np.einsum("iab,jba->ij", F[1:], t)
        rows = diag[:, 1:] / lp.gammas[:, None]
        assert np.array_equal(diag[:, 0] / lp.gammas, lp.l0)
        assert np.allclose(_lp_apply(lp, y), rows @ y, rtol=0, atol=1e-14)
        z = rng.random(len(rows)) + 0.5
        assert np.allclose(_lp_adjoint(lp, z), rows.T @ z, rtol=0, atol=1e-14)
        ratio = rng.random(len(rows)) + 0.5
        ref += (rows.T * ratio) @ rows
        B = _schur(blocks, lp, inverses, ratio)
        assert np.abs(B - ref).max() <= 1e-12 * np.abs(ref).max()


def tril_with_cond(rng, n, cond):
    """Random lower-triangular n x n matrix of condition cond: the R factor
    of a matrix with those singular values, transposed."""
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return np.linalg.qr((u * np.geomspace(1.0, 1.0 / cond, n)) @ v.T)[1].T


class TestTrilInverse:
    @pytest.mark.parametrize("n", [1, 2, _TRIL_BLOCK - 1, _TRIL_BLOCK, _TRIL_BLOCK + 1, 300, 662])
    @pytest.mark.parametrize("cond", [1e2, 1e5, 1e8])
    def test_inverse(self, n, cond):
        L = tril_with_cond(np.random.default_rng(n), n, cond)
        X = _tril_inverse(L)
        eye = np.eye(n)
        assert np.linalg.norm(L @ X - eye) <= 1e-10 * np.linalg.norm(eye)
        assert not np.triu(X, 1).any()


@pytest.fixture(scope="module")
def solved_253():
    problem = build_sdp(ProblemSpec(2, 5, 3))
    return problem, solve(problem, tol=1e-8)


def unrecorded(solution, **changes):
    """The solution without the certificate the solve recorded, so that
    certify runs the exact check again."""
    return dataclasses.replace(solution, certificate=None, **changes)


def with_coefficient(problem, index, var, a, delta):
    """The problem with delta added to entry (a, a) of F_var in block index."""
    block = problem.blocks[index]
    values = {(mat, i, j): v for mat, i, j, v in block.entries}
    key = (var + 1, a, a)
    values[key] = values.get(key, 0) + delta
    entries = tuple(sorted(k + (v,) for k, v in values.items() if v))
    blocks = list(problem.blocks)
    blocks[index] = Block(block.label, block.dim, entries)
    return dataclasses.replace(problem, blocks=tuple(blocks))


class TestCertify:
    def test_exact_bound_floor(self, solved_253):
        problem, solution = solved_253
        bound = certify(problem, solution)
        assert bound is solution.certificate
        assert bound.value == 65 == math.floor(bound.exact_bound)
        assert (2 ** 60) % bound.exact_bound.denominator == 0
        assert bound.penalty >= 0
        # the check run again on the same iterate gives the same proof
        assert certify(problem, unrecorded(solution)) == bound

    def test_unconverged_refused(self, solved_253):
        problem, solution = solved_253
        with pytest.raises(CertificationError, match="unconverged"):
            certify(problem, dataclasses.replace(solution, converged=False))

    def test_corrupted_coefficient_refused(self, solved_253):
        problem, solution = solved_253
        index = next(i for i, b in enumerate(problem.blocks) if b.dim >= 2)
        z = solution.z[0]  # the dual block of problem.blocks[index]
        a = int(np.argmax(np.diag(z)))
        var = next(
            mat - 1 for mat, i, j, _ in problem.blocks[index].entries if mat and i == j == a
        )
        # raises <F_var, Z> by at least the slack of var plus 2
        delta = math.ceil((solution.u[var] + 2) / z[a, a])
        bad = with_coefficient(problem, index, var, a, delta)
        with pytest.raises(CertificationError, match="does not prove"):
            certify(bad, unrecorded(solution))

    def test_corrupted_dual_entry_refused(self, solved_253):
        problem, solution = solved_253
        z = [zk.copy() for zk in solution.z]
        z[1][0, 1] = z[1][1, 0] = 1e3 * np.abs(z[1]).max()
        with pytest.raises(CertificationError, match="does not prove"):
            certify(problem, unrecorded(solution, z=z))

    def test_shift_sign(self, solved_253, monkeypatch):
        # a dual block with a slightly negative eigenvalue: the shift makes
        # it positive definite, and the same shift subtracted cannot
        problem, solution = solved_253
        z = [zk.copy() for zk in solution.z]
        lam = np.linalg.eigvalsh(z[1])[0]
        z[1] -= (lam + 1e-9 * np.abs(z[1]).max()) * np.eye(len(z[1]))
        assert certify(problem, unrecorded(solution, z=z)).value == 65
        shift = solver._shift
        monkeypatch.setattr(solver, "_shift", lambda zk: -shift(zk))
        with pytest.raises(CertificationError, match="not positive definite"):
            certify(problem, unrecorded(solution, z=z))

    def test_penalty_covers_dual_infeasibility(self, solved_253):
        # a scaled-down dual point leaves the slack of the singleton, the one
        # variable with c_i > 0, at about -u_i; the penalty pays for it and
        # the bound still holds
        problem, solution = solved_253
        i = problem.variables.index(singleton_orbit(problem.spec))
        u, c = solution.u[i], problem.objective[i]
        shrink = 1 - 2 * u / (c + u)
        bound = certify(problem, unrecorded(
            solution, z=[shrink * zk for zk in solution.z], w=shrink * solution.w,
        ))
        assert bound.penalty > 0
        assert bound.exact_bound >= solution.objective
        assert bound.value == 65

    @pytest.mark.parametrize("n2,n3,d,k", [(1, 1, 1, 3), (1, 1, 1, 2), (2, 2, 2, 3), (2, 2, 2, 2)])
    def test_orbit_variables_at_most_one(self, n2, n3, d, k):
        # the penalty takes y_i <= 1 on every variable; maximise each one
        problem = build_problem(ProblemSpec(n2, n3, d, k))
        for i in range(problem.num_vars):
            objective = tuple(int(j == i) for j in range(problem.num_vars))
            single = dataclasses.replace(problem, objective=objective)
            assert solve(single, tol=1e-8).dual_objective <= 1 + 1e-6


SAMPLE_OUTPUT = """
phase.value  = pdOPT
   Iteration = 23
objValPrimal = 6.5e+01
objValDual   = 6.4999999e+01
p.feas.error = 1.0e-12
"""


class TestSdpaInterchange:
    def test_emit_parse_round_trip(self, tmp_path):
        p = build_sdp(ProblemSpec(1, 1, 1))
        path = emit_sdpa(p, tmp_path / "p.dat-s")
        parsed = parse_sdpa(path)
        assert parsed == problem_to_sdpa_data(p)

    def test_second_emission_identical(self, tmp_path):
        p = build_sdp(ProblemSpec(1, 1, 2))
        a = emit_sdpa(p, tmp_path / "a.dat-s").read_text()
        b = emit_sdpa(p, tmp_path / "b.dat-s").read_text()
        assert a == b

    def test_diagonal_block_encoding(self, tmp_path):
        p = box_toy()
        path = emit_sdpa(p, tmp_path / "lp.dat-s")
        data = parse_sdpa(path)
        assert data.num_vars == 1
        assert data.block_sizes == (-2,)  # scalar block + one nonneg row
        assert data.objective == (-1.0,)  # negated for maximization
        # constant matrix carries -F0
        assert (0, 1, 1, 1, -1.0) in data.entries

    def test_parse_from_text(self, tmp_path):
        p = build_lp_k2(ProblemSpec(1, 1, 2, k=2))
        path = emit_sdpa(p, tmp_path / "k2.dat-s")
        assert parse_sdpa(path.read_text()) == problem_to_sdpa_data(p)

    # SHA-256 of the emitted files, pinned so that refactors of the block,
    # model and SDPA layers keep every byte.
    @pytest.mark.parametrize("n2,n3,d,k,digest", [
        (1, 1, 1, 3, "f9a5936689e35e3f6d53f0a871999971017b3eff03e9a10faa9a0ccd9e5ab1cb"),
        (2, 1, 2, 3, "529e00a35047a2d475435a7ff1fe533514ef0d4ee3f018d73f53834f74a2fc64"),
        (2, 2, 3, 3, "411ffe2809bb07a4386ab8173b8ae9aa3d970eff73370df78d0c4385d1037b28"),
        (2, 5, 3, 3, "e0acca0142c290d2544a0872ed1b380721836b74acd45454feefabf4f2d0b706"),
        (2, 5, 3, 2, "fbd381615fb09c47583b16d3ae3b45ecf316b0225ebbfe7fa30beb86bd707339"),
        (1, 4, 3, 2, "66039484f01ad38d8f82a7433c988fd34b75e4d2807bb563a8b8610b8a74ffa9"),
    ])
    def test_emitted_bytes_pinned(self, tmp_path, n2, n3, d, k, digest):
        problem = build_problem(ProblemSpec(n2, n3, d, k))
        path = emit_sdpa(problem, tmp_path / "p.dat-s")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        assert parse_sdpa(path) == problem_to_sdpa_data(problem)

    def test_bad_header_rejected(self):
        with pytest.raises(SdpaParseError):
            parse_sdpa("3\n1\n2 2\n1.0 1.0 1.0\n")

    def test_zero_block_size_rejected(self):
        # a block of size 0 is a bad header, not a missing block
        with pytest.raises(SdpaParseError, match=r"bad SDPA header: block size 0 in \(0, 2\)"):
            parse_sdpa("1\n2\n0 2\n1.0\n1 2 1 1 3.0\n")

    def test_bad_entry_rejected(self):
        with pytest.raises(SdpaParseError):
            parse_sdpa("1\n1\n2\n1.0\n0 1 1\n")

    @pytest.mark.parametrize("entry,fault", [
        ("2 1 1 1 3.0", "matrix number outside 0..1"),
        ("-1 1 1 1 3.0", "matrix number outside 0..1"),
        ("1 5 9 9 3.0", "block number outside 1..2"),
        ("1 0 1 1 3.0", "block number outside 1..2"),
        ("1 1 3 1 3.0", "index outside block 1 of size 2"),
        ("1 1 1 0 3.0", "index outside block 1 of size 2"),
        ("1 2 4 4 3.0", "index outside block 2 of size 3"),
        ("1 2 1 2 3.0", "off-diagonal entry in diagonal block 2"),
        ("1 1 x 1 3.0", "bad entry line"),
        ("1 1 1 1.5 3.0", "bad entry line"),
        ("1 1 1 1 abc", "bad entry line"),
    ])
    def test_entry_outside_blocks_rejected(self, entry, fault):
        text = "1\n2\n2 -3\n1.0\n1 1 1 2 1.0\n1 2 3 3 1.0\n"
        assert parse_sdpa(text).entries == ((1, 1, 1, 2, 1.0), (1, 2, 3, 3, 1.0))
        with pytest.raises(SdpaParseError, match=f"{fault}: '{entry}'"):
            parse_sdpa(text + entry + "\n")

    def test_entry_stored_in_upper_triangle(self):
        head = "1\n1\n2\n1.0\n"
        assert parse_sdpa(head + "1 1 2 1 3.0\n") == parse_sdpa(head + "1 1 1 2 3.0\n")
        assert parse_sdpa(head + "1 1 2 1 3.0\n").entries == ((1, 1, 1, 2, 3.0),)

    @pytest.mark.parametrize("second", ["1 1 1 2 4.0", "1 1 2 1 3.0"])
    def test_repeated_position_rejected(self, second):
        text = "1\n1\n2\n1.0\n1 1 1 2 3.0\n" + second + "\n"
        with pytest.raises(
            SdpaParseError, match=f"repeated position \\(1, 2\\) of matrix 1 in block 1: '{second}'"
        ):
            parse_sdpa(text)

    @pytest.mark.parametrize("n2,n3,d,k", [
        (1, 1, 1, 3), (2, 1, 2, 3), (2, 2, 3, 3), (2, 5, 3, 3), (2, 5, 3, 2), (1, 4, 3, 2),
    ])
    def test_emitted_and_solved_floats_identical(self, tmp_path, n2, n3, d, k):
        # the writer and the solver each take the nearest double of the
        # exact view, so the file describes the problem the solver solves
        problem = build_problem(ProblemSpec(n2, n3, d, k))
        path = emit_sdpa(problem, tmp_path / "p.dat-s")

        def arrays(data):
            b, blocks, lp, inexact = _prepare(data)
            assert inexact == 0
            fields = [getattr(x, f.name) for x in [*blocks, lp] for f in dataclasses.fields(x)]
            return [np.asarray(a) for a in [b, *fields]]

        solved = arrays(problem_to_sdpa_data(problem))
        emitted = arrays(parse_sdpa(path))
        assert len(solved) == len(emitted)
        for a, e in zip(solved, emitted):
            assert (a.dtype, a.shape, a.tobytes()) == (e.dtype, e.shape, e.tobytes())

    def test_inexact_value_does_not_round_trip(self, tmp_path):
        big = 2 ** 60 + 1  # not representable in a double
        p = toy_problem((1,), [Block("ub", 1, ((0, 0, 0, big), (1, 0, 0, -big)))])
        parsed = parse_sdpa(emit_sdpa(p, tmp_path / "big.dat-s"))
        assert parsed != problem_to_sdpa_data(p)
        assert _prepare(parsed)[3] == 0
        assert solve(p, tol=1e-8).inexact_coefficients == 2


class TestParseSolverOutput:
    def test_sample(self):
        primal, dual = parse_sdpa_output(SAMPLE_OUTPUT)
        assert primal == 65.0
        assert dual == pytest.approx(65.0, abs=1e-5)

    def test_csdp_style(self):
        text = "Success: SDP solved\nPrimal objective value: -6.0e+00\nDual objective value: -6.0000001e+00\n"
        primal, dual = parse_sdpa_output(text)
        assert primal == -6.0

    def test_missing_dual_rejected(self):
        with pytest.raises(SdpaParseError):
            parse_sdpa_output("objValPrimal = 6.5e+01\n")


def external_sdpa_binary():
    for name in ("sdpa", "sdpa_gmp", "csdp"):
        path = shutil.which(name)
        if path:
            return name, path
    return None


class TestExternalCrossCheck:
    def test_cross_solver_agreement(self, tmp_path):
        found = external_sdpa_binary()
        if found is None:
            pytest.skip("no external SDPA-family solver installed")
        name, binary = found
        for spec in (ProblemSpec(1, 1, 1), ProblemSpec(2, 2, 2)):
            problem = build_sdp(spec)
            path = emit_sdpa(problem, tmp_path / f"x_{spec.n2}{spec.n3}{spec.d}.dat-s")
            ours = solve(problem, tol=1e-8)
            if name == "csdp":
                out = subprocess.run(
                    [binary, str(path), str(path) + ".sol"],
                    capture_output=True, text=True, timeout=600,
                ).stdout
            else:
                out = subprocess.run(
                    [binary, "-ds", str(path), "-o", str(path) + ".out"],
                    capture_output=True, text=True, timeout=600,
                ).stdout
            primal, dual = parse_sdpa_output(out)
            # emitted objective is negated
            assert abs(-primal - ours.objective) <= 1e-5 * max(1.0, abs(ours.objective))
