"""Embedded interior-point solver, certification, and SDPA interchange."""

import dataclasses
import hashlib
import math
import shutil
import subprocess
import tracemalloc

import numpy as np
import pytest

from mixedsdp import solver
from mixedsdp.blocks import Block
from mixedsdp.codes import ProblemSpec, _size_from_counts, enumerate_orbits
from mixedsdp.model import (
    SdpProblem,
    build_lp_k2,
    build_problem,
    build_sdp,
)
from mixedsdp.solver import (
    CertificationError,
    ConditioningError,
    NonConvergenceError,
    SdpaParseError,
    _TRIL_BLOCK,
    _adjoint,
    _apply,
    _nt_scaling,
    _prepare,
    _schur,
    _tril_inverse,
    certify,
    emit_sdpa,
    parse_sdpa,
    problem_to_sdpa_data,
    solve,
)
from sdpa_output import parse_sdpa_output

# SHA-256 of the emitted SDPA files of every problem of tools/sdpa_digests.py,
# pinned so that refactors of the block, model and SDPA layers keep every byte.
EMITTED_DIGESTS = {
    (1, 1, 1, 3): "f9a5936689e35e3f6d53f0a871999971017b3eff03e9a10faa9a0ccd9e5ab1cb",
    (2, 1, 2, 3): "529e00a35047a2d475435a7ff1fe533514ef0d4ee3f018d73f53834f74a2fc64",
    (2, 2, 3, 3): "411ffe2809bb07a4386ab8173b8ae9aa3d970eff73370df78d0c4385d1037b28",
    (2, 5, 3, 3): "e0acca0142c290d2544a0872ed1b380721836b74acd45454feefabf4f2d0b706",
    (2, 5, 3, 2): "fbd381615fb09c47583b16d3ae3b45ecf316b0225ebbfe7fa30beb86bd707339",
    (1, 4, 3, 2): "66039484f01ad38d8f82a7433c988fd34b75e4d2807bb563a8b8610b8a74ffa9",
    (4, 8, 5, 3): "2315eb0fd55a8b8f448ec401104a1763663f7936bcbdca15338df186152595be",
    (3, 5, 3, 3): "d003ee72e452f2a55ea20c15a09348bf6814f164d5f3e4917ddabf32fbfc6622",
    (4, 5, 3, 3): "2cdb08b9970fdfd17c57161acf0f1fbbf8b265ac640f133f1e50d4e589b4a10d",
    (6, 3, 3, 3): "7ce2cd322a15e00682ab616248f843c2870bc2e6d0972c05b39f30b00885edf1",
    (7, 2, 3, 3): "ee741fa915da7c2b4fe8c33e4313184ce92d54d8b26002b65bac06a136a0b165",
    (8, 1, 3, 3): "c47aa1de3cbe6d414c00fbf2a49b32a2f43eab725b97d0e97e1fb633e2341f75",
    (9, 2, 3, 3): "300f6b6953efa28e80eae2c6369bb70e9e51be41ab893bcac6757b2175653d66",
    (10, 1, 3, 3): "5f0e68f9bb6fc2ce3456b0e73f74ec0792f00af10fb08b260fce815bb640df18",
    (2, 6, 4, 3): "a66e474cb696331c6e63d3674995916233b40875b07824bf178e1149ee529105",
    (5, 4, 4, 3): "1a5ed49cd50096b5673dd9e26d68ed9d651aa4b470b97f00921998558dabd1e4",
    (10, 2, 4, 3): "6b427c262e86d43feaab6290929c6591b7fff3ba25e023453d5cd1cb96b885f3",
    (1, 11, 5, 3): "ae24fee0b0e83a4616c4070634084f5eacbe43feb1801b085dff2179772b9263",
    (2, 10, 5, 3): "89dda6cfe268da15d31c889cc62ad5cd7fa0594e34794e55f28b35d811e7ce93",
    (3, 9, 5, 3): "2c38394b9e30d543f9403ccea0ada194470b823bf9717f4fbfbcf6989c51af6e",
    (1, 12, 5, 3): "3177272a3d3e246ef24cdf9408b463aaea1a3320ba88d67fcbef84f978508bc7",
    (3, 3, 3, 3): "c6c3f1a0860b7d55a5b93e2ec680c82cbb78769a535392330766cdf7340ee209",
    (4, 2, 3, 3): "db9fc0368dbc0acb54eeb7b1fe9eaae07756c940ec700fa0a811400d5f3786ba",
    (1, 4, 3, 3): "531f67744b0a06f3e36423516a6bae05931a750578f86e44f9e01ba567c8b2f2",
    (5, 2, 4, 3): "6ccff1914723d9b6010a5a170eea10ece623d035164700df7106e9ecd8068b3b",
    (6, 1, 3, 3): "ca989c6c9d920ed8c364e1f79d829fe951c7424d107598e83ba84e0d802bf1b4",
    (5, 2, 3, 3): "452fb7883695e8d7729baf702b951c8afcfcffe339e32ecce6db76e5eeca0cbe",
    (3, 3, 3, 2): "d30f001d1ee80f3b838920a3c67c5e57d26678308762d9bf55e5c370e5e2e409",
    (4, 2, 3, 2): "e7cf8565d785ca4ce4b4a878152dbcb3dc1edf801a1e4e6a792b89d60e779a06",
    (5, 2, 4, 2): "88d7d77779c75960864c963055beae5583e0bcfc6d1add4cac788bccb73eff5e",
    (6, 1, 3, 2): "b18c4e9a5a6de9dd8595587b34ec4d1491989263b1fd05d363decc4ef9f9ed2a",
    (5, 2, 3, 2): "2e1b14f0008349f3d23229b435d4a6f3734398672e19593a31df1d8bc32ae143",
}


def view_entries(data):
    """The entries of an SDPA view as (matno, blkno, i, j, value) tuples of
    Python numbers, in order."""
    return list(zip(*(c.tolist() for c in (data.matno, data.blkno, data.i, data.j, data.value))))


def toy_problem(objective, blocks):
    return SdpProblem(
        spec=ProblemSpec(1, 1, 1),
        objective=tuple(objective),
        blocks=tuple(blocks),
    )


def correlation_toy():
    """max y s.t. [[1, y], [y, 1]] psd, y >= 0; optimum 1."""
    return toy_problem(
        (1,),
        [Block.from_entries("corr", 2, ((0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)))],
    )


def no_variables():
    """A problem without variables: the constant block I >= 0; optimum 0."""
    return SdpProblem(ProblemSpec(2, 2, 1), (), (Block.from_entries("x", 2, ((0, 0, 0, 1), (0, 1, 1, 1))),))


def box_toy():
    """max y s.t. 1 - y >= 0, y >= 0; optimum 1, as pure LP."""
    return toy_problem(
        (1,),
        [Block.from_entries("ub", 1, ((0, 0, 0, 1), (1, 0, 0, -1)))],
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
        # inf would stop at the starting point, nan would never stop on tol
        for tol in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                solve(correlation_toy(), tol=tol)

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
                entries = tuple((mat, r, c, 2 * v) for mat, r, c, v in b.entries())
                scaled_blocks.append(Block.from_entries(b.label, b.dim, entries))
            else:
                scaled_blocks.append(b)
        p2 = SdpProblem(spec=p.spec, objective=p.objective, blocks=tuple(scaled_blocks))
        assert abs(solve(p2, tol=1e-8).objective - base) < 1e-6 * max(1.0, base)

    def test_variable_removal_never_increases(self):
        p = build_sdp(ProblemSpec(1, 1, 1))
        base = solve(p, tol=1e-8).objective
        sizes = _size_from_counts(enumerate_orbits(p.spec)).tolist()
        drop = next(i for i, size in enumerate(sizes) if size == 3 and p.objective[i] == 0)
        keep = [i for i in range(p.num_vars) if i != drop]
        remap = {old: new for new, old in enumerate(keep)}
        blocks = []
        for b in p.blocks:
            blocks.append(Block.from_entries(b.label, b.dim, tuple(
                (remap[mat - 1] + 1 if mat else 0, i, j, v)
                for mat, i, j, v in b.entries() if mat != drop + 1
            )))
        p2 = SdpProblem(
            spec=p.spec,
            objective=tuple(p.objective[i] for i in keep),
            blocks=tuple(blocks),
        )
        reduced = solve(p2, tol=1e-8).objective
        assert reduced <= base + 1e-6 * max(1.0, base)

    def test_inexact_coefficient_logging(self):
        big = 2 ** 60 + 1  # not representable in a double
        p = toy_problem(
            (1,),
            [Block.from_entries("ub", 1, ((0, 0, 0, big), (1, 0, 0, -big)))],
        )
        s = solve(p, tol=1e-8)
        assert s.inexact_coefficients == 2
        assert abs(s.objective - 1.0) < 1e-6
        # max y s.t. big * [[1, y], [y, 1]] psd: the off-diagonal
        # coefficient is one entry of the upper triangle, counted once
        p = toy_problem(
            (1,),
            [Block.from_entries("corr", 2, ((0, 0, 0, big), (0, 1, 1, big), (1, 0, 1, big)))],
        )
        s = solve(p, tol=1e-8)
        assert s.inexact_coefficients == 3
        assert abs(s.objective - 1.0) < 1e-6

    def test_error_carries_last_iterate(self):
        # a tolerance below this problem's double-precision floor
        problem = build_sdp(ProblemSpec(2, 1, 2))
        with pytest.raises(ConditioningError) as info:
            solve(problem, tol=1e-13)
        solution = info.value.solution
        assert solution.trace
        assert not solution.converged
        assert solution.iterations == len(solution.trace)
        # the scaling that failed names its block by the block's label
        assert any(b.label in str(info.value) for b in problem.blocks if b.dim >= 2)

    @pytest.mark.parametrize("name, patch, message, iterations", [
        ("_schur", lambda m: lambda *args: np.full((m, m), np.nan),
         "Newton system lost finiteness at iteration 1", 1),
        # the predictor's direction, before any step length is taken
        ("_tril_inverse", lambda m: lambda L: np.full_like(L, np.nan),
         "Newton direction lost finiteness at iteration 1", 1),
        ("_max_step", lambda m: lambda d, direction: 1e-9,
         "no progress for 5 iterations (iteration 5)", 5),
    ], ids=["schur-nan", "direction-nan", "no-progress"])
    def test_failure_carries_iterate(self, monkeypatch, name, patch, message, iterations):
        problem = build_sdp(ProblemSpec(2, 5, 3))
        monkeypatch.setattr(solver, name, patch(problem.num_vars))
        with pytest.raises(ConditioningError) as info:
            solve(problem)
        assert str(info.value).startswith(message)
        solution = info.value.solution
        assert not solution.converged
        assert solution.iterations == iterations == len(solution.trace)

    def test_ridges_before_refusal(self, monkeypatch):
        # a negative definite Schur complement fails every ridged Cholesky
        problem = build_sdp(ProblemSpec(2, 5, 3))
        m = problem.num_vars
        monkeypatch.setattr(solver, "_schur", lambda *args: -np.eye(m))
        shapes = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: shapes.append(a.shape) or cholesky(a))
        with pytest.raises(ConditioningError) as info:
            solve(problem)
        assert str(info.value) == "Schur complement not positive definite at iteration 1"
        assert info.value.solution.iterations == 1
        assert not info.value.solution.converged
        assert shapes.count((m, m)) == 6

    def test_ridged_retry_recovers(self, monkeypatch):
        # the first factorisation of B fails; B plus the smallest ridge
        # factors, and the solve goes on to the bound
        problem = build_sdp(ProblemSpec(2, 5, 3))
        m = problem.num_vars
        calls = []
        schur, cholesky = solver._schur, np.linalg.cholesky

        def failing_once(a):
            calls.append(a.shape)
            if calls.count((m, m)) == 1 and a.shape == (m, m):
                raise np.linalg.LinAlgError("patched")
            return cholesky(a)

        monkeypatch.setattr(solver, "_schur", lambda *args: calls.append("B") or schur(*args))
        monkeypatch.setattr(np.linalg, "cholesky", failing_once)
        solution = solve(problem)
        assert certify(problem, solution).value == 65
        per_iteration = []  # the m x m factorisations after each build of B
        for call in calls:
            if call == "B":
                per_iteration.append(0)
            elif call == (m, m):
                per_iteration[-1] += 1
        assert per_iteration == [2] + [1] * (len(per_iteration) - 1)

    def test_unbounded_problem_refused(self):
        # without the augmented empty-case block, the level-2 problem is
        # unbounded: y grows until the objective is no longer finite
        problem = build_problem(ProblemSpec(4, 5, 3, k=2))
        assert problem.blocks[-1].label == "empty:l=(4, 0, 5, 0) +empty"
        unbounded = dataclasses.replace(problem, blocks=problem.blocks[:-1])
        with pytest.raises(ConditioningError) as info:
            solve(unbounded)
        solution = info.value.solution
        assert str(info.value) == f"objective lost finiteness at iteration {solution.iterations}"
        assert solution.iterations == len(solution.trace)
        assert not math.isfinite(solution.trace[-1]["pobj"])
        assert not solution.converged

    def test_non_convergence_names_residuals(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_ITER", 2)
        with pytest.raises(NonConvergenceError) as info:
            solve(build_sdp(ProblemSpec(2, 1, 2)))
        message = str(info.value)
        for name in ("relgap", "pinf", "dinf"):
            assert name in message
        assert info.value.solution.iterations == 2

    def test_iteration_budget(self):
        # the adaptive step to the boundary; a fixed fraction 0.98 of it
        # takes 109 iterations on these five
        total = 0
        for (n2, n3, d), bound in (
            ((2, 5, 3), 65), ((8, 1, 3), 59), ((7, 2, 3), 83),
            ((10, 1, 3), 212), ((2, 6, 4), 61),
        ):
            problem = build_sdp(ProblemSpec(n2, n3, d))
            solution = solve(problem)
            assert certify(problem, solution).value == bound
            total += solution.iterations
        assert total <= 100

    def test_peak_memory(self):
        # one iteration holds the Schur complement B, one slab of its Gram
        # factor and B's Cholesky factor inverted in place: about four m x m
        # matrices with the problem's data, where holding the whole Gram
        # factor, two generations of B and a separate inverse took about nine
        problem = build_sdp(ProblemSpec(3, 5, 3))
        m = problem.num_vars
        tracemalloc.start()
        try:
            solve(problem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * m * m * 8


def random_spd(rng, n, cond):
    """Random symmetric positive definite n x n matrix of condition cond."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.geomspace(1.0, 1.0 / cond, n)) @ q.T


def padded_stack(members, order):
    """The matrices ``members`` as one stack of order ``order``, padded
    with I, and the stack's pad and mask."""
    stack, mask = np.zeros((len(members), order, order)), np.zeros((len(members), order, order))
    for q, mat in enumerate(members):
        stack[q, :len(mat), :len(mat)] = mat
        mask[q, :len(mat), :len(mat)] = 1.0
    pad = np.eye(order) * (1.0 - mask)
    return stack + pad, pad, mask


def member_orders(rng):
    """Five orders from 1 to 13, one of them the largest, so that a stack
    of them pads all but that one."""
    orders = [13, *rng.integers(1, 13, size=4)]
    rng.shuffle(orders)
    return orders


class TestNtScaling:
    @pytest.mark.parametrize("seed", range(9))
    def test_scaled_point_is_diagonal(self, seed):
        # one stack of mixed orders: every member meets the identities of
        # its own scaling, and the padding of G, G^-1 and d is I, I and 1
        rng = np.random.default_rng(seed)
        orders = member_orders(rng)
        cond = (1.0, 1e4, 1e8)[seed % 3]
        S_k = [random_spd(rng, n, cond) for n in orders]
        Z_k = [random_spd(rng, n, cond) for n in orders]
        order = solver._stack_order(max(orders))
        S, pad, mask = padded_stack(S_k, order)
        Z, _, _ = padded_stack(Z_k, order)
        G_k, G_inv_k, d_k = _nt_scaling(S, Z, pad, mask)

        def close(a, b):
            return np.linalg.norm(a - b) <= 1e-9 * np.linalg.norm(b)

        for q, n in enumerate(orders):
            S, Z = S_k[q], Z_k[q]
            G, G_inv, d = G_k[q, :n, :n], G_inv_k[q, :n, :n], d_k[q, :n]
            W = G @ G.T
            assert (d > 0).all()
            assert close(W @ Z @ W, S)
            assert close(G_inv @ S @ G_inv.T, np.diag(d))
            assert close(G.T @ Z @ G, np.diag(d))
            assert close(G_inv @ G, np.eye(n))
            for padded in (G_k[q], G_inv_k[q]):
                assert np.array_equal(padded[n:, n:], np.eye(order - n))
                assert not padded[:n, n:].any() and not padded[n:, :n].any()
            assert (d_k[q, n:] == 1.0).all()

    def test_order_one_stack(self):
        # the elementwise scaling of a stack of order 1 meets the same
        # identities as the factored one
        rng = np.random.default_rng(11)
        S, Z = (np.exp(rng.uniform(-12.0, 12.0, (700, 1, 1))) for _ in range(2))
        G, G_inv, d = _nt_scaling(S, Z, np.zeros(S.shape), np.ones(S.shape))
        assert G.shape == G_inv.shape == S.shape and d.shape == (700, 1)
        W = G @ G.swapaxes(1, 2)
        for got, want in ((W @ Z @ W, S), (G.swapaxes(1, 2) @ Z @ G, d[:, :, None]),
                          (G_inv @ G, np.ones(S.shape))):
            assert np.abs(got / want - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("singular", ["S", "Z"])
    def test_singular_matrix_raises(self, singular):
        mats = {"S": np.eye(3)[None], "Z": np.eye(3)[None]}
        mats[singular] = np.array([[[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]])
        with pytest.raises(ConditioningError, match=singular):
            _nt_scaling(mats["S"], mats["Z"], np.zeros((1, 3, 3)), np.ones((1, 3, 3)))

    @pytest.mark.parametrize("singular", ["S", "Z"])
    def test_failed_stack_names_its_block(self, singular):
        # numpy's error names no member of a stack; the solve's names the
        # block, a padded one amid its stack or a 1x1 block amid the stack
        # of order 1, or else the row y_i >= 0 there
        data = solver._prepare(build_sdp(ProblemSpec(2, 5, 3)))

        def inner(bl):
            return 0 < bl.member < len(data.stacks[bl.stack].f0) - 1

        padded = next(
            bl for bl in data.blocks
            if inner(bl) and 1 < bl.dim < data.stacks[bl.stack].f0.shape[-1]
        )
        scalar = next(bl for bl in data.blocks if inner(bl) and bl.dim == 1)
        row = len(data.stacks[-1].f0) - len(data.b) + 7
        for stack, q, where in (
            (padded.stack, padded.member, f"block {padded.label}"),
            (scalar.stack, scalar.member, f"block {scalar.label}"),
            (-1, row, "row y[7] >= 0"),
        ):
            mats = {name: [np.eye(st.f0.shape[-1]) + 0.0 * st.f0 for st in data.stacks]
                    for name in "SZ"}
            # singular in a block of order 2 or more, negative at order 1
            order = data.stacks[stack].f0.shape[-1]
            mats[singular][stack][q, :2, :2] = 1.0 if order > 1 else -1.0
            x = solver._Iterate(np.zeros(len(data.b)), mats["S"], mats["Z"])
            with pytest.raises(ConditioningError) as info:
                solver._scaling(data, x, 7)
            assert str(info.value) == (
                f"{singular} is not positive definite in {where} at iteration 7"
            )


class TestMaxStep:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_members(self, seed):
        # the stacked step is the least of the members' own eigvalsh steps;
        # every third seed draws definite directions, which take no limit,
        # and the last two a stack of order 1
        rng = np.random.default_rng(seed)
        orders = member_orders(rng) if seed < 6 else [1] * 9
        d_k = [rng.uniform(1e-3, 10.0, n) for n in orders]
        definite = seed % 3 == 0
        directions = [
            random_spd(rng, n, 1e3) if definite else rng.standard_normal((n, n)) for n in orders
        ]
        want = np.inf
        for d, direction in zip(d_k, directions):
            w = direction / np.outer(np.sqrt(d), np.sqrt(d))
            lam = np.linalg.eigvalsh(0.5 * (w + w.T))[0]
            if lam < -1e-14:
                want = min(want, -1.0 / lam)
        order = solver._stack_order(max(orders))
        d = np.ones((len(orders), order))
        for q, dq in enumerate(d_k):
            d[q, :len(dq)] = dq
        direction, pad, _ = padded_stack(directions, order)
        got = solver._max_step(d, direction - pad)
        assert (got == want == np.inf) if definite else got == pytest.approx(want, rel=1e-12)


def dense_sdpa_operators(problem):
    """Dense coefficient matrices of the SDPA view: per PSD block an array
    (m + 1, s, s) with F0 first, and the diagonal block as (n, m + 1)."""
    data = problem_to_sdpa_data(problem)
    m = data.num_vars
    mats = {k: np.zeros((m + 1, abs(s), abs(s))) for k, s in enumerate(data.block_sizes, 1)}
    for matno, blkno, i, j, val in view_entries(data):
        val = -val if matno == 0 else val  # the view holds -F0
        mats[blkno][matno, i - 1, j - 1] = mats[blkno][matno, j - 1, i - 1] = val
    psd = [mats[k] for k, s in enumerate(data.block_sizes, 1) if s > 0]
    diag = [np.diagonal(mats[k], axis1=1, axis2=2).T
            for k, s in enumerate(data.block_sizes, 1) if s < 0]
    return psd, diag[0]


def member_adjoint(st, mats, m):
    """_adjoint of a stack as a (k, m) array, row q the terms of member q."""
    pair_member = np.zeros(len(st.pair_var), dtype=np.int64)
    pair_member[st.pair] = st.pos // st.f0[0].size
    out = np.zeros((len(st.f0), m))
    out[pair_member, st.pair_var] = _adjoint(st, mats)
    return out


class TestSchur:
    """The sparse Gram-form Schur complement and the sparse operators
    A(y) = sum_i y_i F_i and A^T(M) = (<F_i, M>)_i against dense forms."""

    @pytest.mark.parametrize("n2,n3,d,k", [
        (2, 5, 3, 3),  # four slabs of the Gram factor
        (3, 2, 4, 3),  # a 1x1 block of a single entry, on the diagonal of
                       # B with the rows y >= 0; the slab columns of the
                       # other 1x1 blocks open the third slab
        (2, 5, 3, 2),  # level 2: one 2x2 block and 1x1 blocks of several
                       # entries, whose slab columns open the second slab
    ])
    def test_matches_dense_reference(self, n2, n3, d, k):
        problem = build_problem(ProblemSpec(n2, n3, d, k))
        psd, diag = dense_sdpa_operators(problem)
        data = _prepare(problem)
        m = problem.num_vars
        blocks = [bl for bl in data.blocks if bl.dim > 1]
        assert len(blocks) == len(psd)
        # the stack of order 1 is the last: the 1x1 blocks, then the rows
        # y >= 0, in the order of the SDPA view's diagonal block
        ones = data.stacks[-1]
        scalars = [bl for bl in data.blocks if bl.dim == 1]
        assert ones.f0.shape == (len(diag), 1, 1) == (len(scalars) + m, 1, 1)
        assert [(bl.stack, bl.member) for bl in scalars] == [
            (len(data.stacks) - 1, q) for q in range(len(scalars))
        ]
        count = np.bincount(ones.pos, minlength=len(ones.f0))
        assert (count[len(scalars):] == 1).all()
        rng = np.random.default_rng(n2 * 100 + n3 * 10 + d + k)
        y = rng.standard_normal(m)
        # each operator runs once per stack, and is read at each member
        applied = [_apply(st, y) for st in data.stacks]
        mats = [np.zeros(st.f0.shape) for st in data.stacks]
        for bl in blocks:
            mats[bl.stack][bl.member, :bl.dim, :bl.dim] = random_spd(rng, bl.dim, 1e3)
        mats[-1] += rng.random(mats[-1].shape) + 0.5
        adjoints = [member_adjoint(st, M, m) for st, M in zip(data.stacks, mats)]
        ref = np.zeros((m, m))
        inverses = [np.broadcast_to(np.eye(st.f0.shape[-1]), st.f0.shape).copy()
                    for st in data.stacks]
        for bl, full in zip(blocks, psd):
            F = full / bl.gamma
            f0 = data.stacks[bl.stack].f0[bl.member]
            dim = slice(bl.dim)
            assert np.array_equal(F[0], f0[dim, dim])
            assert np.allclose(f0[dim, dim] + applied[bl.stack][bl.member, dim, dim],
                               np.tensordot(y, F[1:], axes=1) + F[0], rtol=0, atol=1e-14)
            # the padding stays zero
            assert np.count_nonzero(applied[bl.stack][bl.member]) == np.count_nonzero(
                applied[bl.stack][bl.member, dim, dim]
            )
            M = mats[bl.stack][bl.member, dim, dim]
            assert np.allclose(adjoints[bl.stack][bl.member], np.tensordot(F[1:], M),
                               rtol=0, atol=1e-14)
            W = random_spd(rng, bl.dim, 1e3)
            w_inv = np.linalg.inv(W)
            # H^T H = W^-1
            inverses[bl.stack][bl.member, dim, dim] = np.linalg.cholesky(w_inv).T
            t = np.einsum("ab,ibc,cd->iad", w_inv, F[1:], w_inv)
            ref += np.einsum("iab,jba->ij", F[1:], t)
        # the order-1 members against the diagonal block's rows, each scaled
        # by its block's gamma, and by 1 for a row y_i >= 0
        gammas = np.array([bl.gamma for bl in scalars] + [1.0] * m)
        rows = diag[:, 1:] / gammas[:, None]
        assert np.array_equal(diag[:, 0] / gammas, ones.f0[:, 0, 0])
        assert np.allclose(applied[-1][:, 0, 0], rows @ y, rtol=0, atol=1e-14)
        z = mats[-1][:, 0, 0]
        assert np.allclose(adjoints[-1], rows * z[:, None], rtol=0, atol=1e-14)
        h = rng.random(len(rows)) + 0.5
        inverses[-1][:, 0, 0] = h
        ref += (rows.T * h ** 4) @ rows
        B = _schur(data, inverses)
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
        work = L.copy()
        X = _tril_inverse(work)
        assert np.shares_memory(X, work)  # inverted in place
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
    values = {(mat, i, j): v for mat, i, j, v in block.entries()}
    key = (var + 1, a, a)
    values[key] = values.get(key, 0) + delta
    entries = tuple(sorted(k + (v,) for k, v in values.items() if v))
    blocks = list(problem.blocks)
    blocks[index] = Block.from_entries(block.label, block.dim, entries)
    return dataclasses.replace(problem, blocks=tuple(blocks))


def second_psd_block(problem):
    """The index of the second block of order 2 or more."""
    return [i for i, b in enumerate(problem.blocks) if b.dim >= 2][1]


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

    def test_other_problem_refused(self, solved_253):
        # the dual point of (2,5,3) at level 3 proves nothing for (2,5,3) at
        # level 2, for (2,4,3) or for (3,5,3), whether or not the solve
        # recorded its certificate
        _, solution = solved_253
        for other in (
            build_problem(ProblemSpec(2, 5, 3, 2)),
            build_sdp(ProblemSpec(2, 4, 3)),
            build_sdp(ProblemSpec(3, 5, 3)),
        ):
            for given in (solution, unrecorded(solution)):
                with pytest.raises(CertificationError, match="cannot prove a bound") as info:
                    certify(other, given)
                assert info.value.solution is given

    def test_recorded_certificate_only_for_its_problem(self, solved_253):
        # a problem of the same shape, even an equal one, gets the check run
        # against it, and a changed coefficient is caught
        problem, solution = solved_253
        rebuilt = build_sdp(ProblemSpec(2, 5, 3))
        bound = certify(rebuilt, solution)
        assert bound == solution.certificate and bound is not solution.certificate
        index = next(i for i, b in enumerate(problem.blocks) if b.dim >= 2)
        bad = with_coefficient(problem, index, 0, 0, 10 ** 6)
        with pytest.raises(CertificationError, match="does not prove") as info:
            certify(bad, solution)
        assert info.value.solution is solution

    def test_unconverged_refused(self, solved_253):
        problem, solution = solved_253
        unconverged = dataclasses.replace(solution, converged=False)
        with pytest.raises(CertificationError, match="unconverged") as info:
            certify(problem, unconverged)
        assert info.value.solution is unconverged

    def test_corrupted_coefficient_refused(self, solved_253):
        problem, solution = solved_253
        index = next(i for i, b in enumerate(problem.blocks) if b.dim >= 2)
        z = solution.z[index]
        a = int(np.argmax(np.diag(z)))
        var = next(
            mat - 1 for mat, i, j, _ in problem.blocks[index].entries() if mat and i == j == a
        )
        # raises <F_var, Z> by at least the slack of var plus 2
        delta = math.ceil((solution.u[var] + 2) / z[a, a])
        bad = with_coefficient(problem, index, var, a, delta)
        rerun = unrecorded(solution)
        with pytest.raises(CertificationError, match="does not prove") as info:
            certify(bad, rerun)
        assert info.value.solution is rerun

    def test_corrupted_dual_entry_refused(self, solved_253):
        problem, solution = solved_253
        z = [zk.copy() for zk in solution.z]
        k = second_psd_block(problem)
        z[k][0, 1] = z[k][1, 0] = 1e3 * np.abs(z[k]).max()
        with pytest.raises(CertificationError, match="does not prove"):
            certify(problem, unrecorded(solution, z=z))

    def test_shift_sign(self, solved_253, monkeypatch):
        # a dual block with a slightly negative eigenvalue: the shift makes
        # it positive definite, and the same shift subtracted cannot
        problem, solution = solved_253
        z = [zk.copy() for zk in solution.z]
        k = second_psd_block(problem)
        lam = np.linalg.eigvalsh(z[k])[0]
        z[k] -= (lam + 1e-9 * np.abs(z[k]).max()) * np.eye(len(z[k]))
        assert certify(problem, unrecorded(solution, z=z)).value == 65
        shift = solver._shift
        monkeypatch.setattr(solver, "_shift", lambda zk: -shift(zk))
        shifted = unrecorded(solution, z=z)
        with pytest.raises(CertificationError, match="not positive definite") as info:
            certify(problem, shifted)
        # the error names the block of z[k], the second PSD block, by its label
        assert f"block {problem.blocks[k].label} is" in str(info.value)
        assert info.value.solution is shifted

    @pytest.mark.parametrize("diagonal", [0.0, -1.0])
    def test_non_positive_dual_diagonal_refused(self, solved_253, diagonal):
        # no diagonal shift makes such a block positive definite, so the
        # shift is zero and the exact check refuses the block as it is
        problem, solution = solved_253
        z = [zk.copy() for zk in solution.z]
        z[0][0, 0] = diagonal
        given = unrecorded(solution, z=z)
        with pytest.raises(CertificationError) as info:
            certify(problem, given)
        assert str(info.value) == (
            "shifted dual block zero:n=(2, 0, 5) lam=[(2),(),(5)] is not positive definite"
        )
        assert info.value.solution is given

    def test_negative_scalar_dual_refused(self, solved_253):
        # a 1x1 block's dual is checked as any block's: a negative one that
        # does not round to zero is refused, and its block named
        problem, solution = solved_253
        k = next(i for i, b in enumerate(problem.blocks) if b.dim == 1)
        z = [zk.copy() for zk in solution.z]
        z[k] = np.array([[-1.0]])
        given = unrecorded(solution, z=z)
        with pytest.raises(CertificationError) as info:
            certify(problem, given)
        assert str(info.value) == (
            f"shifted dual block {problem.blocks[k].label} is not positive definite"
        )
        assert info.value.solution is given

    def test_failed_exact_check_keeps_solving(self, solved_253, monkeypatch):
        # with every exact check failing, the solve records each failure in
        # the trace and runs on to the tolerance test, later than the
        # iterate that proved 65, and certify refuses the uncertified point
        iterations = solved_253[1].iterations
        monkeypatch.setattr(solver, "_positive_definite", lambda a: False)
        problem = build_sdp(ProblemSpec(2, 5, 3))
        solution = solve(problem, tol=1e-8)
        assert solution.converged and solution.certificate is None
        assert solution.iterations > iterations
        checks = [e["exact"] for e in solution.trace if "exact" in e]
        assert checks and all(c is None for c in checks)
        with pytest.raises(CertificationError) as info:
            certify(problem, solution)
        assert str(info.value) == (
            "shifted dual block zero:n=(2, 0, 5) lam=[(2),(),(5)] is not positive definite"
        )
        assert info.value.solution is solution

    def test_solve_and_check_read_the_blocks(self, monkeypatch):
        # neither the solve nor the exact check builds the SDPA view
        def refuse(problem):
            raise AssertionError("the SDPA view was built")

        monkeypatch.setattr(solver, "problem_to_sdpa_data", refuse)
        problem = build_sdp(ProblemSpec(2, 5, 3))
        solution = solve(problem)
        assert certify(problem, solution).value == 65
        assert certify(problem, unrecorded(solution)).value == 65

    def test_penalty_covers_dual_infeasibility(self, solved_253):
        # a scaled-down dual point leaves the slack of the singleton, the one
        # variable with c_i > 0, at about -u_i; the penalty pays for it and
        # the bound still holds
        problem, solution = solved_253
        i = 0  # the singleton
        u, c = solution.u[i], problem.objective[i]
        shrink = 1 - 2 * u / (c + u)
        bound = certify(problem, unrecorded(solution, z=[shrink * zk for zk in solution.z]))
        assert bound.penalty > 0
        assert bound.exact_bound >= solution.objective
        assert bound.value == 65

    def test_problem_without_variables(self):
        # the loop runs as for any problem, and a dual point near zero
        # proves the optimum 0
        problem = no_variables()
        solution = solve(problem)
        assert certify(problem, solution).value == 0
        assert certify(problem, unrecorded(solution)).value == 0

    @pytest.mark.parametrize("n2,n3,d,k", [(1, 1, 1, 3), (1, 1, 1, 2), (2, 2, 2, 3), (2, 2, 2, 2)])
    def test_orbit_variables_at_most_one(self, n2, n3, d, k):
        # the penalty takes y_i <= 1 on every variable; maximise each one
        problem = build_problem(ProblemSpec(n2, n3, d, k))
        for i in range(problem.num_vars):
            objective = tuple(int(j == i) for j in range(problem.num_vars))
            single = dataclasses.replace(problem, objective=objective)
            assert solve(single, tol=1e-8).dual_objective <= 1 + 1e-6


def problem_from_sdpa(data):
    """The problem an SDPA view describes, in the blocks' natural signs: its
    PSD blocks in order, then each row of its diagonal block, except the
    rows y >= 0, as a 1x1 block, each value, a whole double, as its int.
    The labels are the block numbers and the rows."""
    m = data.num_vars
    entries = {}
    for k, size in enumerate(data.block_sizes, 1):
        rows = [0] if size > 0 else range(1, -size - m + 1)
        entries.update(((k, row), []) for row in rows)
    # the view is sorted, so each block's entries come sorted
    for matno, blkno, i, j, val in view_entries(data):
        psd = data.block_sizes[blkno - 1] > 0
        place = entries.get((blkno, 0 if psd else i))
        if place is not None:  # None for a row y >= 0
            i, j = (i - 1, j - 1) if psd else (0, 0)
            place.append((matno, i, j, int(-val if matno == 0 else val)))
    blocks = [
        Block.from_entries(f"{k}:{row}", data.block_sizes[k - 1] if row == 0 else 1, tuple(es))
        for (k, row), es in entries.items()
    ]
    return toy_problem([-c for c in data.objective], blocks)


@pytest.fixture
def parse_text(tmp_path):
    """parse_sdpa of a text, written to a file first."""
    def parse(text):
        path = tmp_path / "text.dat-s"
        path.write_text(text)
        return parse_sdpa(path)
    return parse


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

    def test_round_trip_without_variables(self, tmp_path):
        # the empty objective line is blank, so the entries follow the sizes
        p = no_variables()
        assert parse_sdpa(emit_sdpa(p, tmp_path / "p.dat-s")) == problem_to_sdpa_data(p)

    def test_entry_lines_print_nearest_doubles(self, tmp_path):
        # each entry line is the view's five numbers, the value printed as
        # the repr of its nearest double: above 2**63 (object column), in
        # exponent form, negative, and F0's negated, over several chunks
        values = [2 ** 64 + 1, 10 ** 17 + 1, -(10 ** 16), -3, 7, 1]
        dim = 100
        big = Block.from_entries("big", dim, (
            (matno, i, j, values[(i * dim + j + matno) % len(values)])
            for matno in range(3) for i in range(dim) for j in range(i, dim)
        ))
        ub = Block.from_entries("ub", 1, ((0, 0, 0, 5), (1, 0, 0, -1)))
        problem = toy_problem((1, -2), [big, ub])
        data = problem_to_sdpa_data(problem)
        assert data.value.dtype == object and len(data.matno) > 3 * solver._SDPA_CHUNK
        lines = emit_sdpa(problem, tmp_path / "p.dat-s").read_text().splitlines()
        assert lines[2:6] == ["2", "2", "100 -3", "-1.0 2.0"]
        assert lines[6:] == [
            f"{matno} {blkno} {i} {j} {float(value)!r}"
            for matno, blkno, i, j, value in view_entries(data)
        ]
        printed = {line.split()[-1] for line in lines[6:]}
        assert {"1.8446744073709552e+19", "-1.8446744073709552e+19", "1e+17", "-1e+16",
                "1e+16", "-3.0", "3.0", "-5.0"} <= printed

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
        assert (0, 1, 1, 1, -1.0) in view_entries(data)

    def test_parse_from_text(self, tmp_path):
        # the emitted text, written again with \r\n line ends, reads the same
        p = build_lp_k2(ProblemSpec(1, 1, 2, k=2))
        text = emit_sdpa(p, tmp_path / "k2.dat-s").read_text()
        path = tmp_path / "crlf.dat-s"
        path.write_bytes(text.replace("\n", "\r\n").encode())
        assert parse_sdpa(path) == problem_to_sdpa_data(p)

    @pytest.mark.parametrize(
        "n2,n3,d,k,digest", [(*key, digest) for key, digest in EMITTED_DIGESTS.items()]
    )
    def test_emitted_bytes_pinned(self, tmp_path, n2, n3, d, k, digest):
        problem = build_problem(ProblemSpec(n2, n3, d, k))
        path = emit_sdpa(problem, tmp_path / "p.dat-s")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        assert parse_sdpa(path) == problem_to_sdpa_data(problem)

    @pytest.mark.parametrize("n2,n3,d,k", [(2, 2, 3, 3), (2, 5, 3, 3), (2, 5, 3, 2), (1, 4, 3, 2)])
    def test_view_is_sorted_without_sorting(self, n2, n3, d, k):
        # problem_to_sdpa_data sorts each block's entries by matrix number
        # alone, stably, so it is the sorted view only while every block is
        # sorted
        problem = build_problem(ProblemSpec(n2, n3, d, k))
        for b in problem.blocks:
            assert list(b.entries()) == sorted(b.entries()), b.label
        entries = view_entries(problem_to_sdpa_data(problem))
        assert entries == sorted(entries)

    def test_bad_header_rejected(self, parse_text):
        with pytest.raises(SdpaParseError):
            parse_text("3\n1\n2 2\n1.0 1.0 1.0\n")

    @pytest.mark.parametrize("text, message", [
        ("1\n1\n", "incomplete SDPA header"),
        ('"a comment"\n* another\n1\n\n1\n', "incomplete SDPA header"),
        ("1\nx\n2\n1.0\n", "bad SDPA header: invalid literal for int"),
        ("1\n1\n2.5\n1.0\n", "bad SDPA header: invalid literal for int"),
        ("1\n1\n2\n1.0 x\n", "bad SDPA header: could not convert string to float"),
        ("2\n1\n2\n1.0\n", "variable count 2 does not match objective length 1"),
        ("1\n1\n2\n1.0 2.0\n", "variable count 1 does not match objective length 2"),
    ], ids=["two-lines", "comments-and-blanks", "count", "size", "objective",
            "short-objective", "long-objective"])
    def test_header_refused(self, parse_text, text, message):
        with pytest.raises(SdpaParseError, match=f"^{message}"):
            parse_text(text)

    def test_zero_block_size_rejected(self, parse_text):
        # a block of size 0 is a bad header, not a missing block
        with pytest.raises(SdpaParseError, match=r"bad SDPA header: block size 0 in \(0, 2\)"):
            parse_text("1\n2\n0 2\n1.0\n1 2 1 1 3.0\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_objective_rejected(self, parse_text, value):
        with pytest.raises(
            SdpaParseError, match=f"bad SDPA header: non-finite objective in '1.0 {value}'"
        ):
            parse_text(f"2\n1\n2\n1.0 {value}\n1 1 1 1 1.0\n")

    def test_bad_entry_rejected(self, parse_text):
        with pytest.raises(SdpaParseError):
            parse_text("1\n1\n2\n1.0\n0 1 1\n")

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
        ("1 1 1 1 nan", "non-finite value"),
        ("1 1 1 1 inf", "non-finite value"),
        ("1 1 1 1 -Infinity", "non-finite value"),
    ])
    def test_entry_outside_blocks_rejected(self, parse_text, entry, fault):
        text = "1\n2\n2 -3\n1.0\n1 1 1 2 1.0\n1 2 3 3 1.0\n"
        assert view_entries(parse_text(text)) == [(1, 1, 1, 2, 1.0), (1, 2, 3, 3, 1.0)]
        with pytest.raises(SdpaParseError, match=f"{fault}: '{entry}'"):
            parse_text(text + entry + "\n")

    def test_entry_stored_in_upper_triangle(self, parse_text):
        head = "1\n1\n2\n1.0\n"
        assert parse_text(head + "1 1 2 1 3.0\n") == parse_text(head + "1 1 1 2 3.0\n")
        assert view_entries(parse_text(head + "1 1 2 1 3.0\n")) == [(1, 1, 1, 2, 3.0)]

    @pytest.mark.parametrize("second", ["1 1 1 2 4.0", "1 1 2 1 3.0"])
    def test_repeated_position_rejected(self, tmp_path, parse_text, second):
        text = "1\n1\n2\n1.0\n1 1 1 2 3.0\n" + second + "\n"
        message = f"repeated position \\(1, 2\\) of matrix 1 in block 1: '{second}'"
        with pytest.raises(SdpaParseError, match=message):
            parse_text(text)
        # with another line between and a later repeat too, the error names
        # the first line that repeats a position, without its newline
        path = tmp_path / "p.dat-s"
        path.write_text(text.replace(second, "1 1 2 2 1.0\n" + second) + "1 1 2 2 5.0\n")
        with pytest.raises(SdpaParseError, match=message + "$"):
            parse_sdpa(path)

    @pytest.fixture(scope="class")
    def problem_2105(self):
        return build_problem(ProblemSpec(2, 10, 5))

    @pytest.mark.parametrize("direction", ["emit", "parse"])
    def test_streaming_peak_bytes(self, tmp_path, problem_2105, direction):
        # the writer holds the view's five columns, their order, one byte
        # table per index column and one chunk of lines as bytes, the reader
        # one list per column, whose equal numbers share an object, and then
        # the columns: neither holds the file's text (1.0 MB here), its
        # lines, a sorted copy or a map of its positions.  They take 56
        # (writer) and 62 (reader) bytes an entry; one f-string per line took
        # 62, tuples per entry 98 and 95, the text and a map of positions 205
        # and 262
        entries = len(problem_to_sdpa_data(problem_2105).matno)
        path = emit_sdpa(problem_2105, tmp_path / "p.dat-s")
        tracemalloc.start()
        try:
            if direction == "emit":
                emit_sdpa(problem_2105, path)
            else:
                parse_sdpa(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 75 * entries

    def test_built_problem_bytes(self):
        # a block holds four int64 columns, 32 bytes an entry with the
        # arrays' headers; one tuple per entry held 87 bytes an SDPA entry
        tracemalloc.start()
        try:
            problem = build_problem(ProblemSpec(2, 10, 5))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= 50 * len(problem_to_sdpa_data(problem).matno)

    @pytest.mark.parametrize("n2,n3,d,k", [
        (1, 1, 1, 3), (2, 1, 2, 3), (2, 2, 3, 3), (2, 5, 3, 3), (2, 5, 3, 2), (1, 4, 3, 2),
    ])
    def test_emitted_and_solved_floats_identical(self, tmp_path, n2, n3, d, k):
        # the writer and the solver each take the nearest double of the
        # exact values, so the file describes the problem the solver solves:
        # the problem rebuilt from the file gives the solver the same arrays
        problem = build_problem(ProblemSpec(n2, n3, d, k))
        path = emit_sdpa(problem, tmp_path / "p.dat-s")

        def arrays(problem):
            data = _prepare(problem)
            assert data.inexact == 0
            # the file keeps each block's place among the blocks of its
            # stack, not among all blocks
            blocks = sorted(data.blocks, key=lambda bl: (bl.stack, bl.member))
            grams = sorted(data.grams, key=lambda g: (g.block.stack, g.block.member))
            fields = [
                getattr(x, f.name) for x in [*blocks, *grams, *data.stacks]
                for f in dataclasses.fields(x) if f.name not in ("label", "block")
            ]
            return [np.asarray(a) for a in [data.b, *fields]]

        solved = arrays(problem)
        emitted = arrays(problem_from_sdpa(parse_sdpa(path)))
        assert len(solved) == len(emitted)
        for a, e in zip(solved, emitted):
            assert (a.dtype, a.shape, a.tobytes()) == (e.dtype, e.shape, e.tobytes())

    def test_inexact_value_does_not_round_trip(self, tmp_path):
        big = 2 ** 60 + 1  # not representable in a double
        p = toy_problem((1,), [Block.from_entries("ub", 1, ((0, 0, 0, big), (1, 0, 0, -big)))])
        parsed = parse_sdpa(emit_sdpa(p, tmp_path / "big.dat-s"))
        assert parsed != problem_to_sdpa_data(p)
        assert _prepare(problem_from_sdpa(parsed)).inexact == 0
        assert solve(p, tol=1e-8).inexact_coefficients == 2


class TestDtypeEdges:
    """Exactness where numpy would compare int64 with float64 by rounding
    the int: 2**53 + 1 and 2**53 are equal as doubles."""

    def test_inexact_count_at_the_double_boundary(self):
        for value, inexact in (
            (2 ** 53, 0), (2 ** 53 + 1, 1), (-(2 ** 53 + 1), 1),
            (2 ** 62 + 2 ** 10, 0), (2 ** 62 + 2 ** 9, 1),
        ):
            block = Block.from_entries("ub", 1, ((0, 0, 0, value), (1, 0, 0, -1)))
            assert block.value.dtype == np.int64
            assert _prepare(toy_problem((1,), [block])).inexact == inexact, value

    def test_parsed_double_differs_from_exact_int(self, tmp_path):
        def views(value):
            block = Block.from_entries("ub", 1, ((0, 0, 0, value), (1, 0, 0, -1)))
            problem = toy_problem((1,), [block])
            return parse_sdpa(emit_sdpa(problem, tmp_path / "p.dat-s")), problem_to_sdpa_data(problem)

        parsed, exact = views(2 ** 53 + 1)
        assert (parsed.value.dtype, exact.value.dtype) == (np.float64, np.int64)
        assert np.array_equal(parsed.value, exact.value)  # numpy rounds the int
        assert parsed != exact and exact != parsed
        parsed, exact = views(2 ** 53)
        assert parsed == exact and exact == parsed

    def test_value_above_int64_written_and_certified_exactly(self, tmp_path):
        # max big * y s.t. big - big * y >= 0, y >= 0: big is no double, and
        # its nearest one is 2**64 + 2**12
        big = 2 ** 64 + 2 ** 11 + 1
        block = Block.from_entries("ub", 1, ((0, 0, 0, big), (1, 0, 0, -big)))
        assert block.value.dtype == object
        problem = toy_problem((big,), [block])
        lines = emit_sdpa(problem, tmp_path / "big.dat-s").read_text().splitlines()
        assert lines[-3:-1] == [f"0 1 1 1 {float(-big)!r}", f"1 1 1 1 {float(-big)!r}"]
        assert float(-big) == -(2 ** 64 + 2 ** 12)
        solution = solve(problem, tol=1e-8)
        assert solution.inexact_coefficients == 3
        bound = certify(problem, solution)
        # D = big w and the slack of y is -big + big w, each taken exactly
        scaled = bound.exact_bound * 2 ** 60
        assert scaled.denominator == 1 and scaled.numerator % big == 0
        assert bound.value >= big


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
        # a solver's output, not a malformed SDPA file
        with pytest.raises(ValueError, match="missing objective values") as info:
            parse_sdpa_output("objValPrimal = 6.5e+01\n")
        assert info.type is ValueError


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
