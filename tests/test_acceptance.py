"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  The oracle-sandwich criterion covers every spec
with at most 300 words, and the exact oracle must close on each of them
within a deterministic node budget.
"""

import shutil
import subprocess

import numpy as np
import pytest

from mixedsdp.blocks import verify_reduction
from mixedsdp.cli import _doubled, load_reference_rows
from mixedsdp.codes import (
    ProblemSpec,
    ResourceError,
    enumerate_orbits,
    exact_n,
    optimal_code,
)
from mixedsdp.model import build_lp_k2, build_sdp
from mixedsdp.solver import (
    certify,
    emit_sdpa,
    parse_sdpa,
    problem_to_sdpa_data,
    solve,
)
from orbit_reference import block_at, code_indicator_assignment
from sdpa_output import parse_sdpa_output

TOL = 1e-8
ORACLE_NODE_BUDGET = 3_000_000
SLICE_MAX_VARS = 300

# every (n2, n3) with n2, n3 >= 1 and 2^n2 3^n3 <= 300
SANDWICH_FAMILIES = [
    (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1),
    (1, 2), (2, 2), (3, 2), (4, 2), (5, 2),
    (1, 3), (2, 3), (3, 3),
    (1, 4),
]

_solves: dict = {}


def certified_solve(n2: int, n3: int, d: int, k: int) -> tuple[int, int]:
    """The certified bound and the solve's iteration count."""
    key = (n2, n3, d, k)
    if key not in _solves:
        spec = ProblemSpec(n2, n3, d, k)
        problem = build_sdp(spec) if k == 3 else build_lp_k2(spec)
        solution = solve(problem, tol=TOL)
        _solves[key] = certify(problem, solution).value, solution.iterations
    return _solves[key]


def certified_bound(n2: int, n3: int, d: int, k: int) -> int:
    return certified_solve(n2, n3, d, k)[0]


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


def test_criterion_1_table_reproduction():
    """Small published instances certify to the exact published integers at
    the default tol, and the solve stops once the integer is proved.  At
    (1,13,9) an early iterate has a primal value of 53.9 while violating
    a block of small magnitude; the optimum is 50.6."""
    expected = {
        (2, 5, 3): 65,
        (3, 5, 3): 125,
        (8, 1, 3): 59,
        (9, 1, 3): 108,
        (7, 2, 3): 83,
        (10, 2, 4): 212,
        (1, 13, 9): 50,
    }
    for (n2, n3, d), want in expected.items():
        got = certified_bound(n2, n3, d, 3)
        assert got == want, f"({n2},{n3},{d}): certified {got}, published {want}"
    iterations = certified_solve(2, 5, 3, 3)[1]
    assert iterations <= 21, f"(2,5,3): {iterations} iterations"
    report(
        "criterion 1 (table reproduction at small d=3,4,9 instances): PASS "
        + ", ".join(f"({a},{b},{c})->{v}" for (a, b, c), v in expected.items())
    )


def test_criterion_1_published_rows_up_to_300_variables():
    """Every published row without a marker whose problem has at most 300
    variables (the orbits of ``enumerate_orbits``) certifies to its
    published integer at the default settings."""
    rows = [
        r for r in load_reference_rows()
        if r.marker == ""
        and len(enumerate_orbits(ProblemSpec(r.n2, r.n3, r.d))) <= SLICE_MAX_VARS
    ]
    assert len(rows) == 18
    for r in rows:
        got = certified_bound(r.n2, r.n3, r.d, 3)
        assert got == r.upper, f"({r.n2},{r.n3},{r.d}): certified {got}, published {r.upper}"
    report(
        f"criterion 1 (the {len(rows)} published rows of at most "
        f"{SLICE_MAX_VARS} variables): PASS"
    )


def test_criterion_2_doubling_bounds():
    """Doubling inequality reproduces the two derived published bounds."""
    # (2,12,8) from (1,12,8), and (5,3,3) from (4,3,3), as `mixedsdp table`
    # derives them
    by_key = {(r.n2, r.n3, r.d): r for r in load_reference_rows()}
    for key, bound in (((2, 12, 8), 134), ((5, 3, 3), 60)):
        assert _doubled(by_key, by_key[key]) == bound == by_key[key].upper
    report("criterion 2 (doubling-derived bounds 134 and 60): PASS")


def test_criterion_3_d1_exactness():
    """At d=1 the level-3 optimum equals the word count (rel. 1e-7)."""
    checked = 0
    for n2 in range(1, 8):
        for n3 in range(1, 8):
            if n2 + n3 > 8:
                continue
            spec = ProblemSpec(n2, n3, 1)
            problem = build_sdp(spec)
            solution = solve(problem, tol=TOL)
            exact = spec.num_words
            rel = abs(solution.objective - exact) / exact
            assert rel <= 1e-7, f"({n2},{n3},1): objective {solution.objective}, rel {rel:.2e}"
            checked += 1
    assert checked == 28
    report(f"criterion 3 (d=1 exactness on {checked} specs with n2+n3<=8): PASS")


def _sandwich_instances():
    for n2, n3 in SANDWICH_FAMILIES:
        for d in range(1, n2 + n3 + 1):
            yield n2, n3, d


def test_criterion_4_oracle_sandwich():
    """exact_N <= certified k=3 and k=2 bounds on every spec <= 300 words.

    The oracle runs under a deterministic node budget, and every instance
    must close within it, so any newly intractable instance fails loudly.
    """
    unverified = []
    checked = 0
    for n2, n3, d in _sandwich_instances():
        try:
            exact = exact_n(ProblemSpec(n2, n3, d), node_budget=ORACLE_NODE_BUDGET)
        except ResourceError:
            unverified.append((n2, n3, d))
            continue
        b3 = certified_bound(n2, n3, d, 3)
        b2 = certified_bound(n2, n3, d, 2)
        assert exact <= b3, f"({n2},{n3},{d}): exact {exact} > k3 bound {b3}"
        assert exact <= b2, f"({n2},{n3},{d}): exact {exact} > k2 bound {b2}"
        checked += 1
    assert unverified == [], f"oracle-intractable instances: {unverified}"
    report(f"criterion 4 (oracle sandwich on {checked} specs): PASS")


def test_criterion_5_reduction_correctness():
    """Brute-force verification of the reduction on four spec families."""
    for n2, n3 in ((1, 1), (2, 1), (1, 2), (2, 2)):
        for d in range(1, n2 + n3 + 1):
            rep = verify_reduction(ProblemSpec(n2, n3, d))
            assert rep.passed, rep.summary()
    report("criterion 5 (reduction verifier on (1,1),(2,1),(1,2),(2,2), all d): PASS")


def test_criterion_6_code_indicator_feasibility():
    """Averaged indicators of optimal codes are feasible with exact objective."""
    specs = [
        (1, 1, 1), (1, 1, 2), (2, 1, 2), (2, 1, 3), (1, 2, 2),
        (1, 2, 3), (2, 2, 2), (2, 2, 3), (2, 2, 4), (3, 1, 2),
    ]
    for n2, n3, d in specs:
        spec = ProblemSpec(n2, n3, d)
        dstar = optimal_code(spec)
        problem = build_sdp(spec)
        y = np.zeros(problem.num_vars)
        for v, val in code_indicator_assignment(spec, enumerate_orbits(spec), dstar).items():
            y[v] = float(val)
        worst = min(float(np.linalg.eigvalsh(block_at(b, y))[0]) for b in problem.blocks)
        assert worst >= -1e-9, f"({n2},{n3},{d}): min block eigenvalue {worst:.2e}"
        objective = float(sum(c * y[i] for i, c in enumerate(problem.objective)))
        assert abs(objective - len(dstar)) < 1e-9
    report(f"criterion 6 (code-indicator feasibility on {len(specs)} specs): PASS")


def test_criterion_7_hierarchy_monotonicity():
    """Level-3 certified bounds never exceed level-2 bounds."""
    specs = [
        (2, 5, 3), (1, 1, 2), (2, 1, 2), (1, 2, 2), (2, 2, 2),
        (2, 2, 3), (3, 1, 2), (1, 3, 2), (3, 2, 3), (1, 2, 3),
    ]
    for n2, n3, d in specs:
        b3 = certified_bound(n2, n3, d, 3)
        b2 = certified_bound(n2, n3, d, 2)
        assert b3 <= b2, f"({n2},{n3},{d}): k3 {b3} > k2 {b2}"
    report(f"criterion 7 (hierarchy k3 <= k2 on {len(specs)} specs incl. (2,5,3)): PASS")


def _external_solver():
    for name in ("sdpa", "sdpa_gmp", "csdp"):
        binary = shutil.which(name)
        if binary:
            return name, binary
    return None


def test_criterion_8_interchange_round_trip(tmp_path):
    """The SDPA emitter/parser round trip is lossless."""
    for n2, n3, d in ((1, 1, 1), (2, 2, 2), (2, 5, 3)):
        problem = build_sdp(ProblemSpec(n2, n3, d))
        path = emit_sdpa(problem, tmp_path / f"rt_{n2}{n3}{d}.dat-s")
        assert parse_sdpa(path) == problem_to_sdpa_data(problem)
        assert (
            emit_sdpa(problem, tmp_path / "again.dat-s").read_text()
            == path.read_text()
        )
    report("criterion 8a (emitter/parser round trip lossless): PASS")


def test_criterion_8_external_cross_check(tmp_path):
    """Embedded solve agrees with an external SDPA-family solver."""
    found = _external_solver()
    if found is None:
        report("criterion 8b (external cross-check): SKIPPED, no solver installed")
        pytest.skip("no external SDPA-family solver installed")
    name, binary = found
    for n2, n3, d in ((1, 1, 1), (2, 2, 2), (2, 5, 3)):
        problem = build_sdp(ProblemSpec(n2, n3, d))
        path = emit_sdpa(problem, tmp_path / f"xc_{n2}{n3}{d}.dat-s")
        ours = solve(problem, tol=TOL)
        if name == "csdp":
            proc = subprocess.run(
                [binary, str(path), str(path) + ".sol"],
                capture_output=True, text=True, timeout=1200,
            )
        else:
            proc = subprocess.run(
                [binary, "-ds", str(path), "-o", str(path) + ".out"],
                capture_output=True, text=True, timeout=1200,
            )
        primal, _ = parse_sdpa_output(proc.stdout)
        assert abs(-primal - ours.objective) <= 1e-5 * max(1.0, abs(ours.objective))
    report(f"criterion 8b (cross-check against {name}): PASS")
