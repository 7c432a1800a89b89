"""The benchmark's workloads: seeded instance lists over the public mixedsdp
API, and the wrappers that trace the layer calls made inside ``build_sdp``
and ``build_lp_k2``.

Import this module only after the BLAS thread count is pinned and the
checkout's ``src`` directory is on ``sys.path``.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from functools import wraps
from pathlib import Path

from mixedsdp import (
    ProblemSpec,
    build_lp_k2,
    build_sdp,
    certify,
    emit_sdpa,
    exact_n,
    model,
    solve,
)
from mixedsdp.blocks import verify_reduction
from mixedsdp.cli import load_reference_rows
from mixedsdp.codes import ResourceError
from mixedsdp.solver import ConditioningError, parse_sdpa, problem_to_sdpa_data

from harness import Instance, Tracer, known_limit

TOL = 1e-8  # the default of `mixedsdp bound` and `mixedsdp table`
# Enough for every oracle instance but (5,2,3) to close: (6,1,3) needs
# between 600k and 700k nodes.
ORACLE_NODE_BUDGET = 1_000_000

# Published level-3 bounds (the packaged table must agree).
SDP_TABLE = {
    (2, 5, 3): 65, (3, 5, 3): 125, (4, 5, 3): 238, (6, 3, 3): 118,
    (7, 2, 3): 83, (8, 1, 3): 59, (9, 2, 3): 292, (10, 1, 3): 212,
    (2, 6, 4): 61, (5, 4, 4): 59, (10, 2, 4): 212,
}
# Documented limits of the program, as (error class, reason).  Each is caught
# only around the one call that hits it: here the level-3 solve.
SDP_TABLE_LIMITS = {
    (10, 2, 4): (
        ConditioningError,
        "known limit: ill-conditioned at the default tol (README, numerical notes)",
    ),
}
# Published bounds that the level-2 bound must not undercut.
EXACT_BUILD = {
    (1, 11, 5): 1138, (2, 10, 5): 849, (3, 9, 5): 601, (4, 8, 5): 420,
    (1, 12, 5): 2927,
}
ORACLE_SANDWICH = ((3, 3, 3), (4, 2, 3), (1, 4, 3), (5, 2, 4), (6, 1, 3), (5, 2, 3))
# Here exact_n.
ORACLE_LIMITS = {
    (5, 2, 3): (
        ResourceError,
        "known limit: the oracle cannot close under the budget (acceptance xfail)",
    ),
}
VERIFY_FAMILY = (2, 2)

COLD_SPEC = (2, 5, 3)
COLD_VALUE = 65

# Layer functions as model binds them: (attribute, span name, counts of the result).
_MODEL_CALLS = (
    ("enumerate_orbits", "codes.enumerate_orbits", lambda t: {"orbits": len(t)}),
    ("build_shape_index_d0", "tableaux.build_shape_index_d0",
     lambda shapes: {"columns": sum(len(s.admissible) for s in shapes)}),
    ("build_shape_index_empty", "tableaux.build_shape_index_empty",
     lambda shapes: {"columns": len(shapes)}),
    ("build_blocks_d0", "blocks.build_blocks_d0", None),
    ("build_blocks_empty", "blocks.build_blocks_empty", None),
)


@contextmanager
def traced_model(tr: Tracer):
    """Wrap the layer calls that model makes, for the length of the block."""
    saved = {attr: getattr(model, attr) for attr, _, _ in _MODEL_CALLS}

    def wrap(fn, name, counts):
        @wraps(fn)
        def traced(*args, **kwargs):
            with tr.span(name) as sp:
                result = fn(*args, **kwargs)
            if counts is not None:
                tr.note(sp, lambda: counts(result))
            return result
        return traced

    for attr, name, counts in _MODEL_CALLS:
        setattr(model, attr, wrap(saved[attr], name, counts))
    try:
        yield
    finally:
        for attr, fn in saved.items():
            setattr(model, attr, fn)


def _problem_counts(problem) -> dict:
    entries = 0
    for b in problem.blocks:
        for mat in b.coeff.values():
            entries += sum(1 for i, row in enumerate(mat) for v in row[i:] if v)
    return {
        "vars": problem.num_vars,
        "psd_dim2": sum(b.dim * b.dim for b in problem.blocks if b.dim >= 2),
        "coeff_entries": entries,
    }


def build(tr: Tracer, spec: ProblemSpec):
    fn = build_sdp if spec.k == 3 else build_lp_k2
    with tr.span(f"model.{fn.__name__}") as sp:
        problem = fn(spec)
    tr.note(sp, lambda: _problem_counts(problem))
    return problem


def certified_bound(tr: Tracer, spec: ProblemSpec, limit=None) -> int:
    """build, solve and certify, as ``mixedsdp bound`` does.  ``limit``
    guards the solve (see ``harness.known_limit``)."""
    problem = build(tr, spec)
    with known_limit(limit), tr.span("solver.solve") as sp:
        solution = solve(problem, tol=TOL)
    tr.note(sp, lambda: {
        "iterations": solution.iterations,
        "inexact": solution.inexact_coefficients,
    })
    with tr.span("solver.certify"):
        return certify(problem, solution).value


def _label(key) -> str:
    return "(" + ",".join(map(str, key)) + ")"


def _packaged_mismatches(published: dict, rows) -> list[str]:
    upper = {(r.n2, r.n3, r.d): r.upper for r in rows}
    return [
        f"{_label(key)} published {want}, packaged {upper.get(key)}"
        for key, want in published.items()
        if upper.get(key) != want
    ]


def sdp_table() -> list[Instance]:
    def make(key, want):
        def check(value):
            if value != want:
                return f"certified {value}, published {want}"
            return None
        return Instance(
            f"bound{_label(key)}",
            lambda tr: certified_bound(tr, ProblemSpec(*key), SDP_TABLE_LIMITS.get(key)),
            check,
        )
    return [make(key, want) for key, want in SDP_TABLE.items()]


def exact_build(out_dir: Path) -> list[Instance]:
    def make(key, upper):
        path = out_dir / f"{'-'.join(map(str, key))}.dat-s"

        def run(tr):
            problem = build(tr, ProblemSpec(*key))
            with tr.span("solver.emit_sdpa") as sp:
                emit_sdpa(problem, path)
            tr.note(sp, lambda: {"bytes": path.stat().st_size})
            return problem, certified_bound(tr, ProblemSpec(*key, k=2))

        def check(output):
            problem, k2 = output
            try:
                if parse_sdpa(path) != problem_to_sdpa_data(problem):
                    return "SDPA file does not parse back to the problem"
            finally:
                path.unlink()
            if k2 < upper:
                return f"level-2 bound {k2} below published {upper}"
            return None

        return Instance(f"emit+k2{_label(key)}", run, check)
    return [make(key, upper) for key, upper in EXACT_BUILD.items()]


def oracle_sandwich() -> list[Instance]:
    def make_sandwich(key):
        def run(tr):
            k3 = certified_bound(tr, ProblemSpec(*key))
            k2 = certified_bound(tr, ProblemSpec(*key, k=2))
            with known_limit(ORACLE_LIMITS.get(key)), tr.span("codes.exact_n"):
                exact = exact_n(ProblemSpec(*key), node_budget=ORACLE_NODE_BUDGET)
            return exact, k3, k2

        def check(output):
            exact, k3, k2 = output
            if not exact <= k3 <= k2:
                return f"exact {exact}, k3 {k3}, k2 {k2} violate exact <= k3 <= k2"
            return None

        return Instance(f"sandwich{_label(key)}", run, check)

    def make_verify(d):
        spec = ProblemSpec(*VERIFY_FAMILY, d)

        def run(tr):
            with tr.span("blocks.verify_reduction"):
                return verify_reduction(spec)

        return Instance(
            f"verify{_label((*VERIFY_FAMILY, d))}",
            run,
            lambda report: None if report.passed else report.first_failure(),
        )

    return [make_sandwich(key) for key in ORACLE_SANDWICH] + [
        make_verify(d) for d in range(1, sum(VERIFY_FAMILY) + 1)
    ]


def setup(tr: Tracer, workload: str, seed: int, out_dir: Path):
    """Load the packaged table and build the seeded instance order.  Returns
    the instances and any disagreement between the packaged table and the
    bounds pinned here."""
    with tr.span("cli.load_reference_rows"):
        rows = load_reference_rows()
    if workload == "sdp-table":
        instances, pinned = sdp_table(), SDP_TABLE
    elif workload == "exact-oracle":
        instances, pinned = exact_build(out_dir) + oracle_sandwich(), EXACT_BUILD
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # blocks caches tableau-pair polynomials for the whole process, so the
    # order decides which build pays the cache misses
    random.Random(seed).shuffle(instances)
    return instances, _packaged_mismatches(pinned, rows)


def cold_bound() -> int:
    return certified_bound(Tracer(enabled=False), ProblemSpec(*COLD_SPEC))
