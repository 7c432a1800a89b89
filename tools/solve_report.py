"""Print the certified bound, its exact value and the iteration count of
each problem's solve.

Run it on two checkouts and compare the outputs to show how a solver change
moves the results, problem by problem:

    PYTHONPATH=/path/to/base/src python tools/solve_report.py > before.txt
    PYTHONPATH=src python tools/solve_report.py > after.txt
    diff before.txt after.txt

Problems are given as ``n2,n3,d,k`` arguments, and ``--tol T`` sets the
solver tolerance (default 1e-8, that of ``mixedsdp bound``).  Without
arguments it covers the problems of ``sdpa_digests.py`` and then every spec
of the acceptance suite's oracle sandwich (``SANDWICH_FAMILIES`` in
``tests/test_acceptance.py``, every d) at levels 3 and 2, so that a solver
regression on one of them shows by name.  The level-3 solves of d=5 take
most of the time.  Each line is
``n2,n3,d,k bound exact_bound iterations trace``, the exact bound a
reduced fraction, so two outputs compare the certificates exactly and not
only their floors, and ``trace`` the first 16 hex digits of the SHA-256 of
the ``repr`` of ``Solution.trace``, so they compare every float of every
iterate; or, when the solve or the certificate fails, ``n2,n3,d,k``
and the error class.  The last line,
``iterations N``, sums the iterations of the certified solves.

The BLAS thread count is pinned to 1 (``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS``, ``MKL_NUM_THREADS``) before numpy is imported, as in
``perfbench/run.py``: the rounding of a threaded BLAS moves the iteration
counts of degenerate problems, so two outputs compare only at one count.
"""

import hashlib
import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

from sdpa_digests import DEFAULT  # noqa: E402

from mixedsdp.codes import ProblemSpec  # noqa: E402
from mixedsdp.model import build_problem  # noqa: E402
from mixedsdp.solver import SolverError, certify, solve  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_acceptance import SANDWICH_FAMILIES  # noqa: E402

SANDWICH = tuple(
    (n2, n3, d, k)
    for n2, n3 in SANDWICH_FAMILIES
    for d in range(1, n2 + n3 + 1)
    for k in (3, 2)
)


def main(argv: list[str]) -> None:
    tol = 1e-8
    if argv[:1] == ["--tol"]:
        tol, argv = float(argv[1]), argv[2:]
    keys = [tuple(int(t) for t in a.split(",")) for a in argv]
    keys = keys or list(dict.fromkeys(DEFAULT + SANDWICH))
    total = 0
    for key in keys:
        problem = build_problem(ProblemSpec(*key))
        label = ",".join(map(str, key))
        try:
            solution = solve(problem, tol=tol)
            bound = certify(problem, solution)
            digest = hashlib.sha256(repr(solution.trace).encode()).hexdigest()[:16]
            print(label, bound.value, bound.exact_bound, solution.iterations, digest, flush=True)
            total += solution.iterations
        except SolverError as exc:
            print(label, type(exc).__name__, flush=True)
    print("iterations", total)


if __name__ == "__main__":
    main(sys.argv[1:])
