"""Command-line front end: compute certified bounds, run the exact oracle
and the reduction verifier, emit SDPA files, and reproduce slices of the
published bound table.

Exit codes: 0 success, 2 argument validation error or a file that cannot
be read or written, 3 solver failure, 4 verification or table mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from mixedsdp.blocks import verify_reduction
from mixedsdp.codes import ProblemSpec, ResourceError, exact_n
from mixedsdp.model import build_problem, derived_doubling_bound
from mixedsdp.solver import SolverError, certify, emit_sdpa, solve

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4

DEFAULT_STORE = "mixedsdp_results.jsonl"
STORE_ENV = "MIXEDSDP_STORE"


@dataclass(frozen=True)
class ReferenceRow:
    n2: int
    n3: int
    d: int
    lower: int | None
    upper: int
    prev: int | None
    marker: str

    @property
    def length(self) -> int:
        return self.n2 + self.n3


def load_reference_rows() -> list[ReferenceRow]:
    """The packaged table of published bounds."""
    text = resources.files("mixedsdp").joinpath("data/reference_bounds.json").read_text()
    doc = json.loads(text)
    return [ReferenceRow(**row) for row in doc["rows"]]


class ResultsStore:
    """Append-only JSON-lines store of bound records keyed by (n2,n3,d,k)."""

    KEYS = ("n2", "n3", "d", "k", "bound")

    def __init__(self, path: str | os.PathLike | None = None):
        if path is None:
            path = os.environ.get(STORE_ENV, DEFAULT_STORE)
        self.path = Path(path)

    def append(self, record: dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    def records(self) -> list[dict]:
        """Every record in file order; a line that is not a JSON object with
        integer ``KEYS`` raises ``ValueError`` naming its path and line."""
        if not self.path.exists():
            return []
        out = []
        for number, line in enumerate(self.path.read_text().splitlines(), start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{self.path}:{number}: not a JSON record: {exc}") from None
            if not isinstance(rec, dict) or any(
                type(rec.get(key)) is not int for key in self.KEYS
            ):
                raise ValueError(
                    f"{self.path}:{number}: not a bound record with integer "
                    f"{', '.join(self.KEYS)}"
                )
            out.append(rec)
        return out

    def latest_records(self) -> dict[tuple, dict]:
        """The last record of each (n2, n3, d, k), from one read of the store."""
        return {
            (rec["n2"], rec["n3"], rec["d"], rec["k"]): rec
            for rec in self.records()
        }


def _compute_bound(n2: int, n3: int, d: int, k: int, tol: float, max_iter: int = 500):
    problem = build_problem(ProblemSpec(n2, n3, d, k))
    solution = solve(problem, tol=tol, max_iter=max_iter)
    bound = certify(problem, solution)
    record = {
        "n2": n2, "n3": n3, "d": d, "k": k,
        "objective": solution.objective,
        "dualObjective": solution.dual_objective,
        "bound": bound.value,
        "exactBound": float(bound.exact_bound),
        "penalty": float(bound.penalty),
        "gap": solution.gap,
        "iterations": solution.iterations,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    return record


def cmd_bound(args) -> int:
    record = _compute_bound(args.n2, args.n3, args.d, args.k, args.tol, args.max_iter)
    ResultsStore(args.store).append(record)
    margin = record["bound"] + 1 - record["exactBound"]
    print(
        f"N({args.n2},{args.n3},{args.d}) <= {record['bound']}  "
        f"[k={args.k}, objective {record['objective']:.9g}, "
        f"exact bound {record['exactBound']:.9g}, margin {margin:.2e}]"
    )
    return EXIT_OK


def cmd_oracle(args) -> int:
    value = exact_n(ProblemSpec(args.n2, args.n3, args.d))
    print(f"N({args.n2},{args.n3},{args.d}) = {value}  [exact clique search]")
    return EXIT_OK


def cmd_verify(args) -> int:
    dvals = [args.d] if args.d is not None else range(1, args.n2 + args.n3 + 1)
    failures = 0
    for d in dvals:
        report = verify_reduction(ProblemSpec(args.n2, args.n3, d))
        print(report.summary())
        if not report.passed:
            failures += 1
            print(f"first discrepancy: {report.first_failure()}")
    return EXIT_VERIFY if failures else EXIT_OK


def cmd_emit(args) -> int:
    problem = build_problem(ProblemSpec(args.n2, args.n3, args.d, args.k))
    print(f"emitted {emit_sdpa(problem, args.path)}")
    return EXIT_OK


def _table_worker(task):
    n2, n3, d, tol = task
    try:
        return (n2, n3, d), _compute_bound(n2, n3, d, 3, tol)
    except SolverError as exc:
        return (n2, n3, d), {"error": f"{type(exc).__name__}: {exc}"}


def _doubled(by_key: dict, row: ReferenceRow) -> int | None:
    """The doubling bound on ``row`` from the published bound of
    (n2 - 1, n3, d), or None when that row is missing or itself doubled."""
    src = by_key.get((row.n2 - 1, row.n3, row.d))
    if src is None or src.marker == "doubling":
        return None
    return derived_doubling_bound(src.upper)


def cmd_table(args) -> int:
    if args.d is not None and args.d < 1:
        raise ValueError(f"need d >= 1, got d={args.d}")
    if args.jobs < 1:
        raise ValueError(f"need --jobs >= 1, got --jobs={args.jobs}")
    if not 0 < args.tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got tol={args.tol}")
    all_rows = load_reference_rows()
    by_key = {(r.n2, r.n3, r.d): r for r in all_rows}
    rows = [r for r in all_rows if args.d is None or r.d == args.d]

    if args.derived:
        print(f"{'n2':>3} {'n3':>3} {'d':>3} {'doubled':>9} {'published':>9}  note")
        for r in rows:
            derived = _doubled(by_key, r)
            if derived is None:
                continue
            note = "match" if derived == r.upper else (
                "improves" if derived < r.upper else "weaker"
            )
            print(f"{r.n2:>3} {r.n3:>3} {r.d:>3} {derived:>9} {r.upper:>9}  {note}")
        return EXIT_OK

    rows = [r for r in rows if r.length <= args.max_length]
    store = ResultsStore(args.store)
    # the level-3 record of each (n2, n3, d): the store's latest, or solved now
    if args.replay:
        records = {key[:3]: rec for key, rec in store.latest_records().items() if key[3] == 3}
    else:
        todo = [(r.n2, r.n3, r.d, args.tol) for r in rows if r.marker == ""]
        if args.jobs > 1 and todo:
            # imported here: the pool pulls in multiprocessing, which no other
            # command needs
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                records = dict(pool.map(_table_worker, todo))
        else:
            records = dict(map(_table_worker, todo))

    print(f"{'n2':>3} {'n3':>3} {'d':>3} {'lower':>7} {'computed':>9} {'published':>9}  status")
    mismatches = failures = 0
    for r in rows:
        rec = records.get((r.n2, r.n3, r.d))
        if r.marker == "k4":
            value, status = "-", "level-4 bound, not computed"
        elif r.marker == "doubling":
            value = _doubled(by_key, r)
            if value is None:
                continue
            status = "match (doubling)" if value == r.upper else "MISMATCH (doubling)"
        elif rec is None:  # only under --replay: every other row was solved
            value, status = "-", "not in store"
        elif "error" in rec:
            failures += 1
            value, status = "!", rec["error"]
        else:
            if not args.replay:
                store.append(rec)
            value = rec["bound"]
            status = "match" if value == r.upper else (
                "improves" if value < r.upper else "MISMATCH"
            )
        mismatches += status.startswith("MISMATCH")
        print(f"{r.n2:>3} {r.n3:>3} {r.d:>3} {r.lower or '':>7} {value:>9} {r.upper:>9}  {status}")
    if failures:
        return EXIT_SOLVER
    return EXIT_VERIFY if mismatches else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedsdp",
        description="Certified SDP upper bounds for mixed binary/ternary codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="compute a certified upper bound")
    p.add_argument("n2", type=int)
    p.add_argument("n3", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--k", type=int, choices=(2, 3), default=3)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--store", help=f"results store path (default ${STORE_ENV} or {DEFAULT_STORE})")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("oracle", help="exact maximum code size by clique search")
    p.add_argument("n2", type=int)
    p.add_argument("n3", type=int)
    p.add_argument("d", type=int)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="brute-force check of the reduction engine")
    p.add_argument("n2", type=int)
    p.add_argument("n3", type=int)
    p.add_argument("--d", type=int, help="single distance (default: all)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="compare computed bounds against the published table")
    p.add_argument("--d", type=int)
    p.add_argument("--max-length", type=int, default=9)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--replay", action="store_true", help="read bounds from the store instead of solving")
    p.add_argument("--derived", action="store_true", help="list doubling-derived bounds")
    p.add_argument("--store", help="results store path")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("emit", help="write the problem in SDPA sparse format")
    p.add_argument("n2", type=int)
    p.add_argument("n3", type=int)
    p.add_argument("d", type=int)
    p.add_argument("path")
    p.add_argument("--k", type=int, choices=(2, 3), default=3)
    p.set_defaults(func=cmd_emit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ResourceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if exc.solution is not None:
            last = exc.solution.trace[-1]
            fields = (f"{key} {last[key]:.9g}" for key in ("pobj", "dobj", "relgap", "pinf", "dinf"))
            print(f"last iterate: iteration {exc.solution.iterations}", *fields, sep=", ",
                  file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
