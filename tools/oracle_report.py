"""Print the exact oracle's value of each spec and the number of search nodes
it takes.

Run it on two checkouts and compare the outputs to show how an oracle change
moves the values and the search effort, spec by spec:

    PYTHONPATH=/path/to/base/src python tools/oracle_report.py > before.txt
    PYTHONPATH=src python tools/oracle_report.py > after.txt
    diff before.txt after.txt

Specs are given as ``n2,n3,d`` arguments.  Without arguments it covers every
spec of the acceptance suite's oracle sandwich (``SANDWICH_FAMILIES`` in
``tests/test_acceptance.py``, every d).  Each line is ``n2,n3,d value
nodes``.  The node count is the least node budget that closes the spec,
found by doubling the budget and then bisecting: the search completes at its
own node count and raises one node short of it.  A spec that no budget up to
``MAX_BUDGET`` closes prints ``n2,n3,d ResourceError``.  The last line is
``total nodes N over K specs``, the sum over the K specs that closed.
"""

import sys
from pathlib import Path

from mixedsdp.codes import ProblemSpec, ResourceError, exact_n

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_acceptance import SANDWICH_FAMILIES  # noqa: E402

MAX_BUDGET = 3_000_000
SANDWICH = tuple(
    (n2, n3, d) for n2, n3 in SANDWICH_FAMILIES for d in range(1, n2 + n3 + 1)
)


def value_under(spec: ProblemSpec, budget: int) -> int | None:
    """The oracle's value of ``spec`` within ``budget`` nodes, or None."""
    try:
        return exact_n(spec, node_budget=budget)
    except ResourceError:
        return None


def value_and_nodes(spec: ProblemSpec) -> tuple[int, int] | None:
    """The oracle's value of ``spec`` and the least node budget that closes
    it, or None past ``MAX_BUDGET``."""
    # every budget up to failed fails, and closed closes
    failed, closed = -1, 0
    value = value_under(spec, closed)
    while value is None:
        if closed >= MAX_BUDGET:
            return None
        failed, closed = closed, min(max(1, 2 * closed), MAX_BUDGET)
        value = value_under(spec, closed)
    while closed - failed > 1:
        mid = (failed + closed) // 2
        if value_under(spec, mid) is None:
            failed = mid
        else:
            closed = mid
    return value, closed


def main(argv: list[str]) -> None:
    keys = [tuple(int(t) for t in a.split(",")) for a in argv] or SANDWICH
    total = closed = 0
    for key in keys:
        label = ",".join(map(str, key))
        found = value_and_nodes(ProblemSpec(*key))
        if found is None:
            print(label, "ResourceError", flush=True)
        else:
            print(label, *found, flush=True)
            total += found[1]
            closed += 1
    print(f"total nodes {total} over {closed} specs")


if __name__ == "__main__":
    main(sys.argv[1:])
