"""Print the exact oracle's value of each spec and the smallest node budget
that closes it.

Run it on two checkouts and compare the outputs to show how an oracle change
moves the values and the search effort, spec by spec:

    PYTHONPATH=/path/to/base/src python tools/oracle_report.py > before.txt
    PYTHONPATH=src python tools/oracle_report.py > after.txt
    diff before.txt after.txt

Specs are given as ``n2,n3,d`` arguments.  Without arguments it covers every
spec of the acceptance suite's oracle sandwich (``SANDWICH_FAMILIES`` in
``tests/test_acceptance.py``, every d).  Each spec is tried under the node
budgets of ``BUDGETS`` in turn, and each line is ``n2,n3,d value budget``
with the first budget that closes it, or ``n2,n3,d ResourceError`` when
none does.
"""

import sys
from pathlib import Path

from mixedsdp.codes import ProblemSpec, ResourceError, exact_n

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_acceptance import SANDWICH_FAMILIES  # noqa: E402

BUDGETS = (100, 300, 1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000, 3_000_000)
SANDWICH = tuple(
    (n2, n3, d) for n2, n3 in SANDWICH_FAMILIES for d in range(1, n2 + n3 + 1)
)


def main(argv: list[str]) -> None:
    keys = [tuple(int(t) for t in a.split(",")) for a in argv] or SANDWICH
    for key in keys:
        label = ",".join(map(str, key))
        for budget in BUDGETS:
            try:
                value = exact_n(ProblemSpec(*key), node_budget=budget)
            except ResourceError:
                continue
            print(label, value, budget, flush=True)
            break
        else:
            print(label, "ResourceError", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
