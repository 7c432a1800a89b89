"""Print which statements of ``src/mixedsdp`` one benchmark pass never runs.

    python tools/traffic.py sdp-table exact-oracle
    python tools/traffic.py sdp-table --only 'bound(2,5,3)'

It runs one pass of each named ``perfbench`` workload in this process and
checks every instance's output with the instance's own check, as
``perfbench/run.py`` does; with ``--only NAME`` it runs just the instances
of that name.  A pass makes the same calls in any order, so the report does
not depend on the order.  The BLAS thread count is pinned to 1 by
``perfbench``'s own ``pin_environment``, which also puts this checkout's
``src`` first on ``sys.path``.  Lines are counted by the standard library's
``trace`` module from before ``mixedsdp`` is imported, so the import-time
statements count as run.

Each instance's outcome is printed as ``status name``, then, per module,
``== name: N of M statements never run`` and each such statement as
``line: source``.  A statement is a node of the module's syntax tree whose
first lines (its header, for a compound statement) carry bytecode; it ran
when one of those lines did.  Tracing slows the pass several-fold, so no
time is printed.  The exit code is 1 when an output is wrong, else 0.
"""

import argparse
import ast
import sys
import tempfile
import trace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import run  # noqa: E402  (perfbench/run.py; it imports only the stdlib)

PACKAGE = run.ROOT / "src" / "mixedsdp"


def code_lines(code) -> set[int]:
    """The lines that carry bytecode in ``code`` and its nested code objects."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(path: Path) -> dict[int, range]:
    """Each statement's first line and the lines that run it."""
    source = path.read_text()
    carried = code_lines(compile(source, str(path), "exec"))
    out = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        lines = range(node.lineno, max(last, node.lineno) + 1)
        if carried.intersection(lines):
            out[node.lineno] = lines
    return out


def run_pass(names: list[str], only: str | None) -> int:
    """Run and check one pass of the named workloads; returns the failures."""
    import workloads
    from harness import FAILED, Tracer, run_instance

    tracer = Tracer(enabled=False)
    failed = 0
    with tempfile.TemporaryDirectory() as out_dir:
        for name in names:
            instances, mismatches = workloads.setup(tracer, name, 1, Path(out_dir))
            for line in mismatches:
                print(f"failed     packaged table: {line}")
            failed += len(mismatches)
            for inst in instances:
                if only is None or inst.name == only:
                    outcome = run_instance(inst, tracer)
                    failed += outcome.status == FAILED
                    print(f"{outcome.status:10s} {inst.name}"
                          + (f"  -- {outcome.detail}" if outcome.detail else ""))
    return failed


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="+", choices=run.WORKLOADS, metavar="WORKLOAD")
    parser.add_argument("--only", metavar="NAME", help="run only the instances of this name")
    args = parser.parse_args(argv)

    run.pin_environment()
    # no ignoredirs: trace caches its ignore verdict by bare module name, so
    # an installed package's __init__ would hide mixedsdp/__init__
    counter = trace.Trace(count=1, trace=0)
    failed = counter.runfunc(run_pass, args.workloads, args.only)
    hits = counter.results().counts

    for path in sorted(PACKAGE.glob("*.py")):
        stmts = statements(path)
        missed = [
            first for first, lines in sorted(stmts.items())
            if not any((str(path), line) in hits for line in lines)
        ]
        text = path.read_text().splitlines()
        print(f"== mixedsdp.{path.stem}: {len(missed)} of {len(stmts)} statements never run")
        for first in missed:
            print(f"{first}: {text[first - 1].strip()}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
