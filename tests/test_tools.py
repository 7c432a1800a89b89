"""The scripts under tools/, each run as a script on one small spec: a
change's "same output on both checkouts" claim rests on the reports, and the
traffic tool tells which statements a benchmark pass never runs.

Each runs in its own process, as it is meant to run, because
``solve_report.py`` and ``traffic.py`` set the BLAS thread variables in
``os.environ``."""

import hashlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

from mixedsdp.cli import load_reference_rows
from test_solver import EMITTED_DIGESTS

ROOT = Path(__file__).resolve().parents[1]

# the closing line of ``tools/sdpa_digests.py --orbits``: the SHA-256 of its
# 1,820 lines, one per orbit map, each hashing the map's count rows in order
ORBIT_MAPS_DIGEST = "5a8966decbeaf39eec8be24d66d0e14131efb6bf486dde89fc3be7b7cf156ffa"

# the closing line of ``tools/sdpa_digests.py --verify``: the SHA-256 of its
# 82 lines, one per ``verify_reduction`` report of at most VERIFY_WORD_CAP words
VERIFY_REPORTS_DIGEST = "29279d677830c9e46c608c2a1b29ec3f0024fd1ec076856c2decab63f95e2bdd"


def run_tool(name: str, *args: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / name), *args],
        env=env, capture_output=True, text=True, check=True,
    )
    return done.stdout.splitlines()


def test_oracle_report():
    assert run_tool("oracle_report.py", "1,1,2", "4,2,3") == [
        "1,1,2 2 1", "4,2,3 12 131", "total nodes 132 over 2 specs",
    ]


def test_solve_report():
    line, total = run_tool("solve_report.py", "1,1,1,3")
    match = re.fullmatch(r"1,1,1,3 6 \d+/\d+ (\d+) [0-9a-f]{16}", line)
    assert match, line
    assert total == f"iterations {match.group(1)}"


def test_sdpa_digests():
    line = f"1,1,1,3 {EMITTED_DIGESTS[(1, 1, 1, 3)]}"
    total = hashlib.sha256(f"{line}\n".encode()).hexdigest()
    assert run_tool("sdpa_digests.py", "1,1,1,3") == [line, f"digest {total} over 1 problems"]


def test_sdpa_digests_orbit_maps_pinned():
    # the closing digest of --orbits pins the enumerate_orbits rows of every
    # spec with n2 + n3 <= 14 at levels 3 and 2, in order
    last = run_tool("sdpa_digests.py", "--orbits")[-1]
    assert last == f"digest {ORBIT_MAPS_DIGEST} over 1820 problems"


def test_sdpa_digests_verify_reports_pinned():
    # the closing digest of --verify pins the checks of every verifier
    # report at levels 3 and 2, names, outcomes and details
    last = run_tool("sdpa_digests.py", "--verify")[-1]
    assert last == f"digest {VERIFY_REPORTS_DIGEST} over 82 problems"


def digests_tool():
    """``tools/sdpa_digests.py`` as a module, for its problem lists."""
    spec = importlib.util.spec_from_file_location("sdpa_digests", ROOT / "tools" / "sdpa_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_sdpa_digests_default_pinned():
    # tier-1 pins the digest of every problem the tool covers by default
    assert sorted(EMITTED_DIGESTS) == sorted(digests_tool().DEFAULT)


def test_sdpa_digests_table_rows():
    # --table covers each packaged row at levels 3 and 2; the list is read
    # from the module, without building a problem
    tool = digests_tool()
    problems = tool.table_problems()
    rows = {(r.n2, r.n3, r.d) for r in load_reference_rows()}
    assert len(problems) == len(set(problems)) == 270
    for k in (3, 2):
        assert {p[:3] for p in problems if p[3] == k} == rows
    # the defaults open with the published level-3 rows of sdp-table
    assert set(tool.DEFAULT[:11]) <= set(problems)


def test_sdpa_digests_orbit_maps():
    # --orbits covers every spec with n2 + n3 <= 14 at levels 3 and 2; the
    # list is read from the module, without enumerating an orbit
    problems = digests_tool().orbit_problems()
    specs = {
        (n2, n3, d)
        for n2 in range(1, 14) for n3 in range(1, 15 - n2) for d in range(1, n2 + n3 + 1)
    }
    assert len(problems) == len(set(problems)) == 1820
    for k in (3, 2):
        assert {p[:3] for p in problems if p[3] == k} == specs


def test_traffic():
    lines = run_tool("traffic.py", "sdp-table", "--only", "bound(2,5,3)")
    assert lines[0] == "ok         bound(2,5,3)"
    modules = []
    for number, line in enumerate(lines):
        header = re.fullmatch(r"== mixedsdp\.(\w+): (\d+) of (\d+) statements never run", line)
        if header:
            modules.append(header.group(1))
            missed, total = int(header.group(2)), int(header.group(3))
            assert 0 <= missed < total
            listed = lines[number + 1:number + 1 + missed]
            assert all(re.match(r"\d+: ", entry) for entry in listed)
    assert modules == sorted(p.stem for p in (ROOT / "src" / "mixedsdp").glob("*.py"))
    assert len(lines) == 1 + len(modules) + sum(
        int(line.split()[2]) for line in lines if line.startswith("== ")
    )
