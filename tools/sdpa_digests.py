"""Print the SHA-256 digest of the emitted SDPA file of each problem.

Run it on two checkouts and compare the outputs to show that a change keeps
every emitted byte:

    PYTHONPATH=/path/to/base/src python tools/sdpa_digests.py > before.txt
    PYTHONPATH=src python tools/sdpa_digests.py > after.txt
    diff before.txt after.txt

Problems are given as ``n2,n3,d,k`` arguments.  Without arguments it covers
every problem the benchmark builds (the published level-3 rows of
``sdp-table``; the d=5 level-3 problems that ``exact-oracle`` emits and its
oracle-sandwich problems at levels 3 and 2) and the problems whose digests
the test suite pins.  The largest, (1,12,5), takes about 0.8 s, and all of
them about 3.5 s, on a 2-vCPU x86-64 VM with one BLAS thread, process start
included.  ``--table`` covers instead every row of the packaged table at
levels 3 and 2 (``table_problems``, 270 problems), in about 32 s on the
same VM.  ``--orbits`` prints instead the SHA-256 of the ``repr`` of the
``enumerate_orbits`` map, items in order, of every (n2, n3, d, k) with
n2 + n3 <= 14 (``orbit_problems``, 1,820 maps), in about 9 s on the same
VM.  ``--verify`` prints instead the SHA-256 of the ``repr`` of the
``verify_reduction`` checks of every (n2, n3, d, k) with at most
``VERIFY_WORD_CAP`` words (``verify_problems``, 82 reports), in about 1 s
on the same VM.

The last line, ``digest <sha256> over N problems``, is the SHA-256 of the
lines before it, newlines included, so two checkouts compare in one line.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

from mixedsdp.blocks import VERIFY_WORD_CAP, verify_reduction
from mixedsdp.cli import load_reference_rows
from mixedsdp.codes import ProblemSpec, enumerate_orbits
from mixedsdp.model import build_problem
from mixedsdp.solver import emit_sdpa

DEFAULT = (
    # sdp-table
    (2, 5, 3, 3), (3, 5, 3, 3), (4, 5, 3, 3), (6, 3, 3, 3), (7, 2, 3, 3),
    (8, 1, 3, 3), (9, 2, 3, 3), (10, 1, 3, 3), (2, 6, 4, 3), (5, 4, 4, 3),
    (10, 2, 4, 3),
    # exact-oracle emits
    (1, 11, 5, 3), (2, 10, 5, 3), (3, 9, 5, 3), (4, 8, 5, 3), (1, 12, 5, 3),
    # exact-oracle sandwich, at levels 3 and 2
    (3, 3, 3, 3), (4, 2, 3, 3), (1, 4, 3, 3), (5, 2, 4, 3), (6, 1, 3, 3),
    (5, 2, 3, 3),
    (3, 3, 3, 2), (4, 2, 3, 2), (1, 4, 3, 2), (5, 2, 4, 2), (6, 1, 3, 2),
    (5, 2, 3, 2),
    # pinned in tests/test_solver.py, with (1, 4, 3, 2) above
    (1, 1, 1, 3), (2, 1, 2, 3), (2, 2, 3, 3), (2, 5, 3, 2),
)


def table_problems() -> list[tuple[int, int, int, int]]:
    """Every row of the packaged table at level 3, then at level 2."""
    rows = load_reference_rows()
    return [(r.n2, r.n3, r.d, k) for k in (3, 2) for r in rows]


def orbit_problems() -> list[tuple[int, int, int, int]]:
    """Every (n2, n3, d) with n2 + n3 <= 14 at level 3, then at level 2."""
    return [
        (n2, length - n2, d, k)
        for k in (3, 2)
        for length in range(2, 15)
        for n2 in range(1, length)
        for d in range(1, length + 1)
    ]


def verify_problems() -> list[tuple[int, int, int, int]]:
    """Every (n2, n3, d) with 2^n2 3^n3 <= VERIFY_WORD_CAP at level 3, then
    at level 2, n2, n3 and d ascending."""
    return [
        (n2, n3, d, k)
        for k in (3, 2)
        for n2 in range(1, VERIFY_WORD_CAP.bit_length())
        for n3 in range(1, VERIFY_WORD_CAP.bit_length())
        if 2 ** n2 * 3 ** n3 <= VERIFY_WORD_CAP
        for d in range(1, n2 + n3 + 1)
    ]


def verify_lines():
    """The line of each verifier report of ``verify_problems``: its key and
    the digest of its checks."""
    for key in verify_problems():
        checks = verify_reduction(ProblemSpec(*key)).checks
        yield f"{','.join(map(str, key))} {hashlib.sha256(repr(checks).encode()).hexdigest()}"


def orbit_lines():
    """The line of each orbit map of ``orbit_problems``: its key and digest."""
    for key in orbit_problems():
        orbits = list(enumerate_orbits(ProblemSpec(*key)).items())
        yield f"{','.join(map(str, key))} {hashlib.sha256(repr(orbits).encode()).hexdigest()}"


def emitted_lines(keys):
    """The line of each problem: its key and the digest of its SDPA file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.dat-s"
        for key in keys:
            emit_sdpa(build_problem(ProblemSpec(*key)), path)
            yield f"{','.join(map(str, key))} {hashlib.sha256(path.read_bytes()).hexdigest()}"


def main(argv: list[str]) -> None:
    if argv == ["--orbits"]:
        lines = orbit_lines()
    elif argv == ["--verify"]:
        lines = verify_lines()
    elif argv == ["--table"]:
        lines = emitted_lines(table_problems())
    else:
        lines = emitted_lines([tuple(int(t) for t in a.split(",")) for a in argv] or DEFAULT)
    total, count = hashlib.sha256(), 0
    for line in lines:
        print(line, flush=True)
        total.update(f"{line}\n".encode())
        count += 1
    print(f"digest {total.hexdigest()} over {count} problems")


if __name__ == "__main__":
    main(sys.argv[1:])
