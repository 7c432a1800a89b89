"""The README's library example runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_values():
    # the python block under "## Library" imports its names from the
    # package root and prints the certified bound, the exact bound the dual
    # point proves, an oracle value and the size of the oracle's code
    section = README.read_text().split("\n## Library\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    bound, exact_bound, oracle, code_size = out.getvalue().splitlines()
    assert (bound, oracle, code_size) == ("65", "2", "2")
    assert float(exact_bound) >= 65
