"""Objective values from the output of an external SDPA-family solver, for
the cross-check tests."""

import re

from mixedsdp.solver import SdpaParseError

_PRIMAL_PATTERNS = (
    re.compile(r"objValPrimal\s*=\s*([-+0-9.eE]+)"),
    re.compile(r"Primal objective value:\s*([-+0-9.eE]+)"),
)
_DUAL_PATTERNS = (
    re.compile(r"objValDual\s*=\s*([-+0-9.eE]+)"),
    re.compile(r"Dual objective value:\s*([-+0-9.eE]+)"),
)


def parse_sdpa_output(text: str) -> tuple[float, float]:
    """Extract (primal, dual) objective values from SDPA-family solver
    output; raises on malformed text."""
    primal = dual = None
    for pat in _PRIMAL_PATTERNS:
        match = pat.search(text)
        if match:
            primal = float(match.group(1))
            break
    for pat in _DUAL_PATTERNS:
        match = pat.search(text)
        if match:
            dual = float(match.group(1))
            break
    if primal is None or dual is None:
        raise SdpaParseError("missing objective values in solver output")
    return primal, dual
