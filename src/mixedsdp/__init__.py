"""Certified SDP upper bounds for mixed binary/ternary error-correcting codes."""

from mixedsdp.codes import (
    Code,
    OrbitId,
    ProblemSpec,
    Word,
    code,
    enumerate_orbits,
    exact_n,
    optimal_code,
    word,
)
from mixedsdp.model import build_lp_k2, build_sdp
from mixedsdp.solver import certify, emit_sdpa, parse_sdpa, solve

__all__ = [
    "Code",
    "OrbitId",
    "ProblemSpec",
    "Word",
    "build_lp_k2",
    "build_sdp",
    "certify",
    "code",
    "emit_sdpa",
    "enumerate_orbits",
    "exact_n",
    "optimal_code",
    "parse_sdpa",
    "solve",
    "word",
]

__version__ = "0.1.0"
