"""Certified SDP upper bounds for mixed binary/ternary error-correcting codes."""

from mixedsdp.codes import (
    ProblemSpec,
    enumerate_orbits,
    exact_n,
    optimal_code,
)
from mixedsdp.model import build_lp_k2, build_sdp
from mixedsdp.solver import certify, emit_sdpa, parse_sdpa, solve

__all__ = [
    "ProblemSpec",
    "build_lp_k2",
    "build_sdp",
    "certify",
    "emit_sdpa",
    "enumerate_orbits",
    "exact_n",
    "optimal_code",
    "parse_sdpa",
    "solve",
]

__version__ = "0.1.0"
