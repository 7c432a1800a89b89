"""Certified SDP upper bounds for mixed binary/ternary error-correcting codes."""

from mixedsdp.codes import (
    Code,
    OrbitId,
    ProblemSpec,
    Word,
    canonical_orbit,
    code,
    enumerate_orbits,
    exact_n,
    hamming_distance,
    min_distance,
    optimal_code,
    orbit_pair_distances,
    word,
)
from mixedsdp.model import build_lp_k2, build_sdp, derived_doubling_bound
from mixedsdp.solver import certify, emit_sdpa, parse_sdpa, solve

__all__ = [
    "Code",
    "OrbitId",
    "ProblemSpec",
    "Word",
    "build_lp_k2",
    "build_sdp",
    "canonical_orbit",
    "certify",
    "code",
    "derived_doubling_bound",
    "emit_sdpa",
    "enumerate_orbits",
    "exact_n",
    "hamming_distance",
    "min_distance",
    "optimal_code",
    "orbit_pair_distances",
    "parse_sdpa",
    "solve",
    "word",
]

__version__ = "0.1.0"
