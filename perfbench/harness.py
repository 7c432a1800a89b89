"""Span tracing, instance outcomes and metric arithmetic for the benchmark.

Nothing here imports mixedsdp, so the harness can be tested on its own.
"""

from __future__ import annotations

import re
import statistics
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    instance: str
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder.  A disabled tracer records nothing, so the
    untraced run pays only for entering and leaving an empty context."""

    def __init__(self, enabled: bool, clock: Callable[[], float] = time.perf_counter):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.instance = ""
        self.bookkeeping_s = 0.0  # time spent computing span counts
        self._stack: list[int] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, self._clock(), 0.0, parent, self.instance)
        self.spans.append(sp)
        self._stack.append(idx)
        try:
            yield sp
        except BaseException as exc:
            sp.attrs["error"] = type(exc).__name__
            raise
        finally:
            sp.end = self._clock()
            self._stack.pop()

    def note(self, sp: Span | None, counts: Callable[[], dict]) -> None:
        """Attach counts to a span; their cost is booked as overhead."""
        if sp is None:
            return
        t0 = self._clock()
        sp.attrs.update(counts())
        self.bookkeeping_s += self._clock() - t0


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)
    out = []
    for i, sp in enumerate(spans):
        covered = 0.0
        reach = sp.start
        for child in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, sp.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(sp.seconds - covered)
    return out


SPAN_COST_SAMPLES = 20000


def span_cost_s() -> float:
    """Measured cost of recording one span, for the overhead estimate."""
    tr = Tracer(enabled=True)
    t0 = time.perf_counter()
    for _ in range(SPAN_COST_SAMPLES):
        with tr.span("x"):
            pass
    return (time.perf_counter() - t0) / SPAN_COST_SAMPLES


# ---------------------------------------------------------------------------
# Instances and outcomes.

OK, UNRESOLVED, FAILED = "ok", "unresolved", "failed"


class KnownLimit(Exception):
    """A documented limit of the program ended the instance."""


@contextmanager
def known_limit(limit: tuple[type[BaseException], str] | None):
    """Guard one call that may hit a documented limit, given as
    ``(error class, reason)``: that error, raised inside the block, ends the
    instance as unresolved.  Any other error passes through and fails it, as
    does every error when ``limit`` is None."""
    if limit is None:
        yield
        return
    error, reason = limit
    try:
        yield
    except error as exc:
        raise KnownLimit(f"{reason} -- {type(exc).__name__}: {exc}") from exc


@dataclass(frozen=True)
class Instance:
    """One unit of work.  ``run`` is timed; ``check`` is not, and returns why
    the output is wrong, or None."""

    name: str
    run: Callable[[Tracer], object]
    check: Callable[[object], str | None]


@dataclass(frozen=True)
class Outcome:
    name: str
    status: str
    seconds: float
    detail: str = ""


def run_instance(inst: Instance, tracer: Tracer) -> Outcome:
    """Run and check one instance.  A known limit leaves it unresolved; a
    wrong output, or an error in ``run`` or ``check``, fails it, and the run
    goes on."""
    tracer.instance = inst.name
    t0 = time.perf_counter()
    try:
        output = inst.run(tracer)
    except KnownLimit as exc:
        return Outcome(inst.name, UNRESOLVED, time.perf_counter() - t0, str(exc))
    except Exception:
        return Outcome(inst.name, FAILED, time.perf_counter() - t0, traceback.format_exc(limit=-3))
    seconds = time.perf_counter() - t0
    try:
        problem = inst.check(output)
    except Exception:
        return Outcome(inst.name, FAILED, seconds, traceback.format_exc(limit=-3))
    return Outcome(inst.name, FAILED if problem else OK, seconds, problem or "")


def end_to_end_metrics(
    outcomes: list[Outcome], setup_samples: list[float], peak_rss_mb: float
) -> dict[str, float]:
    resolved = sum(o.status == OK for o in outcomes)
    busy = sum(o.seconds for o in outcomes)
    return {
        "setup_s": statistics.median(setup_samples),
        "instances_per_min": 60.0 * resolved / busy,
        "resolved_frac": resolved / len(outcomes),
        "peak_rss_mb": peak_rss_mb,
    }


def layer_metrics(spans: list[Span], busy_s: float, overhead_s: float) -> dict[str, float]:
    """Per-layer totals over every span of the run.  ``busy_s`` is the summed
    instance time of the traced run and ``overhead_s`` the estimated cost of
    tracing inside it."""
    selfs = self_times(spans)
    secs: dict[str, float] = defaultdict(float)
    self_secs: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    errors: dict[str, int] = defaultdict(int)
    for sp, own in zip(spans, selfs):
        secs[sp.name] += sp.seconds
        self_secs[sp.name] += own
        for key, val in sp.attrs.items():
            if key == "error":
                errors[sp.name] += 1
            else:
                counts[f"{sp.name}:{key}"] += val
    solved_s = sum(
        sp.seconds for sp in spans if sp.name == "solver.solve" and "error" not in sp.attrs
    )
    iterations = counts["solver.solve:iterations"]
    return {
        "codes.enumerate_orbits_s": secs["codes.enumerate_orbits"],
        "codes.orbits": counts["codes.enumerate_orbits:orbits"],
        "codes.exact_n_s": secs["codes.exact_n"],
        "codes.oracle_budget_exceeded": errors["codes.exact_n"],
        "tableaux.shape_index_s": (
            secs["tableaux.build_shape_index_d0"] + secs["tableaux.build_shape_index_empty"]
        ),
        "tableaux.admissible_columns": (
            counts["tableaux.build_shape_index_d0:columns"]
            + counts["tableaux.build_shape_index_empty:columns"]
        ),
        "blocks.build_d0_s": secs["blocks.build_blocks_d0"],
        "blocks.build_empty_s": secs["blocks.build_blocks_empty"],
        "blocks.coeff_entries": (
            counts["model.build_sdp:coeff_entries"] + counts["model.build_lp_k2:coeff_entries"]
        ),
        "blocks.verify_s": secs["blocks.verify_reduction"],
        "model.build_s": secs["model.build_sdp"] + secs["model.build_lp_k2"],
        "model.self_s": self_secs["model.build_sdp"] + self_secs["model.build_lp_k2"],
        "model.vars": counts["model.build_sdp:vars"] + counts["model.build_lp_k2:vars"],
        "model.psd_dim2": (
            counts["model.build_sdp:psd_dim2"] + counts["model.build_lp_k2:psd_dim2"]
        ),
        "solver.solve_s": secs["solver.solve"],
        "solver.iterations": iterations,
        "solver.s_per_iteration": solved_s / iterations if iterations else 0.0,
        "solver.certify_s": secs["solver.certify"],
        "solver.errors": errors["solver.solve"] + errors["solver.certify"],
        "solver.inexact_coefficients": counts["solver.solve:inexact"],
        "solver.emit_s": secs["solver.emit_sdpa"],
        "solver.emit_bytes": counts["solver.emit_sdpa:bytes"],
        "cli.reference_load_s": secs["cli.load_reference_rows"],
        "trace.spans": len(spans),
        "trace.overhead_frac": overhead_s / busy_s if busy_s else 0.0,
    }
