"""Tests of the benchmark harness itself: span arithmetic, the declared
metric names, and outcome counting.  None of them runs a workload."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from harness import (
    FAILED,
    NAME_RE,
    OK,
    UNIT_RE,
    UNRESOLVED,
    Instance,
    Outcome,
    Span,
    Tracer,
    end_to_end_metrics,
    known_limit,
    layer_metrics,
    run_instance,
    self_times,
)

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


class LimitError(RuntimeError):
    pass


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        Span("parent", 0.0, 10.0, None, "i"),
        Span("a", 1.0, 3.0, 0, "i"),
        Span("b", 2.0, 5.0, 0, "i"),    # overlaps a: union covers 1..5
        Span("c", 9.0, 12.0, 0, "i"),   # only 9..10 lies inside the parent
        Span("grand", 1.5, 2.5, 1, "i"),
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0])


def test_tracer_records_nesting_instance_and_errors():
    tr = Tracer(enabled=True, clock=FakeClock([0.0, 1.0, 4.0, 5.0, 6.0, 7.0]))
    tr.instance = "bound(2,5,3)"
    with tr.span("model.build_sdp"):
        with tr.span("codes.enumerate_orbits"):
            pass
    with pytest.raises(LimitError):
        with tr.span("solver.solve"):
            raise LimitError("stalled")
    build, orbits, solve = tr.spans
    assert (build.parent, orbits.parent, solve.parent) == (None, 0, None)
    assert (build.seconds, orbits.seconds, solve.seconds) == (5.0, 3.0, 1.0)
    assert {sp.instance for sp in tr.spans} == {"bound(2,5,3)"}
    assert solve.attrs == {"error": "LimitError"}
    assert self_times(tr.spans) == pytest.approx([2.0, 3.0, 1.0])


def test_disabled_tracer_records_nothing():
    tr = Tracer(enabled=False)
    with tr.span("model.build_sdp") as sp:
        tr.note(sp, lambda: {"vars": 1})
    assert tr.spans == [] and tr.bookkeeping_s == 0.0


def test_layer_metrics_from_spans():
    spans = [
        Span("model.build_sdp", 0.0, 4.0, None, "i", {"vars": 7, "psd_dim2": 20}),
        Span("blocks.build_blocks_d0", 1.0, 3.0, 0, "i"),
        Span("solver.solve", 4.0, 6.0, None, "i", {"iterations": 8, "inexact": 0}),
        Span("solver.solve", 6.0, 7.0, None, "j", {"error": "ConditioningError"}),
        Span("codes.exact_n", 7.0, 9.0, None, "j", {"error": "ResourceError"}),
    ]
    m = layer_metrics(spans, busy_s=9.0, overhead_s=0.09)
    assert m["model.build_s"] == 4.0
    assert m["model.self_s"] == 2.0
    assert m["blocks.build_d0_s"] == 2.0
    assert m["model.vars"] == 7 and m["model.psd_dim2"] == 20
    assert m["solver.solve_s"] == 3.0
    assert m["solver.s_per_iteration"] == 0.25  # the failed solve is excluded
    assert m["solver.errors"] == 1
    assert m["codes.oracle_budget_exceeded"] == 1
    assert m["trace.overhead_frac"] == pytest.approx(0.01)


def test_declared_metric_names_and_units_are_valid():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name
    for m in metrics:
        assert UNIT_RE.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(bounds.values())


def test_computed_metrics_match_declared_names():
    outcomes = [Outcome("a", OK, 1.0), Outcome("b", UNRESOLVED, 3.0)]
    e2e = end_to_end_metrics(outcomes, [0.3, 0.2, 0.4], 100.0)
    assert set(e2e) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(layer_metrics([], 1.0, 0.0)) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert e2e["instances_per_min"] == 15.0  # one resolved instance in 4 s
    assert e2e["resolved_frac"] == 0.5
    assert e2e["setup_s"] == 0.3  # median of the set-up samples


def _bound_instance(value):
    return Instance(
        "bound(2,5,3)",
        lambda tr: value,
        lambda got: None if got == 65 else f"certified {got}, published 65",
    )


def test_wrong_bound_counts_as_failed():
    tr = Tracer(enabled=False)
    wrong = run_instance(_bound_instance(64), tr)
    right = run_instance(_bound_instance(65), tr)
    assert (wrong.status, wrong.detail) == (FAILED, "certified 64, published 65")
    assert right.status == OK
    m = end_to_end_metrics([wrong, right], [0.2], 100.0)
    assert m["resolved_frac"] == 0.5


def test_check_that_raises_counts_as_failed():
    def check(output):
        raise ValueError("malformed SDPA file")

    out = run_instance(Instance("emit+k2(1,11,5)", lambda tr: 1, check), Tracer(enabled=False))
    assert out.status == FAILED
    assert "ValueError: malformed SDPA file" in out.detail


def _staged(raise_before=None, raise_guarded=None, limit=(LimitError, "known stall")):
    """An instance that may raise before, or inside, its guarded call."""
    def run(tr):
        if raise_before:
            raise raise_before
        with known_limit(limit):
            if raise_guarded:
                raise raise_guarded
        return 65
    return Instance("sandwich(5,2,3)", run, lambda out: None)


def test_only_the_guarded_limit_error_is_unresolved():
    tr = Tracer(enabled=False)
    limited = run_instance(_staged(raise_guarded=LimitError("no progress")), tr)
    assert limited.status == UNRESOLVED
    assert limited.detail == "known stall -- LimitError: no progress"
    failing = [
        _staged(raise_before=LimitError("early")),        # same error, another call
        _staged(raise_guarded=KeyError("bug")),            # another error, same call
        _staged(raise_guarded=LimitError("x"), limit=None),  # no limit listed
    ]
    for inst in failing:
        assert run_instance(inst, tr).status == FAILED
    assert run_instance(_staged(), tr).status == OK


def test_run_fails_without_printing_when_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sdp-table", "--seed", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
