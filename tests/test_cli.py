"""Command-line interface: subcommands, exit codes, and the results store."""

import json

import numpy as np
import pytest

from mixedsdp import cli, solver
from mixedsdp.cli import (
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_VALIDATION,
    EXIT_VERIFY,
    ResultsStore,
    load_reference_rows,
    main,
)
from mixedsdp.codes import ProblemSpec
from mixedsdp.model import build_problem
from mixedsdp.solver import ConditioningError, NonConvergenceError


class TestReferenceData:
    def test_row_count(self):
        assert len(load_reference_rows()) == 135

    def test_known_rows_present(self):
        rows = {(r.n2, r.n3, r.d): r for r in load_reference_rows()}
        assert rows[(2, 5, 3)].upper == 65
        assert rows[(3, 5, 3)].upper == 125
        assert rows[(8, 1, 3)].upper == 59
        assert rows[(9, 1, 3)].upper == 108
        assert rows[(7, 2, 3)].upper == 83
        assert rows[(1, 12, 8)].upper == 67
        assert rows[(2, 12, 8)].upper == 134
        assert rows[(2, 12, 8)].marker == "doubling"
        assert rows[(4, 3, 3)].marker == "k4"

    def test_marker_inventory(self):
        rows = load_reference_rows()
        assert sum(r.marker == "doubling" for r in rows) == 3
        assert sum(r.marker == "k4" for r in rows) == 1


class TestStore:
    def test_append_and_latest(self, tmp_path):
        store = ResultsStore(tmp_path / "r.jsonl")
        store.append({"n2": 1, "n3": 1, "d": 1, "k": 3, "bound": 7})
        store.append({"n2": 1, "n3": 1, "d": 1, "k": 3, "bound": 6})
        latest = store.latest_records()
        assert latest[(1, 1, 1, 3)]["bound"] == 6
        assert (9, 9, 9, 3) not in latest
        assert len(store.records()) == 2

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MIXEDSDP_STORE", str(tmp_path / "env.jsonl"))
        store = ResultsStore()
        assert store.path == tmp_path / "env.jsonl"

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "r.jsonl"
        record = '{"n2": 1, "n3": 1, "d": 1, "k": 3, "bound": 6}'
        path.write_text("\n" + record + "\n  \n\t\n" + record.replace("6", "5") + "\n\n")
        store = ResultsStore(path)
        assert [rec["bound"] for rec in store.records()] == [6, 5]
        assert store.latest_records()[(1, 1, 1, 3)]["bound"] == 5

    def test_lines_are_json(self, tmp_path):
        store = ResultsStore(tmp_path / "r.jsonl")
        store.append({"n2": 1, "n3": 1, "d": 1, "k": 3, "bound": 6})
        for line in (tmp_path / "r.jsonl").read_text().splitlines():
            json.loads(line)


class TestCommands:
    def test_bound_writes_store(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        code = main(["bound", "1", "1", "1", "--store", str(store)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "<= 6" in out
        assert "exact bound" in out and "margin" in out
        rec = ResultsStore(store).latest_records()[(1, 1, 1, 3)]
        assert rec["bound"] == 6
        assert rec["bound"] <= rec["exactBound"] < rec["bound"] + 1
        assert rec["penalty"] >= 0

    def test_bound_k2(self, tmp_path, capsys):
        code = main(["bound", "1", "1", "2", "--k", "2",
                     "--store", str(tmp_path / "s.jsonl")])
        assert code == EXIT_OK
        assert "k=2" in capsys.readouterr().out

    def test_bound_validation_error(self, tmp_path, capsys):
        assert main(["bound", "0", "1", "1"]) == EXIT_VALIDATION
        assert main(["bound", "2", "2", "9"]) == EXIT_VALIDATION
        store = tmp_path / "nan.jsonl"
        assert main(["bound", "1", "1", "1", "--tol", "nan",
                     "--store", str(store)]) == EXIT_VALIDATION
        assert "tol must be positive and finite" in capsys.readouterr().err
        assert not store.exists()

    def test_bound_past_key_digits_names_spec(self, tmp_path, capsys):
        # level 3 takes at most 31 coordinates per alphabet
        store = tmp_path / "s.jsonl"
        assert main(["bound", "1", "32", "3", "--store", str(store)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "(1, 32)" in err and "5-bit" in err and "at most 31" in err
        assert not store.exists()

    def test_bound_out_of_iterations(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        code = main(["bound", "2", "5", "3", "--max-iter", "1", "--store", str(store)])
        assert code == EXIT_SOLVER
        assert "solver error: NonConvergenceError" in capsys.readouterr().err
        assert not store.exists()

    def test_bound_non_finite_direction(self, tmp_path, monkeypatch, capsys):
        # a solver failure, not a validation error
        monkeypatch.setattr(solver, "_tril_inverse", lambda L: np.full_like(L, np.nan))
        code = main(["bound", "2", "5", "3", "--store", str(tmp_path / "s.jsonl")])
        assert code == EXIT_SOLVER
        assert "Newton direction lost finiteness" in capsys.readouterr().err

    def test_bound_error_shows_last_iterate(self, tmp_path, capsys):
        # a tolerance below this problem's double-precision floor
        store = tmp_path / "s.jsonl"
        code = main(["bound", "2", "1", "2", "--tol", "1e-13", "--store", str(store)])
        assert code == EXIT_SOLVER
        message, last, *rest = capsys.readouterr().err.splitlines()
        assert message.startswith("solver error: ConditioningError: ") and not rest
        with pytest.raises(ConditioningError) as info:
            solver.solve(build_problem(ProblemSpec(2, 1, 2)), tol=1e-13)
        solution = info.value.solution
        entry = solution.trace[-1]
        assert last == (
            f"last iterate: iteration {solution.iterations}, pobj {entry['pobj']:.9g}, "
            f"dobj {entry['dobj']:.9g}, relgap {entry['relgap']:.9g}, "
            f"pinf {entry['pinf']:.9g}, dinf {entry['dinf']:.9g}"
        )

    def test_oracle(self, capsys):
        assert main(["oracle", "1", "1", "2"]) == EXIT_OK
        assert "= 2" in capsys.readouterr().out
        assert main(["oracle", "1", "1", "1"]) == EXIT_OK
        assert "= 6" in capsys.readouterr().out

    def test_oracle_cap(self, capsys):
        # 1,296 words exceed the word cap before any search
        assert main(["oracle", "4", "4", "2"]) == EXIT_VALIDATION
        assert "exceeds oracle cap 1000" in capsys.readouterr().err

    def test_verify_pass(self, capsys):
        assert main(["verify", "1", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_verify_single_d(self, capsys):
        assert main(["verify", "1", "1", "--d", "2"]) == EXIT_OK
        assert "d=2" in capsys.readouterr().out

    def test_distance_below_one_refused(self, capsys):
        # d=0 names no distance; it must not stand for "every d"
        assert main(["verify", "1", "1", "--d", "0"]) == EXIT_VALIDATION
        assert "need 1 <= d <= n2+n3, got d=0" in capsys.readouterr().err
        assert main(["table", "--d", "0"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "got d=0" in captured.err
        assert captured.out == ""

    def test_emit(self, tmp_path, capsys):
        target = tmp_path / "e.dat-s"
        assert main(["emit", "1", "1", "2", str(target)]) == EXIT_OK
        text = target.read_text()
        assert text.splitlines()[0].startswith('"')

    def test_table_derived(self, capsys):
        assert main(["table", "--derived", "--d", "8"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "  2  12   8       134       134  match" in out

    def test_table_derived_all(self, capsys):
        assert main(["table", "--derived"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "  5   3   3        60        60  match" in out

    def test_table_small_slice(self, tmp_path, capsys):
        store = tmp_path / "t.jsonl"
        code = main(["table", "--d", "3", "--max-length", "7",
                     "--store", str(store)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert " 65" in out and "match" in out
        # the k4-marked row appears but is not computed
        assert "level-4" in out
        # computed rows landed in the store
        assert ResultsStore(store).latest_records()[(2, 5, 3, 3)]["bound"] == 65

    @pytest.mark.parametrize("outcome, status, code", [
        (125, "match", EXIT_OK),
        (124, "improves", EXIT_OK),
        (126, "MISMATCH", EXIT_VERIFY),
        (NonConvergenceError("no convergence within 500 iterations"),
         "NonConvergenceError: no convergence within 500 iterations", EXIT_SOLVER),
    ], ids=["match", "improves", "mismatch", "solver-error"])
    def test_table_statuses(self, tmp_path, capsys, monkeypatch, outcome, status, code):
        # (2,5,3) certifies its published 65; (3,5,3) gives ``outcome``; the
        # level-4 row (4,3,3) and the doubling row (5,3,3) are never solved
        def compute(n2, n3, d, k, tol, max_iter=500):
            if (n2, n3, d) == (2, 5, 3):
                return {"n2": n2, "n3": n3, "d": d, "k": k, "bound": 65}
            assert (n2, n3, d) == (3, 5, 3)
            if isinstance(outcome, Exception):
                raise outcome
            return {"n2": n2, "n3": n3, "d": d, "k": k, "bound": outcome}

        monkeypatch.setattr(cli, "_compute_bound", compute)
        store = tmp_path / "t.jsonl"
        assert main(["table", "--d", "3", "--max-length", "8",
                     "--store", str(store)]) == code
        value = "!" if isinstance(outcome, Exception) else outcome
        assert capsys.readouterr().out.splitlines() == [
            " n2  n3   d   lower  computed published  status",
            "  2   5   3      52        65        65  match",
            f"  3   5   3      99 {value:>9}       125  {status}",
            "  4   3   3      28         -        30  level-4 bound, not computed",
            "  5   3   3      54        60        60  match (doubling)",
        ]
        # a failed row leaves no record
        stored = [(r["n2"], r["n3"], r["bound"]) for r in ResultsStore(store).records()]
        assert stored == [(2, 5, 65)] + ([] if value == "!" else [(3, 5, value)])

    def test_table_doubling_row_without_source(self, tmp_path, capsys, monkeypatch):
        # without the row (4,3,3), the doubling row (5,3,3) has no source
        # row and is left out of the table
        rows = [r for r in load_reference_rows() if (r.n2, r.n3, r.d) != (4, 3, 3)]
        monkeypatch.setattr(cli, "load_reference_rows", lambda: rows)
        published = {(2, 5, 3): 65, (3, 5, 3): 125}
        monkeypatch.setattr(cli, "_compute_bound", lambda n2, n3, d, k, tol, max_iter=500: {
            "n2": n2, "n3": n3, "d": d, "k": k, "bound": published[n2, n3, d],
        })
        assert main(["table", "--d", "3", "--max-length", "8",
                     "--store", str(tmp_path / "t.jsonl")]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            " n2  n3   d   lower  computed published  status",
            "  2   5   3      52        65        65  match",
            "  3   5   3      99       125       125  match",
        ]

    def test_table_jobs_pool(self, tmp_path, capsys):
        store = tmp_path / "j.jsonl"
        code = main(["table", "--d", "3", "--max-length", "7", "--jobs", "2",
                     "--store", str(store)])
        assert code == EXIT_OK
        assert "match" in capsys.readouterr().out

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_table_jobs_below_one_refused(self, tmp_path, capsys, jobs):
        # no worker count below one stands for the serial path
        code = main(["table", "--d", "3", "--max-length", "7", "--jobs", jobs,
                     "--store", str(tmp_path / "j.jsonl")])
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert f"need --jobs >= 1, got --jobs={jobs}" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "j.jsonl").exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_table_bad_tol_refused(self, tmp_path, capsys, tol):
        # refused up front, like --jobs, even when no row is solved
        code = main(["table", "--tol", tol, "--max-length", "2",
                     "--store", str(tmp_path / "t.jsonl")])
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert f"tol must be positive and finite, got tol={float(tol)}" in captured.err
        assert captured.out == ""

    def test_table_replay(self, tmp_path, capsys):
        store = tmp_path / "t.jsonl"
        ResultsStore(store).append({
            "n2": 2, "n3": 5, "d": 3, "k": 3, "bound": 65,
            "objective": 65.3, "dualObjective": 65.3,
        })
        code = main(["table", "--d", "3", "--max-length", "8", "--replay",
                     "--store", str(store)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "match" in out
        assert "not in store" in out  # (3,5,3) was never computed

    def test_table_replay_missing_store(self, tmp_path, capsys):
        # a store that was never written holds no record, and replaying it
        # does not create it
        store = tmp_path / "never.jsonl"
        code = main(["table", "--d", "3", "--max-length", "8", "--replay",
                     "--store", str(store)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        # the two unmarked rows of length at most 8
        assert out.count("not in store") == 2
        assert "  2   5   3      52         -        65  not in store" in out
        assert "  3   5   3      99         -       125  not in store" in out
        assert not store.exists()

    def test_table_replay_reads_store_once(self, tmp_path, capsys, monkeypatch):
        store = tmp_path / "t.jsonl"
        for n2, n3, bound in [(2, 5, 70), (3, 5, 125), (2, 5, 65), (2, 6, 128)]:
            ResultsStore(store).append({"n2": n2, "n3": n3, "d": 3, "k": 3, "bound": bound})
        reads = []
        records = ResultsStore.records
        monkeypatch.setattr(ResultsStore, "records", lambda self: reads.append(1) or records(self))
        code = main(["table", "--d", "3", "--max-length", "8", "--replay",
                     "--store", str(store)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert len(reads) == 1
        # the later record of (2,5,3) wins
        assert "  2   5   3" in out and "65        65  match" in out
        assert "125       125  match" in out

    def test_unwritable_path_is_an_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.dat-s"
        assert main(["emit", "1", "1", "2", str(target)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err
        code = main(["table", "--d", "3", "--max-length", "7", "--replay",
                     "--store", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert str(tmp_path) in capsys.readouterr().err

    def test_table_replay_corrupt_store(self, tmp_path, capsys):
        # not JSON, JSON but not an object, and an object without a bound
        bad_lines = ("not json", "3", "[]", '{"n2": 2, "n3": 5, "d": 3, "k": 3}')
        for number, line in enumerate(bad_lines):
            store = tmp_path / f"t{number}.jsonl"
            ResultsStore(store).append({"n2": 2, "n3": 5, "d": 3, "k": 3, "bound": 65})
            with store.open("a") as fh:
                fh.write(line + "\n")
            code = main(["table", "--d", "3", "--max-length", "8", "--replay",
                         "--store", str(store)])
            assert code == EXIT_VALIDATION, line
            assert f"{store}:2:" in capsys.readouterr().err
