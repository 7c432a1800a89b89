"""Command-line interface: subcommands, exit codes, and the results store."""

import json

from mixedsdp.cli import (
    EXIT_OK,
    EXIT_VALIDATION,
    ResultsStore,
    load_reference_rows,
    main,
)


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

    def test_bound_validation_error(self, capsys):
        assert main(["bound", "0", "1", "1"]) == EXIT_VALIDATION
        assert main(["bound", "2", "2", "9"]) == EXIT_VALIDATION

    def test_oracle(self, capsys):
        assert main(["oracle", "1", "1", "2"]) == EXIT_OK
        assert "= 2" in capsys.readouterr().out
        assert main(["oracle", "1", "1", "1"]) == EXIT_OK
        assert "= 6" in capsys.readouterr().out

    def test_oracle_cap(self, capsys):
        assert main(["oracle", "5", "3", "2", "--cap", "100"]) == EXIT_VALIDATION

    def test_verify_pass(self, capsys):
        assert main(["verify", "1", "1", "--trials", "5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_verify_single_d(self, capsys):
        assert main(["verify", "1", "1", "--d", "2", "--trials", "5"]) == EXIT_OK
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

    def test_table_jobs_pool(self, tmp_path, capsys):
        store = tmp_path / "j.jsonl"
        code = main(["table", "--d", "3", "--max-length", "7", "--jobs", "2",
                     "--store", str(store)])
        assert code == EXIT_OK
        assert "match" in capsys.readouterr().out

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

    def test_verify_without_trials_refused(self, capsys):
        for trials in ("0", "-3"):
            assert main(["verify", "1", "1", "--trials", trials]) == EXIT_VALIDATION
            captured = capsys.readouterr()
            assert f"need trials >= 1, got trials={trials}" in captured.err
            assert "[ok]" not in captured.out

    def test_table_replay_corrupt_store(self, tmp_path, capsys):
        store = tmp_path / "t.jsonl"
        ResultsStore(store).append({"n2": 2, "n3": 5, "d": 3, "k": 3, "bound": 65})
        with store.open("a") as fh:
            fh.write("not json\n")
        code = main(["table", "--d", "3", "--max-length", "8", "--replay",
                     "--store", str(store)])
        assert code == EXIT_VALIDATION
        assert f"{store}:2:" in capsys.readouterr().err
