"""Tests for the command-line interface."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import EXPERIMENT_REGISTRY, _ordered_experiment_ids, build_parser, main
from repro.engine import read_jsonl, strip_timing


class TestParser:
    def test_list_command(self):
        arguments = build_parser().parse_args(["list"])
        assert arguments.command == "list"

    def test_run_command_with_output(self, tmp_path):
        arguments = build_parser().parse_args(["run", "E2", "--output", str(tmp_path / "out.txt")])
        assert arguments.command == "run"
        assert arguments.experiment == ["E2"]

    def test_bounds_defaults(self):
        arguments = build_parser().parse_args(["bounds"])
        assert arguments.dimension == 2
        assert arguments.faults == 1

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_campaign_defaults(self):
        arguments = build_parser().parse_args(["campaign"])
        assert arguments.command == "campaign"
        assert arguments.protocols == ["exact"]
        assert arguments.workers == 1
        assert arguments.repeats == 25

    def test_campaign_grid_flags(self):
        arguments = build_parser().parse_args(
            ["campaign", "--protocols", "exact", "approx", "--dimensions", "1", "2",
             "--workers", "4", "--jsonl", "out.jsonl", "--seed", "9"]
        )
        assert arguments.protocols == ["exact", "approx"]
        assert arguments.dimensions == [1, 2]
        assert arguments.workers == 4
        assert arguments.seed == 9

    def test_campaign_rejects_unknown_protocol(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--protocols", "bogus"])

    def test_campaign_accepts_coordinated_adversaries(self):
        arguments = build_parser().parse_args(
            ["campaign", "--adversaries", "split_world", "hull_collapse",
             "adaptive_extreme", "theorem4_scenario"]
        )
        assert arguments.adversaries == [
            "split_world", "hull_collapse", "adaptive_extreme", "theorem4_scenario"
        ]

    def test_fuzz_defaults(self):
        arguments = build_parser().parse_args(["fuzz"])
        assert arguments.command == "fuzz"
        assert arguments.count == 200
        assert arguments.workers == 1
        assert "split_world" in arguments.adversaries

    def test_fuzz_rejects_unknown_adversary(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--adversaries", "bogus"])


class TestMain:
    def test_list_prints_all_ids(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for experiment_id in EXPERIMENT_REGISTRY:
            assert experiment_id in output

    def test_bounds(self, capsys):
        assert main(["bounds", "--dimension", "3", "--faults", "2"]) == 0
        output = capsys.readouterr().out
        assert "11" in output  # (d+2)f+1 = 11 for d=3, f=2

    def test_run_cheap_experiment(self, capsys):
        assert main(["run", "E2"]) == 0
        output = capsys.readouterr().out
        assert "Theorem 1" in output
        assert "yes" in output

    def test_run_is_case_insensitive(self, capsys):
        assert main(["run", "e13"]) == 0
        assert "approx_async" in capsys.readouterr().out

    def test_run_writes_output_file(self, tmp_path, capsys):
        target = tmp_path / "table.txt"
        assert main(["run", "E13", "--output", str(target)]) == 0
        capsys.readouterr()
        assert target.exists()
        assert "approx_async" in target.read_text()

    def test_unknown_experiment_fails(self, capsys):
        assert main(["run", "E99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_retired_timing_experiment_is_a_usage_error_naming_the_valid_ids(self, capsys):
        # E15 printed wall clocks; timing belongs to benchmarks/ledger/ alone.
        assert main(["run", "E3", "e15"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing ran before the bad id was refused
        assert "unknown experiment 'e15'" in captured.err
        assert ", ".join(_ordered_experiment_ids()) in captured.err

    def test_reference_tables_are_what_run_prints(self, capsys):
        # The committed tables are seeded and carry no timing, so they
        # cannot drift from the code that prints them.
        reference = Path(__file__).resolve().parents[1] / "benchmarks" / "reference"
        names = [
            "E1_intro_counterexample.txt",
            "E2_theorem1_necessity.txt",
            "E3_safe_area_existence.txt",
            "E4_figure1_tverberg.txt",
            "E6_safe_area_cost.txt",
            "E10_appendix_f.txt",
        ]
        assert sorted(path.name for path in reference.iterdir()) == sorted(names)
        assert main(["run", "E1", "E2", "E3", "E4", "E6", "E10"]) == 0
        committed = "\n".join((reference / name).read_text() for name in names)
        assert capsys.readouterr().out == committed

    def test_registry_covers_design_doc_ids(self):
        # E12 is covered by the E11 runner; everything else from DESIGN.md
        # must be present, plus the E16 adversary-coordination experiment.
        for required in (
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E13", "E14",
            "E16",
        ):
            assert required in EXPERIMENT_REGISTRY

    def test_experiments_ordered_numerically(self):
        # Lexicographic sorting would put E10/E11/E13/E14 between E1 and E2.
        assert _ordered_experiment_ids() == [
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E13", "E14",
            "E16",
        ]

    def test_list_output_in_numeric_order(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        ids = [line.split()[0] for line in lines if line.startswith("E")]
        assert ids == _ordered_experiment_ids()

    def test_help_renders_examples_and_docs_epilog(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        output = capsys.readouterr().out
        assert "examples:" in output
        assert "python -m repro.cli run E1 E2 E3 E4 E6 E10" in output
        assert "docs/ARCHITECTURE.md" in output
        assert "docs/PERFORMANCE.md" in output
        assert "PYTHONPATH=src python -m pytest -x -q" in output

    def test_run_help_carries_the_epilog_too(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--help"])
        assert excinfo.value.code == 0
        assert "examples:" in capsys.readouterr().out

    def test_help_documents_the_campaign_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        output = capsys.readouterr().out
        assert "campaign --repeats 25 --workers 4" in output
        assert "byte-identical JSONL" in output


class TestCampaignCommand:
    ARGS = ["campaign", "--repeats", "2", "--adversaries", "crash", "outside_hull",
            "--dimensions", "1", "2", "--seed", "17"]

    def test_runs_grid_and_writes_jsonl(self, tmp_path, capsys):
        target = tmp_path / "sweep.jsonl"
        assert main(self.ARGS + ["--jsonl", str(target)]) == 0
        output = capsys.readouterr().out
        assert "Campaign summary" in output
        assert "wrote 8 rows" in output
        rows = [json.loads(line) for line in target.read_text().splitlines()]
        assert len(rows) == 8
        assert all(row["status"] == "ok" for row in rows)

    def test_same_seed_same_rows_for_any_worker_count(self, tmp_path, capsys):
        one = tmp_path / "w1.jsonl"
        two = tmp_path / "w2.jsonl"
        assert main(self.ARGS + ["--jsonl", str(one), "--workers", "1"]) == 0
        assert main(self.ARGS + ["--jsonl", str(two), "--workers", "2"]) == 0
        capsys.readouterr()
        assert strip_timing(read_jsonl(one)) == strip_timing(read_jsonl(two))

    def test_grid_file(self, tmp_path, capsys):
        grid = tmp_path / "campaign.json"
        grid.write_text(json.dumps({
            "name": "filed",
            "grid": {"protocols": ["exact"], "adversaries": ["crash"], "repeats": 2},
        }))
        target = tmp_path / "filed.jsonl"
        assert main(["campaign", "--grid-file", str(grid), "--jsonl", str(target)]) == 0
        assert "filed" in capsys.readouterr().out
        assert len(target.read_text().splitlines()) == 2

    def test_coordinated_adversary_grid_runs_clean(self, capsys):
        assert main(["campaign", "--adversaries", "split_world", "hull_collapse",
                     "--dimensions", "1", "--repeats", "1", "--seed", "23"]) == 0
        assert "Campaign summary" in capsys.readouterr().out


class TestFuzzCommand:
    def test_small_fuzz_run_writes_jsonl(self, tmp_path, capsys):
        target = tmp_path / "fuzz.jsonl"
        assert main(["fuzz", "--count", "4", "--seed", "19",
                     "--protocols", "exact", "--jsonl", str(target)]) == 0
        output = capsys.readouterr().out
        assert "Fuzz summary" in output
        assert "all scenarios upheld agreement and validity" in output
        rows = [json.loads(line) for line in target.read_text().splitlines()]
        assert len(rows) == 4
        assert all(row["status"] == "ok" for row in rows)


class TestStoreFlags:
    ARGS = ["campaign", "--protocols", "restricted_sync", "--adversaries", "none", "crash",
            "--dimensions", "1", "--repeats", "2", "--seed", "17", "--max-rounds", "2"]

    def test_parser_accepts_store_pair(self):
        arguments = build_parser().parse_args(self.ARGS + ["--store", "s.db", "--resume"])
        assert str(arguments.store) == "s.db"
        assert arguments.resume is True

    @pytest.mark.parametrize("removed", (["--pool", "spawn"], ["--store-backend", "jsonl"]))
    def test_removed_selectors_are_usage_errors(self, removed, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(self.ARGS + removed)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_resume_requires_store(self, capsys):
        with pytest.raises(SystemExit, match="--resume requires --store"):
            main(self.ARGS + ["--resume"])

    def test_campaign_store_roundtrip_serves_cached_trials(self, tmp_path, capsys):
        store = tmp_path / "s.db"
        cold = tmp_path / "cold.jsonl"
        warm = tmp_path / "warm.jsonl"
        assert main(self.ARGS + ["--store", str(store), "--jsonl", str(cold)]) == 0
        cold_out = capsys.readouterr().out
        assert "0 served from cache, 4 executed" in cold_out
        assert main(self.ARGS + ["--store", str(store), "--resume",
                                 "--jsonl", str(warm)]) == 0
        warm_out = capsys.readouterr().out
        assert "4 served from cache, 0 executed" in warm_out
        assert strip_timing(read_jsonl(cold)) == strip_timing(read_jsonl(warm))

    def test_without_resume_store_records_but_does_not_serve(self, tmp_path, capsys):
        store = tmp_path / "s.db"
        assert main(self.ARGS + ["--store", str(store)]) == 0
        capsys.readouterr()
        assert main(self.ARGS + ["--store", str(store)]) == 0
        assert "0 served from cache" in capsys.readouterr().out

    def test_fuzz_accepts_store_and_resume(self, tmp_path, capsys):
        store = tmp_path / "fuzz.db"
        args = ["fuzz", "--count", "4", "--seed", "19", "--protocols", "exact",
                "--store", str(store)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--resume"]) == 0
        output = capsys.readouterr().out
        assert "4 served from cache, 0 executed" in output
        assert "all scenarios upheld agreement and validity" in output

    def test_run_experiment_against_store(self, tmp_path, capsys):
        from repro.store import open_store

        store = tmp_path / "exp.db"
        assert main(["run", "E5", "--store", str(store)]) == 0
        capsys.readouterr()
        with open_store(store) as opened:
            populated = len(opened)
        assert populated > 0
        # Warm rerun serves from the store and renders the same table.
        assert main(["run", "E5", "--store", str(store)]) == 0
        assert "Theorem 3" in capsys.readouterr().out


class TestStoreCommand:
    def _populate(self, tmp_path, capsys):
        store = tmp_path / "s.db"
        jsonl = tmp_path / "rows.jsonl"
        assert main(["campaign", "--protocols", "restricted_sync",
                     "--adversaries", "none", "crash", "--dimensions", "1",
                     "--repeats", "2", "--seed", "17", "--max-rounds", "2",
                     "--store", str(store), "--jsonl", str(jsonl)]) == 0
        capsys.readouterr()
        return store, jsonl

    def test_stats(self, tmp_path, capsys):
        store, _ = self._populate(tmp_path, capsys)
        assert main(["store", "stats", "--store", str(store)]) == 0
        output = capsys.readouterr().out
        assert "sqlite" in output
        assert "By status" in output

    @pytest.mark.parametrize("command", ("stats", "claims", "query", "export", "gc"))
    def test_reading_a_missing_store_fails_and_creates_nothing(self, tmp_path, command):
        missing = tmp_path / "typo" / "s.db"
        with pytest.raises(SystemExit, match=f"no result store at {missing}"):
            main(["store", command, "--store", str(missing)])
        assert not missing.parent.exists()

    def test_query_with_filters_and_limit(self, tmp_path, capsys):
        store, _ = self._populate(tmp_path, capsys)
        assert main(["store", "query", "--store", str(store),
                     "--adversary", "crash", "--limit", "1"]) == 0
        output = capsys.readouterr().out
        assert "Store query" in output
        assert "crash" in output
        assert main(["store", "query", "--store", str(store),
                     "--protocol", "approx"]) == 0
        assert "no matching trials" in capsys.readouterr().out

    def test_query_aggregate(self, tmp_path, capsys):
        store, _ = self._populate(tmp_path, capsys)
        assert main(["store", "query", "--store", str(store),
                     "--aggregate", "protocol", "adversary"]) == 0
        output = capsys.readouterr().out
        assert "Store aggregate" in output
        assert "restricted_sync" in output

    def test_export_matches_campaign_jsonl(self, tmp_path, capsys):
        store, jsonl = self._populate(tmp_path, capsys)
        exported = tmp_path / "export.jsonl"
        assert main(["store", "export", "--store", str(store),
                     "--output", str(exported)]) == 0
        assert "exported 4 rows" in capsys.readouterr().out
        # Same rows, just store-ordered (by content key) instead of spec order.
        assert sorted(strip_timing(read_jsonl(exported))) == sorted(
            strip_timing(read_jsonl(jsonl))
        )

    def test_export_excludes_other_engine_versions_by_default(self, tmp_path, capsys):
        # A version-mixed store must not produce a version-mixed (and
        # therefore unlabellable) export: only the requested revision ships.
        from repro.store import open_store

        store, jsonl = self._populate(tmp_path, capsys)
        with open_store(store) as opened:
            opened.import_jsonl(jsonl, engine_version="0.0.1/rows0")
            assert len(opened) == 8  # 4 current + 4 stale
        exported = tmp_path / "export.jsonl"
        assert main(["store", "export", "--store", str(store),
                     "--output", str(exported)]) == 0
        assert "exported 4 rows" in capsys.readouterr().out
        stale_export = tmp_path / "stale.jsonl"
        assert main(["store", "export", "--store", str(store),
                     "--engine-version", "0.0.1/rows0",
                     "--output", str(stale_export)]) == 0
        assert "exported 4 rows" in capsys.readouterr().out

    def test_gc_reports_zero_on_fresh_store(self, tmp_path, capsys):
        store, _ = self._populate(tmp_path, capsys)
        assert main(["store", "gc", "--store", str(store), "--dry-run"]) == 0
        assert "would delete 0 rows" in capsys.readouterr().out

    def test_query_rejects_negative_limit(self, tmp_path, capsys):
        store, _ = self._populate(tmp_path, capsys)
        with pytest.raises(SystemExit, match="--limit must be >= 0"):
            main(["store", "query", "--store", str(store), "--limit", "-5"])

    def test_import_with_stale_engine_version_is_not_served(self, tmp_path, capsys):
        _, jsonl = self._populate(tmp_path, capsys)
        rebuilt = tmp_path / "stale.db"
        assert main(["store", "import", "--store", str(rebuilt), "--jsonl", str(jsonl),
                     "--engine-version", "0.0.1/rows0"]) == 0
        capsys.readouterr()
        assert main(["campaign", "--protocols", "restricted_sync",
                     "--adversaries", "none", "crash", "--dimensions", "1",
                     "--repeats", "2", "--seed", "17", "--max-rounds", "2",
                     "--store", str(rebuilt), "--resume"]) == 0
        # Old-engine rows must not launder into cache hits.
        assert "0 served from cache, 4 executed" in capsys.readouterr().out

    def test_import_rebuilds_a_servable_store(self, tmp_path, capsys):
        _, jsonl = self._populate(tmp_path, capsys)
        rebuilt = tmp_path / "rebuilt.db"
        assert main(["store", "import", "--store", str(rebuilt),
                     "--jsonl", str(jsonl)]) == 0
        assert "imported 4 rows" in capsys.readouterr().out
        assert main(["campaign", "--protocols", "restricted_sync",
                     "--adversaries", "none", "crash", "--dimensions", "1",
                     "--repeats", "2", "--seed", "17", "--max-rounds", "2",
                     "--store", str(rebuilt), "--resume"]) == 0
        assert "4 served from cache, 0 executed" in capsys.readouterr().out


class TestEngineFlag:
    def test_run_help_derives_experiment_range_from_registry(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--help"])
        assert excinfo.value.code == 0
        output = capsys.readouterr().out
        ordered = _ordered_experiment_ids()
        assert f"experiment ids ({ordered[0]}..{ordered[-1]})" in output
        assert "E1..E15" not in output  # the stale hard-coded range must be gone

    def test_campaign_engine_choices_are_byte_identical(self, tmp_path, capsys):
        args = ["campaign", "--protocols", "restricted_sync",
                "--adversaries", "none", "crash",
                "--dimensions", "2", "--repeats", "2", "--seed", "5",
                "--max-rounds", "3"]
        paths = {}
        for engine in ("object", "vectorized", "auto"):
            paths[engine] = tmp_path / f"{engine}.jsonl"
            assert main(args + ["--engine", engine, "--jsonl", str(paths[engine])]) == 0
        capsys.readouterr()
        rows = {engine: strip_timing(read_jsonl(path)) for engine, path in paths.items()}
        assert rows["object"] == rows["vectorized"] == rows["auto"]

    def test_campaign_summary_reports_engine(self, capsys):
        assert main(["campaign", "--protocols", "exact", "--adversaries", "none",
                     "--dimensions", "1", "--repeats", "2", "--engine", "vectorized"]) == 0
        output = capsys.readouterr().out
        assert "vectorized" in output

    def test_fuzz_accepts_engine_flag(self, tmp_path, capsys):
        target = tmp_path / "fuzz.jsonl"
        assert main(["fuzz", "--count", "4", "--seed", "19", "--protocols", "exact",
                     "--engine", "vectorized", "--jsonl", str(target)]) == 0
        assert "Fuzz summary" in capsys.readouterr().out
        assert len(target.read_text().splitlines()) == 4

    def test_unknown_engine_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--engine", "warp"])
        assert excinfo.value.code == 2
