"""Unit tests for repro.engine.campaign: grids, seeds, files."""

from __future__ import annotations

import json

import pytest

from repro.engine import Campaign, TrialSpec, minimum_processes_for, parameter_grid
from repro.exceptions import ConfigurationError


class TestParameterGrid:
    def test_cross_product_in_declaration_order(self):
        points = parameter_grid(dimension=(1, 2), fault_bound=(1,))
        assert points == [
            {"dimension": 1, "fault_bound": 1},
            {"dimension": 2, "fault_bound": 1},
        ]

    def test_last_axis_varies_fastest(self):
        points = parameter_grid(a=(1, 2), b=("x", "y"))
        assert [(p["a"], p["b"]) for p in points] == [(1, "x"), (1, "y"), (2, "x"), (2, "y")]

    def test_empty_grid_is_single_point(self):
        assert parameter_grid() == [{}]


class TestCampaignFromGrid:
    def test_trial_count_and_indexing(self):
        campaign = Campaign.from_grid(
            "grid",
            protocols=("exact",),
            adversaries=("crash", "outside_hull"),
            dimensions=(1, 2),
            repeats=3,
        )
        assert len(campaign) == 2 * 2 * 3
        assert [spec.trial_index for spec in campaign.specs] == list(range(len(campaign)))

    def test_default_process_count_is_protocol_minimum(self):
        campaign = Campaign.from_grid(
            "bounds", protocols=("exact", "approx"), dimensions=(3,), fault_bounds=(2,)
        )
        by_protocol = {spec.protocol: spec.process_count for spec in campaign.specs}
        assert by_protocol["exact"] == minimum_processes_for("exact", 3, 2)
        assert by_protocol["approx"] == minimum_processes_for("approx", 3, 2)

    def test_scheduler_axis_collapses_for_sync_protocols(self):
        campaign = Campaign.from_grid(
            "sync-only", protocols=("exact",), schedulers=("random", "round_robin", "lagging")
        )
        assert len(campaign) == 1  # the scheduler is never consulted

    def test_epsilon_axis_collapses_for_exact_protocols(self):
        campaign = Campaign.from_grid(
            "mixed-eps", protocols=("exact", "approx"), epsilons=(0.1, 0.2, 0.4)
        )
        by_protocol: dict[str, list[float]] = {}
        for spec in campaign.specs:
            by_protocol.setdefault(spec.protocol, []).append(spec.epsilon)
        assert by_protocol["exact"] == [0.1]  # first value only, never consulted
        assert by_protocol["approx"] == [0.1, 0.2, 0.4]

    def test_seeds_unique_and_stable(self):
        first = Campaign.from_grid("a", protocols=("exact",), repeats=50, base_seed=9)
        second = Campaign.from_grid("a", protocols=("exact",), repeats=50, base_seed=9)
        assert first.specs == second.specs
        seeds = [spec.seed for spec in first.specs]
        assert len(set(seeds)) == len(seeds)

    def test_different_base_seed_changes_trial_seeds(self):
        seeds_a = [spec.seed for spec in Campaign.from_grid("a", repeats=5, base_seed=1).specs]
        seeds_b = [spec.seed for spec in Campaign.from_grid("a", repeats=5, base_seed=2).specs]
        assert seeds_a != seeds_b

    def test_rejects_unknown_protocol_and_bad_repeats(self):
        with pytest.raises(ConfigurationError):
            Campaign.from_grid("bad", protocols=("nope",))
        with pytest.raises(ConfigurationError):
            Campaign.from_grid("bad", repeats=0)

    def test_describe_summarises_axes(self):
        campaign = Campaign.from_grid(
            "shape", protocols=("exact", "approx"), adversaries=("crash",)
        )
        shape = campaign.describe()
        assert shape["trials"] == len(campaign)
        assert shape["protocols"] == ["approx", "exact"]
        assert shape["adversaries"] == ["crash"]


class TestCampaignFromFile:
    def test_grid_file(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(
            json.dumps(
                {
                    "name": "filed",
                    "grid": {
                        "protocols": ["exact"],
                        "adversaries": ["crash"],
                        "dimensions": [1, 2],
                        "repeats": 2,
                        "base_seed": 4,
                    },
                }
            )
        )
        campaign = Campaign.from_file(path)
        assert campaign.name == "filed"
        assert len(campaign) == 4
        assert campaign.specs == Campaign.from_grid(
            "filed", protocols=("exact",), adversaries=("crash",), dimensions=(1, 2),
            repeats=2, base_seed=4,
        ).specs

    def test_trials_file(self, tmp_path):
        spec = TrialSpec(protocol="exact", workload="uniform_box", seed=3)
        path = tmp_path / "trials.json"
        path.write_text(json.dumps({"trials": [spec.to_dict()]}))
        campaign = Campaign.from_file(path)
        assert campaign.name == "trials"
        assert campaign.specs == (spec,)

    def test_rejects_files_without_grid_or_trials(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text(json.dumps({"name": "x"}))
        with pytest.raises(ConfigurationError):
            Campaign.from_file(path)

    def test_rejects_unknown_grid_axes(self, tmp_path):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({"grid": {"dimension": [1, 2]}}))  # typo for "dimensions"
        with pytest.raises(ConfigurationError, match="unknown grid axes"):
            Campaign.from_file(path)


class TestCampaignFromFileMalformedEntries:
    """Malformed declarations must raise ConfigurationError naming the key,
    never a bare TypeError from the dataclass constructor."""

    def _write(self, tmp_path, declaration) -> str:
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(declaration))
        return path

    def test_grid_axis_spelled_as_scalar_names_the_axis(self, tmp_path):
        path = self._write(tmp_path, {"grid": {"protocols": "exact"}})
        with pytest.raises(ConfigurationError, match="grid axis 'protocols'"):
            Campaign.from_file(path)

    def test_grid_scalar_spelled_as_wrong_type_names_the_key(self, tmp_path):
        path = self._write(tmp_path, {"grid": {"repeats": "three"}})
        with pytest.raises(ConfigurationError, match="grid key 'repeats'"):
            Campaign.from_file(path)
        path = self._write(tmp_path, {"grid": {"base_seed": True}})
        with pytest.raises(ConfigurationError, match="grid key 'base_seed'"):
            Campaign.from_file(path)

    def test_grid_max_rounds_override_accepts_null(self, tmp_path):
        path = self._write(
            tmp_path, {"grid": {"protocols": ["exact"], "max_rounds_override": None}}
        )
        assert len(Campaign.from_file(path)) == 1

    def test_grid_process_counts_accepts_explicit_null(self, tmp_path):
        # null means from_grid's own default: the paper's minimum n per (d, f).
        path = self._write(
            tmp_path, {"grid": {"protocols": ["exact"], "process_counts": None}}
        )
        campaign = Campaign.from_file(path)
        assert campaign.specs[0].process_count == minimum_processes_for("exact", 2, 1)

    def test_grid_must_be_an_object(self, tmp_path):
        path = self._write(tmp_path, {"grid": ["exact"]})
        with pytest.raises(ConfigurationError, match="'grid' must be a JSON object"):
            Campaign.from_file(path)

    def test_trials_must_be_a_list(self, tmp_path):
        path = self._write(tmp_path, {"trials": {"protocol": "exact"}})
        with pytest.raises(ConfigurationError, match="'trials' must be a list"):
            Campaign.from_file(path)

    def test_trial_entry_must_be_an_object_with_index_in_message(self, tmp_path):
        spec = TrialSpec(protocol="exact", workload="uniform_box", seed=1)
        path = self._write(tmp_path, {"trials": [spec.to_dict(), 42]})
        with pytest.raises(ConfigurationError, match=r"trials\[1\] must be a JSON object"):
            Campaign.from_file(path)

    def test_trial_entry_unknown_field_names_entry_and_field(self, tmp_path):
        path = self._write(
            tmp_path,
            {"trials": [{"protocol": "exact", "workload": "uniform_box", "bogus": 1}]},
        )
        with pytest.raises(ConfigurationError, match=r"trials\[0\].*bogus"):
            Campaign.from_file(path)

    def test_trial_entry_malformed_params_is_configuration_error(self, tmp_path):
        # workload_params spelled as a scalar used to escape as a bare
        # TypeError out of the frozen-dataclass parameter normalisation.
        path = self._write(
            tmp_path,
            {"trials": [{"protocol": "exact", "workload": "uniform_box",
                         "workload_params": 5}]},
        )
        with pytest.raises(ConfigurationError, match=r"trials\[0\]: malformed trial entry"):
            Campaign.from_file(path)
