"""Regression tests: stores and configs from before the spec API still work.

Ensemble JSONL stores written before ``ExperimentSpec`` existed still load,
every new record carries its full ``spec``, and the spec-built ensemble
configuration rejects what can never be replicated.
"""

import json

import pytest

from repro.api import ExperimentSpec
from repro.api.spec import SpecError
from repro.ensemble.results import ResultStore
from repro.ensemble.runner import EnsembleConfig, run_ensemble


class TestDeprecatedCallSites:
    def test_replicating_deterministic_backends_rejected(self):
        with pytest.raises(SpecError, match="deterministic"):
            EnsembleConfig(
                spec=ExperimentSpec.create(num_servers=5, utilization=0.5),
                backend="meanfield",
            )


class TestOldStoresStillLoad:
    #: A verbatim record line as PR 2's ResultStore wrote it (no spec key).
    OLD_RECORD = {
        "kind": "fleet",
        "parameters": {"num_servers": 50, "utilization": 0.7, "num_events": 5000},
        "ensemble_seed": 21,
        "confidence": 0.95,
        "provenance": {"package_version": "1.2.0", "git": None, "python": "3.12.0",
                       "timestamp": "2026-07-01T00:00:00+00:00"},
        "replication": 0,
        "seed": 1234567,
        "mean_delay": 1.83,
        "wall_seconds": 0.4,
    }

    def test_pre_spec_jsonl_records_load(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps(self.OLD_RECORD) + "\n")
        records = ResultStore(path).load()
        assert records == [self.OLD_RECORD]

    def test_new_records_carry_both_dialects(self, tmp_path):
        # A store grown across the spec API holds both dialects: its pre-spec
        # lines load verbatim beside new records, which carry spec + backend.
        path = tmp_path / "mixed.jsonl"
        path.write_text(json.dumps(self.OLD_RECORD) + "\n")
        result = run_ensemble(
            spec=ExperimentSpec.create(num_servers=50, utilization=0.7, num_events=5_000),
            replications=2,
            seed=21,
        )
        store = ResultStore(path)
        store.append_ensemble(result)
        old, first, _ = store.load()
        assert old == self.OLD_RECORD
        assert first["backend"] == "fleet"
        assert first["spec"]["system"]["num_servers"] == 50
        assert "kind" not in first and "parameters" not in first
        assert ExperimentSpec.from_dict(first["spec"]) == result.config.spec

    def test_non_legacy_expressible_records_omit_the_legacy_keys(self, tmp_path):
        result = run_ensemble(
            spec=ExperimentSpec.create(
                num_servers=10,
                utilization=0.7,
                service="hyperexponential",
                service_params={"scv": 4.0},
                num_jobs=500,
            ),
            backend="cluster",
            replications=2,
            seed=3,
        )
        store = ResultStore(tmp_path / "bursty.jsonl")
        store.append_ensemble(result)
        first = store.load()[0]
        assert "kind" not in first and "parameters" not in first
        assert ExperimentSpec.from_dict(first["spec"]).workload.service.name == (
            "hyperexponential"
        )
