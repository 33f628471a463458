"""Tests of the benchmark itself, at tiny sizes.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run as bench

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(capsys, workload: str, trace: int) -> dict:
    code = bench.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)], tiny=True
    )
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _expected(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def test_benchmark_json_names_and_bounds():
    names = [m["name"] for section in ("end_to_end", "per_layer") for m in SPEC[section]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert [w["name"] for w in SPEC["workloads"]] == ["fig10-bounds", "fig9-sim", "campaign-sweep"]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for section in ("end_to_end", "per_layer"):
        for metric in SPEC[section]:
            assert bench.unit_of(metric["name"]) == metric["unit"], metric


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_each_workload_runs_clean(capsys, workload):
    result = _run(capsys, workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == _expected("end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_run_reports_every_layer_and_a_well_formed_span_tree(capsys):
    result = _run(capsys, "fig10-bounds", trace=1)
    assert result["correct"] and result["failed"] == 0
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == _expected("per_layer")
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert values["api.run.calls"] > 0 and values["core.exact.calls"] > 0
    assert values["oracle.checked"] == 1 and values["oracle.unchecked"] == 1

    from perfbench.tracing import Span, self_times

    record = json.loads((bench.OUTPUT / "fig10-bounds-seed3-trace1.json").read_text())
    assert len(record["spans"]) == len(record["pass_walls"]) >= 1
    for raw, wall in zip(record["spans"], record["pass_walls"]):
        spans = [Span(**span) for span in raw]
        for index, span in enumerate(spans):
            assert span.parent is None or 0 <= span.parent < index
            assert span.end >= span.start
        assert all(own >= -1e-9 for own in self_times(spans))
        roots = sum(span.duration for span in spans if span.parent is None)
        assert roots == pytest.approx(wall, rel=1e-3, abs=1e-3)


def test_exits_nonzero_without_the_package_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig10-bounds", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_self_time_subtracts_the_union_of_children():
    from perfbench.tracing import Span, self_times

    spans = [Span("a", 0.0, 10.0), Span("b", 1.0, 4.0, parent=0), Span("c", 3.0, 6.0, parent=0)]
    assert self_times(spans) == pytest.approx([5.0, 3.0, 3.0])
