"""Campaign durability: interruption, SIGKILL, crash reclaim, resume identity.

The load-bearing guarantee of :mod:`repro.campaigns`: a campaign interrupted
at *any* instant — graceful ``max_tasks`` stop, SIGKILL of the scheduler
process, SIGKILL of a worker mid-task — resumes from its directory and
finishes with results **bitwise identical** to a never-interrupted run.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaigns import (
    CampaignError,
    campaign_fingerprint,
    campaign_status,
    resume_campaign,
    run_campaign,
)
from repro.campaigns.manifest import CampaignManifest
from repro.ensemble.grid import GridConfig, point_digest, point_seed, run_grid
from repro.ensemble.runner import run_ensemble
from repro.faults import FaultPlan, FaultSpec, clear, install

SRC = str(Path(__file__).resolve().parent.parent / "src")


def small_grid(**overrides):
    base = dict(
        server_counts=(20,),
        choices=(2,),
        utilizations=(0.8, 0.95),
        num_events=2000,
        replications=3,
        seed=7,
        workers=1,
    )
    base.update(overrides)
    return GridConfig(**base)


class TestResumeIdentity:
    def test_interrupted_resume_is_bitwise_identical(self, tmp_path):
        clean = run_campaign(grid=small_grid(), directory=tmp_path / "clean")
        assert clean.complete and clean.executed_tasks == 6

        interrupted = run_campaign(
            grid=small_grid(), directory=tmp_path / "twin", max_tasks=2
        )
        assert not interrupted.complete and interrupted.executed_tasks == 2
        status = campaign_status(tmp_path / "twin")
        assert not status.complete and status.counts["done"] == 2

        resumed = resume_campaign(tmp_path / "twin")
        assert resumed.complete and resumed.executed_tasks == 4

        fp_clean = campaign_fingerprint(tmp_path / "clean")
        fp_twin = campaign_fingerprint(tmp_path / "twin")
        assert fp_clean == fp_twin  # records AND streamed estimates, bitwise

    def test_repeated_interruptions_still_identical(self, tmp_path):
        run_campaign(grid=small_grid(), directory=tmp_path / "clean")
        directory = tmp_path / "choppy"
        result = run_campaign(grid=small_grid(), directory=directory, max_tasks=1)
        hops = 0
        while not result.complete:
            result = resume_campaign(directory, max_tasks=1)
            hops += 1
            assert hops < 20, "resume loop failed to make progress"
        assert campaign_fingerprint(directory) == campaign_fingerprint(tmp_path / "clean")

    def test_resume_of_finished_campaign_is_noop(self, tmp_path):
        run_campaign(grid=small_grid(), directory=tmp_path / "done")
        again = resume_campaign(tmp_path / "done")
        assert again.complete and again.executed_tasks == 0

    def test_worker_count_does_not_change_results(self, tmp_path):
        run_campaign(grid=small_grid(replications=4), directory=tmp_path / "serial")
        run_campaign(
            grid=small_grid(replications=4, workers=3), directory=tmp_path / "pool"
        )
        assert campaign_fingerprint(tmp_path / "serial") == campaign_fingerprint(
            tmp_path / "pool"
        )

    def test_resume_against_different_grid_fails_loudly(self, tmp_path):
        run_campaign(grid=small_grid(), directory=tmp_path / "camp", max_tasks=1)
        with pytest.raises(CampaignError, match="differs"):
            run_campaign(grid=small_grid(seed=8), directory=tmp_path / "camp")


class TestSigkillResume:
    def test_sigkill_mid_sweep_then_resume_is_bitwise_identical(self, tmp_path):
        """Kill -9 the whole scheduler process mid-campaign; resume; compare."""
        clean_dir = tmp_path / "clean"
        run_campaign(grid=small_grid(replications=4), directory=clean_dir)

        victim_dir = tmp_path / "victim"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        # Widen the kill window: the inline driver runs the worker task
        # lifecycle, so a stall at worker.task slows every task down.
        env["REPRO_FAULT_PLAN"] = FaultPlan(faults=[
            FaultSpec(site="worker.task", kind="stall", seconds=0.15, times=None)
        ]).to_json()
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "campaign", "run",
                "--dir", str(victim_dir),
                "--servers", "20", "--utilizations", "0.8", "0.95",
                "--events", "2000", "--replications", "4", "--seed", "7",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        records = victim_dir / "records.jsonl"
        deadline = time.time() + 60.0
        # Wait until at least one record is durably on disk, then SIGKILL
        # mid-sweep — with the per-task stall the scheduler is overwhelmingly
        # likely to be holding leases and half-written state right now.
        while time.time() < deadline:
            if records.exists() and records.stat().st_size > 0:
                break
            if process.poll() is not None:
                pytest.fail("campaign finished before the test could kill it")
            time.sleep(0.01)
        else:
            process.kill()
            pytest.fail("campaign produced no records within 60s")
        os.kill(process.pid, signal.SIGKILL)
        process.wait(timeout=30)

        interrupted = campaign_status(victim_dir)
        assert not interrupted.complete  # it really was cut short

        resumed = resume_campaign(victim_dir)
        assert resumed.complete
        assert campaign_fingerprint(victim_dir) == campaign_fingerprint(clean_dir)

    def test_worker_crash_is_reclaimed_and_result_identical(self, tmp_path):
        """A worker SIGKILLs itself on one task — after simulating, before
        reporting (the worst-case window).  The scheduler must reclaim the
        lease, respawn, finish, and still match the clean run."""
        clean_dir = tmp_path / "clean"
        run_campaign(grid=small_grid(replications=4), directory=clean_dir)

        crash_dir = tmp_path / "crash"
        grid = small_grid(replications=4, workers=2)
        victim = point_digest(grid.points()[0]["labels"])
        install(FaultPlan(faults=[
            FaultSpec(site="worker.done", kind="crash", match=f"{victim}:0#0")
        ]))
        try:
            result = run_campaign(grid=grid, directory=crash_dir)
        finally:
            clear()
        assert result.complete
        journal = (crash_dir / "journal.jsonl").read_text(encoding="utf-8")
        assert '"release"' in journal  # the crash struck and its lease was reclaimed
        assert campaign_fingerprint(crash_dir) == campaign_fingerprint(clean_dir)


class TestAdaptiveAllocation:
    def test_replications_go_where_intervals_are_widest(self, tmp_path):
        """The whole point of per-point adaptive allocation: the noisy
        high-utilization point must receive strictly more replications than
        the quiet low-utilization point, and both must converge."""
        grid = small_grid(
            utilizations=(0.5, 0.95), num_events=1500, replications=3, seed=11
        )
        result = run_campaign(
            grid=grid,
            directory=tmp_path / "adaptive",
            target_relative_half_width=0.10,
            max_replications=24,
            batch_size=3,
        )
        assert result.complete
        by_rho = {point.labels["utilization"]: point for point in result.points}
        quiet, noisy = by_rho[0.5], by_rho[0.95]
        assert quiet.converged and noisy.converged
        assert quiet.replications == grid.replications  # converged immediately
        assert noisy.replications > quiet.replications  # budget went to the noise
        # And the allocation is itself resumable: interrupt a twin mid-flight
        # and the adaptive decisions come out identical.
        twin_dir = tmp_path / "adaptive-twin"
        twin = run_campaign(
            grid=grid,
            directory=twin_dir,
            target_relative_half_width=0.10,
            max_replications=24,
            batch_size=3,
            max_tasks=4,
        )
        assert not twin.complete
        twin = resume_campaign(twin_dir)
        assert twin.complete
        assert campaign_fingerprint(twin_dir) == campaign_fingerprint(tmp_path / "adaptive")

    def test_cap_retires_unconverged_points(self, tmp_path):
        result = run_campaign(
            grid=small_grid(utilizations=(0.95,), num_events=1000, replications=2),
            directory=tmp_path / "capped",
            target_relative_half_width=1e-6,  # unreachable
            max_replications=4,
            batch_size=2,
        )
        assert result.complete  # the campaign finishes...
        point = result.points[0]
        assert point.replications == 4  # ...at the cap
        assert not point.converged  # ...and says so

    def test_campaign_memory_is_o_points_not_o_jobs(self, tmp_path):
        """Per-point scheduler state must not grow with the replication
        count: streaming folds instead of sample lists, an empty
        out-of-order buffer once folded, slots everywhere."""
        from repro.campaigns.accumulators import PointAccumulator
        from repro.ensemble.stats import ReplicationStatistics

        result = run_campaign(
            grid=small_grid(utilizations=(0.8,), num_events=500, replications=32),
            directory=tmp_path / "wide",
        )
        assert result.complete and result.total_replications == 32
        accumulator = PointAccumulator()
        for index in range(10_000):
            accumulator.add(index, {"replication": index, "mean_delay": 2.0 + index * 1e-4})
        assert accumulator.count == 10_000
        assert accumulator.buffered == 0  # nothing retained per record
        assert not hasattr(accumulator, "__dict__")
        assert not hasattr(accumulator.statistics("mean_delay"), "__dict__")
        assert not hasattr(ReplicationStatistics(), "samples")


class TestOneFold:
    """Campaigns, grids and ensembles share one fold and one stopping rule,
    so the same point gives the same numbers through each of them."""

    def test_campaign_and_run_grid_agree_bitwise(self, tmp_path):
        grid = small_grid(utilizations=(0.9,), replications=4)
        campaign = run_campaign(grid=grid, directory=tmp_path / "camp")
        (row,) = campaign.records()
        (grid_row,) = run_grid(grid).records()
        assert row["mean_delay"] == grid_row["mean_delay"]
        assert row["delay_half_width"] == grid_row["delay_half_width"]

    def test_adaptive_campaign_and_ensemble_stop_together(self, tmp_path):
        grid = small_grid(utilizations=(0.95,), num_events=1500, replications=3, seed=11)
        (point,) = grid.points()
        seed = point_seed(grid.seed, point["labels"])
        campaign = run_campaign(
            grid=grid,
            directory=tmp_path / "camp",
            target_relative_half_width=0.10,
            max_replications=24,
        )
        ensemble = run_ensemble(
            spec=point["spec"].with_seed(seed),
            backend="fleet",
            replications=grid.replications,
            seed=seed,
            target_relative_half_width=0.10,
            max_replications=24,
        )
        (result,) = campaign.points
        assert result.converged
        assert result.replications > grid.replications  # the rule extended it
        assert result.replications == ensemble.replications
        assert result.metrics["mean_delay"]["mean"] == ensemble.delay.mean


class TestCampaignCli:
    def test_status_and_resume_round_trip(self, tmp_path):
        directory = tmp_path / "cli"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        run = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "campaign", "run",
                "--dir", str(directory),
                "--servers", "20", "--utilizations", "0.8",
                "--events", "1000", "--replications", "2", "--seed", "3",
                "--max-tasks", "1",
            ],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        assert "interrupted" in run.stdout and "campaign resume" in run.stdout

        snapshot_path = tmp_path / "status.json"
        status = subprocess.run(
            [sys.executable, "-m", "repro.cli", "campaign", "status",
             "--dir", str(directory), "--json", str(snapshot_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert status.returncode == 0, status.stderr
        assert "resumable" in status.stdout
        snapshot = json.loads(snapshot_path.read_text(encoding="utf-8"))
        assert snapshot["complete"] is False
        assert snapshot["counts"]["done"] == 1

        resume = subprocess.run(
            [sys.executable, "-m", "repro.cli", "campaign", "resume",
             "--dir", str(directory)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert resume.returncode == 0, resume.stderr
        assert "complete" in resume.stdout
        assert campaign_status(directory).complete

    def test_run_refuses_existing_directory(self, tmp_path):
        directory = tmp_path / "cli2"
        run_campaign(grid=small_grid(), directory=directory, max_tasks=1)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        rerun = subprocess.run(
            [sys.executable, "-m", "repro.cli", "campaign", "run",
             "--dir", str(directory), "--servers", "20",
             "--utilizations", "0.8", "--events", "1000"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert rerun.returncode != 0
        assert "resume" in rerun.stderr

    def test_manifest_records_provenance_and_policy(self, tmp_path):
        directory = tmp_path / "manifest"
        run_campaign(
            grid=small_grid(),
            directory=directory,
            target_relative_half_width=0.2,
            max_replications=8,
            max_tasks=1,
        )
        manifest = CampaignManifest.load(directory)
        assert manifest.target_relative_half_width == 0.2
        assert manifest.max_replications == 8
        assert manifest.grid["seed"] == 7
        assert "package_version" in manifest.provenance or manifest.provenance
