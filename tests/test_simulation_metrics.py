"""Tests for simulation output analysis."""

import math

import numpy as np
import pytest

from repro.simulation.metrics import (
    TimeAverageAccumulator,
    WaitingTimeAccumulator,
    batch_means_confidence_interval,
)


class TestBatchMeans:
    def test_mean_of_constant_series(self):
        summary = batch_means_confidence_interval([2.0] * 100)
        assert summary.mean == pytest.approx(2.0)
        assert summary.half_width == pytest.approx(0.0)

    def test_interval_contains_true_mean_for_iid_normal(self):
        rng = np.random.default_rng(5)
        samples = rng.normal(10.0, 2.0, size=20_000)
        summary = batch_means_confidence_interval(samples)
        assert summary.contains(10.0)
        assert summary.relative_half_width < 0.05

    def test_too_few_samples_still_works(self):
        summary = batch_means_confidence_interval([1.0, 2.0, 3.0, 4.0])
        assert summary.num_samples == 4
        assert 1.0 <= summary.mean <= 4.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            batch_means_confidence_interval([])

    def test_invalid_batch_count_rejected(self):
        with pytest.raises(ValueError):
            batch_means_confidence_interval([1.0, 2.0], num_batches=1)

    def test_interval_property(self):
        summary = batch_means_confidence_interval(list(range(100)))
        low, high = summary.interval
        assert low <= summary.mean <= high

    @pytest.mark.parametrize("confidence", [0.9, 0.95, 0.99])
    @pytest.mark.parametrize("num_batches", [2, 4, 20])
    def test_interval_matches_scipy_t_quantile(self, confidence, num_batches):
        # scipy stays the test-time reference for the package's own quantile.
        stats = pytest.importorskip("scipy.stats")
        samples = np.random.default_rng(3).normal(5.0, 1.0, size=400)
        summary = batch_means_confidence_interval(
            samples, num_batches=num_batches, confidence_level=confidence
        )
        batch_means = samples.reshape(num_batches, -1).mean(axis=1)
        expected = (
            stats.t.ppf(0.5 + confidence / 2.0, df=num_batches - 1)
            * batch_means.std(ddof=1)
            / math.sqrt(num_batches)
        )
        assert summary.half_width == pytest.approx(expected, rel=1e-9)


class TestWaitingTimeAccumulator:
    def test_warmup_jobs_are_discarded(self):
        accumulator = WaitingTimeAccumulator(warmup_jobs=2)
        for i in range(5):
            accumulator.record(float(i), float(i) + 1.0)
        assert accumulator.recorded_jobs == 3
        assert accumulator.discarded_jobs == 2
        assert accumulator.mean_waiting_time() == pytest.approx(3.0)
        assert accumulator.mean_sojourn_time() == pytest.approx(4.0)

    def test_no_warmup(self):
        accumulator = WaitingTimeAccumulator()
        accumulator.record(1.0, 2.0)
        assert accumulator.recorded_jobs == 1
        assert accumulator.waiting_times().tolist() == [1.0]

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError):
            WaitingTimeAccumulator(warmup_jobs=-1)

    def test_empty_accumulator_reports_nan(self):
        accumulator = WaitingTimeAccumulator()
        assert math.isnan(accumulator.mean_waiting_time())

    def test_summaries_use_recorded_samples(self):
        accumulator = WaitingTimeAccumulator()
        for i in range(200):
            accumulator.record(1.0, 2.0)
        assert accumulator.sojourn_summary().mean == pytest.approx(2.0)
        assert accumulator.waiting_summary().mean == pytest.approx(1.0)


class TestTimeAverageAccumulator:
    def test_piecewise_constant_average(self):
        acc = TimeAverageAccumulator()
        acc.observe(0.0, 1.0)
        acc.observe(1.0, 3.0)   # value 1 held for 1 time unit
        acc.observe(3.0, 0.0)   # value 3 held for 2 time units
        assert acc.average() == pytest.approx((1.0 * 1 + 3.0 * 2) / 3.0)
        assert acc.total_time == pytest.approx(3.0)

    def test_out_of_order_observations_rejected(self):
        acc = TimeAverageAccumulator()
        acc.observe(1.0, 1.0)
        with pytest.raises(ValueError):
            acc.observe(0.5, 2.0)

    def test_reset_discards_history(self):
        acc = TimeAverageAccumulator()
        acc.observe(0.0, 100.0)
        acc.observe(10.0, 1.0)
        acc.reset(10.0, 1.0)
        acc.observe(12.0, 0.0)
        assert acc.average() == pytest.approx(1.0)

    def test_no_time_reports_nan(self):
        acc = TimeAverageAccumulator()
        acc.observe(0.0, 1.0)
        assert math.isnan(acc.average())
