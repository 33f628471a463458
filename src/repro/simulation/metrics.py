"""Output analysis for simulations: accumulators, warm-up handling and CIs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.ensemble.stats import student_t_quantile


@dataclass(frozen=True)
class SimulationSummary:
    """Point estimate with a confidence interval and sample-size bookkeeping."""

    mean: float
    half_width: float
    num_samples: int
    confidence_level: float = 0.95

    @property
    def interval(self) -> Tuple[float, float]:
        return (self.mean - self.half_width, self.mean + self.half_width)

    def contains(self, value: float) -> bool:
        low, high = self.interval
        return low <= value <= high

    @property
    def relative_half_width(self) -> float:
        if self.mean == 0:
            return math.inf
        return self.half_width / abs(self.mean)


def batch_means_confidence_interval(
    samples: Sequence[float],
    num_batches: int = 20,
    confidence_level: float = 0.95,
) -> SimulationSummary:
    """Batch-means confidence interval for the mean of a correlated sample path.

    Per-job waiting times from a queueing simulation are autocorrelated, so a
    naive i.i.d. CI is too narrow; splitting the (post-warm-up) path into
    ``num_batches`` contiguous batches and treating the batch means as
    approximately independent is the standard remedy.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("cannot summarize an empty sample")
    if num_batches < 2:
        raise ValueError("need at least two batches")
    if samples.size < num_batches:
        num_batches = max(2, samples.size // 2) if samples.size >= 4 else 2
    batch_size = samples.size // num_batches
    usable = batch_size * num_batches
    batches = samples[:usable].reshape(num_batches, batch_size)
    batch_means = batches.mean(axis=1)
    grand_mean = float(batch_means.mean())
    if num_batches > 1 and batch_means.std(ddof=1) > 0:
        t_quantile = student_t_quantile(confidence_level, num_batches - 1)
        half_width = float(t_quantile * batch_means.std(ddof=1) / math.sqrt(num_batches))
    else:
        half_width = 0.0
    return SimulationSummary(
        mean=grand_mean,
        half_width=half_width,
        num_samples=int(samples.size),
        confidence_level=confidence_level,
    )


class WaitingTimeAccumulator:
    """Collects per-job metrics with an optional warm-up discard.

    The first ``warmup_jobs`` completed jobs are discarded, mirroring the
    paper's simulation methodology (10^8 jobs simulated, first 10^7
    discarded).
    """

    def __init__(self, warmup_jobs: int = 0):
        if warmup_jobs < 0:
            raise ValueError("warmup_jobs must be non-negative")
        self._warmup_jobs = warmup_jobs
        self._seen = 0
        self._waiting_times: List[float] = []
        self._sojourn_times: List[float] = []

    @property
    def recorded_jobs(self) -> int:
        return len(self._sojourn_times)

    @property
    def discarded_jobs(self) -> int:
        return min(self._seen, self._warmup_jobs)

    def record(self, waiting_time: float, sojourn_time: float) -> None:
        self._seen += 1
        if self._seen <= self._warmup_jobs:
            return
        self._waiting_times.append(waiting_time)
        self._sojourn_times.append(sojourn_time)

    def waiting_times(self) -> np.ndarray:
        return np.asarray(self._waiting_times, dtype=float)

    def sojourn_times(self) -> np.ndarray:
        return np.asarray(self._sojourn_times, dtype=float)

    def mean_waiting_time(self) -> float:
        return float(np.mean(self._waiting_times)) if self._waiting_times else math.nan

    def mean_sojourn_time(self) -> float:
        return float(np.mean(self._sojourn_times)) if self._sojourn_times else math.nan

    def sojourn_summary(self, confidence_level: float = 0.95) -> SimulationSummary:
        return batch_means_confidence_interval(self._sojourn_times, confidence_level=confidence_level)

    def waiting_summary(self, confidence_level: float = 0.95) -> SimulationSummary:
        return batch_means_confidence_interval(self._waiting_times, confidence_level=confidence_level)


class TimeAverageAccumulator:
    """Time-weighted average of a piecewise-constant sample path.

    Used by the CTMC simulator to average the number of jobs in the system,
    from which the mean sojourn time follows by Little's law.
    """

    def __init__(self) -> None:
        self._weighted_sum = 0.0
        self._total_time = 0.0
        self._last_value: float | None = None
        self._last_time: float | None = None

    def observe(self, time: float, value: float) -> None:
        """Record that the path takes ``value`` from ``time`` onward."""
        if self._last_time is not None:
            if time < self._last_time:
                raise ValueError("observations must be time-ordered")
            duration = time - self._last_time
            self._weighted_sum += duration * float(self._last_value)
            self._total_time += duration
        self._last_time = time
        self._last_value = float(value)

    @property
    def total_time(self) -> float:
        return self._total_time

    def average(self) -> float:
        if self._total_time <= 0:
            return math.nan
        return self._weighted_sum / self._total_time

    def reset(self, time: float, value: float) -> None:
        """Forget accumulated history (warm-up cut) but keep the current value."""
        self._weighted_sum = 0.0
        self._total_time = 0.0
        self._last_time = time
        self._last_value = float(value)
