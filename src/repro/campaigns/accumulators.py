"""Constant-memory streaming statistics for campaign-scale sweeps.

A million-job campaign cannot afford the per-job lists the ensemble layer
keeps (`ReplicationStatistics.samples`): folding each replication record into
Welford-updated running moments keeps the scheduler's footprint at
``O(points)``, independent of how many replications each point accumulates.

Two layers:

* :class:`StreamingMoments` — one scalar metric: count, Welford mean/M2,
  min/max.  Confidence intervals route through
  :func:`repro.ensemble.stats.t_half_width`, the same Student-t math the
  batch path uses, so streaming and batch summaries agree to floating-point
  round-off (the unit tests pin 1e-12).

* :class:`PointAccumulator` — all metrics of one grid point, folded in
  **replication order**.  Records may arrive from workers in any order; the
  accumulator buffers out-of-order arrivals (bounded by the in-flight batch,
  not by the campaign size) and feeds the moments strictly as replication
  0, 1, 2, ...  A fixed fold order is what makes the final campaign
  estimates *bitwise identical* no matter how tasks were scheduled, how many
  workers ran, or how often the campaign was interrupted and resumed.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.ensemble.runner import RECORD_KEYS, EnsembleResult
from repro.ensemble.stats import t_half_width
from repro.utils.validation import ValidationError, check_positive

__all__ = ["PointAccumulator", "StreamingMoments"]

#: Record keys that are bookkeeping or wall-clock noise, never metrics.
NON_METRIC_KEYS = frozenset(
    {
        *RECORD_KEYS,
        *EnsembleResult.TIMING_KEYS,
        *EnsembleResult.TEXT_KEYS,
        "spec",
        "labels",
        "point",
        "campaign",
        "ensemble_seed",
        "confidence",
        "provenance",
    }
)


class StreamingMoments:
    """Welford running mean/variance of one scalar metric, O(1) memory."""

    __slots__ = ("count", "mean", "_m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        """Fold one observation (Welford's update — no catastrophic
        cancellation, unlike the naive sum-of-squares form)."""
        value = float(value)
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def variance(self) -> float:
        """Unbiased sample variance (ddof=1); ``nan`` below two observations."""
        if self.count < 2:
            return float("nan")
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        """Sample standard deviation; ``nan`` below two observations."""
        variance = self.variance
        return math.sqrt(variance) if variance == variance else float("nan")

    @property
    def standard_error(self) -> float:
        """Standard error of the mean, ``s / sqrt(K)``."""
        if self.count < 1:
            return float("nan")
        return self.std / math.sqrt(self.count)

    def half_width(self, confidence: float = 0.95) -> float:
        """Student-t CI half-width (same math as the batch path)."""
        return t_half_width(self.count, self.variance, confidence)

    def relative_half_width(self, confidence: float = 0.95) -> float:
        """Half-width over |mean| — what the per-point stopping rule targets."""
        if self.mean == 0.0:
            return float("inf")
        return self.half_width(confidence) / abs(self.mean)

    def precision_reached(self, target: float, confidence: float = 0.95) -> bool:
        """The relative-precision stopping rule, streaming form.

        ``False`` below two observations (no variance estimate yet), exactly
        like :meth:`ReplicationStatistics.precision_reached`.
        """
        check_positive("target", target)
        relative = self.relative_half_width(confidence)
        return relative == relative and relative <= target

    def to_dict(self, confidence: float = 0.95) -> Dict[str, Any]:
        """Flat summary (count, mean, variance, CI, extremes) for export."""
        return {
            "n": self.count,
            "mean": self.mean,
            "variance": self.variance,
            "std": self.std,
            "half_width": self.half_width(confidence),
            "min": self.minimum if self.count else float("nan"),
            "max": self.maximum if self.count else float("nan"),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StreamingMoments(n={self.count}, mean={self.mean:.6g})"


class PointAccumulator:
    """All metric moments of one grid point, folded in replication order.

    ``add`` accepts records in *any* arrival order and returns whether the
    record was fresh; duplicates (a task re-run after a crash that lost the
    completion marker but not the record) are ignored, which is safe because
    content-addressed seeds make a re-run's metrics identical anyway.
    """

    __slots__ = ("confidence", "metrics", "next_index", "folded", "_pending", "_skipped")

    def __init__(self, confidence: float = 0.95) -> None:
        if not (0.0 < confidence < 1.0):
            raise ValidationError(f"confidence must be in (0, 1), got {confidence!r}")
        self.confidence = confidence
        self.metrics: Dict[str, StreamingMoments] = {}
        self.next_index = 0  # replication index the ordered fold expects next
        self.folded = 0  # records actually folded (skipped holes excluded)
        self._pending: Dict[int, Dict[str, float]] = {}
        self._skipped: set = set()

    @staticmethod
    def metric_values(record: Mapping[str, Any]) -> Dict[str, float]:
        """The foldable scalar metrics of one replication record."""
        values = {}
        for key, value in record.items():
            if key in NON_METRIC_KEYS or isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                values[key] = float(value)
        return values

    def add(self, replication: int, record: Mapping[str, Any]) -> bool:
        """Fold one record; returns ``False`` for duplicates."""
        replication = int(replication)
        if (
            replication < self.next_index
            or replication in self._pending
            or replication in self._skipped
        ):
            return False
        self._pending[replication] = self.metric_values(record)
        self._advance()
        return True

    def skip(self, replication: int) -> bool:
        """Advance the ordered fold past a hole that will never fill.

        A quarantined poison task produces no record, ever; without a skip
        the contiguous fold would stall at its index and every later record
        of the point would buffer forever.  Skipped indices contribute no
        observations — they only unblock the fold.
        """
        replication = int(replication)
        if replication < self.next_index or replication in self._skipped:
            return False
        self._skipped.add(replication)
        self._advance()
        return True

    def _advance(self) -> None:
        while True:
            if self.next_index in self._pending:
                for key, value in self._pending.pop(self.next_index).items():
                    moments = self.metrics.get(key)
                    if moments is None:
                        moments = self.metrics[key] = StreamingMoments()
                    moments.add(value)
                self.folded += 1
                self.next_index += 1
            elif self.next_index in self._skipped:
                self._skipped.discard(self.next_index)
                self.next_index += 1
            else:
                return

    @property
    def count(self) -> int:
        """Replications folded so far (records only; skipped holes excluded)."""
        return self.folded

    @property
    def buffered(self) -> int:
        """Out-of-order records waiting for a predecessor (bounded by the
        in-flight window, not the campaign size)."""
        return len(self._pending)

    def statistics(self, metric: str = "mean_delay") -> StreamingMoments:
        """Moments of one metric (an empty accumulator if never observed)."""
        return self.metrics.get(metric, StreamingMoments())

    def precision_reached(self, target: Optional[float], metric: str = "mean_delay") -> bool:
        """Per-point stopping rule on the headline metric."""
        if target is None:
            return False
        return self.statistics(metric).precision_reached(target, self.confidence)

    def summary(self) -> Dict[str, Dict[str, Any]]:
        """Per-metric flat summaries, metric names sorted."""
        return {
            name: self.metrics[name].to_dict(self.confidence)
            for name in sorted(self.metrics)
        }

    def metric_names(self) -> List[str]:
        return sorted(self.metrics)

    def mean_and_half_width(self, metric: str = "mean_delay") -> Tuple[float, float]:
        moments = self.statistics(metric)
        return moments.mean, moments.half_width(self.confidence)
