"""Per-point accumulators for campaign-scale sweeps, folded in replication order.

A campaign folds every replication record into one
:class:`~repro.ensemble.stats.ReplicationStatistics` per metric — the same
streaming Welford fold ensembles and :func:`repro.run` summarize through —
the moment it arrives, so the scheduler's footprint stays ``O(points)``
however many replications each point accumulates.

What this module adds is *order*.  Records may arrive from workers in any
order; :class:`PointAccumulator` buffers out-of-order arrivals (bounded by
the in-flight batch, not by the campaign size) and feeds the folds strictly
as replication 0, 1, 2, ...  A fixed fold order is what makes the final
campaign estimates *bitwise identical* no matter how tasks were scheduled,
how many workers ran, or how often the campaign was interrupted and
resumed — and identical to an ensemble or grid run of the same point.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

from repro.ensemble.runner import split_record
from repro.ensemble.stats import ReplicationStatistics

__all__ = ["PointAccumulator"]


class PointAccumulator:
    """All metric folds of one grid point, in replication order.

    ``add`` accepts records in *any* arrival order and returns whether the
    record was fresh; duplicates (a task re-run after a crash that lost the
    completion marker but not the record) are ignored, which is safe because
    content-addressed seeds make a re-run's metrics identical anyway.
    """

    __slots__ = ("confidence", "metrics", "next_index", "count", "_pending", "_skipped")

    def __init__(self, confidence: float = 0.95) -> None:
        self.confidence = confidence
        self.metrics: Dict[str, ReplicationStatistics] = {}
        self.next_index = 0  # replication index the ordered fold expects next
        self.count = 0  # records folded so far (skipped holes excluded)
        self._pending: Dict[int, Dict[str, Any]] = {}
        self._skipped: set = set()

    def add(self, replication: int, record: Mapping[str, Any]) -> bool:
        """Fold one record; returns ``False`` for duplicates."""
        replication = int(replication)
        if (
            replication < self.next_index
            or replication in self._pending
            or replication in self._skipped
        ):
            return False
        self._pending[replication] = split_record(record)[0]
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
                    statistics = self.metrics.get(key)
                    if statistics is None:
                        statistics = self.metrics[key] = ReplicationStatistics(self.confidence)
                    statistics.add(value)
                self.count += 1
                self.next_index += 1
            elif self.next_index in self._skipped:
                self._skipped.discard(self.next_index)
                self.next_index += 1
            else:
                return

    @property
    def buffered(self) -> int:
        """Out-of-order records waiting for a predecessor (bounded by the
        in-flight window, not the campaign size)."""
        return len(self._pending)

    def statistics(self, metric: str = "mean_delay") -> ReplicationStatistics:
        """The fold of one metric (an empty fold if never observed)."""
        return self.metrics.get(metric) or ReplicationStatistics(self.confidence)

    def summary(self) -> Dict[str, Dict[str, Any]]:
        """Per-metric flat summaries, metric names sorted."""
        return {name: self.metrics[name].to_dict() for name in sorted(self.metrics)}

    def metric_names(self) -> List[str]:
        return sorted(self.metrics)
