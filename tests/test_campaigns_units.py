"""Unit tests for the campaign building blocks.

The Welford fold and the ordered accumulators against stdlib references,
the durable task queue's transition/replay/reclaim machinery, and the
torn-line hardening of the JSONL layer.
"""

import json
import math
import statistics
import warnings

import pytest

from repro.campaigns.accumulators import PointAccumulator
from repro.campaigns.queue import QueueError, TaskQueue
from repro.ensemble.results import iter_jsonl, read_jsonl, repair_jsonl
from repro.ensemble.stats import ReplicationStatistics, student_t_quantile


# --------------------------------------------------------------------- #
# The Welford fold vs stdlib references
# --------------------------------------------------------------------- #
def reference_half_width(samples, confidence=0.95):
    """Student-t half-width from the stdlib's exactly-rounded variance."""
    return (
        student_t_quantile(confidence, len(samples) - 1)
        * math.sqrt(statistics.variance(samples))
        / math.sqrt(len(samples))
    )


class TestWelfordFold:
    def test_matches_stdlib_statistics_to_1e12(self):
        # Simulation-scale values (delays are O(1)..O(100)): the fold must
        # agree with the stdlib far below any tolerance an assertion would use.
        samples = [2.0 + math.sin(i) * 0.3 + i * 0.01 for i in range(257)]
        fold = ReplicationStatistics(confidence=0.99)
        for value in samples:
            fold.add(value)
        assert fold.count == len(samples)
        assert fold.mean == pytest.approx(statistics.fmean(samples), rel=1e-12)
        assert fold.variance == pytest.approx(statistics.variance(samples), rel=1e-12)
        assert fold.std == pytest.approx(statistics.stdev(samples), rel=1e-12)
        assert fold.half_width == pytest.approx(reference_half_width(samples, 0.99), rel=1e-12)
        assert fold.minimum == min(samples)
        assert fold.maximum == max(samples)

    def test_no_catastrophic_cancellation(self):
        # Large offset + small spread is where a naive sum-of-squares
        # accumulator loses most of its digits; Welford keeps them close to
        # the (accurate) two-pass formula even here.
        samples = [1e6 + math.sin(i) * 1e-3 + i * 0.1 for i in range(257)]
        fold = ReplicationStatistics()
        for value in samples:
            fold.add(value)
        mean = math.fsum(samples) / len(samples)
        two_pass = math.fsum((x - mean) ** 2 for x in samples) / (len(samples) - 1)
        assert fold.variance == pytest.approx(two_pass, rel=1e-9)
        naive = (
            math.fsum(x * x for x in samples) - len(samples) * mean**2
        ) / (len(samples) - 1)
        # Welford is no worse than the naive accumulator on this sample.
        assert abs(fold.variance - two_pass) <= abs(naive - two_pass) + 1e-12

    def test_degenerate_counts(self):
        fold = ReplicationStatistics()
        assert math.isnan(fold.variance)
        assert math.isnan(fold.standard_error)
        fold.add(4.0)
        assert fold.mean == 4.0
        assert math.isnan(fold.variance)  # ddof=1 needs two observations
        assert math.isnan(fold.half_width)
        assert not fold.precision_reached(0.5)

    def test_precision_rule_matches_reference(self):
        samples = [2.0, 2.1, 1.9, 2.05, 1.95, 2.02]
        fold = ReplicationStatistics.from_samples(samples, confidence=0.95)
        relative = reference_half_width(samples) / statistics.fmean(samples)
        for target in (0.5, 0.05, 0.01, 0.001):
            assert fold.precision_reached(target) == (relative <= target)

    def test_constant_memory_slots(self):
        fold = ReplicationStatistics()
        for i in range(50_000):
            fold.add(float(i))
        # __slots__ means no __dict__ — nothing can grow with the sample count.
        assert not hasattr(fold, "__dict__")
        assert fold.count == 50_000


class TestPointAccumulator:
    RECORDS = [
        {"replication": i, "seed": 100 + i, "mean_delay": 2.0 + 0.01 * i, "utilization": 0.9,
         "wall_seconds": 0.5, "kernel": "python"}
        for i in range(8)
    ]

    def test_out_of_order_fold_is_order_independent(self):
        forward = PointAccumulator()
        for record in self.RECORDS:
            assert forward.add(record["replication"], record)
        shuffled = PointAccumulator()
        order = [5, 0, 3, 1, 7, 2, 4, 6]
        for index in order:
            shuffled.add(index, self.RECORDS[index])
        assert shuffled.count == forward.count == len(self.RECORDS)
        assert shuffled.buffered == 0
        # Bitwise equality, not approx: the fold order is pinned.
        assert shuffled.summary() == forward.summary()

    def test_duplicates_rejected(self):
        accumulator = PointAccumulator()
        assert accumulator.add(0, self.RECORDS[0])
        assert not accumulator.add(0, self.RECORDS[0])  # already folded
        assert accumulator.add(2, self.RECORDS[2])      # buffered
        assert not accumulator.add(2, self.RECORDS[2])  # duplicate in buffer
        assert accumulator.count == 1 and accumulator.buffered == 1
        accumulator.add(1, self.RECORDS[1])
        assert accumulator.count == 3 and accumulator.buffered == 0

    def test_non_metric_keys_excluded(self):
        accumulator = PointAccumulator()
        accumulator.add(0, {"replication": 0, "seed": 1, "mean_delay": 2.0,
                            "wall_seconds": 1.0, "events_per_second": 1e6,
                            "kernel": "python", "converged": True})
        names = accumulator.metric_names()
        assert "mean_delay" in names
        assert "wall_seconds" not in names          # timing noise
        assert "events_per_second" not in names     # timing noise
        assert "seed" not in names                  # bookkeeping
        assert "converged" not in names             # bool is not a metric

    def test_streaming_matches_batch_on_metric(self):
        accumulator = PointAccumulator(confidence=0.95)
        for record in self.RECORDS:
            accumulator.add(record["replication"], record)
        samples = [r["mean_delay"] for r in self.RECORDS]
        fold = accumulator.statistics("mean_delay")
        assert fold.mean == pytest.approx(statistics.fmean(samples), rel=1e-12)
        assert fold.half_width == pytest.approx(reference_half_width(samples), rel=1e-12)


# --------------------------------------------------------------------- #
# Durable task queue
# --------------------------------------------------------------------- #
class TestTaskQueue:
    def test_lease_complete_roundtrip_and_replay(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        with TaskQueue(journal) as queue:
            assert queue.enqueue(["p:0", "p:1", "p:2"]) == 3
            assert queue.enqueue(["p:0"]) == 0  # idempotent
            assert queue.lease("w0", 60.0) == "p:0"
            queue.complete("p:0")
            assert queue.lease("w0", 60.0) == "p:1"
            assert queue.counts() == {
                "pending": 1, "leased": 1, "done": 1, "quarantined": 0, "total": 3,
            }
        # Replay: the lease on p:1 is stale (its process is gone) and is
        # reclaimed to the FRONT of the queue.
        with TaskQueue(journal) as queue:
            assert queue.counts() == {
                "pending": 2, "leased": 0, "done": 1, "quarantined": 0, "total": 3,
            }
            assert queue.lease("w1", 60.0) == "p:1"

    def test_release_goes_to_front(self, tmp_path):
        with TaskQueue(tmp_path / "j.jsonl") as queue:
            queue.enqueue(["a", "b", "c"])
            assert queue.lease("w0", 60.0) == "a"
            queue.release("a")
            assert queue.lease("w1", 60.0) == "a"  # work stealing: reclaimed first

    def test_reclaim_expired_and_dead(self, tmp_path):
        with TaskQueue(tmp_path / "j.jsonl") as queue:
            queue.enqueue(["a", "b", "c"])
            queue.lease("w0", lease_seconds=10.0, now=1000.0)
            queue.lease("w1", lease_seconds=100.0, now=1000.0)
            queue.lease("w2", lease_seconds=10_000.0, now=1000.0)
            # w0's lease expired; w2 is dead regardless of its deadline.
            reclaimed = queue.reclaim(now=1011.0, dead_workers=["w2"])
            assert set(reclaimed) == {"a", "c"}
            assert queue.leased_by("w1") == ["b"]
            # A heartbeat extends the deadline and saves the lease (w1's
            # un-heartbeated lease from above expires by now and goes too).
            queue.enqueue(["d"])
            queue.lease("w3", lease_seconds=10.0, now=2000.0)
            queue.heartbeat("w3", lease_seconds=10.0, now=2009.0)
            assert queue.reclaim(now=2015.0) == ["b"]
            # w3 leased "c": reclaimed tasks sit at the front of the queue,
            # ahead of the freshly enqueued "d" (work stealing).
            assert queue.leased_by("w3") == ["c"]

    def test_invalid_transitions_raise(self, tmp_path):
        with TaskQueue(tmp_path / "j.jsonl") as queue:
            queue.enqueue(["a"])
            with pytest.raises(QueueError):
                queue.complete("ghost")
            with pytest.raises(QueueError):
                queue.release("a")  # never leased
            queue.lease("w0", 60.0)
            queue.complete("a")
            queue.complete("a")  # idempotent completion is fine

    def test_torn_trailing_journal_line_is_repaired(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        with TaskQueue(journal) as queue:
            queue.enqueue(["a", "b"])
            queue.lease("w0", 60.0)
            queue.complete("a")
        # Simulate a crash mid-append: half a "done" event for b.
        with journal.open("a", encoding="utf-8") as handle:
            handle.write('{"event": "done", "ta')
        with TaskQueue(journal) as queue:
            assert queue.is_done("a")
            assert not queue.is_done("b")
            assert queue.lease("w1", 60.0) == "b"  # still runnable

    def test_read_only_queue_never_writes(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        with TaskQueue(journal) as queue:
            queue.enqueue(["a", "b"])
            queue.lease("w0", 60.0)
        before = journal.read_bytes()
        snapshot = TaskQueue(journal, reclaim_stale=False, read_only=True)
        assert snapshot.counts()["leased"] == 1  # stale lease NOT reclaimed
        with pytest.raises(QueueError):
            snapshot.enqueue(["c"])
        assert journal.read_bytes() == before

    def test_memory_is_ids_only(self, tmp_path):
        # The queue journals ids, never payloads: a thousand tasks cost a
        # thousand small strings, and the journal has no spec material in it.
        journal = tmp_path / "journal.jsonl"
        with TaskQueue(journal) as queue:
            queue.enqueue(f"deadbeefcafef00d:{i}" for i in range(1000))
        text = journal.read_text(encoding="utf-8")
        assert "num_servers" not in text and "spec" not in text
        assert len(text.splitlines()) == 1000


# --------------------------------------------------------------------- #
# Torn-line hardening of the JSONL layer (satellite)
# --------------------------------------------------------------------- #
class TestTornJsonl:
    def _write(self, path, lines, tail=""):
        with path.open("w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(json.dumps(line) + "\n")
            handle.write(tail)

    def test_reader_skips_and_warns_on_torn_tail(self, tmp_path):
        path = tmp_path / "records.jsonl"
        self._write(path, [{"a": 1}, {"a": 2}], tail='{"a": 3, "tru')
        with pytest.warns(RuntimeWarning, match="truncated trailing"):
            records = read_jsonl(path)
        assert records == [{"a": 1}, {"a": 2}]

    def test_reader_raises_on_midfile_corruption(self, tmp_path):
        path = tmp_path / "records.jsonl"
        with path.open("w", encoding="utf-8") as handle:
            handle.write('{"a": 1}\n{"bro\n{"a": 2}\n')
        with pytest.raises(ValueError, match="mid-file"):
            list(iter_jsonl(path))

    def test_clean_file_reads_without_warning(self, tmp_path):
        path = tmp_path / "records.jsonl"
        self._write(path, [{"a": 1}, {"a": 2}])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(read_jsonl(path)) == 2

    def test_repair_truncates_torn_tail(self, tmp_path):
        path = tmp_path / "records.jsonl"
        self._write(path, [{"a": 1}], tail='{"a": 2, "tr')
        removed = repair_jsonl(path)
        assert removed == len('{"a": 2, "tr')
        assert read_jsonl(path) == [{"a": 1}]
        assert repair_jsonl(path) == 0  # clean now
        assert repair_jsonl(tmp_path / "absent.jsonl") == 0

    def test_repair_refuses_midfile_corruption(self, tmp_path):
        path = tmp_path / "records.jsonl"
        with path.open("w", encoding="utf-8") as handle:
            handle.write('{"a": 1}\n{"bro\n{"a": 2}\n')
        with pytest.raises(ValueError, match="mid-file"):
            repair_jsonl(path)


class TestLeaseClockEdges:
    """Exact-boundary semantics of lease expiry, heartbeats and reclaim.

    The lease contract is ``deadline < now`` — a lease is stale strictly
    *after* its TTL, never at the instant of it.  These edges decide whether
    a slow-but-alive worker gets robbed of a task it is about to finish.
    """

    def test_lease_at_exact_ttl_boundary_survives(self, tmp_path):
        with TaskQueue(tmp_path / "j.jsonl") as queue:
            queue.enqueue(["a"])
            queue.lease("w0", 10.0, now=1000.0)  # deadline = 1010.0
            assert queue.reclaim(now=1010.0) == []  # exactly at TTL: alive
            assert queue.reclaim(now=1010.0 + 1e-6) == ["a"]  # past it: stale

    def test_heartbeat_at_expiry_instant_saves_the_lease(self, tmp_path):
        with TaskQueue(tmp_path / "j.jsonl") as queue:
            queue.enqueue(["a"])
            queue.lease("w0", 10.0, now=1000.0)
            # The heartbeat lands at the very moment the lease would lapse:
            # it must win, re-stamping the deadline from *its* clock.
            queue.heartbeat("w0", 10.0, now=1010.0)
            assert queue.reclaim(now=1015.0) == []
            assert queue.lease_of("a") == ("w0", 1020.0)
            assert queue.reclaim(now=1020.0 + 1e-6) == ["a"]

    def test_heartbeat_extends_every_lease_of_the_worker(self, tmp_path):
        with TaskQueue(tmp_path / "j.jsonl") as queue:
            queue.enqueue(["a", "b", "c"])
            queue.lease("w0", 10.0, now=1000.0)
            queue.lease("w0", 10.0, now=1005.0)
            queue.lease("w1", 10.0, now=1000.0)
            queue.heartbeat("w0", 10.0, now=1009.0)
            # Both of w0's leases now expire at 1019; w1's still at 1010.
            assert queue.reclaim(now=1012.0) == ["c"]
            assert sorted(queue.leased_by("w0")) == ["a", "b"]

    def test_reclaim_then_late_completion_folds_exactly_once(self, tmp_path):
        """The canonical split-brain race: w0's lease expires mid-task, the
        task is re-leased to w1, and *then* w0's completion arrives.  Done
        must win exactly once — on the queue, in the journal, and in the
        accumulator fold."""
        journal = tmp_path / "j.jsonl"
        with TaskQueue(journal) as queue:
            queue.enqueue(["a", "b"])
            queue.lease("w0", 10.0, now=1000.0)
            assert queue.reclaim(now=1011.0) == ["a"]  # w0 presumed dead
            assert queue.lease("w1", 10.0, now=1011.0) == "a"  # re-leased

            queue.complete("a")  # w0 was alive after all: late completion
            queue.complete("a")  # ... and w1 finishes the same task later
            assert queue.is_done("a")
            assert queue.counts()["done"] == 1

            # Exactly one durable "done" event, despite two completions.
            events = [
                json.loads(line)
                for line in journal.read_text(encoding="utf-8").splitlines()
            ]
            assert sum(1 for e in events if e.get("event") == "done") == 1

        # The replayed queue agrees with the live one.
        with TaskQueue(journal) as queue:
            assert queue.is_done("a") and queue.counts()["done"] == 1
            assert queue.lease("w2", 10.0) == "b"  # only the unfinished task

        # And the accumulator folds the record once no matter how many
        # times the duplicated completion hands it the same replication.
        accumulator = PointAccumulator()
        assert accumulator.add(0, {"mean_delay": 2.0}) is True
        assert accumulator.add(0, {"mean_delay": 2.0}) is False
        assert accumulator.count == 1
        assert accumulator.statistics("mean_delay").count == 1

    def test_expired_lease_is_relieved_at_front_of_queue(self, tmp_path):
        with TaskQueue(tmp_path / "j.jsonl") as queue:
            queue.enqueue(["a", "b", "c"])
            assert queue.lease("w0", 10.0, now=1000.0) == "a"
            queue.reclaim(now=2000.0)
            # The reclaimed task outranks everything still pending: it was
            # enqueued before them and its point is the furthest behind.
            assert queue.lease("w1", 10.0, now=2000.0) == "a"
            assert queue.lease("w1", 10.0, now=2000.0) == "b"
