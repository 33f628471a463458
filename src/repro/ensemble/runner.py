"""Parallel multi-replication runner for every stochastic backend.

One *ensemble* is ``K`` statistically independent replications of the same
experiment spec on the same backend, fanned out over a pool of worker
processes and summarized by across-replication Student-t confidence
intervals (:mod:`repro.ensemble.stats`).  The runner is what turns a single
stochastic point estimate ("the mean delay came out as 2.31") into a
defensible one ("2.31 ± 0.04 at 95% confidence over 8 replications") — the
form in which a finite-``N`` estimate can be compared against the paper's
bounds and the mean-field limit.

The configuration is an :class:`repro.api.spec.ExperimentSpec` plus a
backend name.  :func:`execute_replication` runs one replication; it is the
package's only replication executor (ensembles, sweep grids, campaigns and
:func:`repro.run` all call it) and owns the only backend-fallback loop.

Determinism is a hard contract here, not a convenience:

* replication ``i`` always simulates with the ``i``-th child seed of the
  ensemble seed (:func:`repro.utils.seeding.spawn_seeds`), independently of
  which worker runs it, in which order tasks complete, or how many workers
  exist — ``workers=8`` and ``workers=1`` produce bitwise-identical records;
* the adaptive stopping rule extends the ensemble in fixed-size batches, so
  even precision-targeted runs are reproducible across machines with
  different core counts.

Worker processes execute a module-level function (picklable under every
``multiprocessing`` start method) and receive only plain data — the frozen
spec, the backend name and an integer seed — never live simulator objects.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.api.backends import (
    fallback_chain,
    get_backend,
    recoverable_backend_errors,
    require_capable,
    select_backend,
)
from repro.api.spec import ExperimentSpec, SpecError
from repro.ensemble.stats import ReplicationStatistics, next_batch
from repro.utils.seeding import spawn_seeds
from repro.utils.tables import format_table
from repro.utils.validation import ValidationError, check_integer, check_positive

__all__ = [
    "EnsembleConfig",
    "EnsembleResult",
    "RECORD_KEYS",
    "execute_replication",
    "split_record",
    "run_ensemble",
    "worker_pool",
]

#: Default number of replications added per adaptive extension round.  Fixed
#: (instead of "one batch per worker") so the stopping rule's trajectory does
#: not depend on the machine's core count.
DEFAULT_BATCH_SIZE = 4

#: Every key :func:`execute_replication` puts around a backend's metrics:
#: bookkeeping, wall-clock time and, for a degraded replication, the trail.
RECORD_KEYS = ("replication", "seed", "wall_seconds", "backend", "degraded_from", "degraded")

#: Record keys derived from wall-clock time rather than the simulation;
#: everything else in a record is a deterministic function of its inputs.
TIMING_KEYS = ("wall_seconds", "events_per_second")

#: Keys a stored line wraps around a record: the experiment, its ensemble or
#: campaign, and provenance.
CONTEXT_KEYS = ("spec", "labels", "point", "campaign", "ensemble_seed", "confidence", "provenance")

_NOT_OUTPUTS = frozenset((*RECORD_KEYS, *TIMING_KEYS, *CONTEXT_KEYS))


def split_record(record: Mapping[str, Any]) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Split a replication record into its metrics and its other outputs.

    This is the package's one definition of a *metric*: a numeric, non-bool
    backend output, which replications average.  The other outputs — text
    such as the fleet kernel, flags such as ``upper_bound_unstable`` — ride
    along unaveraged.  Bookkeeping (:data:`RECORD_KEYS`), wall-clock
    (:data:`TIMING_KEYS`) and stored context (:data:`CONTEXT_KEYS`) are in
    neither.  Both dicts keep the record's values and key order.
    """
    metrics: Dict[str, Any] = {}
    other: Dict[str, Any] = {}
    for key, value in record.items():
        if key in _NOT_OUTPUTS:
            continue
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            metrics[key] = value
        else:
            other[key] = value
    return metrics, other


# --------------------------------------------------------------------- #
# Worker side: one replication = (backend, spec, seed) -> record dict
# --------------------------------------------------------------------- #
def execute_replication(
    backend: str,
    spec: ExperimentSpec,
    seed: Optional[int],
    replication: int = 0,
    fallback: bool = True,
    replicable_only: bool = False,
) -> Dict[str, Any]:
    """Run one replication; returns its plain record dict.

    The record holds the replication index, the seed, every metric the
    backend reports (delays in units of ``1/mu``) and the wall-clock
    seconds.  It is a function of plain data only, so it runs unchanged
    inline, in a ``multiprocessing`` pool or in a campaign worker.

    When the backend raises a recoverable runtime failure (see
    :func:`repro.api.backends.recoverable_backend_errors`) and ``fallback``
    is on, the replication degrades along
    :func:`repro.api.backends.fallback_chain`.  The record then also names
    the ``backend`` that produced it, the ``degraded_from`` backends
    (comma-joined) and the ``degraded`` trail of ``{"backend", "error"}``
    entries.  A :class:`~repro.api.spec.SpecError` never falls back.
    ``replicable_only`` skips deterministic backends in the chain: one
    replication of an ensemble, grid point or campaign must stay a
    replication, not a copy of one deterministic answer.
    """
    started = time.perf_counter()
    engine = get_backend(backend)
    degraded: List[Dict[str, str]] = []
    while True:
        try:
            metrics = engine.run_once(spec, seed)
            break
        except recoverable_backend_errors() as error:
            tried = {engine.name, *(entry["backend"] for entry in degraded)}
            chain = fallback_chain(spec, exclude=tried) if fallback else []
            if replicable_only:
                chain = [option for option in chain if not option.capabilities.deterministic]
            if not chain:
                raise
            degraded.append({"backend": engine.name, "error": f"{type(error).__name__}: {error}"})
            engine = chain[0]
    record: Dict[str, Any] = {"replication": replication, "seed": seed}
    record.update(metrics)
    if degraded:
        record["backend"] = engine.name
        record["degraded_from"] = ",".join(entry["backend"] for entry in degraded)
        record["degraded"] = degraded
    record["wall_seconds"] = time.perf_counter() - started
    return record


# --------------------------------------------------------------------- #
# Driver side
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class EnsembleConfig:
    """One ensemble: an experiment spec, a backend, and a replication policy.

    Parameters
    ----------
    spec : ExperimentSpec
        The experiment to replicate.
    backend : str, optional
        A registered stochastic backend (``"ctmc"``, ``"cluster"``,
        ``"fleet"``); defaults to the cheapest capable one for the spec.
    replications : int
        Number of replications to run (the *initial* batch when
        ``target_relative_half_width`` is set).
    workers : int
        Worker processes.  ``1`` runs inline in the calling process (no
        pool); results are identical either way.
    seed : int or None
        Ensemble seed; replication ``i`` uses the ``i``-th derived child
        seed.  ``None`` gives a non-reproducible ensemble.
    confidence : float
        Two-sided confidence level of the reported intervals.
    target_relative_half_width : float or None
        If set, keep adding rounds of :data:`DEFAULT_BATCH_SIZE`
        replications until the CI half-width of ``mean_delay`` falls below
        this fraction of the mean (or ``max_replications`` is reached) —
        runs then terminate at a target *precision* instead of a fixed
        replication count (:func:`repro.ensemble.stats.next_batch`).
    max_replications : int
        Hard cap for the adaptive mode.
    """

    spec: Optional[ExperimentSpec] = None
    backend: Optional[str] = None
    replications: int = 8
    workers: int = 1
    seed: Optional[int] = 12345
    confidence: float = 0.95
    target_relative_half_width: Optional[float] = None
    max_replications: int = 64

    def __post_init__(self) -> None:
        if not isinstance(self.spec, ExperimentSpec):
            raise SpecError(f"EnsembleConfig needs spec=ExperimentSpec(...), got {self.spec!r}")
        if self.backend is None:
            object.__setattr__(self, "backend", select_backend(self.spec, replicable_only=True).name)
        else:
            require_capable(self.backend, self.spec)
        if get_backend(self.backend).capabilities.deterministic:
            raise SpecError(
                f"backend {self.backend!r} is deterministic — replicating it is "
                "meaningless; call repro.run(spec, backend=...) directly"
            )
        check_integer("replications", self.replications, minimum=1)
        check_integer("workers", self.workers, minimum=1)
        if not (0.0 < self.confidence < 1.0):
            raise ValidationError(f"confidence must be in (0, 1), got {self.confidence!r}")
        if self.target_relative_half_width is not None:
            check_positive("target_relative_half_width", self.target_relative_half_width)
            # The cap only matters in adaptive mode; a plain fixed-count run
            # may ask for any number of replications.
            check_integer("max_replications", self.max_replications, minimum=self.replications)
        else:
            check_integer("max_replications", self.max_replications, minimum=1)


@dataclass(frozen=True)
class EnsembleResult:
    """All replication records of one ensemble, plus CI summaries.

    Attributes
    ----------
    config : EnsembleConfig
        The configuration that produced the records.
    records : tuple of dict
        One plain record per replication, ordered by replication index.
        Each carries the replication index, its derived seed, every scalar
        metric the simulator reports (delays in units of ``1/mu``) and the
        per-replication wall-clock time in seconds.
    wall_seconds : float
        Wall-clock time of the whole ensemble (including pool start-up).
    """

    config: EnsembleConfig
    records: Tuple[Dict[str, Any], ...]
    wall_seconds: float = float("nan")

    @property
    def replications(self) -> int:
        """Number of replications actually executed."""
        return len(self.records)

    def metric_names(self) -> List[str]:
        """The metrics (see :func:`split_record`) shared by every record."""
        metrics, _ = split_record(self.records[0])
        return [key for key in metrics if all(key in record for record in self.records)]

    def simulation_records(self) -> List[Dict[str, Any]]:
        """Records with wall-clock keys stripped — the bitwise-reproducible
        part, which the determinism regression tests compare across runs,
        processes and worker counts."""
        return [
            {key: value for key, value in record.items() if key not in TIMING_KEYS}
            for record in self.records
        ]

    def samples(self, metric: str = "mean_delay") -> List[float]:
        """Per-replication values of one metric, in replication order."""
        if metric not in self.records[0]:
            raise ValidationError(
                f"unknown metric {metric!r}; available: {', '.join(self.metric_names())}"
            )
        return [float(record[metric]) for record in self.records]

    def statistics(self, metric: str = "mean_delay") -> ReplicationStatistics:
        """Across-replication statistics of one metric, in replication order."""
        return ReplicationStatistics.from_samples(
            self.samples(metric), confidence=self.config.confidence
        )

    @property
    def delay(self) -> ReplicationStatistics:
        """Statistics of the headline metric, the mean sojourn time."""
        return self.statistics("mean_delay")

    def as_table(self) -> str:
        """Render metric summaries (mean, CI, extremes) as a text table."""
        headers = ["metric", "mean", f"±{self.config.confidence:.0%} CI", "std", "min", "max"]
        rows = []
        for metric in self.metric_names():
            statistics = self.statistics(metric)
            rows.append(
                [
                    metric,
                    statistics.mean,
                    statistics.half_width,
                    statistics.std,
                    statistics.minimum,
                    statistics.maximum,
                ]
            )
        config = self.config
        title = (
            f"ensemble: {config.backend} ({config.spec.describe()}) x "
            f"{self.replications} replications (seed {config.seed})"
        )
        return format_table(headers, rows, title=title)


@contextlib.contextmanager
def worker_pool(workers: int):
    """Yield one shared ``multiprocessing.Pool`` (or ``None`` for one worker).

    Sweeps that call :func:`run_ensemble` once per grid point should open
    the pool here and pass it down, so pool start-up/tear-down is paid once
    per sweep instead of once per point.
    """
    check_integer("workers", workers, minimum=1)
    if workers == 1:
        yield None
        return
    pool = multiprocessing.Pool(processes=workers)
    try:
        yield pool
    finally:
        pool.close()
        pool.join()


def _run_batch(
    config: EnsembleConfig, start: int, count: int, pool, fallback: bool
) -> List[Dict[str, Any]]:
    """Execute replications ``start .. start + count - 1`` (ordered)."""
    seeds = spawn_seeds(config.seed, count, start=start)
    tasks = [
        (config.backend, config.spec, seed, start + offset, fallback, True)
        for offset, seed in enumerate(seeds)
    ]
    if pool is None:
        return [execute_replication(*task) for task in tasks]
    return list(pool.starmap(execute_replication, tasks))


def run_ensemble(
    spec: Optional[ExperimentSpec] = None,
    backend: Optional[str] = None,
    replications: int = 8,
    workers: int = 1,
    seed: Optional[int] = 12345,
    confidence: float = 0.95,
    target_relative_half_width: Optional[float] = None,
    max_replications: int = 64,
    config: Optional[EnsembleConfig] = None,
    pool=None,
    fallback: bool = True,
) -> EnsembleResult:
    """Run ``K`` independent replications of one experiment, in parallel.

    Parameters
    ----------
    spec : ExperimentSpec, optional
        The experiment to replicate (required unless ``config`` is given).
    backend : str, optional
        Stochastic backend name; auto-selected from the spec if omitted.
    replications, workers, seed, confidence, target_relative_half_width, \
max_replications :
        See :class:`EnsembleConfig`.  Ignored when ``config`` is given.
    config : EnsembleConfig, optional
        A pre-built configuration (used by the grid engine so one pool can
        be shared across many ensembles).
    pool : multiprocessing.Pool, optional
        An externally managed worker pool to schedule on.  The caller keeps
        ownership (it is not closed here); ``workers`` is then only
        recorded, not acted on.  This lets a sweep over many ensembles —
        the figure harnesses, the scale study — pay pool start-up once
        instead of once per point.
    fallback : bool
        Passed to :func:`execute_replication`: a replication whose backend
        hits a recoverable runtime failure degrades to the next capable
        stochastic backend (default), or re-raises the failure when
        ``False``.

    Returns
    -------
    EnsembleResult
        Ordered replication records plus CI statistics per metric.

    Notes
    -----
    The result is a deterministic function of ``(spec, backend,
    replications, seed, confidence, target_relative_half_width)``
    alone — the worker count only changes wall-clock time.

    Examples
    --------
    >>> from repro.api import ExperimentSpec
    >>> result = run_ensemble(
    ...     spec=ExperimentSpec.create(
    ...         num_servers=200, utilization=0.8, num_events=20_000),
    ...     replications=4,
    ...     seed=7,
    ... )
    >>> result.replications
    4
    """
    if config is None:
        config = EnsembleConfig(
            spec=spec,
            backend=backend,
            replications=replications,
            workers=workers,
            seed=seed,
            confidence=confidence,
            target_relative_half_width=target_relative_half_width,
            max_replications=max_replications,
        )
    started = time.perf_counter()
    owned_pool = None
    try:
        if pool is None and config.workers > 1:
            pool = owned_pool = multiprocessing.Pool(processes=config.workers)
        records = _run_batch(config, 0, config.replications, pool, fallback)
        statistics = ReplicationStatistics(confidence=config.confidence)
        while True:
            for record in records[statistics.count :]:
                statistics.add(record["mean_delay"])
            _, count = next_batch(
                statistics,
                len(records),
                config.target_relative_half_width,
                config.max_replications,
                DEFAULT_BATCH_SIZE,
            )
            if not count:
                break
            records.extend(_run_batch(config, len(records), count, pool, fallback))
    finally:
        if owned_pool is not None:
            owned_pool.close()
            owned_pool.join()
    return EnsembleResult(
        config=config,
        records=tuple(records),
        wall_seconds=time.perf_counter() - started,
    )
