"""The three benchmark workloads, each a closed loop with one client.

Every workload is built from the benchmark seed alone and runs in *passes*:
one pass issues the workload's full set of calls into ``repro``, one call
after the previous one returns, and checks every output.  Each workload
loads one group of layers and leaves the others idle, so a later change to
one layer shows on one workload and should read flat on the other two:

* ``fig10-bounds``: the paper's Figure 10 bracket through ``repro.run`` —
  QBD solves, exact solves and per-call API overhead, no simulation;
* ``fig9-sim``: the paper's Figure 9 simulations — CTMC simulation on a
  shared worker pool, no QBD solve;
* ``campaign-sweep``: an interrupted and resumed campaign of many short
  fleet replications — journal and record I/O, leases and folds.

Calls into ``repro`` resolve the module attribute at call time (for example
``_module("repro.api.runner").run``), so the tracer's patches take effect.
"""

from __future__ import annotations

import importlib
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.tracing import Tracer


def _module(name: str):
    return importlib.import_module(name)


def meanfield_reference(utilization: float, d: int) -> float:
    """Mean-field SQ(d) delay in units of 1/mu: sum_i rho^((d^i - d)/(d - 1)).

    The fixed point of the hydrodynamic limit (Mitzenmacher's Eq. 16),
    computed here independently of the package so it can check it.
    """
    if d == 1:
        return 1.0 / (1.0 - utilization)
    total, i = 0.0, 1
    while True:
        term = utilization ** ((d**i - d) / (d - 1))
        total += term
        if term < 1e-16:
            return total
        i += 1


@dataclass
class PassResult:
    """What one pass did: timed call latencies, checks, completed work."""

    latencies: List[float]
    attempted: int
    failures: List[str]
    tasks: int
    counters: Dict[str, float] = field(default_factory=dict)


class Client:
    """One closed-loop client: times each call and records failed checks.

    A call fails when it raises or when any check on its output fails; a
    call that raises returns ``None`` and its dependent checks are skipped.
    """

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.attempted = 0
        self.failed: Dict[int, str] = {}

    def call(self, label: str, function: Callable, *args, timed: bool = True, **kwargs) -> Tuple[int, Any]:
        index = self.attempted
        self.attempted += 1
        started = time.perf_counter()
        try:
            result = function(*args, **kwargs)
        except Exception as error:  # a failed call is a measured outcome
            self.failed[index] = f"{label} raised {type(error).__name__}: {error}"
            result = None
        if timed:
            self.latencies.append(time.perf_counter() - started)
        return index, result

    def check(self, index: int, ok: bool, message: str) -> None:
        if not ok and index not in self.failed:
            self.failed[index] = message

    def result(self, tasks: int, counters: Optional[Dict[str, float]] = None) -> PassResult:
        return PassResult(
            latencies=self.latencies,
            attempted=self.attempted,
            failures=list(self.failed.values()),
            tasks=tasks,
            counters=counters or {},
        )


def _finite(*values: float) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


# --------------------------------------------------------------------- #
# fig10-bounds
# --------------------------------------------------------------------- #
#: Figure 10 panels (N, T) and the paper's utilization grid.
PANELS = ((3, 2), (3, 3), (6, 3), (12, 3))
UTILIZATIONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
#: N = 3 utilizations solved exactly.  0.95 is kept on purpose: its
#: truncation mass exceeds the tolerance, so it is reported as unchecked.
EXACT_UTILIZATIONS = (0.9, 0.95)
#: The oracle check lower <= exact <= upper runs only where the exact
#: chain's truncation mass (probability of a full buffer) is below this.
TRUNCATION_TOLERANCE = 1e-3
#: Relative solver tolerance of the bracket comparisons.
SOLVER_TOLERANCE = 1e-6


class Fig10Bounds:
    """The Figure 10 bracket: QBD bounds, mean-field limit and exact oracle."""

    name = "fig10-bounds"

    def __init__(self, seed: int, workers: int, scratch: Path, tiny: bool = False) -> None:
        # The bracket is deterministic: the seed only stamps the specs.  The
        # call order stays fixed, because each call's latency depends on what
        # ran before it (heap and cache state).
        self.seed = seed
        panels = PANELS[:1] if tiny else PANELS
        utilizations = (0.5, 0.95) if tiny else UTILIZATIONS
        self.points = [(n, t, u) for n, t in panels for u in utilizations]
        self.exact_points = (0.5, 0.95) if tiny else EXACT_UTILIZATIONS

    def setup(self) -> None:
        _module("repro.core.solver_cache").clear_solver_cache()

    def prepare(self) -> None:
        """One unmeasured pass, so measured passes start from a full solver
        cache and a grown heap.  Without it the first pass's calls run in a
        smaller process, where spawning the ``git`` subprocess behind every
        ``run()`` is cheaper."""
        self.run_pass()

    def run_pass(self) -> PassResult:
        cache = _module("repro.core.solver_cache")
        ExperimentSpec = _module("repro.api.spec").ExperimentSpec
        cache.clear_solver_cache()  # every pass solves cold
        client = Client()
        brackets: Dict[float, List[Tuple[float, float]]] = {}
        for n, threshold, u in self.points:
            spec = ExperimentSpec.create(
                num_servers=n, d=2, utilization=u, threshold=threshold, seed=self.seed
            )
            label = f"N={n} T={threshold} rho={u}"
            index, bounds = client.call(
                f"qbd_bounds {label}", _module("repro.api.runner").run, spec, backend="qbd_bounds"
            )
            if bounds is not None:
                lower, upper = bounds.extras["lower_delay"], bounds.extras["upper_delay"]
                client.check(
                    index,
                    _finite(lower)
                    and lower >= 1.0
                    and bounds.mean_delay == lower
                    and upper >= lower * (1 - SOLVER_TOLERANCE),
                    f"qbd_bounds {label}: bad bracket [{lower}, {upper}]",
                )
                if n == 3:
                    brackets.setdefault(u, []).append((lower, upper))
            index, limit = client.call(
                f"meanfield {label}", _module("repro.api.runner").run, spec, backend="meanfield"
            )
            if limit is not None:
                reference = meanfield_reference(u, 2)
                client.check(
                    index,
                    math.isclose(limit.mean_delay, reference, rel_tol=1e-6),
                    f"meanfield {label}: {limit.mean_delay} != reference {reference}",
                )

        checked = unchecked = 0
        for u in self.exact_points:
            spec = ExperimentSpec.create(num_servers=3, d=2, utilization=u, seed=self.seed)
            index, exact = client.call(
                f"exact N=3 rho={u}", _module("repro.api.runner").run, spec, backend="exact"
            )
            if exact is None:
                continue
            delay, mass = exact.mean_delay, exact.extras["truncation_mass"]
            client.check(index, _finite(delay, mass), f"exact rho={u}: non-finite {delay}, {mass}")
            if mass > TRUNCATION_TOLERANCE:
                unchecked += 1  # not a pass: the truncated chain is too coarse here
                continue
            checked += 1
            for lower, upper in brackets.get(u, []):
                client.check(
                    index,
                    lower <= delay * (1 + SOLVER_TOLERANCE)
                    and (not math.isfinite(upper) or delay <= upper * (1 + SOLVER_TOLERANCE)),
                    f"oracle rho={u}: exact {delay} outside [{lower}, {upper}]",
                )
        stats = cache.solver_cache().stats
        return client.result(
            tasks=client.attempted - len(client.failed),
            counters={
                "core.solver_cache.hits": stats.hits,
                "core.solver_cache.misses": stats.misses,
                "oracle.checked": checked,
                "oracle.unchecked": unchecked,
            },
        )


# --------------------------------------------------------------------- #
# fig9-sim
# --------------------------------------------------------------------- #
FIG9_UTILIZATIONS = (0.75, 0.95)
FIG9_CHOICES = (2, 10, 50)
FIG9_SERVERS = (100, 250)
FIG9_EVENTS = 45_000
FIG9_REPLICATIONS = 4
#: The check "no simulated delay below the mean-field delay by more than
#: its half-width" uses the program's own half-width at this level.  At
#: 95% a correct simulation fails it by chance at ~2.5% of the points where
#: the finite-N delay is close to the limit (d = 50, rho = 0.75).  And a
#: ctmc run this short, started empty, is biased low at rho = 0.95: at
#: N = 250, d = 2 its mean is ~6% below the mean-field delay (~18% at 30k
#: events), while a long stationary run sits ~1% above it.  With four
#: replications the sample spread is sometimes small enough for that bias
#: to exceed a 99.99% half-width; at 99.999% that happens with probability
#: below 1e-4 per pass.
FIG9_CONFIDENCE = 0.99999


class Fig9Sim:
    """The Figure 9 simulations: run_figure9 per utilization on one pool."""

    name = "fig9-sim"

    def __init__(self, seed: int, workers: int, scratch: Path, tiny: bool = False) -> None:
        Figure9Config = _module("repro.experiments.figure9").Figure9Config
        self.workers = workers
        self.configs = [
            Figure9Config(
                utilization=rho,
                choices=(2,) if tiny else FIG9_CHOICES,
                server_counts=(10,) if tiny else FIG9_SERVERS,
                num_events=2_000 if tiny else FIG9_EVENTS,
                seed=seed,
                replications=2 if tiny else FIG9_REPLICATIONS,
                workers=workers,
                confidence=FIG9_CONFIDENCE,
            )
            for rho in FIG9_UTILIZATIONS
        ]

    def setup(self) -> None:
        """Start and stop one worker pool, as every run_figure9 call does."""
        with _module("repro.ensemble.runner").worker_pool(self.workers) as pool:
            if pool is not None:
                pool.map(abs, range(self.workers))

    def prepare(self) -> None:
        figure9 = _module("repro.experiments.figure9")
        figure9.run_figure9(
            figure9.Figure9Config(
                utilization=0.5, choices=(2,), server_counts=(4,), num_events=1_000,
                replications=2, workers=self.workers,
            )
        )

    def run_pass(self) -> PassResult:
        figure9 = _module("repro.experiments.figure9")
        client = Client()
        points = Tracer()  # times each grid point's ensemble, untraced runs too
        points.wrap("repro.experiments.figure9:run_ensemble", "point")
        replications = 0
        try:
            for config in self.configs:
                index, result = client.call(
                    f"run_figure9 rho={config.utilization}", figure9.run_figure9, config, timed=False
                )
                if result is None:
                    continue
                for d in config.choices:
                    reference = meanfield_reference(config.utilization, d)
                    client.check(
                        index,
                        math.isclose(result.asymptotic_delays[d], reference, rel_tol=1e-9),
                        f"rho={config.utilization} d={d}: asymptotic "
                        f"{result.asymptotic_delays[d]} != reference {reference}",
                    )
                    servers = result.server_counts_for(d)
                    for n, delay, half in zip(
                        servers, result.simulated_delays[d], result.delay_half_widths[d]
                    ):
                        client.check(
                            index,
                            _finite(delay, half) and delay >= reference - half,
                            f"rho={config.utilization} d={d} N={n}: simulated {delay} ± {half} "
                            f"below mean-field {reference}",
                        )
                    replications += len(servers) * config.replications
        finally:
            points.restore()
        client.latencies.extend(span.duration for span in points.spans)
        return client.result(tasks=replications)


# --------------------------------------------------------------------- #
# campaign-sweep
# --------------------------------------------------------------------- #
#: Stationary SQ(2) fleet grid: 8 points x 8 replications of 5k events.
CAMPAIGN_GRID = dict(
    server_counts=(50, 100),
    choices=(2,),
    utilizations=(0.7, 0.8, 0.9, 0.95),
    num_events=5_000,
    replications=8,
)
TINY_CAMPAIGN_GRID = dict(
    server_counts=(20,), choices=(2,), utilizations=(0.8,), num_events=2_000, replications=4
)


class CampaignSweep:
    """Campaign orchestration: interrupt halfway, resume, read the status."""

    name = "campaign-sweep"

    def __init__(self, seed: int, workers: int, scratch: Path, tiny: bool = False) -> None:
        # One worker: the scheduler then runs each task inline, so a pass
        # times the campaign's own bookkeeping.  With worker processes on a
        # two-core machine the scheduler competes with its own workers, and
        # the pass time spread by +-15% between runs.
        GridConfig = _module("repro.ensemble.grid").GridConfig
        self.grid = GridConfig(
            **(TINY_CAMPAIGN_GRID if tiny else CAMPAIGN_GRID), seed=seed, workers=1
        )
        self.total = len(self.grid.points()) * self.grid.replications
        self.scratch = scratch
        self.twin: Optional[Dict[str, Any]] = None

    def _fresh(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="campaign-", dir=self.scratch))

    def setup(self) -> None:
        """Create a campaign directory: manifest, queued tasks, worker start."""
        base = self._fresh()
        try:
            _module("repro.campaigns.scheduler").run_campaign(
                grid=self.grid, directory=base / "campaign", max_tasks=0
            )
        finally:
            shutil.rmtree(base)

    def prepare(self) -> None:
        """Run the clean, uninterrupted twin the resumed campaigns must match."""
        scheduler = _module("repro.campaigns.scheduler")
        base = self._fresh()
        try:
            scheduler.run_campaign(grid=self.grid, directory=base / "twin")
            self.twin = scheduler.campaign_fingerprint(base / "twin")
        finally:
            shutil.rmtree(base)

    def run_pass(self) -> PassResult:
        scheduler = _module("repro.campaigns.scheduler")
        client = Client()
        base = self._fresh()
        directory = base / "campaign"
        counters: Dict[str, float] = {}
        done = 0
        try:
            index, first = client.call(
                "run_campaign", scheduler.run_campaign,
                grid=self.grid, directory=directory, max_tasks=self.total // 2,
            )
            if first is None:
                return client.result(tasks=0)
            client.check(
                index,
                not first.complete and first.executed_tasks == self.total // 2,
                f"run_campaign stopped after {first.executed_tasks} tasks, "
                f"expected {self.total // 2}",
            )
            index, second = client.call("resume_campaign", scheduler.resume_campaign, directory)
            if second is not None:
                client.check(index, second.status == "complete", f"resume ended {second.status}")
                client.check(
                    index,
                    scheduler.campaign_fingerprint(directory) == self.twin,
                    "resumed campaign differs from its uninterrupted twin",
                )
            index, status = client.call("campaign_status", scheduler.campaign_status, directory)
            if status is not None:
                done = status.counts["done"]
                client.check(
                    index,
                    status.complete and done == self.total,
                    f"status: {done}/{self.total} tasks done",
                )
            if second is not None:
                executed = first.executed_tasks + second.executed_tasks
                counters = {
                    "campaigns.tasks_done": done,
                    "campaigns.tasks_executed": executed,
                    "campaigns.useful_ratio": done / executed if executed else 0.0,
                    "campaigns.quarantined": len(second.quarantined),
                    "campaigns.journal.bytes": (directory / "journal.jsonl").stat().st_size,
                    "campaigns.records.bytes": (directory / "records.jsonl").stat().st_size,
                }
        finally:
            shutil.rmtree(base)
        return client.result(tasks=done, counters=counters)


WORKLOADS = {cls.name: cls for cls in (Fig10Bounds, Fig9Sim, CampaignSweep)}
