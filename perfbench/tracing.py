"""Span tracing of the ``repro`` layers, recorded from outside the program.

A :class:`Tracer` patches the module attribute each caller resolves (for
example ``repro.core.analysis.solve_bound_model``) with a wrapper that opens
a span around every call.  A span records its name, start, end, the span
that was open when it started, and a few numbers read from the call's
result.  Spans stay in memory until the run ends; :meth:`Tracer.restore`
puts every original attribute back.  The tracer keeps one stack of open
spans, so it is only meaningful when every traced call runs in this
process: traced runs use one worker.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    """One timed call: ``parent`` is the index of the enclosing span."""

    name: str
    start: float
    end: float = float("nan")
    parent: Optional[int] = None
    error: Optional[str] = None
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(target: str) -> Tuple[Any, str]:
    """``"pkg.module:Class.attr"`` -> (the object holding ``attr``, ``"attr"``)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attribute


class Tracer:
    """Records spans around patched calls; single-threaded by design."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = Span(name, time.perf_counter(), parent=self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        except Exception as error:
            span.error = type(error).__name__
            raise
        finally:
            self._open.pop()
            span.end = time.perf_counter()

    def wrap(
        self,
        target: str,
        name: str,
        annotate: Optional[Callable[[Span, Any], None]] = None,
        prepare: Optional[Callable[[Span, tuple], tuple]] = None,
    ) -> None:
        """Patch ``target`` so each call records a span called ``name``.

        ``annotate(span, result)`` copies numbers out of the result;
        ``prepare(span, args)`` may replace the positional arguments.
        """
        owner, attribute = _resolve(target)
        original = inspect.getattr_static(owner, attribute)
        function = original.__func__ if isinstance(original, (classmethod, staticmethod)) else original

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                if prepare is not None:
                    args = prepare(span, args)
                result = function(*args, **kwargs)
                if annotate is not None:
                    annotate(span, result)
                return result

        patched = type(original)(traced) if isinstance(original, (classmethod, staticmethod)) else traced
        setattr(owner, attribute, patched)
        self._patches.append((owner, attribute, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(index)
    result = []
    for index, span in enumerate(spans):
        covered, cursor = 0.0, span.start
        for child in sorted(children.get(index, ()), key=lambda i: spans[i].start):
            low, high = max(spans[child].start, cursor), min(spans[child].end, span.end)
            if high > low:
                covered += high - low
                cursor = high
        result.append(span.duration - covered)
    return result


def _outermost(spans: List[Span]) -> List[int]:
    """Spans with no ancestor of the same name (so nested calls count once)."""
    result = []
    for index, span in enumerate(spans):
        parent = span.parent
        while parent is not None and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent is None:
            result.append(index)
    return result


# --------------------------------------------------------------------- #
# The layers: which public functions to time, and what to read from them.
# --------------------------------------------------------------------- #
def _set(**readers: Callable[[Any], float]) -> Callable[[Span, Any], None]:
    def annotate(span: Span, result: Any) -> None:
        for key, read in readers.items():
            span.attrs[key] = float(read(result))

    return annotate


def _count_attempts(span: Span, args: tuple) -> tuple:
    """Wrap ``retry_call``'s operation so the span counts its attempts."""
    operation, *rest = args
    span.attrs["attempts"] = 0.0

    def counted():
        span.attrs["attempts"] += 1.0
        return operation()

    return (counted, *rest)


_EVENTS = _set(events=lambda returned: returned)
_ENSEMBLE = _set(
    replications=lambda result: len(result.records),
    busy=lambda result: sum(record["wall_seconds"] for record in result.records),
    workers=lambda result: result.config.workers,
)

#: (patched attribute, span name, annotate, prepare).  Several attributes
#: may share a span name when different callers resolve the same layer
#: through different modules.
LAYERS = (
    ("repro.api.runner:run", "api.run", None, None),
    ("repro.api.runner:select_backend", "api.select", None, None),
    ("repro.api.runner:require_capable", "api.select", None, None),
    ("repro.ensemble.results:provenance", "provenance", None, None),
    ("repro.campaigns.scheduler:provenance", "provenance", None, None),
    ("repro.core.bound_models:_BoundModelBase.qbd_blocks", "core.blocks", None, None),
    ("repro.core.analysis:solve_improved_lower_bound", "core.qbd_lower", None, None),
    ("repro.core.analysis:solve_bound_model", "core.qbd_upper", None, None),
    (
        "repro.core.qbd_solver:solve_G_logarithmic_reduction",
        "linalg.G",
        _set(iterations=lambda result: result.iterations),
        None,
    ),
    ("repro.core.qbd_solver:solve_constrained_left_nullspace", "linalg.stationary", None, None),
    ("repro.markov.ctmc:stationary_from_generator", "linalg.stationary", None, None),
    (
        "repro.markov.ctmc:ContinuousTimeMarkovChain.from_transition_function",
        "markov.enumerate",
        None,
        None,
    ),
    (
        "repro.core.exact:solve_exact_truncated",
        "core.exact",
        _set(states=lambda s: s.num_states, truncation_mass=lambda s: s.truncation_mass),
        None,
    ),
    ("repro.fleet.meanfield:meanfield_delay", "fleet.meanfield", None, None),
    ("repro.fleet.meanfield:meanfield_mean_queue_length", "fleet.meanfield", None, None),
    (
        "repro.simulation.gillespie:simulate_sqd_ctmc",
        "simulation.ctmc",
        _set(events=lambda result: result.num_events),
        None,
    ),
    ("repro.fleet.engine:FleetSimulation.advance", "fleet.advance", None, None),
    ("repro.kernels.python_kernel:PythonKernel.advance", "kernels.python", _EVENTS, None),
    ("repro.kernels.uniformized:UniformizedKernel.advance", "kernels.uniformized", _EVENTS, None),
    ("repro.ensemble.runner:run_ensemble", "ensemble", _ENSEMBLE, None),
    ("repro.experiments.figure9:run_ensemble", "ensemble", _ENSEMBLE, None),
    ("repro.experiments.figure9:run_figure9", "experiments.figure9", None, None),
    ("repro.campaigns.scheduler:run_campaign", "campaigns.run", None, None),
    ("repro.campaigns.scheduler:resume_campaign", "campaigns.resume", None, None),
    ("repro.campaigns.scheduler:campaign_status", "campaigns.status", None, None),
    ("repro.campaigns.scheduler:execute_task", "campaigns.task", None, None),
    ("repro.campaigns.queue:retry_call", "io.append", None, _count_attempts),
    ("repro.ensemble.results:retry_call", "io.append", None, _count_attempts),
)


def install_layers(tracer: Tracer) -> None:
    for target, name, annotate, prepare in LAYERS:
        tracer.wrap(target, name, annotate=annotate, prepare=prepare)


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer numbers of one traced pass, from its spans alone."""
    own = self_times(spans)
    outer = [spans[index] for index in _outermost(spans)]

    def of(name: str) -> List[Span]:
        return [span for span in outer if span.name == name]

    def calls(name: str) -> float:
        return float(len(of(name)))

    def busy(name: str) -> float:
        return sum(span.duration for span in of(name))

    def total(name: str, key: str) -> float:
        return sum(span.attrs.get(key, 0.0) for span in of(name))

    ctmc_events, ctmc_busy = total("simulation.ctmc", "events"), busy("simulation.ctmc")
    return {
        "api.run.calls": calls("api.run"),
        "api.run.self_ms": 1e3 * sum(t for s, t in zip(spans, own) if s.name == "api.run"),
        "api.select.busy_ms": 1e3 * busy("api.select"),
        "provenance.calls": calls("provenance"),
        "provenance.busy_ms": 1e3 * busy("provenance"),
        "core.blocks.busy_s": busy("core.blocks"),
        "core.qbd_lower.calls": calls("core.qbd_lower"),
        "core.qbd_lower.busy_s": busy("core.qbd_lower"),
        "core.qbd_upper.calls": calls("core.qbd_upper"),
        "core.qbd_upper.busy_s": busy("core.qbd_upper"),
        "core.qbd_upper.unstable": float(
            sum(span.error == "UnstableBoundModelError" for span in of("core.qbd_upper"))
        ),
        "linalg.G.busy_s": busy("linalg.G"),
        "linalg.G.iterations": total("linalg.G", "iterations"),
        "linalg.stationary.busy_s": busy("linalg.stationary"),
        "markov.enumerate.busy_s": busy("markov.enumerate"),
        "core.exact.calls": calls("core.exact"),
        "core.exact.busy_s": busy("core.exact"),
        "core.exact.states": total("core.exact", "states"),
        "core.exact.truncation_mass_max": max(
            (span.attrs.get("truncation_mass", 0.0) for span in of("core.exact")), default=0.0
        ),
        "fleet.meanfield.busy_ms": 1e3 * busy("fleet.meanfield"),
        "simulation.ctmc.events": ctmc_events,
        "simulation.ctmc.busy_s": ctmc_busy,
        "simulation.ctmc.events_per_s": ctmc_events / ctmc_busy if ctmc_busy > 0 else 0.0,
        "fleet.advance.calls": calls("fleet.advance"),
        "kernels.python.events": total("kernels.python", "events"),
        "kernels.python.busy_s": busy("kernels.python"),
        "kernels.uniformized.events": total("kernels.uniformized", "events"),
        "kernels.uniformized.busy_s": busy("kernels.uniformized"),
        "ensemble.calls": calls("ensemble"),
        "ensemble.replications": total("ensemble", "replications"),
        "ensemble.busy_s": total("ensemble", "busy"),
        "ensemble.wait_s": sum(
            span.duration - span.attrs["busy"] / span.attrs["workers"]
            for span in of("ensemble")
            if "busy" in span.attrs
        ),
        "experiments.figure9.busy_s": busy("experiments.figure9"),
        "campaigns.task.busy_s": busy("campaigns.task"),
        "campaigns.wait_s": busy("campaigns.run") + busy("campaigns.resume") - busy("campaigns.task"),
        "campaigns.resume_s": busy("campaigns.resume"),
        "campaigns.status_ms": 1e3 * busy("campaigns.status"),
        "campaigns.retries": total("io.append", "attempts") - calls("io.append"),
    }
