"""Benchmark entry point: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig10-bounds --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; a workload
that uses worker processes gets as many as the machine has (at most two).
``--trace 1`` is a separate run on one worker: it spends half its time on
untraced passes and half on traced passes, and reports the per-layer
metrics plus the tracing overhead.
Comment lines (``# ...``) describe the run and the machine; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A record with the machine fingerprint, the
metrics and, for traced runs, every span is written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUTPUT = ROOT / ".perfbench"

#: Develop a performance change on any seed; confirm the claim on this one.
CONFIRM_SEED = 7919

#: Set-up is repeated this many times per run; setup_s is the median.
SETUP_ROUNDS = 3

#: Per-layer metrics that come from the workloads' own counters (the rest
#: come from spans, see perfbench.tracing.layer_metrics).
COUNTERS = (
    "core.solver_cache.hits",
    "core.solver_cache.misses",
    "oracle.checked",
    "oracle.unchecked",
    "campaigns.tasks_done",
    "campaigns.tasks_executed",
    "campaigns.useful_ratio",
    "campaigns.journal.bytes",
    "campaigns.records.bytes",
    "campaigns.quarantined",
)


def unit_of(name: str) -> str:
    """Every metric's unit follows from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("_frac", "_ratio", "_max")):
        return "ratio"
    return "count"


def workers_available() -> int:
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        cores = os.cpu_count() or 1
    return max(1, min(2, cores))


def machine_fingerprint() -> Dict[str, object]:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=5
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
    }


def fresh_import() -> tuple:
    """(wall seconds of a fresh interpreter importing repro, import time inside it)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import time; t = time.perf_counter(); import repro; print(time.perf_counter() - t)"
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, check=True
    )
    return time.perf_counter() - started, float(completed.stdout)


def pool_start(workers: int) -> float:
    from repro.ensemble.runner import worker_pool

    started = time.perf_counter()
    with worker_pool(workers) as pool:
        if pool is not None:
            pool.map(abs, range(workers))
    return time.perf_counter() - started


def _rss_kib(pid: str) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    except (OSError, ValueError):  # the process just exited
        pass
    return 0


def _worker_pids() -> List[str]:
    """Children of this process running this interpreter (pool and campaign
    workers), not short-lived tools such as ``git`` that ``repro`` spawns."""
    me, exe = str(os.getpid()), os.path.realpath(sys.executable)
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
            if stat.rsplit(")", 1)[1].split()[1] == me and os.path.realpath(f"/proc/{entry}/exe") == exe:
                pids.append(entry)
        except (OSError, IndexError):
            continue
    return pids


class MemorySampler:
    """Peak resident memory of this process plus its worker processes.

    This process's own peak is exact (``ru_maxrss``); workers are sampled
    every ``period`` seconds from ``/proc`` on Linux.  A child counts only
    once two samples in a row have seen it: a subprocess caught between
    fork and exec still shows this interpreter and this process's memory.
    """

    def __init__(self, period: float = 0.05) -> None:
        self.peak_kib = 0
        self._period = period
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        seen: set = set()
        while not self._stop.wait(self._period):
            current = set(_worker_pids())
            total = _rss_kib("self") + sum(_rss_kib(pid) for pid in current & seen)
            self.peak_kib = max(self.peak_kib, total)
            seen = current

    def __enter__(self) -> "MemorySampler":
        if Path("/proc/self/status").exists():
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()

    @property
    def peak_mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
        return max(own, self.peak_kib) / 1024.0


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100])."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def run_passes(workload, seconds: float, traced: bool, spans: list) -> list:
    """Run passes while the next one, as long as the last, fits in ``seconds``.

    At least one pass runs.  Returns one ``(wall, PassResult)`` per pass.
    """
    from perfbench.tracing import Tracer, install_layers

    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        tracer = Tracer() if traced else None
        if tracer is not None:
            install_layers(tracer)
        started = time.perf_counter()
        try:
            if tracer is None:
                result = workload.run_pass()
            else:
                with tracer.span("pass"):
                    result = workload.run_pass()
        finally:
            wall = time.perf_counter() - started
            if tracer is not None:
                tracer.restore()
                spans.append(tracer.spans)
        passes.append((wall, result))
        if time.perf_counter() + wall > deadline:
            return passes


def main(argv: Optional[List[str]] = None, tiny: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}", file=sys.stderr)
        return 2
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.tracing import layer_metrics
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} ({', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    fingerprint = machine_fingerprint()  # before the passes grow this process
    OUTPUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUTPUT))
    try:
        traced = bool(args.trace)
        workers = 1 if traced else workers_available()
        workload = WORKLOADS[args.workload](args.seed, workers, scratch, tiny=tiny)

        setups, imports = [], []
        for _ in range(1 if tiny else SETUP_ROUNDS):
            wall, inner = fresh_import()
            started = time.perf_counter()
            workload.setup()
            setups.append(wall + time.perf_counter() - started)
            imports.append(inner)
        workload.prepare()

        spans: list = []
        if traced:
            plain = run_passes(workload, args.seconds / 2, traced=False, spans=spans)
            passes = run_passes(workload, args.seconds / 2, traced=True, spans=spans)
            every = plain + passes
        else:
            with MemorySampler() as memory:
                passes = every = run_passes(workload, args.seconds, traced=False, spans=spans)

        attempted = sum(result.attempted for _, result in every)
        failures = [message for _, result in every for message in result.failures]
        walls = [wall for wall, _ in passes]
        latencies = [latency for _, result in passes for latency in result.latencies]
        if traced:
            per_pass = []
            for pass_spans, (_, result) in zip(spans, passes):
                values = dict.fromkeys(COUNTERS, 0.0)
                values.update(layer_metrics(pass_spans))
                values.update(result.counters)
                per_pass.append(values)
            metrics = {name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]}
            metrics["ensemble.pool_start_s"] = statistics.median(
                pool_start(workers_available()) for _ in range(1 if tiny else 3)
            )
            metrics["process.import_s"] = statistics.median(imports)
            metrics["trace.overhead_frac"] = (
                statistics.median(walls) / statistics.median(wall for wall, _ in plain) - 1.0
            )
        else:
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(walls),
                "call_p50_ms": 1e3 * percentile(latencies, 50),
                "call_p90_ms": 1e3 * percentile(latencies, 90),
                "tasks_per_s": sum(result.tasks for _, result in passes) / sum(walls),
                "peak_rss_mb": memory.peak_mb,
            }

        counters = passes[-1][1].counters
        print(f"# machine {json.dumps(fingerprint, sort_keys=True)}")
        print(
            f"# {args.workload} seed {args.seed} (confirm claims on seed {CONFIRM_SEED}), "
            f"{'traced, 1 worker' if traced else f'up to {workers} workers'}: {len(passes)} passes, "
            f"{len(latencies)} timed calls"
        )
        print(f"# failed_frac {len(failures) / attempted:.4g} ({len(failures)}/{attempted})")
        if "oracle.unchecked" in counters:
            print(
                f"# oracle.checked {counters['oracle.checked']:g}, oracle.unchecked "
                f"{counters['oracle.unchecked']:g} (truncation mass above tolerance)"
            )
        for name, value in metrics.items():
            print(f"# {name} = {value:.6g} {unit_of(name)}")
        for message in failures[:20]:
            print(f"perfbench: FAILED {message}", file=sys.stderr)

        record = {
            "workload": args.workload,
            "seed": args.seed,
            "confirm_seed": CONFIRM_SEED,
            "trace": args.trace,
            "seconds": args.seconds,
            "machine": fingerprint,
            "metrics": metrics,
            "failures": failures,
            "pass_walls": walls,
            "spans": [[asdict(span) for span in pass_spans] for pass_spans in spans],
        }
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (OUTPUT / name).write_text(json.dumps(record, default=str) + "\n")
        print(
            json.dumps(
                {
                    "correct": not failures,
                    "attempted": attempted,
                    "failed": len(failures),
                    "metrics": {
                        name: {"value": float(value), "unit": unit_of(name)} for name, value in metrics.items()
                    },
                }
            )
        )
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
