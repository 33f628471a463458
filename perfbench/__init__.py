"""End-to-end and per-layer benchmark of the ``repro`` package.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``BENCHMARK.json`` names the
workloads and metrics, and ``perfbench/README.md`` explains them.
"""
