"""The repository benchmark: ``python3 perfbench/run.py --workload <name>``.

See ``perfbench/NOTES.md`` for the workloads, the metrics and the
protocol, and ``BENCHMARK.json`` for the metric list and bounds.
"""
