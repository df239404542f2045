"""The repository's benchmark: the end-to-end HTTP benchmark in ``e2e``.

This package marker lets ``python -m benchmarks.e2e`` resolve from a clean
checkout; ``BENCHMARK.json`` declares the workloads and metrics it judges.
"""
