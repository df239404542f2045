"""End-to-end benchmark: five HTTP workload mixes with layer attribution.

Run ``python benchmarks/e2e/__main__.py`` (or ``python -m benchmarks.e2e``)
from the repository root; see ``README.md`` in this directory.
"""
