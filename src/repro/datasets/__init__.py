"""Datasets: the paper's toy instances and a scalable SNB-like generator.

:func:`load` is the one way in: ``load("snb", scale=500).install(engine)``
builds and registers a dataset in one call; :func:`available` names them.
"""

from .registry import Dataset, available, load

__all__ = ["Dataset", "available", "load"]
