"""One front door for every built-in dataset: a registry keyed by name.

::

    from repro.datasets import load

    dataset = load("snb", scale=500, seed=7)
    dataset.install(engine)            # registers graphs + tables
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

from ..model.graph import PathPropertyGraph
from ..table import Table
from .generator import COMPANY_COUNT, _companies_graph, _snb_graph
from .paper import _company_graph, _figure2_graph, _orders_table, _social_graph


@dataclass(frozen=True)
class Dataset:
    """A loaded dataset: named graphs, named tables, one default graph."""

    name: str
    graphs: Mapping[str, PathPropertyGraph]
    tables: Mapping[str, Table] = field(default_factory=dict)
    default_graph: Optional[str] = None

    def install(self, engine, *, set_default: bool = True) -> None:
        """Register every graph and table of this dataset on *engine*.

        With ``set_default=False`` the engine's current default graph is
        left alone — use it when layering a secondary dataset on top of
        an already-populated engine.
        """
        for graph_name, graph in self.graphs.items():
            engine.register_graph(
                graph_name,
                graph,
                default=(set_default and graph_name == self.default_graph),
            )
        for table_name, table in self.tables.items():
            engine.register_table(table_name, table)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dataset({self.name!r}, graphs={sorted(self.graphs)}, "
            f"tables={sorted(self.tables)}, default={self.default_graph!r})"
        )


def _load_paper(scale: Optional[int], seed: Optional[int]) -> Dataset:
    _reject_knobs("paper", scale, seed)
    return Dataset(
        name="paper",
        graphs={
            "social_graph": _social_graph(),
            "company_graph": _company_graph(),
        },
        tables={"orders": _orders_table()},
        default_graph="social_graph",
    )


def _load_figure2(scale: Optional[int], seed: Optional[int]) -> Dataset:
    _reject_knobs("figure2", scale, seed)
    return Dataset(
        name="figure2",
        graphs={"figure2": _figure2_graph()},
        default_graph="figure2",
    )


def _load_snb(scale: Optional[int], seed: Optional[int]) -> Dataset:
    graph = _snb_graph(50 if scale is None else scale, 42 if seed is None else seed)
    return Dataset(name="snb", graphs={"snb": graph}, default_graph="snb")


def _load_company(scale: Optional[int], seed: Optional[int]) -> Dataset:
    if seed is not None:
        raise ValueError("dataset 'company' has no randomness and takes no seed")
    return Dataset(
        name="company",
        graphs={"companies": _companies_graph(COMPANY_COUNT if scale is None else scale)},
        default_graph="companies",
    )


def _reject_knobs(name: str, scale: Optional[int], seed: Optional[int]) -> None:
    if scale is not None or seed is not None:
        raise ValueError(
            f"dataset {name!r} is a fixed paper instance and takes "
            f"neither scale nor seed"
        )


_REGISTRY: Dict[str, Callable[[Optional[int], Optional[int]], Dataset]] = {
    "paper": _load_paper,
    "figure2": _load_figure2,
    "snb": _load_snb,
    "company": _load_company,
}


def available() -> Tuple[str, ...]:
    """The dataset names :func:`load` accepts, sorted."""
    return tuple(sorted(_REGISTRY))


def load(
    name: str,
    *,
    scale: Optional[int] = None,
    seed: Optional[int] = None,
) -> Dataset:
    """Build the named dataset and return it as a :class:`Dataset`.

    ``scale`` and ``seed`` parameterise the synthetic generators
    (``snb``: scale is the person count, default 50, and seed defaults
    to 42; ``company``: scale is the company count, default 5, and a
    seed raises :class:`ValueError`, since the graph has no randomness);
    the fixed paper instances (``paper``, ``figure2``) reject both.
    Unknown names raise :class:`ValueError` listing the registry.
    """
    try:
        loader = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown dataset {name!r}; available: {', '.join(available())}"
        ) from None
    return loader(scale, seed)
