"""``repro.datasets.load`` is the package's one way to get data."""

import pytest

import repro.datasets
from repro import GCoreEngine
from repro.datasets import available, load


def test_front_door_is_all_the_package_exports():
    assert sorted(repro.datasets.__all__) == ["Dataset", "available", "load"]


def test_available_names_every_dataset():
    assert available() == ("company", "figure2", "paper", "snb")


def test_unknown_name_lists_the_registry():
    with pytest.raises(ValueError, match="available: company, figure2, paper, snb"):
        load("nope")


@pytest.mark.parametrize("name", ["paper", "figure2"])
def test_fixed_instances_take_no_knobs(name):
    with pytest.raises(ValueError, match="neither scale nor seed"):
        load(name, scale=3)


def test_company_takes_no_seed():
    with pytest.raises(ValueError, match="takes no seed"):
        load("company", seed=7)


def test_install_registers_graphs_tables_and_default():
    paper = load("paper")
    assert list(paper.graphs) == ["social_graph", "company_graph"]
    engine = GCoreEngine()
    paper.install(engine)
    load("company", scale=2).install(engine, set_default=False)
    catalog = engine.catalog
    assert catalog.graph_names() == ["companies", "company_graph", "social_graph"]
    assert catalog.default_graph_name == "social_graph"
    assert catalog.table_names() == ["orders"]
    assert engine.graph("companies").order() == 2
