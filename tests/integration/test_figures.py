"""EXP-F2: Figure 2 / Example 2.2 — the formal PPG components."""

import pytest

from repro.datasets import load


@pytest.fixture(scope="module")
def g():
    return load("figure2").graphs["figure2"]


class TestExample22:
    """Every component stated in Example 2.2 of the paper."""

    def test_node_identifiers(self, g):
        assert g.nodes == {101, 102, 103, 104, 105, 106}

    def test_edge_identifiers(self, g):
        assert g.edges == {201, 202, 203, 204, 205, 206, 207}

    def test_path_identifiers(self, g):
        assert g.paths == {301}

    def test_rho_endpoints_stated_in_paper(self, g):
        assert g.endpoints(201) == (102, 101)
        assert g.endpoints(207) == (105, 103)

    def test_delta_301(self, g):
        assert g.path_sequence(301) == (105, 207, 103, 202, 102)

    def test_lambda_assignments(self, g):
        assert g.labels(101) == {"Tag"}
        assert g.labels(102) == {"Person", "Manager"}
        assert g.labels(201) == {"hasInterest"}
        assert g.labels(301) == {"toWagner"}

    def test_sigma_assignments(self, g):
        assert g.property(101, "name") == {"Wagner"}
        assert g.property(205, "since") == {"1/12/2014"}
        assert g.property(301, "trust") == {0.95}

    def test_nodes_and_edges_functions(self, g):
        # Section 2: nodes(301) = [102,103,105]-as-list [105,103,102] in
        # traversal order; edges(301) = [207, 202].
        assert g.path_nodes(301) == (105, 103, 102)
        assert g.path_edges(301) == (207, 202)

    def test_houston_city(self, g):
        assert g.property(106, "name") == {"Houston"}
        assert g.labels(106) == {"City"}

    def test_located_in_edges(self, g):
        # The appendix example requires 102 and 105 located in 106.
        assert g.endpoints(203) == (102, 106)
        assert g.endpoints(204) == (105, 106)
