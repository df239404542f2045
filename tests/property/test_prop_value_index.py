"""Property test: the per-key value index is a function of the graph,
not of its representation.

For any generated graph, ``save`` -> ``open`` must give the same
``property_index`` contents for every key — across the ``1`` / ``1.0``
/ ``True`` spellings the snapshot keeps apart but Python equality (the
index's) does not, multi-valued properties, and nodes, edges and stored
paths alike — and the index must list exactly the objects the graph's
own ``property`` accessor says carry the value.
"""

from hypothesis import given, settings, strategies as st

from repro import GCoreEngine
from repro.model.builder import GraphBuilder
from repro.model.values import Date
from repro.storage import open_snapshot

SCALARS = st.one_of(
    st.sampled_from([1, 1.0, True, False, 0, "1", "Acme", "HAL"]),
    st.integers(-5, 5),
    st.integers(2**70, 2**70 + 2),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.just(Date(2014, 12, 1)),
)
VALUES = st.one_of(SCALARS, st.frozensets(SCALARS, min_size=2, max_size=3))
KEYS = ("name", "employer", "x")
PROPS = st.dictionaries(st.sampled_from(KEYS), VALUES, max_size=3)


@st.composite
def propertied_graphs(draw):
    builder = GraphBuilder(name="g")
    nodes = [f"n{i}" for i in range(draw(st.integers(2, 6)))]
    for node in nodes:
        builder.add_node(node, labels=["N"], properties=draw(PROPS))
    edges = []
    for index in range(draw(st.integers(0, 6))):
        source, target = draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))
        builder.add_edge(
            source, target, edge_id=f"e{index}", labels=["r"],
            properties=draw(PROPS),
        )
        edges.append((f"e{index}", source, target))
    if edges and draw(st.booleans()):
        edge, source, target = draw(st.sampled_from(edges))
        builder.add_path(
            [source, edge, target], path_id="sp0", labels=["P"],
            properties=draw(PROPS),
        )
    return builder.build()


def _contents(graph, key):
    return {
        value: frozenset(carriers)
        for value, carriers in graph.property_index(key).items()
    }


@given(propertied_graphs())
@settings(max_examples=60, deadline=None)
def test_dict_and_flat_graphs_build_the_same_index(tmp_path_factory, graph):
    path = str(tmp_path_factory.mktemp("snap") / "g.gsnap")
    engine = GCoreEngine()
    engine.register_graph("g", graph, default=True)
    engine.save(path)
    flat = open_snapshot(path).graph("g")
    for key in KEYS + ("never_set",):
        expected = {}
        for obj in graph.objects():
            for value in graph.property(obj, key):
                expected.setdefault(value, set()).add(obj)
        assert _contents(graph, key) == expected
        assert _contents(flat, key) == expected
        # every carrier listed once, whichever spelling it stored
        for carriers in flat.property_index(key).values():
            assert len(carriers) == len(set(carriers))
    assert flat.built_property_indexes() == tuple(
        sorted(KEYS + ("never_set",))
    )
