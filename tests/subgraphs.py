"""Sub-graphs of a drawn graph, and A.5's union as a plain reference.

The set operations fold a union's smaller operand into the larger and
return the larger itself when the smaller adds nothing, so their tests
need operands that are sub-graphs of each other: :func:`subgraphs` draws
one from a given graph, each kept object with its very label set,
property dict and tuple, with equal copies, or with fewer labels and
properties, and the identifier 1 perhaps respelled ``1.0`` or ``TRUE``.
"""

from hypothesis import strategies as st

from repro.model.graph import PathPropertyGraph

#: the identifier 1 in each spelling Python calls equal
ONES = (1, 1.0, True)


@st.composite
def subgraphs(draw, base):
    one = draw(st.sampled_from(ONES))

    def spell(obj):
        return one if obj == 1 else obj

    def respelled(ids):
        spelled = tuple(map(spell, ids))
        return ids if all(a is b for a, b in zip(ids, spelled)) else spelled

    nodes = {node for node in sorted(base.nodes, key=repr) if draw(st.booleans())}
    edges = {edge: ends for edge, ends in sorted(base._rho.items(), key=repr)
             if set(ends) <= nodes and draw(st.booleans())}
    paths = {pid: seq for pid, seq in sorted(base._delta.items(), key=repr)
             if set(seq) <= nodes | set(edges) and draw(st.booleans())}
    labels, props = {}, {}
    for obj in sorted([*nodes, *edges, *paths], key=repr):
        mine, own = base._labels.get(obj), base._props.get(obj)
        how = draw(st.sampled_from(["same", "equal", "fewer"]))
        if how == "equal":
            mine = mine and frozenset(list(mine))
            own = own and {key: frozenset(list(values)) for key, values in own.items()}
        elif how == "fewer":
            mine = mine and frozenset(draw(st.sets(st.sampled_from(sorted(mine)))))
            own = own and {key: values for key, values in own.items() if draw(st.booleans())}
        if mine:
            labels[spell(obj)] = mine
        if own:
            props[spell(obj)] = own
    return PathPropertyGraph._assemble_normalized(
        frozenset(map(spell, nodes)),
        {spell(edge): respelled(ends) for edge, ends in edges.items()},
        {spell(pid): respelled(seq) for pid, seq in paths.items()},
        labels, props)


def reference_union(left, right):
    """``left UNION right`` through the validating constructor: ids and
    store keys as ``left.nodes | right.nodes`` and ``{**left, **right}``
    give them, labels and property value sets merged."""
    objects = [*(left.nodes | right.nodes), *{**left._rho, **right._rho},
               *{**left._delta, **right._delta}]
    return PathPropertyGraph(
        left.nodes | right.nodes,
        {**left._rho, **right._rho},
        {**left._delta, **right._delta},
        {obj: left.labels(obj) | right.labels(obj) for obj in objects},
        {obj: {key: left.property(obj, key) | right.property(obj, key)
               for key in {**left.properties(obj), **right.properties(obj)}}
         for obj in objects},
    )


def typed(ids):
    """*ids* told apart by type as well: ``1``, ``1.0`` and ``TRUE``."""
    return {(type(obj), obj) for obj in ids}


def assert_union_ids(union, left, right):
    """*union* keeps the id objects ``left.nodes | right.nodes`` and
    ``dict(left); update(right)`` keep, store by store."""
    assert typed(union.nodes) == typed(left.nodes | right.nodes)
    for store in ("_rho", "_delta", "_labels", "_props"):
        assert typed(getattr(union, store)) == typed(
            {**getattr(left, store), **getattr(right, store)})
