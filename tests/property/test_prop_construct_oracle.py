"""Property test: columnar CONSTRUCT vs. a per-binding Appendix A.3 reference.

The reference below evaluates a CONSTRUCT clause the way A.3 defines it:
one binding at a time, every expression through the interpreted
:class:`~repro.eval.expressions.ExpressionEvaluator` over ``Binding``
rows, every element's labels and properties built fresh. Random
statements cover bound and unbound nodes, GROUP expressions, copies,
``{k := COUNT(*)}`` and other aggregates, SET and REMOVE, WHEN reading a
freshly assigned property, an unbound variable shared across items,
the ABSENT cells of OPTIONAL (an identity item ``(m)`` among them) and
elements matched ``ON`` a second graph that shares identifiers with the
default one. The engine must answer the same graph (up
to fresh identifiers, via ``_canonical_graph``) or fail alike — and leave
the catalog graph's label and property objects as they were.

Expressions read only base properties (``p``, ``w``); assignments write
other keys and WHEN reads them. Every aggregate-free assignment is a
function of its element's grouping key, so no answer depends on which row
of a group is its representative.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro import GCoreEngine
from repro.algebra.binding import Binding, BindingTable
from repro.algebra.grouping import MISSING
from repro.errors import EvaluationError, GCoreError
from repro.eval.analysis import analyze_match
from repro.eval.context import EvalContext
from repro.eval.expressions import ExpressionEvaluator
from repro.fuzz import oracle
from repro.fuzz.differential import _canonical_graph
from repro.lang import ast
from repro.model.builder import GraphBuilder
from repro.model.graph import PathPropertyGraph
from repro.model.io import graph_to_dict
from repro.model.values import as_value_set, gcore_equals

NODES = ["a", "b", "c", "d", "e"]


@st.composite
def graphs(draw, nodes=NODES, edge_prefix="e"):
    builder = GraphBuilder()
    for node in nodes:
        properties = {"p": draw(st.sampled_from([0, 1, 2, 3, "s"]))}
        if draw(st.booleans()):
            properties["q"] = draw(st.integers(0, 2))
        builder.add_node(
            node, labels=draw(st.sets(st.sampled_from(["X", "Y"]))), properties=properties
        )
    for index in range(draw(st.integers(0, 7))):
        builder.add_edge(
            draw(st.sampled_from(nodes)),
            draw(st.sampled_from(nodes)),
            edge_id=f"{edge_prefix}{index}",
            labels=["k"],
            properties={"w": draw(st.integers(0, 2))},
        )
    return builder.build()


MATCHES = [
    "MATCH (n)-[e:k]->(m)",
    "MATCH (n) OPTIONAL (n)-[e:k]->(m)",  # m and e ABSENT for sinks
    # a second graph h, which shares a, b and c with g: its copies win
    "MATCH (n) ON h OPTIONAL (n)-[e:k]->(m) ON h",
    "MATCH (n)-[e:k]->(m) ON h",
    "MATCH (n) ON h, (m) ON g",
]
LEFT = [
    "(n)",
    "(m)",  # alone, an identity item over m's ABSENT cells
    "(n:New)",
    "(n {c := COUNT(*)})",
    "(n {q := n.p})",
    "(x GROUP n.p :G {v := n.p})",
    "(x GROUP n.p :G {total := SUM(m.p)})",
    "(=n)",
    "()",  # one node per binding
]
RIGHT = [
    "(m)",
    "(m:New)",
    "(m {c := COUNT(*), ws := COLLECT(e.w)})",
    "(w GROUP m.p :H)",
    "(=m)",
    "(x)",
]
EDGES = [
    "-[e]->",
    "<-[e]-",
    "-[y:r {s := COUNT(*)}]->",
    "-[:t]->",
    "<-[z:h {mw := MIN(e.w)}]-",
    "-[=e]->",
]
SETS = [
    "SET n.extra := n.p",
    "SET x:Lab",
    "SET y.bonus := COUNT(*)",
    "SET m.seen := 1",
    "REMOVE n.q",
    "REMOVE n:X",
    "REMOVE m:Y",
]
WHENS = [
    "WHEN y.s > 1",
    "WHEN x.v >= 1",
    "WHEN n.c > 1",
    "WHEN m.c = 1",
    "WHEN z.mw = 0",
    "WHEN n.p > 1",
    "WHEN x.total > 2",
]


@st.composite
def items(draw):
    chain = draw(st.sampled_from(LEFT))
    if draw(st.booleans()):
        chain += draw(st.sampled_from(EDGES)) + draw(st.sampled_from(RIGHT))
    clauses = draw(st.lists(st.sampled_from(SETS), max_size=2))
    if draw(st.booleans()):
        clauses.append(draw(st.sampled_from(WHENS)))
    return " ".join([chain] + clauses)


@st.composite
def statements(draw):
    match = draw(st.sampled_from(MATCHES))
    construct = ", ".join(draw(st.lists(items(), min_size=1, max_size=2)))
    return match, f"CONSTRUCT {construct} {match}"


# ---------------------------------------------------------------------------
# The reference: Appendix A.3, one binding at a time
# ---------------------------------------------------------------------------


class Reference:
    def __init__(self, engine, match_text, statement):
        self.construct = statement.body.head
        self.declared = frozenset(analyze_match(statement.body.match))
        self.omega = oracle.bindings(engine, match_text)
        self.maxdom = self.omega.maximal_domain()
        self.ctx = EvalContext(engine.catalog)
        match = statement.body.match
        for block in (match.block,) + match.optionals:  # the lookup chain
            for location in block.patterns:
                self.ctx.touch_graph(engine.graph(location.on or "g"))
        self.ev = ExpressionEvaluator(self.ctx)
        self.fresh = itertools.count()
        self.nodes, self.edges, self.labels, self.props = set(), {}, {}, {}

    def run(self):
        shared = {}
        for index, item in enumerate(self.construct.items):
            self.item(index, item, shared)
        return PathPropertyGraph(self.nodes, self.edges, None, self.labels, self.props)

    def key(self, row, gamma):
        return tuple(
            row.get(g.name, MISSING) if isinstance(g, ast.Var)
            else self.ev.evaluate(g, Binding(row))
            for g in gamma
        )

    def partition(self, rows, gamma, skip):
        """Rows grouped by their Γ-key under :func:`same_key`, in
        first-seen order; a key with MISSING at one of the *skip*
        positions builds nothing."""
        groups = []
        for row in rows:
            key = self.key(row, gamma)
            for seen, group in groups:
                if same_key(seen, key):
                    group.append(row)
                    break
            else:
                groups.append((key, [row]))
        return [
            (key, group) for key, group in groups
            if all(key[i] is not MISSING for i in skip)
        ]

    def item(self, index, item, shared):
        rows = [dict(row) for row in self.omega.rows]
        nodes, edges, labels, props = set(), {}, {}, {}
        members = {}  # element -> rows of the groups that built it
        sets, removes = item.sets, item.removes

        def emit(var, obj, patterns, bound, copy_of, group):
            rep = Binding(group[0])
            if bound:
                ls, ps = set(self.ctx.lookup_labels(obj)), properties_of(self.ctx, obj)
            elif copy_of is not None and copy_of in rep:
                source = rep[copy_of]
                ls = set(self.ctx.lookup_labels(source))
                ps = properties_of(self.ctx, source)
            else:
                ls, ps = set(), {}
            table = BindingTable((), [Binding(row) for row in group])
            for pattern in patterns:
                ls.update(label for g in pattern.labels for label in g)
                for key, expr in pattern.assignments:
                    ps[key] = self.value(expr, rep, table)
            for assign in sets:
                if assign.var == var and assign.label is not None:
                    ls.add(assign.label)
                elif assign.var == var:
                    ps[assign.key] = self.value(assign.expr, rep, table)
            for removal in removes:
                if removal.var == var:
                    ls.discard(removal.label)
                    ps.pop(removal.key, None)
            ls, ps = frozenset(ls), {k: v for k, v in ps.items() if v}
            merge(labels, props, obj, ls, ps)
            members.setdefault(obj, []).extend(group)
            return ls, ps

        # the engine's names: its Γ for an unbound variable without GROUP
        # is every column at that point, constructed ones included
        node_vars, patterns, anonymous = [], {}, itertools.count()
        for element in item.chain.nodes():
            var = element.var or f"#cnode{index}_{next(anonymous)}"
            node_vars.append(var)
            patterns.setdefault(var, []).append(element)
        columns = list(self.omega.columns)
        for var, pats in patterns.items():
            primary = pats[0]
            if var in shared and var not in self.declared:
                gamma, ids = shared[var]
                for row in rows:
                    key = self.key(row, gamma)
                    obj = next((o for seen, o in ids if same_key(seen, key)), None)
                    if obj is not None:
                        nodes.add(obj)
                        merge(labels, props, obj, self.ctx.lookup_labels(obj),
                              properties_of(self.ctx, obj))
                        members.setdefault(obj, []).append(row)
                        row.setdefault(var, obj)
                columns.append(var)
                continue
            bound = var in self.declared
            if bound:
                gamma = (ast.Var(var),)
            elif primary.group is not None:
                gamma = primary.group
            elif primary.copy_of is not None:
                gamma = (ast.Var(primary.copy_of),)
            else:
                gamma = tuple(ast.Var(v) for v in dict.fromkeys(columns))
            columns.append(var)
            ids, overlay = [], {}
            skip = (0,) if bound else range(len(gamma))
            for key, group in self.partition(rows, gamma, skip):
                obj = key[0] if bound else f"_n{next(self.fresh)}"
                ids.append((key, obj))
                nodes.add(obj)
                overlay[obj] = emit(var, obj, pats, bound, primary.copy_of, group)
                for row in group:
                    row.setdefault(var, obj)
            self.publish(overlay)
            if not bound and not var.startswith("#"):
                shared[var] = (gamma, ids)

        for index, connector in enumerate(item.chain.connectors()):
            src, dst = node_vars[index], node_vars[index + 1]
            if connector.direction == ast.IN:
                src, dst = dst, src
            var = connector.var
            bound = var in self.declared
            gamma = [ast.Var(src), ast.Var(dst)]
            if bound:
                gamma.append(ast.Var(var))
            if connector.copy_of is not None:
                gamma.append(ast.Var(connector.copy_of))
            overlay = {}
            for key, group in self.partition(rows, gamma, (0, 1, 2) if bound else (0, 1)):
                if bound:
                    edge = key[2]
                    if self.ctx.graph_of(edge).endpoints(edge) != key[:2]:
                        raise EvaluationError("bound edge between other endpoints")
                else:
                    edge = f"_e{next(self.fresh)}"
                edges[edge] = key[:2]
                nodes.update(key[:2])
                overlay[edge] = emit(var, edge, [connector], bound, connector.copy_of, group)
                if var:
                    for row in group:
                        row.setdefault(var, edge)
            self.publish(overlay)

        if item.when is not None:
            survivors = {
                obj for obj, group in members.items()
                if any(self.ev.evaluate_predicate(item.when, Binding(row)) for row in group)
            }
            nodes &= survivors
            edges = {
                e: ends for e, ends in edges.items()
                if e in survivors and ends[0] in nodes and ends[1] in nodes
            }
        for obj in nodes | set(edges):
            merge(self.labels, self.props, obj, labels.get(obj), props.get(obj))
        self.nodes |= nodes
        self.edges.update(edges)

    def value(self, expr, rep, group):
        value = self.ev.evaluate(expr, rep, group=group, maximal_domain=self.maxdom)
        return as_value_set(frozenset(value) if isinstance(value, tuple) else value)

    def publish(self, overlay):
        for obj, (ls, ps) in overlay.items():
            self.ctx.overlay_labels[obj] = ls
            self.ctx.overlay_props[obj] = ps


def same_key(left, right):
    """Appendix A.3's Γ-key equality: Section 3's ``=`` on each value,
    where MISSING equals only itself."""
    return all(
        a is b if a is MISSING or b is MISSING else gcore_equals(a, b)
        for a, b in zip(left, right)
    )


def properties_of(ctx, obj):
    """All of sigma(obj, ·) as *ctx* reads it: the construct overlay
    first, then the first graph of the lookup chain holding *obj*."""
    props = ctx.overlay_props.get(obj)
    if props is not None:
        return dict(props)
    graph = ctx.graph_of(obj)
    return {} if graph is None else graph.properties(obj)


def merge(labels, props, obj, ls, ps):
    """Union *ls* and *ps* into *obj*'s entries (value sets per key)."""
    labels[obj] = labels.get(obj, frozenset()) | (ls or frozenset())
    mine = props.setdefault(obj, {})
    for key, values in (ps or {}).items():
        mine[key] = mine.get(key, frozenset()) | values


def outcome(run):
    try:
        return "ok", _canonical_graph(graph_to_dict(run()))
    except GCoreError as error:
        return "error", type(error).__name__


@given(graphs(), graphs(["a", "b", "c", "f"], "h"), statements())
@settings(max_examples=250, deadline=None)
def test_construct_matches_the_per_binding_reference(graph, second, statement):
    match_text, text = statement
    engine = GCoreEngine()
    engine.register_graph("g", graph, default=True)
    engine.register_graph("h", second)
    base = engine.graph("g")
    objects = {obj: (base._labels.get(obj), base._props.get(obj)) for obj in base.objects()}
    contents = {obj: dict(props or {}) for obj, (_, props) in objects.items()}

    got = outcome(lambda: engine.run(text))
    want = outcome(lambda: Reference(engine, match_text, engine.parse(text)).run())
    assert got[0] == want[0], (text, got, want)
    if got[0] == "ok":
        assert got == want, text
    # the catalog graph is the same graph, its objects neither replaced
    # nor mutated
    assert engine.graph("g") is base
    for obj, (labels, props) in objects.items():
        assert base._labels.get(obj) is labels and base._props.get(obj) is props
        assert dict(props or {}) == contents[obj]
