"""The five workload mixes: statements, parameter draws, op sequences.

A *workload* is a fixed set of query classes (one statement each) over
one generated SNB graph. ``build_ops`` turns ``(workload, graph, seed)``
into the op sequence of **one pass**: every class appears ``param_sets``
times with parameters drawn by ``random.Random`` from names present in
the graph, shuffled once. A round replays whole passes, so the class
mix is the same in every statistic.

Names of workloads and classes are the benchmark's contract
(``BENCHMARK.json``); statement texts are listed in ``README.md``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

#: the graph name every statement and update addresses
GRAPH = "snb"


@dataclass(frozen=True)
class QueryClass:
    name: str
    text: str
    #: parameter domains drawn for each parameter set (see ``_draw``)
    draws: Tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    scale: int  # SNB persons
    classes: Tuple[QueryClass, ...]
    param_sets: int  # P: parameter sets per read class per pass
    #: update_mix only: each read op is replayed this many times per pass
    read_repeats: int = 1
    writes: bool = False


@dataclass(frozen=True)
class Op:
    """One request: the class it belongs to, the route, the JSON body."""

    cls: str
    route: str  # "/query" or "/update"
    body: Dict[str, Any]


_PERSON = "n.firstName = $first AND n.lastName = $last"

POINT_FRIENDS = QueryClass(
    "point_friends",
    "SELECT m.firstName AS first, m.lastName AS last "
    f"MATCH (n:Person)-[:knows]->(m:Person) WHERE {_PERSON}",
    ("person",),
)
FILTER_EMPLOYER = QueryClass(
    "filter_employer",
    "CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = $e",
    ("e",),
)
AGG_CITY = QueryClass(
    "agg_city",
    "SELECT c.name AS city, COUNT(*) AS persons "
    "MATCH (n:Person)-[:isLocatedIn]->(c:City) "
    "WHERE n.employer = $e GROUP BY c.name",
    ("e",),
)
INTEREST_IN_CITY = QueryClass(
    "interest_in_city",
    "SELECT n.firstName AS first, n.lastName AS last "
    "MATCH (n:Person)-[:hasInterest]->(t:Tag), "
    "(n)-[:isLocatedIn]->(c:City) "
    "WHERE t.name = $tag AND c.name = $city",
    ("tag", "city"),
)

TWO_HOP = QueryClass(
    "two_hop",
    "SELECT f.firstName AS first, f.lastName AS last "
    "MATCH (n:Person)-[:knows]->(m:Person)-[:knows]->(f:Person) "
    f"WHERE {_PERSON}",
    ("person",),
)
FRIENDS_IN_CITY = QueryClass(
    "friends_in_city",
    "CONSTRUCT (n)-[e]->(m) "
    "MATCH (n:Person)-[e:knows]->(m:Person), (m)-[:isLocatedIn]->(c:City) "
    "WHERE n.employer = $e AND c.name = $city",
    ("e", "city"),
)
WAGNER_FANS_FRIENDS = QueryClass(
    "wagner_fans_friends",
    # EXP-B1 of benchmarks/bench_optimizer_ablation.py, tag parameterized
    "SELECT n.firstName AS fan, m.firstName AS friend "
    "MATCH (m), (n:Person)-[:hasInterest]->(t:Tag {name=$tag}), "
    "(n)-[:knows]->(m) WHERE (m:Person)",
    ("tag",),
)
FRIEND_CITY = QueryClass(
    "friend_city",
    "SELECT c.name AS city, COUNT(*) AS friends "
    "MATCH (n:Person)-[:knows]->(m:Person)-[:isLocatedIn]->(c:City) "
    f"WHERE {_PERSON} GROUP BY c.name",
    ("person",),
)

REACH = QueryClass(
    "reach",
    "SELECT m.firstName AS first, m.lastName AS last "
    f"MATCH (n:Person)-/<:knows*>/->(m:Person) WHERE {_PERSON}",
    ("person",),
)
SHORTEST_COST = QueryClass(
    "shortest_cost",
    "SELECT m.firstName AS first, m.lastName AS last, c AS hops "
    f"MATCH (n:Person)-/p<:knows*> COST c/->(m:Person) WHERE {_PERSON}",
    ("person",),
)
K3_STORED = QueryClass(
    "k3_stored",
    "CONSTRUCT (n)-/@p:near{distance:=c}/->(m) "
    "MATCH (n:Person)-/3 SHORTEST p<:knows*> COST c/->(m:Person) "
    f"WHERE {_PERSON} AND m.firstName = $first2",
    ("person", "first2"),
)
ALL_PATHS = QueryClass(
    "all_paths",
    "CONSTRUCT (n)-/p/->(m) "
    "MATCH (n:Person)-/ALL p<:knows*>/->(m:Person) "
    f"WHERE {_PERSON} AND m.firstName = $first2 AND m.lastName = $last2",
    ("person", "person2"),
)
REACH_MSGS = QueryClass(
    "reach_msgs",
    "SELECT p.content AS post, COUNT(*) AS replies "
    "MATCH (c:Comment)-/<:reply_of*>/->(p:Post), "
    "(p)-[:has_creator]->(a:Person) "
    "WHERE a.lastName = $last GROUP BY p.content",
    ("last",),
)
WEIGHTED_VIEW = QueryClass(
    "weighted_view",
    # the Figure 5 mechanism: a PATH view with a COST, searched weighted
    "PATH wKnows = (x:Person)-[e:knows]->(y:Person) COST 2 "
    "SELECT m.firstName AS first, m.lastName AS last, c AS total "
    f"MATCH (n:Person)-/p<~wKnows*> COST c/->(m:Person) WHERE {_PERSON}",
    ("person",),
)

GROUP_COMPANY = QueryClass(
    "group_company",
    "CONSTRUCT (x GROUP e :Company {name:=e})<-[y:worksAt]-(n) "
    "MATCH (n:Person {employer=e}) WHERE n.firstName <> $first",
    ("first",),
)
TAG_POPULARITY = QueryClass(
    "tag_popularity",
    "CONSTRUCT (x GROUP n.lastName :Family {name:=n.lastName})"
    "-[e:likes {score:=COUNT(*)}]->(t) WHEN e.score > $min "
    "MATCH (n:Person)-[:hasInterest]->(t:Tag)",
    ("min",),
)
VALUE_JOIN = QueryClass(
    "value_join",
    "CONSTRUCT (c)<-[:worksAt]-(n) "
    "MATCH (c:Company) ON companies, (n:Person) ON snb "
    "WHERE c.name IN n.employer AND n.lastName = $last",
    ("last",),
)
UNION_BASE = QueryClass(
    "union_base",
    "CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = $e UNION snb",
    ("e",),
)
MINUS_MSGS = QueryClass(
    "minus_msgs",
    "snb MINUS (CONSTRUCT (m) MATCH (m:Comment) WHERE m.content <> $keep)",
    ("keep",),
)

#: the /update classes of update_mix, in the order they run in a pass
WRITE_CLASSES = (
    "add_person",
    "touch_property",
    "untouch_property",
    "remove_person",
)
READS_PER_WRITE = 9

#: Why each mix exists is recorded in ``BENCHMARK.json`` and ``README.md``.
WORKLOADS: Tuple[Workload, ...] = (
    Workload("lookup_mix", 1000,
             (POINT_FRIENDS, FILTER_EMPLOYER, AGG_CITY, INTEREST_IN_CITY), 8),
    # P=4, not 2: four persons span two_hop's 130-390 ms; two would not
    Workload("join_mix", 200,
             (TWO_HOP, FRIENDS_IN_CITY, WAGNER_FANS_FRIENDS, FRIEND_CITY), 4),
    Workload("path_mix", 300,
             (REACH, SHORTEST_COST, K3_STORED, ALL_PATHS, REACH_MSGS,
              WEIGHTED_VIEW), 2),
    Workload("construct_mix", 1000,
             (GROUP_COMPANY, TAG_POPULARITY, VALUE_JOIN, UNION_BASE,
              MINUS_MSGS), 2),
    # 3 read classes x P=4 x 3 repeats = 36 reads around the 4 writes
    Workload("update_mix", 1000,
             (POINT_FRIENDS, AGG_CITY, FILTER_EMPLOYER), 4,
             read_repeats=3, writes=True),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


def class_names(workload: Workload) -> Tuple[str, ...]:
    """Read classes, then (update_mix) the write classes."""
    reads = tuple(c.name for c in workload.classes)
    return reads + (WRITE_CLASSES if workload.writes else ())


ALL_CLASS_NAMES: Tuple[str, ...] = tuple(
    dict.fromkeys(name for w in WORKLOADS for name in class_names(w))
)


# ---------------------------------------------------------------------------
# Parameter domains: names present in the generated graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Domains:
    #: (firstName, lastName) of persons, by ascending neighbourhood: number
    #: of friends first, of friends' friends second
    names: Tuple[Tuple[str, str], ...]
    employers: Tuple[str, ...]
    cities: Tuple[str, ...]
    tags: Tuple[str, ...]
    comments: Tuple[str, ...]  # content of Comment nodes
    person_ids: Tuple[str, ...]
    city_ids: Tuple[str, ...]


def _one(values) -> Any:
    (value,) = values
    return value


def domains_of(graph) -> Domains:
    """Collect the draw domains from a generated SNB graph (sorted)."""
    persons = sorted(n for n in graph.nodes if graph.has_label(n, "Person"))
    cities = sorted(n for n in graph.nodes if graph.has_label(n, "City"))

    def named(label):
        return sorted({_one(graph.property(n, "name"))
                       for n in graph.nodes if graph.has_label(n, label)})

    friends = {
        p: [graph.endpoints(e)[1] for e in graph.out_edges(p)
            if graph.has_label(e, "knows")]
        for p in persons
    }
    reach: Dict[Tuple[str, str], Tuple[int, int]] = {}  # (friends, their friends)
    for p in persons:
        name = (_one(graph.property(p, "firstName")),
                _one(graph.property(p, "lastName")))
        one, two = reach.get(name, (0, 0))
        reach[name] = (one + len(friends[p]),
                       two + sum(len(friends[friend]) for friend in friends[p]))
    return Domains(
        names=tuple(sorted(reach, key=lambda name: (reach[name], name))),
        employers=tuple(sorted(
            {e for p in persons for e in graph.property(p, "employer")}
        )),
        cities=tuple(named("City")),
        tags=tuple(named("Tag")),
        comments=tuple(sorted(
            _one(graph.property(n, "content"))
            for n in graph.nodes if graph.has_label(n, "Comment")
        )),
        person_ids=tuple(persons),
        city_ids=tuple(cities),
    )


#: A person-anchored class costs what the person's neighbourhood costs
#: (two_hop over HTTP: 125-390 ms at snb200). The k-th of P parameter
#: sets therefore names a person from a narrow band — one BAND-th — in the
#: middle of the k-th P-quantile of ``Domains.names``: every seed names
#: other persons, all seeds keep the same cost profile.
BAND = 5


def _band(names: Sequence[Tuple[str, str]], k: int, of: int) -> Sequence[Tuple[str, str]]:
    low, high = k * len(names) // of, (k + 1) * len(names) // of
    width = max(1, (high - low) // BAND)
    start = (low + high - width) // 2
    return names[start:start + width]


def _deal(values: Sequence[Any], rng: random.Random, count: int) -> List[Any]:
    """*count* values dealt from seeded shuffles of *values*: no value
    comes twice before every value came once, so the few employers, cities
    and tags are covered evenly by every seed, not sampled with P draws."""
    dealt: List[Any] = []
    while len(dealt) < count:
        deck = list(values)
        rng.shuffle(deck)
        dealt.extend(deck)
    return dealt[:count]


def _draw(domain: str, d: Domains, rng: random.Random, count: int) -> List[Dict[str, Any]]:
    """The *count* parameter sets one class draws from *domain*."""
    if domain == "person":
        picks = [rng.choice(_band(d.names, k, count)) for k in range(count)]
        return [{"first": first, "last": last} for first, last in picks]
    if domain == "person2":  # bands in reverse order: never the person's own
        picks = [rng.choice(_band(d.names, count - 1 - k, count)) for k in range(count)]
        return [{"first2": first, "last2": last} for first, last in picks]
    firsts = sorted({first for first, _ in d.names})
    values = {
        "first": firsts,
        "first2": firsts,
        "last": sorted({last for _, last in d.names}),
        "e": d.employers,
        "city": d.cities,
        "tag": d.tags,
        "keep": d.comments,
        "min": (1, 2, 3),
    }[domain]
    return [{domain: value} for value in _deal(values, rng, count)]


def _write_ops(d: Domains, rng: random.Random) -> List[Op]:
    """The four /update ops of one pass; together they net to nothing."""
    new = "bench_person"
    friends = rng.sample(d.person_ids, 3)
    touched = rng.choice(d.person_ids)
    add: List[Dict[str, Any]] = [{
        "op": "add_node", "id": new, "labels": ["Person"],
        "properties": {"firstName": "Bench", "lastName": "Mark",
                       "employer": rng.choice(d.employers)},
    }]
    for friend in friends:
        for source, target in ((new, friend), (friend, new)):
            add.append({"op": "add_edge", "id": f"k_{source}_{target}",
                        "source": source, "target": target,
                        "labels": ["knows"]})
    add.append({"op": "add_edge", "id": f"loc_{new}", "source": new,
                "target": rng.choice(d.city_ids), "labels": ["isLocatedIn"]})
    deltas = {
        "add_person": add,
        "touch_property": [{"op": "set_property", "id": touched,
                            "key": "benchTouched", "value": 1}],
        "untouch_property": [{"op": "remove_property", "id": touched,
                              "key": "benchTouched"}],
        "remove_person": [{"op": "remove_node", "id": new}],
    }
    return [
        Op(name, "/update", {"graph": GRAPH, "ops": deltas[name]})
        for name in WRITE_CLASSES
    ]


def build_ops(workload: Workload, graph, seed: int) -> List[Op]:
    """The op sequence of one pass, a pure function of its arguments."""
    rng = random.Random(f"{seed}:{workload.name}")
    d = domains_of(graph)
    reads: List[Op] = []
    for cls in workload.classes:
        drawn = [_draw(domain, d, rng, workload.param_sets) for domain in cls.draws]
        for parts in zip(*drawn):
            params = {key: value for part in parts for key, value in part.items()}
            op = Op(cls.name, "/query", {"query": cls.text, "params": params})
            reads.extend([op] * workload.read_repeats)
    rng.shuffle(reads)
    if not workload.writes:
        return reads
    writes = _write_ops(d, rng)
    ops: List[Op] = []
    for index, write in enumerate(writes):
        ops.extend(reads[index * READS_PER_WRITE:(index + 1) * READS_PER_WRITE])
        ops.append(write)
    assert len(ops) == len(reads) + len(writes), "9 reads per write"
    return ops


def ops_sha256(ops: List[Op]) -> str:
    """Fingerprint of an op sequence (pinned for seed 42 by the tests)."""
    blob = json.dumps(
        [[op.cls, op.route, op.body] for op in ops], sort_keys=True
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
