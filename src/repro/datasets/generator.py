"""A deterministic, scalable LDBC-SNB-like data generator.

The paper evaluates its examples on the LDBC Social Network Benchmark
dataset (Figure 3 schema). The official generator is a JVM artifact; this
module provides a seeded synthetic equivalent with the same entity and
relationship types, so the benchmark harness can sweep graph sizes:

* ``Person`` nodes with firstName/lastName, an optional (possibly
  multi-valued) ``employer`` property, ``isLocatedIn`` a ``City``;
* bidirectional ``knows`` pairs (ring + random chords — connected, with
  small-world-ish shortcuts);
* ``Tag`` nodes and ``hasInterest`` edges;
* ``Company`` nodes (named like employers) in a side graph;
* message threads: ``Post``/``Comment`` nodes with ``has_creator`` and
  ``reply_of`` edges between pairs of acquainted persons.

All randomness flows from one ``random.Random(seed)``, so a given
(scale, seed) pair always produces the identical graph. Callers go
through ``repro.datasets.load("snb")`` / ``load("company")``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from ..model.builder import GraphBuilder
from ..model.graph import PathPropertyGraph

_FIRST_NAMES = (
    "John", "Alice", "Celine", "Peter", "Frank", "Clara", "Mark", "Erik",
    "Dana", "Ivan", "Mia", "Noah", "Olga", "Pia", "Quinn", "Rosa", "Sven",
    "Tara", "Umar", "Vera", "Walt", "Xena", "Yuri", "Zoe",
)
_LAST_NAMES = (
    "Doe", "Hall", "Mayer", "Smith", "Gold", "Stone", "Rivers", "Brook",
    "Field", "Woods", "Hill", "Lake", "March", "North", "South", "West",
)
_CITIES = (
    "Houston", "Austin", "Leipzig", "Santiago", "Amsterdam", "Eindhoven",
    "Dresden", "Talca", "Walldorf", "Oslo",
)
_COMPANIES = ("Acme", "HAL", "CWI", "MIT", "Initech", "Globex", "Hooli")
_TAGS = (
    "Wagner", "Verdi", "Mozart", "Bach", "Puccini", "Mahler", "Handel",
    "Brahms", "Chopin", "Liszt",
)


# The graph's shape: only the person count and the seed vary.
_CITY_COUNT = 4
_TAG_COUNT = 6
COMPANY_COUNT = 5               # employers; also load("company")'s default
_KNOWS_CHORDS = 1.5             # extra random knows pairs per person
_INTEREST_PROBABILITY = 0.4
_UNEMPLOYED_PROBABILITY = 0.15
_MULTI_EMPLOYER_PROBABILITY = 0.1
_THREADS_PER_PERSON = 0.8
_MAX_THREAD_LENGTH = 5


def _snb_graph(persons: int, seed: int) -> PathPropertyGraph:
    """A deterministic SNB-like social graph of *persons* Person nodes."""
    rng = random.Random(seed)
    b = GraphBuilder(name=f"snb_{persons}_{seed}")

    cities = [f"city{i}" for i in range(_CITY_COUNT)]
    for index, city in enumerate(cities):
        b.add_node(city, labels=["City"],
                   properties={"name": _CITIES[index % len(_CITIES)]})
    tags = [f"tag{i}" for i in range(_TAG_COUNT)]
    for index, tag in enumerate(tags):
        b.add_node(tag, labels=["Tag"],
                   properties={"name": _TAGS[index % len(_TAGS)]})

    companies = list(_COMPANIES[:COMPANY_COUNT])

    people = [f"p{i}" for i in range(persons)]
    for index, person in enumerate(people):
        properties: Dict[str, object] = {
            "firstName": _FIRST_NAMES[index % len(_FIRST_NAMES)],
            "lastName": _LAST_NAMES[(index // len(_FIRST_NAMES)) % len(_LAST_NAMES)],
        }
        roll = rng.random()
        if roll >= _UNEMPLOYED_PROBABILITY:
            if rng.random() < _MULTI_EMPLOYER_PROBABILITY:
                employers = rng.sample(companies, k=min(2, len(companies)))
                properties["employer"] = set(employers)
            else:
                properties["employer"] = rng.choice(companies)
        b.add_node(person, labels=["Person"], properties=properties)
        city = rng.choice(cities)
        b.add_edge(person, city, edge_id=f"loc_{person}",
                   labels=["isLocatedIn"])
        for tag in tags:
            if rng.random() < _INTEREST_PROBABILITY / len(tags) * 2:
                b.add_edge(person, tag, edge_id=f"int_{person}_{tag}",
                           labels=["hasInterest"])

    # knows topology: a ring for connectivity plus random chords.
    knows_pairs: List[Tuple[str, str]] = []
    seen_pairs = set()

    def add_pair(a: str, c: str) -> None:
        if a == c:
            return
        key = (a, c) if a < c else (c, a)
        if key in seen_pairs:
            return
        seen_pairs.add(key)
        knows_pairs.append(key)
        b.add_edge(a, c, edge_id=f"k_{a}_{c}", labels=["knows"])
        b.add_edge(c, a, edge_id=f"k_{c}_{a}", labels=["knows"])

    for index in range(persons):
        add_pair(people[index], people[(index + 1) % persons])
    for _ in range(int(_KNOWS_CHORDS * persons)):
        add_pair(rng.choice(people), rng.choice(people))

    # Message threads between acquainted pairs.
    for thread_index in range(int(_THREADS_PER_PERSON * persons)):
        a, c = knows_pairs[rng.randrange(len(knows_pairs))]
        length = rng.randint(2, _MAX_THREAD_LENGTH)
        authors = [a if i % 2 == 0 else c for i in range(length)]
        previous = None
        for msg_index, author in enumerate(authors):
            mid = f"m{thread_index}_{msg_index}"
            label = "Post" if msg_index == 0 else "Comment"
            b.add_node(mid, labels=[label],
                       properties={"content": f"msg {mid}"})
            b.add_edge(mid, author, edge_id=f"cr_{mid}",
                       labels=["has_creator"])
            if previous is not None:
                b.add_edge(mid, previous, edge_id=f"re_{mid}",
                           labels=["reply_of"])
            previous = mid
    return b.build()


def _companies_graph(companies: int) -> PathPropertyGraph:
    """Company nodes named like the employers of the person generator."""
    b = GraphBuilder(name="companies")
    for index in range(max(1, companies)):
        name = _COMPANIES[index % len(_COMPANIES)]
        b.add_node(f"c{index}", labels=["Company"], properties={"name": name})
    return b.build()
