"""The paper's toy instances, reconstructed exactly; ``load("figure2")``
and ``load("paper")`` build them.

* ``figure2`` — the small social network of Figure 2 /
  Example 2.2, with node ids 101-106, edge ids 201-207 and the stored
  path 301 = [105, 207, 103, 202, 102] (label ``toWagner``, trust 0.95).
  Every identifier, label and property stated in the paper is present;
  unstated details (names of the anonymous persons, the second city) are
  completed consistently; the builder calls below are their only record.

* ``social_graph`` — the Figure 4 instance the guided tour queries
  run on: persons John Doe (Acme), Alice (Acme), Celine (HAL), Peter
  (no employer) and Frank Gold ({CWI, MIT}); bidirectional ``knows``
  pairs; Wagner lovers Celine and Frank; message threads sized so the
  Figure 5 view yields nr_messages John-Peter=2, Peter-Frank=3,
  Peter-Celine=1, Celine-Frank=1, John-Alice=0 — which makes both
  weighted shortest ``wKnows`` paths from John run via Peter, giving the
  final query's single :wagnerFriend edge John->Peter with score 2.

* ``company_graph`` — the unconnected Company nodes (Acme, HAL, CWI,
  MIT) of the data-integration example.

* ``orders`` — the customer/product table of the Section 5
  tabular-input examples.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..model.builder import GraphBuilder
from ..model.graph import PathPropertyGraph
from ..table import Table


def _figure2_graph() -> PathPropertyGraph:
    """The PPG of Figure 2 / Example 2.2.
    """
    b = GraphBuilder(name="figure2")
    b.add_node(101, labels=["Tag"], properties={"name": "Wagner"})
    b.add_node(
        102, labels=["Person", "Manager"], properties={"firstName": "Clara"}
    )
    b.add_node(103, labels=["Person"], properties={"firstName": "Mark"})
    b.add_node(104, labels=["City"], properties={"name": "Austin"})
    b.add_node(105, labels=["Person"], properties={"firstName": "Erik"})
    b.add_node(106, labels=["City"], properties={"name": "Houston"})
    b.add_edge(102, 101, edge_id=201, labels=["hasInterest"])
    b.add_edge(103, 102, edge_id=202, labels=["knows"])
    b.add_edge(102, 106, edge_id=203, labels=["isLocatedIn"])
    b.add_edge(105, 106, edge_id=204, labels=["isLocatedIn"])
    b.add_edge(102, 103, edge_id=205, labels=["knows"],
               properties={"since": "1/12/2014"})
    b.add_edge(103, 104, edge_id=206, labels=["isLocatedIn"])
    b.add_edge(105, 103, edge_id=207, labels=["knows"])
    b.add_path([105, 207, 103, 202, 102], path_id=301, labels=["toWagner"],
               properties={"trust": 0.95})
    return b.build()


def _add_person(
    b: GraphBuilder,
    key: str,
    first: str,
    last: str,
    employer,
    city: str,
) -> str:
    properties: Dict[str, object] = {"firstName": first, "lastName": last}
    if employer is not None:
        properties["employer"] = employer
    b.add_node(key, labels=["Person"], properties=properties)
    b.add_edge(key, city, edge_id=f"loc_{key}", labels=["isLocatedIn"])
    return key


def _add_knows_pair(b: GraphBuilder, a: str, c: str) -> Tuple[str, str]:
    """Two knows edges, one in each direction (Figure 4's caption)."""
    e1 = b.add_edge(a, c, edge_id=f"knows_{a}_{c}", labels=["knows"])
    e2 = b.add_edge(c, a, edge_id=f"knows_{c}_{a}", labels=["knows"])
    return e1, e2


def _add_thread(
    b: GraphBuilder, key: str, messages: List[Tuple[str, str]]
) -> None:
    """A message thread: each message replies to the previous one.

    *messages* is ``[(message_id_suffix, author_node), ...]``; the first
    entry is a Post, the rest are Comments with ``reply_of`` edges.
    """
    previous = None
    for index, (suffix, author) in enumerate(messages):
        mid = f"msg_{key}_{suffix}"
        label = "Post" if index == 0 else "Comment"
        b.add_node(mid, labels=[label], properties={"content": mid})
        b.add_edge(mid, author, edge_id=f"creator_{mid}", labels=["has_creator"])
        if previous is not None:
            b.add_edge(mid, previous, edge_id=f"reply_{mid}",
                       labels=["reply_of"])
        previous = mid


def _social_graph() -> PathPropertyGraph:
    """The Figure 4 instance (`social_graph`).
    """
    b = GraphBuilder(name="social_graph")
    b.add_node("houston", labels=["City"], properties={"name": "Houston"})
    b.add_node("wagner", labels=["Tag"], properties={"name": "Wagner"})

    _add_person(b, "john", "John", "Doe", "Acme", "houston")
    _add_person(b, "alice", "Alice", "Hall", "Acme", "houston")
    _add_person(b, "celine", "Celine", "Mayer", "HAL", "houston")
    _add_person(b, "peter", "Peter", "Smith", None, "houston")
    _add_person(b, "frank", "Frank", "Gold", {"CWI", "MIT"}, "houston")

    _add_knows_pair(b, "john", "alice")
    _add_knows_pair(b, "john", "peter")
    _add_knows_pair(b, "peter", "celine")
    _add_knows_pair(b, "peter", "frank")
    _add_knows_pair(b, "celine", "frank")

    # The Wagner lovers: Celine and Frank (John's friends do not like
    # Wagner — Section 3's expert-finding setup).
    b.add_edge("celine", "wagner", edge_id="interest_celine",
               labels=["hasInterest"])
    b.add_edge("frank", "wagner", edge_id="interest_frank",
               labels=["hasInterest"])

    # Message threads sized to produce the Figure 5 nr_messages values.
    # John <-> Peter: two exchanged pairs  -> nr_messages = 2
    _add_thread(b, "jp", [("a", "john"), ("b", "peter"), ("c", "john")])
    # Peter <-> Frank: three exchanged pairs -> nr_messages = 3
    _add_thread(
        b, "pf", [("a", "peter"), ("b", "frank"), ("c", "peter"), ("d", "frank")]
    )
    # Peter <-> Celine: one exchanged pair -> nr_messages = 1
    _add_thread(b, "pc", [("a", "peter"), ("b", "celine")])
    # Celine <-> Frank: one exchanged pair -> nr_messages = 1
    _add_thread(b, "cf", [("a", "celine"), ("b", "frank")])
    return b.build()


def _company_graph() -> PathPropertyGraph:
    """The unconnected Company nodes of the data-integration example.
    """
    b = GraphBuilder(name="company_graph")
    for key, name in (
        ("acme", "Acme"),
        ("hal", "HAL"),
        ("cwi", "CWI"),
        ("mit", "MIT"),
    ):
        b.add_node(key, labels=["Company"], properties={"name": name})
    return b.build()


def _orders_table() -> Table:
    """The ``orders`` table of the Section 5 examples.
    """
    return Table(
        columns=("custName", "prodCode"),
        rows=[
            ("Alice", "P100"),
            ("Alice", "P200"),
            ("Bob", "P100"),
            ("Carol", "P300"),
            ("Carol", "P100"),
            ("Bob", "P300"),
        ],
        name="orders",
    )
