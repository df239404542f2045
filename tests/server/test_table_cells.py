"""Table cells on the wire: plain cells pass through, the rest encode.

:func:`repro.server.protocol.serialize_result` emits a cell whose type is
exactly ``str``, ``int``, ``float``, ``bool`` or ``None`` as it is and
sends every other cell through ``_encode_value``. The body must be the
bytes of encoding every cell.
"""

import json
import math

from repro.model.values import Date
from repro.paths.walk import Walk
from repro.server import protocol
from repro.server.protocol import dumps, serialize_result
from repro.table import Table


class Label(str):
    """A ``str`` subclass: not a plain cell, encoded all the same."""


ROWS = [
    ("x", 1, 2.5, True, None, Date.parse("2021-03-04")),
    ("é\"\\", 1, float("nan"), False, frozenset({1, "x", 2.5}),
     [1, Date.parse("2020-01-02")]),
    (Label("sub"), True, float("-inf"), 1, (1, "y"), Walk(("a", "e", "b"))),
    ("", 2 ** 60, -0.0, 0, frozenset({Date.parse("2022-05-06")}), set()),
]


def every_cell_encoded(table, row_limit=None):
    rows = table.rows if row_limit is None else table.rows[:row_limit]
    return json.dumps(
        {
            "kind": "table",
            "columns": list(table.columns),
            "rows": [[protocol._encode_value(cell) for cell in row] for row in rows],
            "row_count": len(table.rows),
            "truncated": row_limit is not None and len(table.rows) > row_limit,
        },
        separators=(", ", ": "),
    ).encode("utf-8")


def test_mixed_cells_encode_as_every_cell_through_the_encoder():
    table = Table(["a", "b", "c", "d", "e", "f"], ROWS)
    assert dumps(serialize_result(table, None)) == every_cell_encoded(table)
    assert dumps(serialize_result(table, 2)) == every_cell_encoded(table, 2)


def test_plain_cells_keep_their_type_and_the_rest_are_encoded():
    table = Table(["a", "b", "c", "d", "e", "f"], ROWS)
    first, second, third, _ = serialize_result(table, None)["rows"]
    assert first[:5] == ["x", 1, 2.5, True, None]
    assert type(first[3]) is bool and type(first[1]) is int  # True beside 1
    assert first[5] == {"$date": "2021-03-04"}
    assert math.isnan(second[2])
    assert second[4] == [2.5, 1, "x"] and second[5] == [1, {"$date": "2020-01-02"}]
    assert third[0] == "sub" and type(third[0]) is Label
    assert third[4] == [1, "y"] and third[5] == str(Walk(("a", "e", "b")))
    body = dumps(serialize_result(table, None))
    assert b"NaN" in body and b"-Infinity" in body and b"true, -Infinity, 1" in body
