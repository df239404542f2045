"""Binary graph snapshots: a load/save format for the catalog.

The Storage API in three calls::

    from repro.storage import save_snapshot, open_snapshot

    save_snapshot(engine.catalog, "catalog.gsnap")   # or engine.save(path)
    snapshot = open_snapshot("catalog.gsnap")        # read + checked once
    graph = snapshot.graph("snb")                    # a PathPropertyGraph

See ``docs/storage.md`` for the format layout, what opening checks and
the mutability rules.
"""

from .format import FORMAT_VERSION, SnapshotReader, SnapshotWriter
from .snapshot import Snapshot, open_snapshot, save_snapshot

__all__ = [
    "FORMAT_VERSION",
    "Snapshot",
    "SnapshotReader",
    "SnapshotWriter",
    "open_snapshot",
    "save_snapshot",
]
