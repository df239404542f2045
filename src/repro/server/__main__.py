"""``python -m repro.server`` — run the query server from the shell.

Loads a dataset (or a binary snapshot) into a fresh engine and serves
it until interrupted::

    PYTHONPATH=src python -m repro.server --dataset paper --port 7687
    PYTHONPATH=src python -m repro.server --snapshot catalog.gsnap

``--dataset`` accepts any name from the :mod:`repro.datasets`
registry; ``--snapshot PATH`` skips generation entirely and boots the
engine from a saved snapshot via ``GCoreEngine.open``, which reads,
checks and decodes the whole file before the server starts listening —
a corrupt or unreadable snapshot exits with an error instead. Ctrl-C
or SIGTERM stops the server and joins its threads.
See ``docs/http-api.md`` for the endpoints and a full curl session.
"""

from __future__ import annotations

import argparse
import signal
from typing import Optional

from .. import datasets
from ..engine import GCoreEngine
from ..errors import SnapshotFormatError
from .app import GCoreServer, ServerConfig


def build_engine(
    dataset: str,
    seed: int,
    persons: int,
    snapshot: Optional[str] = None,
) -> GCoreEngine:
    if snapshot is not None:
        return GCoreEngine.open(snapshot)
    engine = GCoreEngine()
    if dataset == "snb":
        loaded = datasets.load("snb", scale=persons, seed=seed)
    else:
        loaded = datasets.load(dataset)
    loaded.install(engine)
    return engine


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve a G-CORE engine over HTTP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7687)
    parser.add_argument(
        "--dataset", choices=datasets.available(), default="paper"
    )
    parser.add_argument(
        "--snapshot",
        metavar="PATH",
        default=None,
        help="boot from a saved binary snapshot (overrides --dataset)",
    )
    parser.add_argument(
        "--persons", type=int, default=200, help="SNB graph size"
    )
    parser.add_argument("--seed", type=int, default=7, help="SNB seed")
    parser.add_argument("--max-in-flight", type=int, default=8)
    parser.add_argument("--max-queue", type=int, default=16)
    parser.add_argument("--timeout-ms", type=int, default=30_000)
    parser.add_argument("--row-limit", type=int, default=10_000)
    args = parser.parse_args(argv)

    try:
        engine = build_engine(
            args.dataset, args.seed, args.persons, snapshot=args.snapshot
        )
    except (OSError, SnapshotFormatError) as exc:
        parser.error(f"cannot open snapshot: {exc}")
    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_in_flight=args.max_in_flight,
        max_queue=args.max_queue,
        default_timeout_ms=args.timeout_ms,
        default_row_limit=args.row_limit,
    )
    server = GCoreServer(engine, config)

    source = (
        f"snapshot={args.snapshot}" if args.snapshot
        else f"dataset={args.dataset}"
    )

    signal.signal(signal.SIGTERM, signal.default_int_handler)  # as Ctrl-C
    try:
        server.start()
        print(f"G-CORE server listening on {server.url} "
              f"({source}); Ctrl-C to stop")
        server.wait_stopped()
    except KeyboardInterrupt:
        print("\nstopped")
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
