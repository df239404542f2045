"""Admission control: a bounded in-flight pool with a bounded wait queue.

At most ``max_in_flight`` queries run on the engine at once, each on the
worker thread that read its request. Admission keeps that from building
an unbounded backlog: up to ``max_queue`` requests may wait for a slot,
and anything beyond that is **shed immediately** with a 503
``overloaded`` envelope — the client can retry with backoff, and the
server never accumulates latent work it cannot serve (see
``docs/http-api.md``).

Slots are granted FIFO. A slot is released only when its query actually
finishes: a request that *times out* (408) gets its response early, but
its worker still occupies the slot until the engine returns — admission
therefore reflects true engine load, not merely open connections.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque

from .protocol import OverloadedError

__all__ = ["AdmissionController"]


class AdmissionController:
    """FIFO slot pool with load shedding, shared by the worker threads."""

    def __init__(self, max_in_flight: int, max_queue: int) -> None:
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.max_in_flight = max_in_flight
        self.max_queue = max_queue
        self.in_flight = 0
        self.admitted_total = 0
        self.shed_total = 0
        self._changed = threading.Condition()
        #: one ticket per waiting thread, oldest first
        self._waiters: Deque[object] = deque()

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def acquire(self) -> None:
        """Take a slot, waiting in the bounded queue if the pool is full.

        Raises :class:`~repro.server.protocol.OverloadedError` (-> 503)
        when the queue is full too.
        """
        with self._changed:
            if self.in_flight < self.max_in_flight and not self._waiters:
                self.in_flight += 1
            elif len(self._waiters) >= self.max_queue:
                raise self.shed(
                    f"{self.in_flight} in flight, {len(self._waiters)} queued"
                )
            else:
                ticket = object()
                self._waiters.append(ticket)
                while ticket in self._waiters:  # release() hands us its slot
                    self._changed.wait()
            self.admitted_total += 1

    def release(self) -> None:
        """Return a slot; it passes to the oldest waiter when one exists."""
        with self._changed:
            if self._waiters:
                self._waiters.popleft()  # in_flight stays constant
                self._changed.notify_all()
            else:
                self.in_flight -= 1

    def shed(self, state: str) -> OverloadedError:
        """Count one shed request and return the error that answers it."""
        with self._changed:
            self.shed_total += 1
        return OverloadedError(
            f"server over capacity ({state}); retry with backoff"
        )

    def info(self) -> dict:
        """Counters for ``GET /stats`` and ``GET /health``."""
        return {
            "in_flight": self.in_flight,
            "queued": self.queued,
            "max_in_flight": self.max_in_flight,
            "max_queue": self.max_queue,
            "admitted_total": self.admitted_total,
            "shed_total": self.shed_total,
        }
