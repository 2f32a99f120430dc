"""Traffic and memory meters for simulated entities.

Table 3 of the paper compares *entity space complexity* (memory needed
by the shuffling entity) and *user traffic complexity* (reports sent per
user) across Prochlo, mix-nets, and network shuffling.  The meters here
measure exactly those quantities during simulation, so the benchmark can
fit the growth class empirically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np


@dataclass
class EntityMeter:
    """Counters for a single entity (user, relay, shuffler, or server)."""

    messages_sent: int = 0
    messages_received: int = 0
    current_items: int = 0
    peak_items: int = 0

    def record_send(self, count: int = 1) -> None:
        """Count ``count`` outgoing messages."""
        self.messages_sent += count

    def record_receive(self, count: int = 1) -> None:
        """Count ``count`` incoming messages."""
        self.messages_received += count

    def record_store(self, count: int = 1) -> None:
        """Track items entering this entity's memory."""
        self.current_items += count
        if self.current_items > self.peak_items:
            self.peak_items = self.current_items

    def record_release(self, count: int = 1) -> None:
        """Track items leaving this entity's memory."""
        self.current_items = max(0, self.current_items - count)

    @property
    def total_traffic(self) -> int:
        """Messages sent plus received."""
        return self.messages_sent + self.messages_received


class MeterBoard:
    """A board of per-entity meters with aggregate queries."""

    def __init__(self) -> None:
        self._meters: Dict[int, EntityMeter] = {}

    def meter(self, entity_id: int) -> EntityMeter:
        """The meter for ``entity_id``, created on first access."""
        if entity_id not in self._meters:
            self._meters[entity_id] = EntityMeter()
        return self._meters[entity_id]

    def __contains__(self, entity_id: int) -> bool:
        return entity_id in self._meters

    def __len__(self) -> int:
        return len(self._meters)

    def max_peak_items(self) -> int:
        """Largest peak memory across all metered entities."""
        if not self._meters:
            return 0
        return max(meter.peak_items for meter in self._meters.values())

    def max_messages_sent(self) -> int:
        """Largest send count across all metered entities."""
        if not self._meters:
            return 0
        return max(meter.messages_sent for meter in self._meters.values())

    def mean_messages_sent(self) -> float:
        """Mean send count across all metered entities."""
        if not self._meters:
            return 0.0
        return sum(m.messages_sent for m in self._meters.values()) / len(self._meters)

    def total_messages_sent(self) -> int:
        """Total messages sent by all metered entities."""
        return sum(m.messages_sent for m in self._meters.values())


class VectorMeterBoard:
    """Array-backed meter board maintained by the exchange engine.

    Per-user counters live in flat NumPy arrays that the engine updates
    with one ``np.bincount`` per round, so metering a million tokens
    costs a few vector adds instead of millions of attribute increments.
    The query API mirrors :class:`MeterBoard`; ``meter(entity_id)``
    materializes an :class:`EntityMeter` *snapshot* (mutating it does
    not write back — the engine owns the counters).
    """

    def __init__(self, num_users: int, server_id: int):
        self._num_users = int(num_users)
        self._server_id = int(server_id)
        self.messages_sent = np.zeros(num_users, dtype=np.int64)
        self.messages_received = np.zeros(num_users, dtype=np.int64)
        self.current_items = np.zeros(num_users, dtype=np.int64)
        self.peak_items = np.zeros(num_users, dtype=np.int64)
        self._server = EntityMeter()

    @property
    def server_meter(self) -> EntityMeter:
        """The (live) server meter."""
        return self._server

    def meter(self, entity_id: int) -> EntityMeter:
        """Snapshot meter for ``entity_id`` (server meter is live)."""
        if entity_id == self._server_id:
            return self._server
        if not 0 <= entity_id < self._num_users:
            raise KeyError(f"no meter for entity {entity_id}")
        return EntityMeter(
            messages_sent=int(self.messages_sent[entity_id]),
            messages_received=int(self.messages_received[entity_id]),
            current_items=int(self.current_items[entity_id]),
            peak_items=int(self.peak_items[entity_id]),
        )

    def __contains__(self, entity_id: int) -> bool:
        return entity_id == self._server_id or 0 <= entity_id < self._num_users

    def __len__(self) -> int:
        return self._num_users + 1

    def max_peak_items(self) -> int:
        """Largest peak memory across all metered entities."""
        user_peak = int(self.peak_items.max()) if self._num_users else 0
        return max(user_peak, self._server.peak_items)

    def max_messages_sent(self) -> int:
        """Largest send count across all metered entities."""
        user_max = int(self.messages_sent.max()) if self._num_users else 0
        return max(user_max, self._server.messages_sent)

    def mean_messages_sent(self) -> float:
        """Mean send count across all metered entities (server included)."""
        total = int(self.messages_sent.sum()) + self._server.messages_sent
        return total / (self._num_users + 1)

    def total_messages_sent(self) -> int:
        """Total messages sent by all metered entities."""
        return int(self.messages_sent.sum()) + self._server.messages_sent
