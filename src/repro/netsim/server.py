"""The curator/server entity.

The server is *untrusted* in the shuffle threat model: it sees every
final-round report together with the identity of the user who sent it
(Section 3.3 — "the final-round reports are not anonymous").  The
simulator therefore records that linkage in an
:class:`~repro.netsim.adversary.AdversaryView` rather than hiding it.

Items travel as *columns*: a NumPy array stays an array from seeding to
delivery, and any other sequence travels as a list.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.netsim.metrics import EntityMeter


def join_items(chunks: Sequence[Sequence[Any]]) -> Sequence[Any]:
    """Concatenate item columns in order.

    Arrays of one dtype and row shape join into one array; any other
    mix joins into a list holding each array's elements.
    """
    if len(chunks) == 1:
        return chunks[0]
    if chunks and all(
        isinstance(chunk, np.ndarray)
        and chunk.dtype == chunks[0].dtype
        and chunk.shape[1:] == chunks[0].shape[1:]
        for chunk in chunks
    ):
        return np.concatenate(chunks)
    return [item for chunk in chunks for item in chunk]


def take_items(column: Sequence[Any], indices: np.ndarray) -> Sequence[Any]:
    """``column[indices]``: an array for an array column, else a list."""
    if isinstance(column, np.ndarray):
        return column[indices]
    return [column[index] for index in indices.tolist()]


def _owned(items: Sequence[Any]) -> Sequence[Any]:
    """A private copy of an item column, array or list."""
    return items.copy() if isinstance(items, np.ndarray) else list(items)


class Server:
    """Collects final reports, remembering which user delivered each.

    Deliveries are kept as columns — the sender ids as an ``int64``
    array, the items as delivered (see :func:`join_items`) — so a
    batched final round passes through without a per-report loop.
    """

    def __init__(self, meter: EntityMeter):
        self.meter = meter
        self._senders: List[np.ndarray] = []
        self._items: List[Sequence[Any]] = []

    def deliver(self, sender: int, payload: Any) -> None:
        """Record one report delivered by ``sender``."""
        self.deliver_many([sender], [payload])

    def deliver_many(self, senders: Sequence[int], items: Sequence[Any]) -> None:
        """Record a batch of reports (the vectorized final round).

        ``senders`` and ``items`` may be lists or arrays; an item array
        is kept as an array.
        """
        senders = np.array(senders, dtype=np.int64)
        if senders.shape != (len(items),):
            raise ValidationError(
                f"need one sender per item: got {senders.size} senders "
                f"for {len(items)} items"
            )
        self._senders.append(senders)
        self._items.append(_owned(items))
        self.meter.record_receive(senders.size)
        self.meter.record_store(senders.size)

    def columns(self) -> Tuple[np.ndarray, Sequence[Any]]:
        """``(senders, items)`` in delivery order, as copies.

        ``senders`` is an ``int64`` array; ``items`` is an array when
        every batch delivered one array of a single dtype, else a list.
        """
        if len(self._senders) != 1:
            # Collapse the batches once; later reads are one copy.
            senders = (
                np.concatenate(self._senders)
                if self._senders
                else np.empty(0, dtype=np.int64)
            )
            self._senders = [senders]
            self._items = [join_items(self._items)]
        return self._senders[0].copy(), _owned(self._items[0])

    @property
    def reports(self) -> List[Any]:
        """All collected reports, in delivery order."""
        return list(self.columns()[1])

    @property
    def delivered_by(self) -> List[int]:
        """For each report, the user who delivered it (final-round link)."""
        return self.columns()[0].tolist()

    def reports_by_sender(self) -> Dict[int, List[Any]]:
        """Reports grouped by the delivering user."""
        senders, items = self.columns()
        grouped: Dict[int, List[Any]] = {}
        for sender, payload in zip(senders.tolist(), items):
            grouped.setdefault(sender, []).append(payload)
        return grouped

    def __len__(self) -> int:
        return sum(senders.size for senders in self._senders)
