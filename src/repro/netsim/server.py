"""The curator/server entity.

The server is *untrusted* in the shuffle threat model: it sees every
final-round report together with the identity of the user who sent it
(Section 3.3 — "the final-round reports are not anonymous").  The
simulator therefore records that linkage in an
:class:`~repro.netsim.adversary.AdversaryView` rather than hiding it.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.netsim.metrics import EntityMeter


class Server:
    """Collects final reports, remembering which user delivered each."""

    def __init__(self, meter: EntityMeter):
        self.meter = meter
        self._reports: List[Any] = []
        self._delivered_by: List[int] = []

    def deliver(self, sender: int, payload: Any) -> None:
        """Record one report delivered by ``sender``."""
        self._reports.append(payload)
        self._delivered_by.append(int(sender))
        self.meter.record_receive()
        self.meter.record_store()

    def deliver_many(self, senders: List[int], payloads: List[Any]) -> None:
        """Record a batch of reports (the vectorized final round)."""
        if len(senders) != len(payloads):
            raise ValueError("senders and payloads must have equal length")
        self._reports.extend(payloads)
        self._delivered_by.extend(map(int, senders))
        self.meter.record_receive(len(payloads))
        self.meter.record_store(len(payloads))

    @property
    def reports(self) -> List[Any]:
        """All collected reports, in delivery order."""
        return list(self._reports)

    @property
    def delivered_by(self) -> List[int]:
        """For each report, the user who delivered it (final-round link)."""
        return list(self._delivered_by)

    def reports_by_sender(self) -> Dict[int, List[Any]]:
        """Reports grouped by the delivering user."""
        grouped: Dict[int, List[Any]] = {}
        for sender, payload in zip(self._delivered_by, self._reports):
            grouped.setdefault(sender, []).append(payload)
        return grouped

    def __len__(self) -> int:
        return len(self._reports)
