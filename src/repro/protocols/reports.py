"""Report objects and protocol-run results."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

import numpy as np

from repro.netsim.adversary import AdversaryView
from repro.netsim.metrics import MeterBoard, VectorMeterBoard


@dataclass(frozen=True)
class Report:
    """A randomized report traveling through the network.

    Attributes
    ----------
    origin:
        The user who generated the report (ground truth, simulator-only
        knowledge); ``-1`` marks a dummy report from ``A_single``.
    payload:
        The randomized value ``s_i = A_ldp(x_i)``.
    """

    origin: int
    payload: Any

    @property
    def is_dummy(self) -> bool:
        """Whether this is an ``A_single`` dummy report."""
        return self.origin < 0


@dataclass
class ProtocolResult:
    """Everything a protocol simulation produces.

    Attributes
    ----------
    protocol:
        ``"all"`` or ``"single"``.
    num_users:
        ``n``.
    rounds:
        Exchange rounds ``t`` executed before reporting.
    server_reports:
        Reports received by the server, in delivery order.
    delivered_by:
        For each server report, the user who delivered it.
    allocation:
        ``L`` — reports held per user at the final round (before the
        single-protocol down-sampling).
    dummy_count:
        Number of dummy reports the server received (``A_single`` only).
    meters:
        Per-entity traffic/memory meters — the exchange engine's
        array-backed ``VectorMeterBoard``, or a ``MeterBoard`` from the
        per-message reference simulator (same query API, identical
        values for a seeded run).
    """

    protocol: str
    num_users: int
    rounds: int
    server_reports: List[Report]
    delivered_by: np.ndarray
    allocation: np.ndarray
    dummy_count: int = 0
    meters: Optional[MeterBoard | VectorMeterBoard] = None

    @property
    def real_reports(self) -> List[Report]:
        """Server reports excluding dummies."""
        return [report for report in self.server_reports if not report.is_dummy]

    def payloads(self, include_dummies: bool = True) -> List[Any]:
        """Payloads of the delivered reports."""
        return [
            report.payload
            for report in self.server_reports
            if include_dummies or not report.is_dummy
        ]

    def adversary_view(self) -> AdversaryView:
        """The central adversary's observation of this run."""
        origins = np.asarray(
            [report.origin for report in self.server_reports], dtype=np.int64
        )
        return AdversaryView(
            num_users=self.num_users,
            final_holder=np.asarray(self.delivered_by, dtype=np.int64),
            report_payloads=self.payloads(),
            origin=origins,
        )

    def check_conservation(self) -> bool:
        """``A_all`` invariant: every seeded report reaches the server."""
        if self.protocol != "all":
            return True
        return len(self.server_reports) == self.num_users
