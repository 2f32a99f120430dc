"""Report objects and protocol-run results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

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


def payload_rows(
    column: Sequence[Any], indices: Optional[np.ndarray] = None
) -> List[Any]:
    """Per-user payloads of ``column`` (at ``indices``), as a list.

    A batched column is an array: a 1-D one yields Python scalars and a
    2-D one an array row per user — what the per-user ``randomize`` loop
    returns.  Any other column is a list and yields its own elements.
    """
    if isinstance(column, np.ndarray):
        picked = column if indices is None else column[indices]
        return picked.tolist() if picked.ndim == 1 else list(picked)
    if indices is None:
        return list(column)
    return [column[index] for index in indices.tolist()]


@dataclass
class ProtocolResult:
    """Everything a protocol simulation produces, stored as columns.

    The runners fill the columns; the :class:`Report` lists
    (:attr:`server_reports`, :attr:`real_reports`) are views built each
    time a caller reads them.  New code should read :attr:`origins` and
    :meth:`payloads` instead.

    Attributes
    ----------
    protocol:
        ``"all"`` or ``"single"``.
    num_users:
        ``n``.
    rounds:
        Exchange rounds ``t`` executed before reporting.
    origins:
        Column: for each server report in delivery order, the user who
        generated it (``int64``); ``-1`` marks an ``A_single`` dummy.
    user_payloads:
        Column: user ``j``'s randomized payload at index ``j``, as
        :func:`~repro.protocols.all_protocol.randomize_payloads` made it
        — an array for a batched mechanism, else a list.
    delivered_by:
        Column: for each server report, the user who delivered it.
    allocation:
        ``L`` — reports held per user at the final round (before the
        single-protocol down-sampling).
    dummy_payloads:
        The dummies' payloads, in delivery (= user) order.
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
    origins: np.ndarray
    user_payloads: Sequence[Any]
    delivered_by: np.ndarray
    allocation: np.ndarray
    dummy_payloads: List[Any] = field(default_factory=list)
    dummy_count: int = 0
    meters: Optional[MeterBoard | VectorMeterBoard] = None

    def __post_init__(self) -> None:
        self.origins = np.asarray(self.origins, dtype=np.int64)

    @property
    def server_reports(self) -> List[Report]:
        """Reports received by the server, in delivery order (a view)."""
        return [
            Report(origin, payload)
            for origin, payload in zip(self.origins.tolist(), self.payloads())
        ]

    @property
    def real_reports(self) -> List[Report]:
        """Server reports excluding dummies (a view)."""
        real = self.origins[self.origins >= 0]
        return [
            Report(origin, payload)
            for origin, payload in zip(
                real.tolist(), self.payloads(include_dummies=False)
            )
        ]

    def payloads(self, include_dummies: bool = True) -> List[Any]:
        """Payloads of the delivered reports, in delivery order."""
        dummy = self.origins < 0
        if not dummy.any():
            return payload_rows(self.user_payloads, self.origins)
        real = payload_rows(self.user_payloads, self.origins[~dummy])
        if not include_dummies:
            return real
        reals, dummies = iter(real), iter(self.dummy_payloads)
        return [next(dummies) if is_dummy else next(reals) for is_dummy in dummy.tolist()]

    def adversary_view(self) -> AdversaryView:
        """The central adversary's observation of this run."""
        return AdversaryView(
            num_users=self.num_users,
            final_holder=np.asarray(self.delivered_by, dtype=np.int64),
            report_payloads=self.payloads(),
            origin=self.origins.copy(),
        )

    def check_conservation(self) -> bool:
        """``A_all`` invariant: every seeded report reaches the server."""
        if self.protocol != "all":
            return True
        return self.origins.size == self.num_users
