"""Algorithm 1 — the ``A_all`` client protocol.

Each user randomizes her value, the network exchanges reports for ``t``
random-walk rounds, then every user delivers *all* reports she holds to
the server (a user holding none sends a null response, i.e. delivers
nothing).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Union

import numpy as np

from repro.exceptions import ProtocolError, ValidationError
from repro.graphs.dynamic import DynamicGraphSchedule
from repro.graphs.graph import Graph
from repro.ldp.base import LocalRandomizer
from repro.netsim.faults import DropoutModel, IndependentDropout
from repro.netsim.network import RoundBasedNetwork
from repro.protocols.reports import ProtocolResult
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_non_negative_int

def resolve_faults(
    faults: Optional[DropoutModel], laziness: float
) -> Optional[DropoutModel]:
    """``laziness`` is sugar for ``IndependentDropout`` (the paper's
    lazy-walk fault model); passing both is ambiguous."""
    if laziness:
        if faults is not None:
            raise ValidationError("pass either faults or laziness, not both")
        faults = IndependentDropout(laziness)
    return faults


def randomize_payloads(
    randomizer: Optional[LocalRandomizer],
    values: Optional[Sequence[Any]],
    num_users: int,
    rng: np.random.Generator,
) -> Sequence[Any]:
    """Line 2 of Algorithm 1: ``s_j <- A_ldp(x_j)``, one payload per user.

    Returns the payload column, user ``j``'s payload at index ``j``.  A
    mechanism whose ``randomize_batch`` matches the per-user loop
    (:attr:`~repro.ldp.base.LocalRandomizer.batch_matches_loop`) runs as
    one batch and the column is its array; the generator state
    afterwards, and the payloads
    :func:`~repro.protocols.reports.payload_rows` reads from it, equal
    the loop's.  Other mechanisms loop, and the column is a list.
    """
    if values is None:
        # Privacy-only runs don't need payloads.
        return [None] * num_users
    if len(values) != num_users:
        raise ValidationError(
            f"need one value per user: got {len(values)} values, n={num_users}"
        )
    if randomizer is None:
        return list(values)
    if not randomizer.batch_matches_loop:
        return [randomizer.randomize(value, rng) for value in values]
    return randomizer.randomize_batch(values, rng)


def run_all_protocol(
    graph: Union[Graph, DynamicGraphSchedule],
    rounds: int,
    *,
    values: Optional[Sequence[Any]] = None,
    randomizer: Optional[LocalRandomizer] = None,
    faults: Optional[DropoutModel] = None,
    laziness: float = 0.0,
    rng: RngLike = None,
) -> ProtocolResult:
    """Simulate Algorithm 1 on ``graph`` for ``rounds`` exchange rounds.

    Parameters
    ----------
    graph:
        The communication network; every user participates.  A
        :class:`~repro.graphs.dynamic.DynamicGraphSchedule` runs the
        exchange on a time-varying topology (churn, failover).
    rounds:
        Number of exchange rounds ``t``.
    values:
        Optional raw user values ``x_i``; omitted for privacy-only runs.
    randomizer:
        Optional ``A_ldp`` applied to each value before the exchange.
    faults:
        Dropout model (offline users keep their reports — the lazy-walk
        fault model of Section 4.5).
    laziness:
        Shorthand for ``faults=IndependentDropout(laziness)``.
    rng:
        Seed or generator.

    Returns
    -------
    ProtocolResult
        With the conservation invariant: exactly ``n`` reports reach the
        server.
    """
    check_non_negative_int(rounds, "rounds")
    generator = ensure_rng(rng)
    num_users = graph.num_nodes
    payloads = randomize_payloads(randomizer, values, num_users, generator)
    network = RoundBasedNetwork(
        graph, faults=resolve_faults(faults, laziness), rng=generator
    )
    # The network carries user j's report as the index j; payloads are
    # looked up by origin only when a caller reads them.
    users = np.arange(num_users, dtype=np.int64)
    network.seed_items(users, users)
    network.run_exchange(rounds)
    allocation = network.held_counts()
    network.deliver_to_server()
    delivered_by, delivered = network.server.columns()
    origins = np.asarray(delivered, dtype=np.int64)
    if origins.size != num_users:
        raise ProtocolError(
            f"A_all lost reports: {origins.size} of {num_users} "
            "reached the server"
        )
    return ProtocolResult(
        protocol="all",
        num_users=num_users,
        rounds=rounds,
        origins=origins,
        user_payloads=payloads,
        delivered_by=delivered_by,
        allocation=allocation,
        meters=network.meters,
    )
