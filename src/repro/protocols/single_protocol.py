"""Algorithm 2 — the ``A_single`` client protocol.

Like ``A_all`` but after the final exchange round each user sends
exactly **one** report: a uniform sample from her held set, or a dummy
``A_ldp(0)`` if she holds none.  Sending a constant one report per user
hides the report-allocation vector from the adversary (stronger privacy
at large ``eps0``) at the cost of dropped real reports and injected
dummies (utility loss — the Figure 9 trade-off).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, Union

import numpy as np

from repro.exceptions import ValidationError
from repro.graphs.dynamic import DynamicGraphSchedule
from repro.graphs.graph import Graph
from repro.ldp.base import LocalRandomizer
from repro.netsim.faults import DropoutModel
from repro.netsim.network import RoundBasedNetwork
from repro.protocols.all_protocol import randomize_payloads, resolve_faults
from repro.protocols.reports import ProtocolResult
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_non_negative_int

#: Origin marker for dummy reports.
DUMMY_ORIGIN = -1


def _dummy_payload(
    randomizer: Optional[LocalRandomizer],
    dummy_factory: Optional[Callable[[np.random.Generator], Any]],
    rng: np.random.Generator,
) -> Any:
    """Line 10 of Algorithm 2: ``J_j <- A_ldp(0)`` (or a custom factory)."""
    if dummy_factory is not None:
        return dummy_factory(rng)
    if randomizer is not None:
        return randomizer.randomize(0, rng)
    return None


def run_single_protocol(
    graph: Union[Graph, DynamicGraphSchedule],
    rounds: int,
    *,
    values: Optional[Sequence[Any]] = None,
    randomizer: Optional[LocalRandomizer] = None,
    dummy_factory: Optional[Callable[[np.random.Generator], Any]] = None,
    faults: Optional[DropoutModel] = None,
    laziness: float = 0.0,
    rng: RngLike = None,
) -> ProtocolResult:
    """Simulate Algorithm 2 on ``graph`` for ``rounds`` exchange rounds.

    ``dummy_factory(rng)`` overrides the default dummy payload
    ``A_ldp(0)`` — the Figure 9 experiment uses a normalized
    ``N(5, 1)^d`` draw per the paper.

    The final selection consumes the RNG as *one batched draw* over the
    non-empty holders (in user order), then one draw per dummy in user
    order — identical on the reference simulator for a fixed seed.

    Returns
    -------
    ProtocolResult
        Exactly ``n`` reports reach the server; ``dummy_count`` of them
        are dummies (users who held nothing).
    """
    check_non_negative_int(rounds, "rounds")
    generator = ensure_rng(rng)
    num_users = graph.num_nodes
    payloads = randomize_payloads(randomizer, values, num_users, generator)
    network = RoundBasedNetwork(
        graph, faults=resolve_faults(faults, laziness), rng=generator
    )
    # As in A_all, the network carries user j's report as the index j.
    users = np.arange(num_users, dtype=np.int64)
    network.seed_items(users, users)
    network.run_exchange(rounds)
    allocation = network.held_counts()
    held_by_user = network.drain_held()

    # Line 9 of Algorithm 2, batched: one vectorized draw selects the
    # uniform index for every non-empty holder at once (the per-user
    # ``rng.integers`` loop was the hot spot on million-user sweeps).
    # Dummy draws happen after the batch, in user order.
    nonempty = np.flatnonzero(allocation > 0)
    picks = generator.integers(0, allocation[nonempty])
    origins = np.full(num_users, DUMMY_ORIGIN, dtype=np.int64)
    origins[nonempty] = [
        held_by_user[user][pick]
        for user, pick in zip(nonempty.tolist(), picks.tolist())
    ]
    dummy_count = num_users - nonempty.size
    dummy_payloads = [
        _dummy_payload(randomizer, dummy_factory, generator)
        for _ in range(dummy_count)
    ]
    return ProtocolResult(
        protocol="single",
        num_users=num_users,
        rounds=rounds,
        origins=origins,
        user_payloads=payloads,
        delivered_by=users,
        allocation=allocation,
        dummy_payloads=dummy_payloads,
        dummy_count=dummy_count,
        meters=network.meters,
    )


def expected_empty_handed_users(position_matrix: np.ndarray) -> float:
    """Expected number of users who end the walk holding no report.

    Given the ``(n, n)`` matrix with ``position_matrix[i, j] =
    P(report i sits at user j)``, user ``j`` is empty-handed with
    probability ``prod_i (1 - P_ij)``; summing over ``j`` gives the
    expected dummy count (the paper computes 7,080 for Twitch).
    """
    matrix = np.asarray(position_matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValidationError("position_matrix must be square (n, n)")
    log_empty = np.sum(np.log1p(-np.clip(matrix, 0.0, 1.0 - 1e-15)), axis=0)
    return float(np.exp(log_empty).sum())


def expected_empty_handed_stationary(pi: np.ndarray) -> float:
    """Dummy-count estimate at stationarity: every report is at node
    ``j`` with probability ``pi_j`` independently, so

        E[#empty] = sum_j (1 - pi_j)^n.
    """
    pi = np.asarray(pi, dtype=np.float64)
    n = pi.size
    return float(np.sum(np.exp(n * np.log1p(-np.clip(pi, 0.0, 1.0 - 1e-15)))))
