"""The Section 4.4 secure realization: encrypted network shuffling.

Runs ``A_all`` end to end with the double-encryption envelope on the
metered network simulator:

1. PKI setup — every user registers an E2E keypair, the server
   publishes its ``c2`` public key;
2. each user randomizes, serializes, and seals her report for the
   server, then wraps it for a random neighbor;
3. every round, each relay opens her hop layer and re-wraps the (still
   server-encrypted) inner ciphertext for the next hop;
4. after ``t`` rounds users forward the inner ciphertexts to the
   server, which decrypts the ``c2`` layer.

The run asserts the protocol's two security claims as it goes: relays
only ever see server-layer ciphertexts (honest-but-curious safety), and
hop traffic is E2E-encrypted (adversarial-server safety).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.crypto.elgamal import Ciphertext, draw_ephemeral
from repro.crypto.envelope import (
    open_batch,
    seal_batch,
    server_open,
    wrap_batch,
)
from repro.crypto.keys import PublicKeyInfrastructure, UserKeyring
from repro.exceptions import ProtocolError
from repro.graphs.graph import Graph
from repro.ldp.base import LocalRandomizer
from repro.netsim.message import SERVER_ID
from repro.netsim.metrics import MeterBoard
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class SecureRunResult:
    """Outcome of a secure protocol run."""

    decrypted_payloads: List[Any]
    delivered_by: np.ndarray
    meters: MeterBoard
    rounds: int

    @property
    def num_reports(self) -> int:
        """Reports successfully decrypted by the server."""
        return len(self.decrypted_payloads)


def _serialize_value(value: Any) -> bytes:
    return json.dumps(value, sort_keys=True, default=float).encode()


def _deserialize_value(blob: bytes) -> Any:
    return json.loads(blob.decode())


def run_secure_protocol(
    graph: Graph,
    rounds: int,
    values: Sequence[Any],
    randomizer: Optional[LocalRandomizer] = None,
    *,
    rng: RngLike = None,
) -> SecureRunResult:
    """Run encrypted ``A_all`` and return the server's decrypted view.

    Trajectory first, then batch crypto.  Pass A replays the randomness
    schedule of the per-message realization — the randomizer calls, hop
    draws, and one burned KEM ephemeral per encryption point, in the
    exact per-message order — which fixes every message's full hop
    trajectory and all meters without touching a ciphertext.  Pass B
    then runs the double-encryption envelope flow as one batch call per
    protocol phase (:func:`repro.crypto.envelope.seal_batch` /
    ``wrap_batch`` / ``open_batch``).  Seeded outputs are message for
    message and meter for meter those of the per-message loop, which
    lives on as the test oracle
    :func:`repro.testing.reference.run_secure_per_message`: trajectories
    (hence delivery order, payloads, and meters) depend only on the
    draws Pass A reproduces, never on the throwaway encryption
    ephemerals.
    """
    if len(values) != graph.num_nodes:
        raise ProtocolError(
            f"need one value per user: {len(values)} values, "
            f"n={graph.num_nodes}"
        )
    generator = ensure_rng(rng)
    num_users = graph.num_nodes
    meters = MeterBoard()

    # --- 1. PKI setup -------------------------------------------------
    pki = PublicKeyInfrastructure(rng=generator)
    keyrings: Dict[int, UserKeyring] = {
        ring.user_id: ring for ring in pki.register_all(num_users)
    }

    # --- Pass A: randomness schedule + trajectory ---------------------
    neighbor_lists = [graph.neighbors(user) for user in range(num_users)]
    blobs: List[bytes] = []
    first_hops = np.empty(num_users, dtype=np.int64)
    for user in range(num_users):
        value = (
            randomizer.randomize(values[user], generator)
            if randomizer is not None
            else values[user]
        )
        blobs.append(_serialize_value(value))
        draw_ephemeral(generator)  # seal_for_server's KEM draw
        neighbor_ids = neighbor_lists[user]
        if neighbor_ids.size == 0:
            raise ProtocolError(f"user {user} has no neighbors to relay to")
        first_hops[user] = neighbor_ids[
            generator.integers(0, neighbor_ids.size)
        ]
        draw_ephemeral(generator)  # wrap_for_hop's KEM draw

    # Message j originates at user j.  ``order`` is the faithful event
    # sequence: ascending holder, inbox arrival order within a holder.
    holders = first_hops
    order = np.argsort(holders, kind="stable")
    hop_trajectory = [holders]
    sent = np.ones(num_users, dtype=np.int64)
    received = np.bincount(holders, minlength=num_users)
    current = received.copy()
    peak = received.copy()
    for _ in range(max(0, rounds - 1)):
        next_hops = np.empty(num_users, dtype=np.int64)
        for message in order:
            neighbor_ids = neighbor_lists[holders[message]]
            next_hops[message] = neighbor_ids[
                generator.integers(0, neighbor_ids.size)
            ]
            draw_ephemeral(generator)  # the re-wrap's KEM draw
        receipts = np.bincount(next_hops, minlength=num_users)
        # Peak replay: while senders with id < u are processed, u still
        # holds everything she kept plus their deliveries; her own
        # processing then drains her, and later senders refill her to
        # ``receipts``.  The per-message interleaving peaks at one of
        # those two watermarks.
        from_lower = np.bincount(
            next_hops[holders < next_hops], minlength=num_users
        )
        np.maximum(peak, current + from_lower, out=peak)
        np.maximum(peak, receipts, out=peak)
        sent += current
        received += receipts
        current = receipts
        holders = next_hops
        order = order[np.argsort(holders[order], kind="stable")]
        hop_trajectory.append(holders)

    # Final delivery: every holder sends (and releases) all she holds.
    sent += current
    final_current = np.zeros(num_users, dtype=np.int64)

    # --- Pass B: batched envelope flow --------------------------------
    sealed = seal_batch(pki, blobs, rng=generator)
    envelopes = wrap_batch(pki, hop_trajectory[0], sealed, rng=generator)
    for next_holders in hop_trajectory[1:]:
        inners = open_batch(keyrings, envelopes)
        for inner in inners:
            # Honest-but-curious check: a relay must NOT be able to
            # read the report — the inner layer is a ciphertext.
            if not isinstance(inner, Ciphertext):
                raise ProtocolError("relay recovered a non-ciphertext layer")
        envelopes = wrap_batch(pki, next_holders, inners, rng=generator)
    inners = open_batch(keyrings, envelopes)
    decrypted: List[Any] = [
        _deserialize_value(server_open(pki, inners[message]))
        for message in order
    ]
    delivered_by = holders[order]

    # Materialize the meter board the per-message loop would have built.
    for user in range(num_users):
        meter = meters.meter(user)
        meter.messages_sent = int(sent[user])
        meter.messages_received = int(received[user])
        meter.current_items = int(final_current[user])
        meter.peak_items = int(peak[user])
    meters.meter(SERVER_ID).record_receive(len(decrypted))

    if rounds >= 1 and len(decrypted) != num_users:
        raise ProtocolError(
            f"secure A_all lost reports: {len(decrypted)} of {num_users}"
        )
    return SecureRunResult(
        decrypted_payloads=decrypted,
        delivered_by=np.asarray(delivered_by, dtype=np.int64),
        meters=meters,
        rounds=rounds,
    )
