"""The exchange engine: every in-flight report as one array slot.

Algorithms 1 and 2 exchange reports in synchronous rounds: each online
user forwards every report she holds to a uniformly random neighbour.
:class:`ExchangeEngine` represents that process as two flat arrays,

* ``token_origin[i]``  — the user who created token ``i``;
* ``token_position[i]`` — the user currently holding token ``i``;

and advances it with the kernels of :mod:`repro.netsim.kernels`: the
per-round kernel for any fault model or schedule, and the fused kernel
for a whole fault-free static-graph span in one call.  Which body runs
(numba or NumPy) is resolved once per process; which kernel runs follows
from the fault model, topology and trajectory recording.  Neither is an
option.

RNG contract (exact, not statistical)
-------------------------------------
A seeded run consumes one random stream in one order, whichever kernel
runs:

1. each round first draws the fault model's offline mask;
2. then one uniform double per message held by an online node, in
   per-message iteration order — ascending holder id, and within a
   holder the inbox arrival order; the neighbour index is
   ``floor(u * degree)``.

NumPy's ``Generator.random(k)`` produces the identical stream to ``k``
scalar ``Generator.random()`` calls, and ``random(a)`` then
``random(b)`` the identical stream to ``random(a + b)``, so one array
draw per round, one block per fused span, and the per-message reference
simulator (:mod:`repro.testing.reference`, the test oracle) coincide bit
for bit.  The engine maintains the iteration order explicitly in
:attr:`_order` — kept items precede arrivals, arrivals land in send
order — which is exactly the order per-message inboxes realize.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import SimulationError, ValidationError
from repro.graphs.dynamic import DynamicGraphSchedule
from repro.graphs.graph import Graph
from repro.netsim.faults import DropoutModel, NoFaults
from repro.netsim.kernels import _KERNELS, resolve_implementation
from repro.netsim.message import SERVER_ID
from repro.netsim.metrics import VectorMeterBoard
from repro.utils.rng import RngLike, ensure_rng

#: Ceiling on memoized degree vectors for schedule-driven engines.  A
#: round-robin schedule cycles a handful of graphs (all hit); a churn
#: schedule that generates a fresh topology per phase would otherwise
#: pin one O(n) degree vector — and the graph it belongs to — per phase,
#: growing without limit over a 10^5-phase run.  Beyond the cap the
#: least-recently-used entry is evicted (a miss just recomputes
#: ``graph.degrees()``, an O(n) ``np.diff``).
_DEGREE_CACHE_LIMIT = 64

#: Cap on one pre-drawn uniform block for the fused kernel: 2^20
#: doubles (8 MiB).  Drawing per block instead of per span bounds
#: memory while leaving the RNG stream unchanged.
_UNIFORM_BLOCK = 1 << 20


class _RoundBuffers:
    """Kernel scratch, reused across rounds and rebuilt only when the
    token count changes (seed, drain→reseed)."""

    __slots__ = ("num_tokens", "sends", "receipts", "kept", "cursors",
                 "stay", "move", "alt_order")

    def __init__(self, num_nodes: int, num_tokens: int):
        self.num_tokens = num_tokens
        self.sends = np.zeros(num_nodes, dtype=np.int64)
        self.receipts = np.zeros(num_nodes, dtype=np.int64)
        self.kept = np.zeros(num_nodes, dtype=np.int64)
        self.cursors = np.zeros(num_nodes, dtype=np.int64)
        self.stay = np.empty(num_tokens, dtype=np.int64)
        self.move = np.empty(num_tokens, dtype=np.int64)
        self.alt_order = np.empty(num_tokens, dtype=np.int64)


class ExchangeEngine:
    """Array-driven realization of the synchronous exchange rounds.

    Parameters
    ----------
    graph:
        Communication graph; tokens hop along its edges.  Passing a
        :class:`~repro.graphs.dynamic.DynamicGraphSchedule` makes the
        topology time-varying: before each round the engine swaps in the
        schedule's graph for that round index (a pure cache rebind —
        ``_degrees``/``_indptr``/``_indices`` — consuming no randomness,
        so the exact RNG contract is untouched).
    faults:
        Dropout model — offline holders keep their tokens for the round
        (the paper's lazy-walk fault model, Section 4.5).
    rng:
        Seed or generator.
    record_trajectories:
        When True, keep every token's full path (``trajectories()``) —
        needed by the collusion attack, costs O(tokens) memory per round.
    require_jit:
        Overrides the process-wide
        :func:`~repro.netsim.kernels.set_require_jit` flag: when true, a
        missing numba JIT raises instead of running the NumPy bodies.
    """

    def __init__(
        self,
        graph: Union[Graph, DynamicGraphSchedule],
        *,
        faults: Optional[DropoutModel] = None,
        rng: RngLike = None,
        record_trajectories: bool = False,
        require_jit: Optional[bool] = None,
    ):
        self.implementation = resolve_implementation(require_jit)
        kernels = _KERNELS[self.implementation]
        self._round_kernel = kernels["round"]
        self._rounds_kernel = kernels["rounds"]
        if isinstance(graph, DynamicGraphSchedule):
            self.schedule: Optional[DynamicGraphSchedule] = graph
            self._degree_cache_limit = max(
                1, min(graph.num_graphs, _DEGREE_CACHE_LIMIT)
            )
            graph = graph.graph_at(0)
        else:
            self.schedule = None
            self._degree_cache_limit = 1
        # Schedule swaps cycle a handful of graph objects; memoize their
        # degree vectors (and isolated nodes) so each swap is a pure
        # rebind, not an O(n) np.diff per round.  Entries hold the graph,
        # which pins its id, so a recycled id can never alias a stale
        # entry.  Bounded LRU: capped by the schedule's distinct-graph
        # count and ``_DEGREE_CACHE_LIMIT``, so lazily generated phase
        # graphs can't grow the cache (or pin graphs) without limit.
        self._degree_cache: OrderedDict[
            int, Tuple[Graph, np.ndarray, np.ndarray]
        ] = OrderedDict()
        self.graph = graph
        self.faults = faults if faults is not None else NoFaults()
        self.rng = ensure_rng(rng)
        self.round_index = 0
        self._degrees = graph.degrees()
        self._isolated = np.flatnonzero(self._degrees == 0)
        self._indptr = graph.indptr
        self._indices = graph.indices
        self.token_origin = np.empty(0, dtype=np.int64)
        self.token_position = np.empty(0, dtype=np.int64)
        #: Tokens in per-message iteration order: ascending holder, then
        #: inbox arrival order within a holder (see module docstring).
        self._order = np.empty(0, dtype=np.int64)
        self.meters = VectorMeterBoard(graph.num_nodes, SERVER_ID)
        self._buffers: Optional[_RoundBuffers] = None
        self._drained = False
        self._campaign_start_round = 0
        self._paths: Optional[List[np.ndarray]] = [] if record_trajectories else None

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    @property
    def num_users(self) -> int:
        """Number of user nodes."""
        return self.graph.num_nodes

    @property
    def num_tokens(self) -> int:
        """Number of in-flight tokens."""
        return self.token_position.size

    @property
    def drained(self) -> bool:
        """Whether a final delivery (:meth:`drain`) has emptied the network."""
        return self._drained

    def set_graph(self, graph: Graph) -> None:
        """Swap the communication graph in place (same node count).

        Rebinds the cached degree/CSR arrays; token positions, meters,
        iteration order, and the RNG stream are untouched — a swap
        consumes no randomness, which is what lets a schedule-driven run
        keep the exact RNG contract.

        On a schedule-constructed engine the schedule owns the topology:
        this method is exactly how it rebinds ``graph_at(round_index)``
        before each round, so a manual swap lasts only until the next
        round's sync overrides it.  To intervene on topology over time,
        encode the intervention in the schedule (its selector) instead.
        """
        if graph.num_nodes != self.graph.num_nodes:
            raise ValidationError(
                f"replacement graph has {graph.num_nodes} nodes, "
                f"engine has {self.graph.num_nodes}"
            )
        self.graph = graph
        cached = (
            self._degree_cache.get(id(graph))
            if self.schedule is not None else None
        )
        if cached is not None and cached[0] is graph:
            self._degree_cache.move_to_end(id(graph))
        else:
            degrees = graph.degrees()
            cached = (graph, degrees, np.flatnonzero(degrees == 0))
            if self.schedule is not None:
                self._degree_cache[id(graph)] = cached
                while len(self._degree_cache) > self._degree_cache_limit:
                    self._degree_cache.popitem(last=False)
        _, self._degrees, self._isolated = cached
        self._indptr = graph.indptr
        self._indices = graph.indices

    def _sync_schedule(self) -> None:
        """Bind the scheduled topology for the current round (if any)."""
        if self.schedule is not None:
            graph = self.schedule.graph_at(self.round_index)
            if graph is not self.graph:
                self.set_graph(graph)

    def seed_tokens(self, origins: np.ndarray) -> None:
        """Place one token per entry of ``origins`` at that node.

        Token ids continue from the current count; ``token_origin`` for
        the new tokens equals ``origins``.  Seeding is only allowed
        before the campaign's first exchange round (repeated calls are
        fine) or after a :meth:`drain` — interleaving seeds with rounds
        would scramble the inbox-arrival order the exact RNG contract
        depends on.
        """
        origins = np.ascontiguousarray(origins, dtype=np.int64)
        if origins.ndim != 1:
            raise ValidationError("origins must be a 1-D integer array")
        if origins.size and (
            origins.min() < 0 or origins.max() >= self.num_users
        ):
            raise ValidationError("token origins out of range")
        # Validate isolation against the topology in force at the next
        # round — on a schedule the seeding round's graph, not graph 0.
        self._sync_schedule()
        counts = np.bincount(origins, minlength=self.num_users)
        if counts[self._isolated].any():
            raise ValidationError("some tokens start on isolated nodes")
        if self._drained:
            # Drained tokens left the network (final delivery); seeding
            # afresh must not resurrect them, just as per-message
            # nodes are empty after ``take_all``.
            self.token_origin = np.empty(0, dtype=np.int64)
            self.token_position = np.empty(0, dtype=np.int64)
        if self.token_position.size == 0:
            self._campaign_start_round = self.round_index
        elif self.round_index != self._campaign_start_round:
            raise SimulationError(
                "cannot seed tokens mid-exchange; drain the network first"
            )
        self.token_origin = np.concatenate([self.token_origin, origins])
        self.token_position = np.concatenate([self.token_position, origins])
        self._order = np.argsort(self.token_position, kind="stable")
        self._drained = False
        self.meters.current_items += counts
        np.maximum(self.meters.peak_items, self.meters.current_items,
                   out=self.meters.peak_items)
        if self._paths is not None:
            self._paths = [self.token_position.copy()]

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------
    def _ensure_buffers(self) -> _RoundBuffers:
        buffers = self._buffers
        if buffers is None or buffers.num_tokens != self.num_tokens:
            buffers = _RoundBuffers(self.num_users, self.num_tokens)
            self._buffers = buffers
        return buffers

    def _isolated_holder(self, offline: Optional[np.ndarray]) -> bool:
        """Whether a token that must move sits on an isolated node.

        Checked before a kernel runs, so a raise leaves the engine's
        state as it was at the start of the round.
        """
        isolated = self._isolated
        if not isolated.size:
            return False
        holding = self.meters.current_items[isolated] > 0
        if offline is not None:
            holding &= ~offline[isolated]
        return bool(holding.any())

    def run_round(self) -> None:
        """One synchronous exchange round (lines 4-8 of Algorithms 1/2)."""
        n = self.num_users
        # Topology swap first: it consumes no randomness, so the fault
        # and hop draws below keep the contract's order.
        self._sync_schedule()
        offline = self.faults.offline_mask(n, self.round_index, self.rng)
        if self._drained:
            # Delivered tokens left the network: the round is a no-op
            # over an empty token set — but it still consumes the fault
            # model's draw and advances the clock.
            self.round_index += 1
            return
        if self._isolated_holder(offline):
            raise SimulationError(
                f"round {self.round_index}: a held token's node is "
                "isolated in the current topology"
            )
        meters = self.meters
        # current_items == held counts until a drain; the dot product
        # counts the tokens that offline holders keep.
        movers = self.num_tokens - int(meters.current_items @ offline)
        uniforms = self.rng.random(movers)
        buffers = self._ensure_buffers()
        status, order = self._round_kernel(
            self._order, self.token_position, offline, uniforms,
            self._degrees, self._indptr, self._indices,
            buffers.sends, buffers.receipts, buffers.kept,
            meters.messages_sent, meters.messages_received,
            meters.current_items, meters.peak_items,
            buffers.stay, buffers.move, buffers.alt_order, buffers.cursors,
        )
        if status < 0:
            raise SimulationError(
                f"round {self.round_index}: a held token's node is "
                "isolated in the current topology"
            )
        # The old order becomes the next round's scratch buffer.
        self._order, buffers.alt_order = order, self._order
        self.round_index += 1
        if self._paths is not None:
            self._paths.append(self.token_position.copy())

    def run(self, rounds: int) -> None:
        """Run ``rounds`` exchange rounds.

        A fault-free span on a static graph without trajectory recording
        runs through the fused kernel; anything else loops
        :meth:`run_round`.  Both consume the identical stream.
        """
        if rounds < 0:
            raise SimulationError(f"rounds must be non-negative, got {rounds}")
        fusable = (
            self.schedule is None
            and type(self.faults) is NoFaults
            and self._paths is None
            and not self._isolated_holder(None)
        )
        if not fusable:
            for _ in range(rounds):
                self.run_round()
            return
        if self._drained or self.num_tokens == 0:
            # NoFaults draws nothing and no token moves: the rounds only
            # advance the clock.
            self.round_index += rounds
            return
        meters = self.meters
        buffers = self._ensure_buffers()
        total = self.num_tokens
        block_rounds = max(1, _UNIFORM_BLOCK // total)
        done = 0
        while done < rounds:
            chunk = min(block_rounds, rounds - done)
            uniforms = self.rng.random(total * chunk)
            status = self._rounds_kernel(
                self._order, self.token_position, uniforms,
                self._degrees, self._indptr, self._indices,
                buffers.sends, buffers.receipts,
                meters.messages_sent, meters.messages_received,
                meters.current_items, meters.peak_items,
                buffers.alt_order, buffers.cursors, chunk,
            )
            if status < 0:
                raise SimulationError(
                    f"round {self.round_index + done}: a held token's "
                    "node is isolated in the current topology"
                )
            if chunk % 2:
                self._order, buffers.alt_order = (
                    buffers.alt_order, self._order
                )
            done += chunk
        self.round_index += rounds

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def held_counts(self) -> np.ndarray:
        """Items held per user — the allocation vector ``L``.

        Zero after :meth:`drain` (final delivery releases everything,
        like the per-message ``take_all``).
        """
        if self._drained:
            return np.zeros(self.num_users, dtype=np.int64)
        return np.bincount(self.token_position, minlength=self.num_users)

    def delivery_order(self) -> np.ndarray:
        """Token ids in server-delivery order.

        Final delivery runs node by node in ascending id, each node's
        items in held order — which is exactly :attr:`_order`.
        """
        return self._order.copy()

    def drain(self) -> np.ndarray:
        """Release every token (the per-message ``take_all``); returns
        the delivery order.  Releases memory only — callers meter any
        resulting sends themselves.  Idempotent: a second drain returns
        an empty order, as per-message nodes are empty after
        ``take_all``."""
        if self._drained:
            return np.empty(0, dtype=np.int64)
        order = self.delivery_order()
        self.meters.current_items[:] = 0
        self._drained = True
        return order

    def trajectories(self) -> np.ndarray:
        """Token paths, shape ``(num_tokens, rounds_since_seed + 1)``.

        Column 0 is the (latest) seeding; recording restarts if the
        network is drained and reseeded.  Only available when
        constructed with ``record_trajectories``.
        """
        if self._paths is None:
            raise SimulationError(
                "engine was not constructed with record_trajectories=True"
            )
        return np.stack(self._paths, axis=1)
