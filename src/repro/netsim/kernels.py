"""Exchange kernels and the choice between their two bodies.

:class:`~repro.netsim.engine.ExchangeEngine` advances the exchange with
two kernels:

* the **per-round** kernel — one synchronous round under any fault
  model, on a static graph or a schedule;
* the **fused** kernel — ``rounds`` fault-free rounds on a static graph
  in one call, over one pre-drawn block of uniforms.

Each kernel has two bodies with one signature:

* a **numba** body — the plain loops below, JIT-compiled (install the
  ``repro[compiled]`` extra).  The loops are also valid Python, which is
  how the test suite runs this code path without numba;
* a **NumPy** body — whole-array passes over the same arguments.  Its
  order step sorts on the unique keys ``holder * num_tokens + slot``,
  which requires ``num_users * num_tokens < 2**63``.

:func:`resolve_implementation` picks the body once per process from what
it can observe: numba imports and its warm-up compiles and runs the
kernels, or it does not.  No option selects a body.

Failure semantics
-----------------
With numba missing the NumPy bodies run silently; callers that *require*
JIT speed (``require_jit=True`` or :func:`set_require_jit`) get a loud
:class:`~repro.exceptions.BackendUnavailableError` instead of a silent
10x regression.  numba installed-but-broken always raises: a deployment
that shipped the extra asked for compiled speed.
"""

from __future__ import annotations

from importlib import util as _importlib_util
from typing import Callable, Dict, Optional

import numpy as np

from repro.exceptions import BackendUnavailableError

#: Whether the optional numba dependency is importable at all.
NUMBA_AVAILABLE = _importlib_util.find_spec("numba") is not None


# ----------------------------------------------------------------------
# Loop bodies (numba-compilable; also runnable as plain Python, which is
# how the test suite exercises the JIT code path without numba)
# ----------------------------------------------------------------------
def _round_loop(order, positions, offline, uniforms, degrees, indptr,
                indices, sends, receipts, kept, messages_sent,
                messages_received, current_items, peak_items, stay_buf,
                move_buf, new_order, cursors):
    """One exchange round, fused into a single pass over the tokens.

    Returns ``(moves, next_order)``: the mover count, or ``-1`` if a
    mover sits on an isolated node (the engine pre-checks, so ``-1``
    marks an internal inconsistency), and the next round's iteration
    order.  This body fills ``new_order`` with it via a counting sort:
    per ascending holder, kept items first (old order), then arrivals in
    send order — the permutation the NumPy body gets by sorting that
    sequence on the unique keys ``holder * num_tokens + slot``.
    """
    num_nodes = degrees.shape[0]
    total = order.shape[0]
    for node in range(num_nodes):
        sends[node] = 0
        receipts[node] = 0
        kept[node] = 0
    stays = 0
    moves = 0
    for slot in range(total):
        token = order[slot]
        source = positions[token]
        if offline[source]:
            stay_buf[stays] = token
            stays += 1
            kept[source] += 1
        else:
            degree = degrees[source]
            if degree == 0:
                return -1, new_order
            hop = np.int64(uniforms[moves] * degree)
            if hop >= degree:  # clamp contract-violating draws (u == 1.0)
                hop = degree - 1
            destination = indices[indptr[source] + hop]
            positions[token] = destination
            move_buf[moves] = token
            moves += 1
            sends[source] += 1
            receipts[destination] += 1
    base = np.int64(0)
    for node in range(num_nodes):
        messages_sent[node] += sends[node]
        messages_received[node] += receipts[node]
        if offline[node]:
            held = current_items[node] + receipts[node]
        else:
            held = receipts[node]
        current_items[node] = held
        if held > peak_items[node]:
            peak_items[node] = held
        cursors[node] = base
        base += kept[node] + receipts[node]
    for slot in range(stays):
        token = stay_buf[slot]
        node = positions[token]
        new_order[cursors[node]] = token
        cursors[node] += 1
    for slot in range(moves):
        token = move_buf[slot]
        node = positions[token]
        new_order[cursors[node]] = token
        cursors[node] += 1
    return moves, new_order


def _rounds_loop(order, positions, uniforms, degrees, indptr, indices,
                 sends, receipts, messages_sent, messages_received,
                 current_items, peak_items, alt_order, cursors, rounds):
    """``rounds`` fault-free static-graph rounds without leaving the loop.

    Every token moves every round, so the pre-drawn ``uniforms`` hold
    ``rounds * total`` doubles and the iteration order ping-pongs
    between ``order`` and ``alt_order`` (after an odd number of rounds
    the final order lives in ``alt_order`` — the engine swaps).  Returns
    ``0``, or ``-1`` on an isolated holder (the engine pre-checks).
    """
    num_nodes = degrees.shape[0]
    total = order.shape[0]
    draw = 0
    source_order = order
    target_order = alt_order
    for _ in range(rounds):
        for node in range(num_nodes):
            sends[node] = 0
            receipts[node] = 0
        for slot in range(total):
            token = source_order[slot]
            source = positions[token]
            degree = degrees[source]
            if degree == 0:
                return -1
            hop = np.int64(uniforms[draw] * degree)
            draw += 1
            if hop >= degree:
                hop = degree - 1
            destination = indices[indptr[source] + hop]
            positions[token] = destination
            sends[source] += 1
            receipts[destination] += 1
        base = np.int64(0)
        for node in range(num_nodes):
            messages_sent[node] += sends[node]
            messages_received[node] += receipts[node]
            current_items[node] = receipts[node]
            if receipts[node] > peak_items[node]:
                peak_items[node] = receipts[node]
            cursors[node] = base
            base += receipts[node]
        for slot in range(total):
            token = source_order[slot]
            node = positions[token]
            target_order[cursors[node]] = token
            cursors[node] += 1
        swap = source_order
        source_order = target_order
        target_order = swap
    return 0


# ----------------------------------------------------------------------
# NumPy bodies (same signatures; scratch buffers they do not need are
# ignored)
# ----------------------------------------------------------------------
def _inbox_keys(holders):
    """Unique sort keys ``holder * len(holders) + slot``.

    Ordering tokens by holder and, within a holder, by their slot in the
    sequence is what a stable sort by holder does.  Folding the slot
    into the key makes every key unique, so any sort yields that one
    permutation, and NumPy's default argsort is several times faster
    than its stable one on int64.  Keys stay below ``num_users *
    num_tokens``, which must be under ``2**63``.
    """
    keys = holders * holders.shape[0]
    keys += np.arange(holders.shape[0], dtype=np.int64)
    return keys


def _round_numpy(order, positions, offline, uniforms, degrees, indptr,
                 indices, sends, receipts, kept, messages_sent,
                 messages_received, current_items, peak_items, stay_buf,
                 move_buf, new_order, cursors):
    """NumPy realization of :func:`_round_loop`.

    Returns a fresh order array rather than filling ``new_order``:
    freshly allocated temporaries reuse cache-hot memory, which makes
    this body faster than one writing into the persistent buffers.
    """
    num_nodes = degrees.shape[0]
    moving = ~offline[positions[order]]
    movers = order[moving]
    sources = positions[movers]
    source_degrees = degrees[sources]
    if movers.size and source_degrees.min() == 0:
        return -1, new_order
    # floor(u * degree) lands in [0, degree) for every conforming
    # float64 draw; the clamp only matters for a contract-violating
    # u == 1.0 and is bit-identical for every other draw.
    hops = (uniforms * source_degrees).astype(np.int64)
    np.minimum(hops, source_degrees - 1, out=hops)
    destinations = indices[indptr[sources] + hops]
    positions[movers] = destinations
    arrivals = np.bincount(destinations, minlength=num_nodes)
    messages_sent += np.bincount(sources, minlength=num_nodes)
    messages_received += arrivals
    # Online holders empty their queue before deliveries land; offline
    # holders accumulate on top of what they kept.
    current_items *= offline
    current_items += arrivals
    np.maximum(peak_items, current_items, out=peak_items)
    # Kept items first (old order), then arrivals in send order: sorted
    # by new holder, ties broken by slot in this sequence, that is the
    # per-message inbox order (see ``_inbox_keys``).
    sequence = np.concatenate([order[~moving], movers])
    keys = _inbox_keys(positions[sequence])
    return movers.size, sequence[np.argsort(keys)]


def _rounds_numpy(order, positions, uniforms, degrees, indptr, indices,
                  sends, receipts, messages_sent, messages_received,
                  current_items, peak_items, alt_order, cursors, rounds):
    """NumPy realization of :func:`_rounds_loop`."""
    num_nodes = degrees.shape[0]
    total = order.shape[0]
    source_order = order
    target_order = alt_order
    offset = 0
    for _ in range(rounds):
        holders = positions[source_order]
        block = uniforms[offset: offset + total]
        offset += total
        source_degrees = degrees[holders]
        hops = (block * source_degrees).astype(np.int64)
        np.minimum(hops, source_degrees - 1, out=hops)
        destinations = indices[indptr[holders] + hops]
        positions[source_order] = destinations
        sends[:] = np.bincount(holders, minlength=num_nodes)
        receipts[:] = np.bincount(destinations, minlength=num_nodes)
        messages_sent += sends
        messages_received += receipts
        current_items[:] = receipts
        np.maximum(peak_items, current_items, out=peak_items)
        # All tokens move: arrivals in send order == source_order, so
        # sorting by destination, ties by slot, is the full order
        # maintenance (see ``_inbox_keys``).
        target_order[:] = source_order[np.argsort(_inbox_keys(destinations))]
        source_order, target_order = target_order, source_order
    return 0


# ----------------------------------------------------------------------
# Implementation resolution (numba JIT with warm-up, else NumPy)
# ----------------------------------------------------------------------
_KERNELS: Dict[str, Dict[str, Callable]] = {
    "numpy": {"round": _round_numpy, "rounds": _rounds_numpy},
}
_RESOLVED: Dict[str, object] = {"implementation": None, "error": None}
_REQUIRE_JIT = False


def set_require_jit(flag: bool) -> bool:
    """Set the process-wide JIT requirement; returns the previous value.

    With the requirement on, constructing an exchange engine without a
    working numba JIT raises :class:`BackendUnavailableError` instead of
    silently running the NumPy bodies (the CLI's ``--require-jit``).
    """
    global _REQUIRE_JIT
    previous = _REQUIRE_JIT
    _REQUIRE_JIT = bool(flag)
    return previous


def require_jit_enabled() -> bool:
    """Whether the process-wide JIT requirement is on."""
    return _REQUIRE_JIT


def _warm_up(round_kernel: Callable, rounds_kernel: Callable) -> None:
    """Force JIT specialization on a 2-node toy so compile errors
    surface at resolution time, not mid-simulation."""
    degrees = np.array([1, 1], dtype=np.int64)
    indptr = np.array([0, 1, 2], dtype=np.int64)
    indices = np.array([1, 0], dtype=np.int64)
    order = np.array([0], dtype=np.int64)
    positions = np.array([0], dtype=np.int64)
    offline = np.zeros(2, dtype=bool)
    uniforms = np.array([0.25], dtype=np.float64)
    node_buffers = [np.zeros(2, dtype=np.int64) for _ in range(7)]
    token_buffers = [np.zeros(1, dtype=np.int64) for _ in range(3)]
    sends, receipts, kept, sent, received, current, peak = node_buffers
    stay, move, new_order = token_buffers
    cursors = np.zeros(2, dtype=np.int64)
    status, new_order = round_kernel(
        order, positions, offline, uniforms, degrees, indptr, indices,
        sends, receipts, kept, sent, received, current, peak, stay, move,
        new_order, cursors,
    )
    if status != 1:
        raise RuntimeError(f"round kernel warm-up returned {status}")
    status = rounds_kernel(new_order, positions, uniforms, degrees,
                           indptr, indices, sends, receipts, sent,
                           received, current, peak, move, cursors, 1)
    if status != 0:
        raise RuntimeError(f"multi-round kernel warm-up returned {status}")


def _load_numba_kernels() -> Dict[str, Callable]:
    import numba

    round_kernel = numba.njit(cache=True, nogil=True)(_round_loop)
    rounds_kernel = numba.njit(cache=True, nogil=True)(_rounds_loop)
    _warm_up(round_kernel, rounds_kernel)
    return {"round": round_kernel, "rounds": rounds_kernel}


def resolve_implementation(require_jit: Optional[bool] = None) -> str:
    """Resolve (once per process) which bodies back the kernels.

    Returns ``"numba"`` or ``"numpy"``.  Raises
    :class:`BackendUnavailableError` when numba is installed but cannot
    JIT the kernels, or when JIT is required (argument, else the
    process-wide :func:`set_require_jit` flag) and unavailable.
    """
    required = _REQUIRE_JIT if require_jit is None else bool(require_jit)
    implementation = _RESOLVED["implementation"]
    if implementation is None:
        if NUMBA_AVAILABLE:
            try:
                _KERNELS["numba"] = _load_numba_kernels()
                implementation = "numba"
            except Exception as error:
                _RESOLVED["error"] = error
                implementation = "broken"
        else:
            implementation = "numpy"
        _RESOLVED["implementation"] = implementation
    if implementation == "broken":
        raise BackendUnavailableError(
            "numba is installed but failed to JIT the exchange kernels: "
            f"{_RESOLVED['error']}"
        )
    if required and implementation != "numba":
        raise BackendUnavailableError(
            "the exchange engine was asked to JIT but numba is not "
            "installed; install the repro[compiled] extra or drop the "
            "JIT requirement to use the NumPy kernels"
        )
    return implementation


def implementation_label() -> str:
    """The resolved kernel bodies as a label: ``numba``, ``numpy`` or
    ``broken``.  Never raises; run summaries record it so archived
    results stay interpretable across differently provisioned hosts."""
    try:
        return resolve_implementation(require_jit=False)
    except BackendUnavailableError:
        return "broken"


def backend_info() -> Dict[str, object]:
    """Introspection payload for ``/stats`` and the CLI: which kernel
    bodies the exchange engine uses in this process."""
    return {
        "numba_available": NUMBA_AVAILABLE,
        "kernels": implementation_label(),
        "require_jit": _REQUIRE_JIT,
    }
