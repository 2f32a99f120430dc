"""Which mechanisms the protocols randomize in one batch, and why that is safe.

``A_all`` and ``A_single`` randomize every user's value through
:func:`~repro.protocols.all_protocol.randomize_payloads`.  A mechanism
runs as one ``randomize_batch`` call only when its class declares
``batch_matches_loop``; otherwise it loops ``randomize`` per user.  The
protocols read per-user payloads out of that column with
:func:`~repro.protocols.reports.payload_rows`.  The
tests below keep every declaration true for each registered mechanism:
a batched mechanism's batch equals the per-user loop in payload values,
payload types and final generator state, and a looped mechanism's batch
does not (so batching it would change its seeded stream).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.graphs.generators import random_regular_graph
from repro.protocols.all_protocol import randomize_payloads, run_all_protocol
from repro.protocols.reports import payload_rows
from repro.scenario import MECHANISMS, VALUES

NUM_USERS = 257

#: A values spec each registered mechanism accepts.
VALUES_FOR = {
    "rr": ("bernoulli", {"rate": 0.3}),
    "kary_rr": ("choice", {"num_options": 5}),
    "laplace": ("normal", {"mean": 0.5, "std": 0.3, "lower": 0.0, "upper": 1.0}),
    "gaussian": ("normal", {"mean": 0.5, "std": 0.3, "lower": 0.0, "upper": 1.0}),
    "unary": ("choice", {"num_options": 5}),
    "privunit": ("bimodal_unit_vectors", {"dimension": 8}),
}

#: Mechanisms whose batch draws a different stream than the loop.
LOOPED = {"kary_rr", "privunit"}


def _example(kind):
    mechanism = MECHANISMS.build(kind, **MECHANISMS.example(kind))
    values_kind, params = VALUES_FOR[kind]
    values = VALUES.build(
        values_kind, np.random.default_rng(0), NUM_USERS, **params
    )
    return mechanism, values


def _looped(mechanism, values, seed):
    rng = np.random.default_rng(seed)
    return [mechanism.randomize(value, rng) for value in values], rng


def _identical(got, want) -> bool:
    """Equal values and Python types, element by element."""
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        if type(a) is not type(b):
            return False
        if isinstance(b, np.ndarray):
            if a.dtype != b.dtype or not np.array_equal(a, b):
                return False
        elif a != b:
            return False
    return True


def _same_state(a, b) -> bool:
    return a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("kind", MECHANISMS.available())
def test_declaration_matches_batch_behaviour(kind):
    mechanism, values = _example(kind)
    looped, loop_rng = _looped(mechanism, values, seed=7)
    batch_rng = np.random.default_rng(7)
    batch = mechanism.randomize_batch(values, batch_rng)
    rows = batch.tolist() if batch.ndim == 1 else list(batch)
    matches = _identical(rows, looped) and _same_state(batch_rng, loop_rng)
    assert type(mechanism).batch_matches_loop is matches
    assert matches is (kind not in LOOPED)


@pytest.mark.parametrize("kind", MECHANISMS.available())
def test_payloads_equal_the_loop(kind, monkeypatch):
    """Batched or looped, the protocol payloads are the loop's, and only
    the declared mechanisms skip the loop."""
    mechanism, values = _example(kind)
    looped, loop_rng = _looped(mechanism, values, seed=11)
    calls = []
    randomize = mechanism.randomize

    def counting(value, rng=None):
        calls.append(value)
        return randomize(value, rng)

    monkeypatch.setattr(mechanism, "randomize", counting)
    rng = np.random.default_rng(11)
    column = randomize_payloads(mechanism, values, NUM_USERS, rng)
    assert _identical(payload_rows(column), looped)
    assert _same_state(rng, loop_rng)
    assert len(calls) == (NUM_USERS if kind in LOOPED else 0)


@pytest.mark.parametrize(
    "kind, bad_value",
    [("rr", 0.5), ("rr", 2), ("unary", 1.5), ("laplace", float("nan")),
     ("gaussian", 1.5)],
)
def test_batched_mechanisms_still_reject_bad_values(kind, bad_value):
    """The per-user loop rejected these inputs; the batch must too."""
    mechanism, values = _example(kind)
    values[3] = bad_value
    graph = random_regular_graph(4, NUM_USERS, rng=0)
    with pytest.raises(ValidationError):
        run_all_protocol(graph, 2, values=values, randomizer=mechanism, rng=0)
