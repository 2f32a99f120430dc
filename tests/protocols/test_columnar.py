"""Columnar protocol results: no ``Report`` on the hot path, same outputs.

:class:`~repro.protocols.reports.ProtocolResult` stores delivery-order
origins and the per-user payload column; ``Report`` lists are views
built only when a caller reads them.  These tests keep the runners off
``Report``, hold the columns equal to the per-message oracle under
faults and time-varying topologies, and pin the payload values and
Python types each mechanism delivers (a type drift would change
``repr``-based digests and stored JSON).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.graphs.dynamic import DynamicGraphSchedule
from repro.graphs.generators import random_regular_graph
from repro.netsim.faults import IndependentDropout
from repro.protocols import reports
from repro.protocols.all_protocol import run_all_protocol
from repro.protocols.single_protocol import run_single_protocol
from repro.scenario import DUMMIES, MECHANISMS, VALUES
from repro.testing.reference import reference_protocols

from .test_batching_rule import VALUES_FOR

RUNNERS = {"all": run_all_protocol, "single": run_single_protocol}


def _mechanism_and_values(kind, num_users):
    mechanism = MECHANISMS.build(kind, **MECHANISMS.example(kind))
    values_kind, params = VALUES_FOR[kind]
    values = VALUES.build(
        values_kind, np.random.default_rng(0), num_users, **params
    )
    return mechanism, values


class TestNoReportsOnTheHotPath:
    @pytest.mark.parametrize("protocol", sorted(RUNNERS))
    def test_runners_build_reports_only_when_read(self, protocol, monkeypatch):
        built = []
        construct = reports.Report.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            construct(self, *args, **kwargs)

        # Patching the class catches every construction, whichever
        # module imported the name.
        monkeypatch.setattr(reports.Report, "__init__", counting)
        graph = random_regular_graph(4, 200, rng=1)
        mechanism, values = _mechanism_and_values("rr", graph.num_nodes)
        assert mechanism.batch_matches_loop
        result = RUNNERS[protocol](
            graph, 2, values=values, randomizer=mechanism, rng=3
        )
        result.payloads()
        result.adversary_view()
        assert built == []
        if protocol == "single":
            assert result.dummy_count > 0
        assert len(result.server_reports) == graph.num_nodes
        assert len(built) == graph.num_nodes
        assert len(result.real_reports) == graph.num_nodes - result.dummy_count


def _schedule():
    graphs = [random_regular_graph(4, 60, rng=seed) for seed in (11, 12, 13)]
    return DynamicGraphSchedule(graphs, lambda round_index: round_index % 3)


class TestColumnsMatchTheOracle:
    @pytest.mark.parametrize("protocol", sorted(RUNNERS))
    @pytest.mark.parametrize("topology", ["dropout", "schedule"])
    @pytest.mark.parametrize("kind", ["rr", "laplace"])
    def test_views_equal_reference(self, protocol, topology, kind):
        if topology == "dropout":
            graph = random_regular_graph(4, 60, rng=5)
            kwargs = {"faults": IndependentDropout(0.3)}
        else:
            graph = _schedule()
            kwargs = {}
        mechanism, values = _mechanism_and_values(kind, graph.num_nodes)
        kwargs.update(values=values, randomizer=mechanism, rng=8)
        run = RUNNERS[protocol]
        got = run(graph, 4, **kwargs)
        with reference_protocols():
            want = run(graph, 4, **kwargs)

        assert got.server_reports == want.server_reports
        assert got.real_reports == want.real_reports
        assert got.payloads() == want.payloads()
        assert got.payloads(include_dummies=False) == want.payloads(
            include_dummies=False
        )
        assert got.dummy_count == want.dummy_count
        np.testing.assert_array_equal(got.origins, want.origins)
        np.testing.assert_array_equal(got.allocation, want.allocation)
        got_view, want_view = got.adversary_view(), want.adversary_view()
        assert got_view.num_users == want_view.num_users
        np.testing.assert_array_equal(got_view.origin, want_view.origin)
        np.testing.assert_array_equal(
            got_view.final_holder, want_view.final_holder
        )
        assert got_view.report_payloads == want_view.report_payloads


def _canonical(payload) -> str:
    if isinstance(payload, np.ndarray):
        return (
            f"ndarray:{payload.dtype.str}:{payload.shape}:"
            f"{payload.tobytes().hex()}"
        )
    return f"{type(payload).__name__}:{payload!r}"


#: (mechanism, protocol) -> (dummy count, payload type names, digest of
#: every payload's type and exact value).  Recorded before results
#: became columnar, when the runners built one ``Report`` per delivery.
PINS = {
    ("rr", "all"): (0, ["int"], "3cc61f4413146955"),
    ("rr", "single"): (24, ["int"], "6237f7827533daf6"),
    ("kary_rr", "all"): (0, ["int"], "c310ce0357e39bfe"),
    ("kary_rr", "single"): (24, ["int"], "f4a2d41d3ea827d4"),
    ("laplace", "all"): (0, ["float"], "127d68306a56bf5b"),
    ("laplace", "single"): (24, ["float"], "85fd336ee77eca1d"),
    ("gaussian", "all"): (0, ["float"], "a58e04181305fbcc"),
    ("gaussian", "single"): (24, ["float"], "e847b2901b2b6669"),
    ("unary", "all"): (0, ["ndarray"], "bee5b6331a72f0cd"),
    ("unary", "single"): (21, ["ndarray"], "1d53fb954d639949"),
    ("privunit", "all"): (0, ["ndarray"], "7f43f16fdf166258"),
    ("privunit", "single"): (24, ["ndarray"], "c9a0b406d1831d6e"),
}


@pytest.mark.parametrize("kind, protocol", sorted(PINS))
def test_payload_types_and_values_pinned(kind, protocol):
    graph = random_regular_graph(4, 60, rng=3)
    mechanism, values = _mechanism_and_values(kind, graph.num_nodes)
    kwargs = {}
    if protocol == "single" and kind == "privunit":
        # PrivUnit has no A_ldp(0); Figure 9 substitutes this dummy.
        kwargs["dummy_factory"] = DUMMIES.build(
            "privunit_normal", mechanism, mean=5.0
        )
    rounds = 3 if protocol == "all" else 2
    result = RUNNERS[protocol](
        graph, rounds, values=values, randomizer=mechanism, rng=5, **kwargs
    )
    payloads = result.payloads()
    digest = hashlib.sha256(
        "\n".join(map(_canonical, payloads)).encode()
    ).hexdigest()[:16]
    types = sorted({type(payload).__name__ for payload in payloads})
    assert (result.dummy_count, types, digest) == PINS[(kind, protocol)]
