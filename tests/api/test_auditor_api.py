"""Public auditor planning API: resolve_method.

The auditor picks its Monte Carlo engine itself; ``resolve_method`` is
the documented way to ask which one it will run, and the scenario layer
memoizes a kernel sampler exactly when the answer is ``"kernel"``.
"""

from __future__ import annotations

import pytest

from repro.auditing import KERNEL_MAX_NODES, auditor, resolve_method
from repro.exceptions import ScheduleRefusedError
from repro.graphs.dynamic import DynamicGraphSchedule
from repro.graphs.generators import cycle_graph, random_regular_graph
from repro.scenario import Scenario, audit, clear_graph_cache
from repro.scenario.runner import _bundle_for


@pytest.fixture
def small_graph():
    return random_regular_graph(4, 50, rng=7)


@pytest.fixture
def schedule():
    return DynamicGraphSchedule([cycle_graph(9), cycle_graph(9)])


@pytest.fixture
def fresh_cache():
    clear_graph_cache()
    yield
    clear_graph_cache()


def _scenario(graph, rounds=10):
    return Scenario(
        graph=graph,
        mechanism={"kind": "rr", "params": {"epsilon": 1.0}},
        rounds=rounds,
        audit={"kind": "weighted_evidence", "params": {"trials": 40}},
        seed=2,
    )


_K_REGULAR = {"kind": "k_regular", "params": {"degree": 4, "num_nodes": 40}}


class TestResolveMethod:
    def test_method_argument_refused(self, small_graph):
        for method in ("auto", "kernel", "tiled", "warp"):
            with pytest.raises(TypeError):
                resolve_method(method, small_graph, rounds=64)

    def test_auto_prefers_kernel_on_small_graphs(self, small_graph):
        assert resolve_method(small_graph, rounds=64) == "kernel"

    def test_auto_falls_back_for_short_walks(self, small_graph):
        # Few rounds: step-simulating is cheaper than building M^t.
        assert resolve_method(small_graph, rounds=1) == "tiled"

    def test_kernel_on_schedule_is_refused(self, schedule, fresh_cache):
        # A time-varying topology has no single t-step kernel: the rule
        # never picks it, and the bundle refuses to build one.
        for rounds in (8, 64, 4096):
            assert resolve_method(schedule, rounds=rounds) == "tiled"
        bundle = _bundle_for(_scenario(
            {"kind": "schedule", "params": {"graphs": [_K_REGULAR] * 2}}
        ))
        with pytest.raises(ScheduleRefusedError):
            bundle.kernel_sampler(64, 0.0)

    def test_auto_on_schedule_step_simulates(self, schedule):
        assert resolve_method(schedule, rounds=8) == "tiled"


class TestShouldMemoize:
    """Scenario audits memoize a kernel sampler exactly when the kernel
    engine runs."""

    def test_small_static_graph_memoizes(self, fresh_cache):
        scenario = _scenario(_K_REGULAR)
        audit(scenario)
        bundle = _bundle_for(scenario)
        assert (bundle.kernel_builds, bundle.kernel_hits) == (1, 0)

    def test_schedule_never_memoizes(self, fresh_cache):
        scenario = _scenario(
            {"kind": "schedule", "params": {"graphs": [_K_REGULAR] * 2}}
        )
        audit(scenario)
        assert _bundle_for(scenario).kernel_builds == 0

    def test_cap_is_the_kernel_cap(self, fresh_cache, monkeypatch):
        scenario = _scenario(_K_REGULAR)
        assert _bundle_for(scenario).graph.num_nodes <= KERNEL_MAX_NODES
        monkeypatch.setattr(auditor, "KERNEL_MAX_NODES", 39)
        audit(scenario)
        assert _bundle_for(scenario).kernel_builds == 0


class TestDeprecatedSpellings:
    def test_scenario_auditing_imports_no_private_names(self):
        # The scenario layer uses only the public planning API.
        import inspect

        from repro.scenario import auditing

        source = inspect.getsource(auditing)
        assert "_resolve_method" not in source
        assert "_KERNEL_MAX_NODES" not in source
