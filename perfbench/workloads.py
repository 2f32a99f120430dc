"""The in-process workloads: scenarios, the timed call, output checks.

Each workload turns the benchmark seed into scenarios (the program only
ever sees the scenarios) and runs one public ``repro.api`` call per op.
NOTES.md says why each workload exists and what it should move.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Any, Dict, List, Optional

from repro import api
from repro.scenario import graph_summary

#: Workload sizes.  ``full`` is the benchmark; ``toy`` keeps the same
#: code paths (the eigsh spectral path, kernel vs tiled audit engines)
#: small enough for the smoke test.
SCALES: Dict[str, Dict[str, Any]] = {
    "full": dict(
        warmup_n=2048, cold_n=5_000, warm_n=100_000, warm_rounds=34,
        kernel_n=1024, kernel_trials=2000, tiled_n=4096, tiled_trials=500,
        serve_n=4096, serve_audit_n=512, serve_audit_trials=500,
        serve_rate=300.0,
    ),
    "toy": dict(
        warmup_n=1600, cold_n=2048, warm_n=2000, warm_rounds=12,
        kernel_n=256, kernel_trials=200, tiled_n=2304, tiled_trials=20,
        serve_n=512, serve_audit_n=128, serve_audit_trials=50,
        serve_rate=100.0,
    ),
}

DEGREE = 8
EPSILON0 = 1.0
#: cold_run cycles over this many graphs (one seed each): the op time
#: varies by about 25% between random graphs of one size (ARPACK's
#: convergence), so a run's median must span several of them.
COLD_GRAPHS = 24
#: warm_run cycles the local budget; the central epsilon must rise
#: strictly along it.
EPSILON_CYCLE = (0.5, 1.0, 2.0)
#: Friedman: a random d-regular graph has second eigenvalue at most
#: 2*sqrt(d-1)/d + o(1) in absolute value; 0.05 is the o(1) slack.
FRIEDMAN_LIMIT = 2.0 * math.sqrt(DEGREE - 1) / DEGREE + 0.05


def scenario_dict(num_nodes: int, seed: int, *, epsilon: float = EPSILON0,
                  rounds: Optional[int] = None,
                  analysis: str = "stationary",
                  values: bool = True) -> Dict[str, Any]:
    """One k-regular ``A_all`` scenario with binary randomized response."""
    payload: Dict[str, Any] = {
        "graph": {"kind": "k_regular",
                  "params": {"degree": DEGREE, "num_nodes": num_nodes}},
        "mechanism": {"kind": "rr", "params": {"epsilon": epsilon}},
        "protocol": "all",
        "rounds": rounds,
        "analysis": analysis,
        "seed": seed,
    }
    if values:
        payload["values"] = {"kind": "bernoulli", "params": {"rate": 0.3}}
    return payload


def derive_seeds(seed: int, count: int) -> List[int]:
    """Scenario seeds drawn from the benchmark seed."""
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


def run_fingerprint(result) -> str:
    """Digest of everything a run outputs; equal inputs must match it."""
    protocol = result.protocol_result
    digest = hashlib.sha256()
    digest.update(protocol.allocation.tobytes())
    digest.update(protocol.delivered_by.tobytes())
    digest.update(repr(result.payloads()).encode())
    digest.update(repr((result.rounds, result.central_epsilon,
                        result.empirical_epsilon)).encode())
    return digest.hexdigest()


def check_run_invariants(result, num_users: int) -> List[str]:
    """A_all conservation: every report reaches the server, once."""
    problems = []
    protocol = result.protocol_result
    if not protocol.check_conservation():
        problems.append("conservation failed")
    allocated = int(protocol.allocation.sum())
    if allocated != num_users:
        problems.append(f"allocation sums to {allocated}, not {num_users}")
    return problems


class Workload:
    """One in-process workload: ``setup_once`` then timed ``call``s."""

    name = ""
    kind = ""

    def __init__(self, scale: Dict[str, Any], seed: int):
        self._reference: Dict[Any, Any] = {}

    def setup_once(self) -> None:
        """One repetition of the set-up a user pays before the first op."""

    def prepare(self, index: int) -> None:
        """Untimed per-op preparation."""

    def call(self, index: int):
        raise NotImplementedError

    def check(self, index: int, result) -> List[str]:
        raise NotImplementedError

    def messages(self, result) -> Optional[int]:
        """Messages the op sent over the simulated network, if it ran one."""
        return None

    def same_as_before(self, key, value, what: str) -> List[str]:
        """Equal inputs must give equal outputs, bit for bit."""
        reference = self._reference.setdefault(key, value)
        if reference != value:
            return [f"{what} differs from the first op with the same inputs"]
        return []


class RunWorkload(Workload):
    kind = "run"

    def messages(self, result) -> Optional[int]:
        return int(result.meters.total_messages_sent())


class ColdRun(RunWorkload):
    """A first priced answer on a new deployment graph, every op."""

    name = "cold_run"

    def __init__(self, scale, seed):
        super().__init__(scale, seed)
        warmup_seed, *graph_seeds = derive_seeds(seed, 1 + COLD_GRAPHS)
        self.num_users = scale["cold_n"]
        self.scenarios = [
            api.parse_scenario(scenario_dict(self.num_users, graph_seed))
            for graph_seed in graph_seeds
        ]
        self.warmup = api.parse_scenario(
            scenario_dict(scale["warmup_n"], warmup_seed))

    def setup_once(self) -> None:
        # A small cold op loads everything a cold op imports lazily
        # (the generator, ARPACK) without timing a full-size op.
        api.clear_graph_cache()
        api.run(self.warmup)
        api.clear_graph_cache()

    def prepare(self, index: int) -> None:
        api.clear_graph_cache()

    def call(self, index: int):
        return api.run(self.scenarios[index % COLD_GRAPHS])

    def check(self, index: int, result) -> List[str]:
        problems = check_run_invariants(result, self.num_users)
        gap = graph_summary(self.scenarios[index % COLD_GRAPHS]).spectral_gap
        expected_rounds = max(1, round(math.log(self.num_users) / gap))
        if result.rounds != expected_rounds:
            problems.append(
                f"mixing time {result.rounds} != round(ln n / gap) "
                f"= {expected_rounds}")
        if 1.0 - gap > FRIEDMAN_LIMIT:
            problems.append(
                f"1 - gap = {1.0 - gap:.4f} exceeds Friedman's "
                f"{FRIEDMAN_LIMIT:.4f}")
        problems += self.same_as_before(
            index % COLD_GRAPHS, run_fingerprint(result), "run output")
        return problems


class WarmRun(RunWorkload):
    """Repeated runs on one cached graph: the sweep/campaign path."""

    name = "warm_run"

    def __init__(self, scale, seed):
        super().__init__(scale, seed)
        (graph_seed,) = derive_seeds(seed, 1)
        self.num_users = scale["warm_n"]
        self.scenarios = [
            api.parse_scenario(scenario_dict(
                self.num_users, graph_seed, epsilon=epsilon,
                rounds=scale["warm_rounds"], analysis="symmetric"))
            for epsilon in EPSILON_CYCLE
        ]
        self._epsilons: Dict[int, float] = {}

    def setup_once(self) -> None:
        # Graph pre-build plus the lazy walk-distribution cache, both
        # paid by the first run on a fresh graph.
        api.clear_graph_cache()
        api.run(self.scenarios[0])

    def call(self, index: int):
        return api.run(self.scenarios[index % len(self.scenarios)])

    def check(self, index: int, result) -> List[str]:
        position = index % len(self.scenarios)
        problems = check_run_invariants(result, self.num_users)
        problems += self.same_as_before(
            position, run_fingerprint(result), "run output")
        self._epsilons[position] = result.central_epsilon
        if position == len(self.scenarios) - 1:
            cycle = [self._epsilons.get(i) for i in range(len(self.scenarios))]
            if None in cycle or any(
                    low >= high for low, high in zip(cycle, cycle[1:])):
                problems.append(
                    f"central epsilon does not rise strictly over "
                    f"eps0 {EPSILON_CYCLE}: {cycle}")
        return problems


class AuditWorkload(Workload):
    """Repeated audits of one scenario at a fixed seed."""

    kind = "audit"
    size_key = ""
    trials_key = ""

    def __init__(self, scale, seed):
        super().__init__(scale, seed)
        (graph_seed,) = derive_seeds(seed, 1)
        self.scenario = api.parse_scenario(scenario_dict(
            scale[self.size_key], graph_seed, values=False))
        self.trials = scale[self.trials_key]

    def call(self, index: int):
        return api.audit(self.scenario, trials=self.trials)

    def check(self, index: int, result) -> List[str]:
        estimate = result.epsilon_lower_bound
        problems = []
        if not 0.0 <= estimate <= EPSILON0:
            problems.append(f"audit epsilon {estimate} outside [0, {EPSILON0}]")
        problems += self.same_as_before("audit", estimate, "audit epsilon")
        return problems


class AuditKernel(AuditWorkload):
    """Kernel Monte Carlo engine: the memoized dense M^t sampler."""

    name = "audit_kernel"
    size_key = "kernel_n"
    trials_key = "kernel_trials"

    def setup_once(self) -> None:
        # The graph, its spectral summary and the kernel sampler are
        # all built by the first audit and memoized for the rest.
        api.clear_graph_cache()
        api.audit(self.scenario, trials=self.trials)


class AuditTiled(AuditWorkload):
    """Tiled Monte Carlo engine: trial walks stepped hop by hop."""

    name = "audit_tiled"
    size_key = "tiled_n"
    trials_key = "tiled_trials"

    def setup_once(self) -> None:
        # Graph pre-build and the spectral summary that fixes the
        # rounds; the tiled engine keeps nothing else between audits.
        api.clear_graph_cache()
        api.bound(self.scenario)


IN_PROCESS = {cls.name: cls for cls in (ColdRun, WarmRun, AuditKernel,
                                        AuditTiled)}
