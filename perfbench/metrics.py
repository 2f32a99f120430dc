"""Metric definitions shared by the in-process and serve workloads."""

from __future__ import annotations

import statistics

#: Set-up is repeated up to this many times per untraced run (once when
#: traced) and ``setup_s`` reports the median; repeats stop early once
#: set-up has taken ``SETUP_BUDGET_S`` in total, so the 100k-user graph
#: build of warm_run is paid twice rather than three times.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 10.0


def more_setup(times, trace) -> bool:
    """Whether to run another set-up repetition after ``times``."""
    if not times:
        return True
    return (not trace and len(times) < SETUP_REPEATS
            and sum(times) < SETUP_BUDGET_S)


#: Per-layer metrics read from spans: (metric, span name, field).  The
#: value is the median over the traced ops that entered the span's
#: layer, 0 when no op did; the metric is absent when its wrap target no
#: longer exists.
LAYER_SPANS = (
    ("graphs.build_s", "graphs.build", "self"),
    ("graphs.spectral_s", "graphs.spectral", "self"),
    ("graphs.eigsh_s", "graphs.eigsh", "self"),
    ("graphs.eigsh_calls", "graphs.eigsh", "calls"),
    ("scenario.values_s", "scenario.values", "self"),
    ("protocols.self_s", "protocols.run_all", "self"),
    ("netsim.seed_s", "netsim.seed", "self"),
    ("netsim.exchange_s", "netsim.exchange", "self"),
    ("netsim.deliver_s", "netsim.deliver", "self"),
    ("amplification.bound_s", "amplification.bound", "self"),
    ("amplification.empirical_s", "amplification.empirical", "self"),
    ("auditing.self_s", "auditing.audit", "self"),
    ("auditing.walks_s", "auditing.walks", "self"),
    ("auditing.walk_hops", "auditing.walks", "work"),
)
#: Rates derived from two span metrics: (metric, numerator, denominator).
LAYER_RATES = (
    ("netsim.messages_per_s", "netsim.messages", "netsim.exchange_s"),
    ("auditing.walk_hops_per_s", "auditing.walk_hops", "auditing.walks_s"),
)
SERVE_LAYER = ("serve.bound_server_ms", "serve.job_exec_s", "serve.job_wait_s",
               "serve.generator_lag_ms", "serve.bound_p99_ms",
               "serve.job_p50_s", "serve.job_p90_s")


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mib"):
        return "MiB"
    if metric.endswith("_frac"):
        return "frac"
    return "count"


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, share):
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append("; ".join(problems))


def layer_metrics(op_aggregates, missing, counters):
    """Per-layer metrics of the traced ops (see LAYER_SPANS)."""
    metrics = {}
    for metric, span, field in LAYER_SPANS:
        if span in missing:
            continue
        entered = [agg for agg in op_aggregates if agg["calls"].get(span)]
        if field == "work" and any(span not in agg["work"] for agg in entered):
            continue
        metrics[metric] = median([agg[field][span] for agg in entered])
    metrics.update(counters)
    for metric, numerator, denominator in LAYER_RATES:
        if numerator in metrics and metrics.get(denominator):
            metrics[metric] = metrics[numerator] / metrics[denominator]
        elif numerator in metrics and denominator in metrics:
            metrics[metric] = 0.0
    walls = [agg for agg in op_aggregates if agg["wall"]]
    metrics["trace_covered_frac"] = median(
        [sum(agg["self"].values()) / agg["wall"] for agg in walls])
    return metrics


def sampler_build_seconds(spans, until_ns):
    """Median kernel-sampler call time before ``until_ns`` (set-up)."""
    return median([(span["end"] - span["start"]) / 1e9 for span in spans
                   if span["name"] == "auditing.sampler"
                   and span["start"] < until_ns])
