"""The repository benchmark: one command, every workload, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload warm_run --seed 1 --seconds 10 --trace 0

``--trace 0`` times whole operations with no wrappers installed and
reports the end-to-end metrics.  ``--trace 1`` runs the same workload
with span wrappers around each layer's public callables (interleaved
with untraced ops, to measure the wrappers' own cost) and reports the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric with its unit and the environment.  The
full result, environment and spans are also written under
``.perfbench/`` in the repository root.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans as spanlib  # noqa: E402
from metrics import (SERVE_LAYER, Tally, layer_metrics, median,  # noqa: E402
                     more_setup, sampler_build_seconds, unit_of)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("cold_run", "warm_run", "audit_kernel", "audit_tiled",
             "serve_mixed")


def environment():
    import networkx
    import numpy
    import scipy

    from repro import api

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "backend": api.backend_info(),
        "code_version": api.code_version(),
    }


def timed_op(workload, index, tracer, tally):
    """Run, time and check op ``index``; traced when ``tracer`` is given.

    Returns the op's record, or None when the call raised.
    """
    from repro import api

    workload.prepare(index)
    if tracer is not None:
        tracer.install()
    cache_before = api.cache_stats()
    sampler_before = api.sampler_stats()["hits"]
    op_id = None
    try:
        began = time.perf_counter()
        if tracer is not None:
            with tracer.op(workload.kind) as span:
                result = workload.call(index)
            op_id = span.op
        else:
            result = workload.call(index)
        wall = time.perf_counter() - began
    except Exception as error:  # noqa: BLE001 -- counted as failed
        tally.record([f"{type(error).__name__}: {error}"])
        return None
    finally:
        if tracer is not None:
            tracer.uninstall()
    cache_after = api.cache_stats()
    record = {
        "op": op_id,
        "wall": wall,
        "cache_builds": cache_after["builds"] - cache_before["builds"],
        "cache_hits": (
            cache_after["memory_hits"] + cache_after["disk_hits"]
            - cache_before["memory_hits"] - cache_before["disk_hits"]),
        "sampler_hits": api.sampler_stats()["hits"] - sampler_before,
        "messages": workload.messages(result),
    }
    try:
        problems = workload.check(index, result)
    except Exception as error:  # noqa: BLE001 -- counted as failed
        problems = [f"check raised {type(error).__name__}: {error}"]
    tally.record(problems)
    return record


def run_in_process(workload, seconds, trace, tally):
    """Set up, then time ops until ``seconds`` have passed.

    Traced, each op runs twice on the same inputs, once untraced and
    once traced, so the wrappers' cost is a paired comparison.
    """
    tracer = spanlib.Tracer() if trace else None
    setup_times = []
    if trace:
        tracer.install()
    while more_setup(setup_times, trace):
        started = time.perf_counter()
        workload.setup_once()
        setup_times.append(time.perf_counter() - started)
    if trace:
        tracer.uninstall()

    plain, pairs = [], []
    started = time.perf_counter()
    measure_ns = time.perf_counter_ns()
    index = 0
    while True:
        if not trace:
            record = timed_op(workload, index, None, tally)
            if record is not None:
                plain.append(record)
        else:
            # Alternate which of the pair runs first: the second op on
            # the same inputs can find memory the first one freed.
            if index % 2 == 0:
                record = timed_op(workload, index, None, tally)
                traced = timed_op(workload, index, tracer, tally)
            else:
                traced = timed_op(workload, index, tracer, tally)
                record = timed_op(workload, index, None, tally)
            if record is not None:
                plain.append(record)
            if record is not None and traced is not None:
                pairs.append((record, traced))
        index += 1
        if time.perf_counter() - started >= seconds:
            break

    details = {"setup_s": setup_times,
               "op_ms": [record["wall"] * 1e3 for record in plain]}
    if not trace:
        return {
            "setup_s": median(setup_times),
            "op_p50_ms": median([record["wall"] for record in plain]) * 1e3,
        }, details

    span_dicts = [span.to_dict() for span in tracer.spans]
    aggregates = spanlib.per_op(span_dicts)
    traced_ops = [pair[1] for pair in pairs]
    op_aggregates = [aggregates[r["op"]] for r in traced_ops]
    counters = {
        name: median([r[key] or 0 for r in traced_ops])
        for name, key in (("scenario.cache_builds", "cache_builds"),
                          ("scenario.cache_hits", "cache_hits"),
                          ("auditing.sampler_hits", "sampler_hits"),
                          ("netsim.messages", "messages"))
    }
    metrics = layer_metrics(op_aggregates, tracer.missing, counters)
    if "auditing.sampler" not in tracer.missing:
        metrics["auditing.sampler_build_s"] = sampler_build_seconds(
            span_dicts, measure_ns)
    metrics["trace_overhead_frac"] = median(
        [with_spans["wall"] / without["wall"] for without, with_spans in pairs]
    ) - 1.0
    for metric in SERVE_LAYER:
        metrics[metric] = 0.0
    details.update(spans=span_dicts, missing=tracer.missing)
    return metrics, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy sizes exist for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from repro import api  # noqa: F401 -- the import is part of set-up

    import_s = time.perf_counter() - _STARTED
    import workloads

    scale = workloads.SCALES[args.scale]
    tally = Tally()
    trace = bool(args.trace)
    if args.workload == "serve_mixed":
        import serve_load

        OUT.mkdir(exist_ok=True)
        metrics, details = serve_load.run(
            scale, args.seed, args.seconds, trace, tally, OUT, SRC)
    else:
        workload = workloads.IN_PROCESS[args.workload](scale, args.seed)
        metrics, details = run_in_process(
            workload, args.seconds, trace, tally)
        if not trace:
            metrics["setup_s"] += import_s
            metrics["peak_rss_mib"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    env = environment()
    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    result = {
        "correct": tally.attempted > 0 and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(value), "unit": unit_of(name)}
                    for name, value in sorted(metrics.items())},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({"args": vars(args), "env": env, "failed_frac": failed_frac,
                   "failures": tally.reasons, "result": result,
                   "details": details}, handle)

    print(f"env {json.dumps(env, sort_keys=True)}")
    for reason in tally.reasons:
        print(f"failure {reason}")
    if details.get("missing"):
        print(f"missing wrap targets {details['missing']}")
    print(f"failed_frac {failed_frac:.6g} ({tally.failed}/{tally.attempted})")
    for name, entry in result["metrics"].items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
