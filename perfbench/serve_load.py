"""The ``serve_mixed`` workload: the HTTP tier under mixed traffic.

The server runs in its own process (``serve_launcher.py``, i.e.
``python -m repro serve`` with the default two job workers).  This
client opens two keep-alive connections:

* connection A sends ``POST /bound`` open-loop at a fixed rate; each
  request is timed from the moment it was due to be sent, so a stall
  also charges the requests queued behind it;
* connection B runs closed-loop, alternating ``/run`` and ``/audit``
  jobs and polling ``/jobs/<id>`` every 5 ms until each is done.

Both connections are closed before the server is stopped: stopping the
server with a keep-alive connection still open logs a ``CancelledError``
traceback from ``serve.py::_handle`` on Python 3.11 (see NOTES.md).
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import spans as spanlib
import workloads
from metrics import (layer_metrics, median, more_setup, percentile,
                     sampler_build_seconds)

HERE = Path(__file__).resolve().parent
POLL_SECONDS = 0.005
BOOT_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0


class Server:
    """One server process; ``stop`` always waits for it to end."""

    def __init__(self, src: Path, out: Path, trace: bool, tag: str):
        self.spans_path = out / f"serve-spans-{tag}.json"
        self.log_path = out / f"serve-{tag}.log"
        command = [
            sys.executable, str(HERE / "serve_launcher.py"),
            "--src", str(src), "--trace", str(int(trace)),
            "--spans", str(self.spans_path), "--",
            "--port", "0", "--workers", "2",
        ]
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, text=True,
            cwd=str(src.parent),
        )
        self.port = self._await_port()

    def _await_port(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.process.stdout], [], [], 0.5)
            if ready:
                line = self.process.stdout.readline()
                if not line:
                    break
                if line.startswith("repro serve: http://"):
                    address = line.split()[2]
                    return int(address.rsplit(":", 1)[1])
            if self.process.poll() is not None:
                break
        self.stop()
        raise RuntimeError(f"server did not start; see {self.log_path}")

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


class Connection:
    """A minimal HTTP/1.1 keep-alive client connection."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    def send(self, method: str, path: str, body: Optional[bytes] = None):
        body = body or b""
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1") + body)

    async def receive(self) -> Tuple[int, Any]:
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            header = await self.reader.readline()
            if header in (b"\r\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        body = await self.reader.readexactly(length)
        return status, json.loads(body)

    async def request(self, method: str, path: str, payload=None):
        self.send(method, path,
                  None if payload is None else json.dumps(payload).encode())
        await self.writer.drain()
        return await self.receive()

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


class Traffic:
    """The scenarios one run sends, and what a correct answer is."""

    def __init__(self, scale: Dict[str, Any], seed: int):
        from repro import api

        graph_seed, audit_seed = workloads.derive_seeds(seed, 2)
        size = scale["serve_n"]
        self.bound_body = {"scenario": workloads.scenario_dict(
            size, graph_seed, values=False)}
        self.run_body = {"scenario": workloads.scenario_dict(size, graph_seed)}
        self.audit_body = {
            "scenario": workloads.scenario_dict(
                scale["serve_audit_n"], audit_seed, values=False),
            "trials": scale["serve_audit_trials"],
        }
        self.num_users = size
        self.rate = scale["serve_rate"]
        self.expected_epsilon = api.bound(
            api.parse_scenario(self.bound_body["scenario"])).epsilon
        self._first: Dict[str, Any] = {}

    def check_bound(self, status: int, payload) -> List[str]:
        if status != 200:
            return [f"/bound answered {status}"]
        if payload.get("epsilon") != self.expected_epsilon:
            return [f"/bound epsilon {payload.get('epsilon')} != in-process "
                    f"{self.expected_epsilon}"]
        return []

    def check_job(self, kind: str, job) -> List[str]:
        if job.get("status") != "done":
            return [f"{kind} job ended {job.get('status')}: {job.get('error')}"]
        result = job["result"]
        problems = []
        if kind == "run":
            if result.get("num_users") != self.num_users:
                problems.append(f"run job num_users {result.get('num_users')}")
            if result.get("central_epsilon") != self.expected_epsilon:
                problems.append("run job central epsilon != /bound epsilon")
            outcome = (result.get("empirical_epsilon"),
                       result.get("total_messages_sent"))
        else:
            outcome = result.get("epsilon_lower_bound")
            if outcome is None or not 0.0 <= outcome <= workloads.EPSILON0:
                problems.append(f"audit epsilon {outcome} outside "
                                f"[0, {workloads.EPSILON0}]")
        if self._first.setdefault(kind, outcome) != outcome:
            problems.append(f"{kind} job output differs at the same seed")
        return problems


async def _job(connection: Connection, traffic: Traffic, kind: str):
    """Submit one job and poll it to completion; returns (latency, job)."""
    body = traffic.run_body if kind == "run" else traffic.audit_body
    submitted = time.perf_counter()
    status, payload = await connection.request("POST", f"/{kind}", body)
    if status != 202:
        return time.perf_counter() - submitted, {
            "status": f"refused ({status})", "error": payload}
    while True:
        await asyncio.sleep(POLL_SECONDS)
        status, job = await connection.request(
            "GET", f"/jobs/{payload['id']}")
        if status != 200 or job.get("status") in ("done", "error"):
            return time.perf_counter() - submitted, job


async def _warm(port: int, traffic: Traffic, tally) -> None:
    """First /bound, /run and /audit: graph builds and lazy state."""
    connection = await Connection.open(port)
    try:
        status, payload = await connection.request(
            "POST", "/bound", traffic.bound_body)
        tally.record(traffic.check_bound(status, payload))
        for kind in ("run", "audit"):
            _, job = await _job(connection, traffic, kind)
            tally.record(traffic.check_job(kind, job))
    finally:
        await connection.close()


async def _window(port: int, traffic: Traffic, seconds: float, tally):
    """Open-loop /bound traffic on A, closed-loop jobs on B."""
    bound_conn = await Connection.open(port)
    job_conn = await Connection.open(port)
    stats_before = (await job_conn.request("GET", "/stats"))[1]
    count = max(1, int(seconds * traffic.rate))
    body = json.dumps(traffic.bound_body).encode()
    start = time.perf_counter() + 0.01
    due = [start + k / traffic.rate for k in range(count)]
    lags: List[float] = []
    latencies: List[float] = []
    jobs: List[Dict[str, Any]] = []

    async def sender():
        for moment in due:
            delay = moment - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append(time.perf_counter() - moment)
            bound_conn.send("POST", "/bound", body)
        await bound_conn.writer.drain()

    async def receiver():
        for moment in due:
            status, payload = await bound_conn.receive()
            latencies.append(time.perf_counter() - moment)
            tally.record(traffic.check_bound(status, payload))

    async def job_loop():
        kinds = ("run", "audit")
        index = 0
        while time.perf_counter() < due[-1]:
            kind = kinds[index % 2]
            latency, job = await _job(job_conn, traffic, kind)
            tally.record(traffic.check_job(kind, job))
            jobs.append({"kind": kind, "latency": latency,
                         "exec": job.get("elapsed_seconds"),
                         "result": job.get("result") or {}})
            index += 1

    try:
        await asyncio.gather(sender(), receiver(), job_loop())
        stats_after = (await job_conn.request("GET", "/stats"))[1]
    finally:
        await bound_conn.close()
        await job_conn.close()
    return {"start_ns": int(start * 1e9), "lags": lags,
            "latencies": latencies, "jobs": jobs,
            "stats": (stats_before, stats_after)}


def _bound_server_ms(stats_before, stats_after) -> float:
    def totals(stats):
        route = stats["requests"].get("POST /bound", {})
        return route.get("count", 0), route.get("count", 0) * route.get(
            "mean_ms", 0.0)

    count_before, total_before = totals(stats_before)
    count_after, total_after = totals(stats_after)
    count = count_after - count_before
    return (total_after - total_before) / count if count else 0.0


def _serve_layer(window) -> Dict[str, float]:
    jobs = window["jobs"]
    exec_times = [job["exec"] for job in jobs if job["exec"] is not None]
    waits = [job["latency"] - job["exec"] for job in jobs
             if job["exec"] is not None]
    latencies_ms = [value * 1e3 for value in window["latencies"]]
    return {
        "serve.bound_server_ms": _bound_server_ms(*window["stats"]),
        "serve.job_exec_s": median(exec_times),
        "serve.job_wait_s": median(waits),
        "serve.generator_lag_ms": percentile(window["lags"], 0.99) * 1e3,
        "serve.bound_p99_ms": percentile(latencies_ms, 0.99),
        "serve.job_p50_s": median([job["latency"] for job in jobs]),
        "serve.job_p90_s": percentile([job["latency"] for job in jobs], 0.9),
    }


def _counters(window) -> Dict[str, float]:
    before, after = window["stats"]
    jobs = window["jobs"]
    ops = len(window["latencies"]) + len(jobs)
    cache = {key: after["graph_cache"][key] - before["graph_cache"][key]
             for key in ("builds", "memory_hits", "disk_hits")}
    audits = sum(1 for job in jobs if job["kind"] == "audit")
    sampler_hits = (after["kernel_sampler"]["hits"]
                    - before["kernel_sampler"]["hits"])
    return {
        "scenario.cache_builds": cache["builds"] / ops,
        "scenario.cache_hits": (cache["memory_hits"] + cache["disk_hits"]) / ops,
        "auditing.sampler_hits": sampler_hits / audits if audits else 0.0,
        "netsim.messages": median([
            job["result"].get("total_messages_sent", 0)
            for job in jobs if job["kind"] == "run"]),
    }


def _boot(src, out, trace, tag, traffic, tally) -> Server:
    server = Server(src, out, trace, tag)
    try:
        asyncio.run(_warm(server.port, traffic, tally))
    except BaseException:
        server.stop()
        raise
    return server


def run(scale, seed, seconds, trace, tally, out: Path, src: Path):
    """Set up (boot + warm) and measure; returns (metrics, trace data)."""
    traffic = Traffic(scale, seed)
    setup_times = []
    server = None
    while more_setup(setup_times, trace):
        if server is not None:
            server.stop()
        started = time.perf_counter()
        server = _boot(src, out, False, f"setup{len(setup_times)}", traffic,
                       tally)
        setup_times.append(time.perf_counter() - started)
    try:
        plain = asyncio.run(_window(
            server.port, traffic, seconds / 2 if trace else seconds, tally))
        peak_rss = server.peak_rss_mib()
    finally:
        server.stop()
    details = {"setup_s": setup_times,
               "jobs": [(job["kind"], job["latency"]) for job in plain["jobs"]]}
    if not trace:
        return {
            "setup_s": median(setup_times),
            "op_p50_ms": median(plain["latencies"]) * 1e3,
            "peak_rss_mib": peak_rss,
        }, details

    server = _boot(src, out, True, "traced", traffic, tally)
    try:
        traced = asyncio.run(_window(server.port, traffic, seconds / 2, tally))
    finally:
        server.stop()
    span_dicts, missing = spanlib.load(server.spans_path)
    os.remove(server.spans_path)
    aggregates = spanlib.per_op(span_dicts)
    op_aggregates = [
        aggregates[span["op"]] for span in span_dicts
        if span["name"].startswith("op:") and span["start"] >= traced["start_ns"]
    ]
    metrics = layer_metrics(op_aggregates, missing, _counters(traced))
    if "auditing.sampler" not in missing:
        metrics["auditing.sampler_build_s"] = sampler_build_seconds(
            span_dicts, traced["start_ns"])
    metrics["trace_overhead_frac"] = (
        median(traced["latencies"]) / median(plain["latencies"]) - 1.0)
    metrics.update(_serve_layer(traced))
    details.update(spans=span_dicts, missing=missing)
    return metrics, details
