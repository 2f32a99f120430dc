"""Span tracing from outside the program.

The benchmark times each layer by wrapping the public callables that
bound it, so no code under ``src/`` has to know about tracing.  A span
holds its name, start and end (``perf_counter_ns``), the span that was
open on the same thread when it started, and the operation it belongs
to.  Spans stay in memory and are written once, when the benchmark (or
the traced server) ends.

A target that no longer exists -- a refactor renamed or deleted it --
is recorded in ``Tracer.missing`` instead of raising, so its layer
metrics drop out of the result while every other layer is still timed.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer span name -> (module, attribute path, optional work counter).
#: A work counter maps the call's ``(args, kwargs)`` to the number of
#: units the call did; it runs only when the target's signature still
#: matches, otherwise the span records no work.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("graphs.build", "repro.graphs.generators", "random_regular_graph", None),
    ("graphs.spectral", "repro.scenario.cache", "spectral_summary", None),
    ("graphs.eigsh", "repro.graphs.spectral", "spla.eigsh", None),
    ("scenario.values", "repro.scenario.runner", "build_values", None),
    ("protocols.run_all", "repro.scenario.runner", "run_all_protocol", None),
    ("amplification.bound", "repro.scenario.runner", "bound", None),
    ("amplification.empirical", "repro.scenario.runner",
     "epsilon_from_report_sizes", None),
    ("netsim.seed", "repro.netsim.network", "RoundBasedNetwork.seed_items",
     None),
    ("netsim.exchange", "repro.netsim.network",
     "RoundBasedNetwork.run_exchange", None),
    ("netsim.deliver", "repro.netsim.network",
     "RoundBasedNetwork.deliver_to_server", None),
    ("auditing.audit", "repro.scenario.auditing", "audit_network_shuffle",
     None),
    ("auditing.sampler", "repro.scenario.cache", "GraphBundle.kernel_sampler",
     None),
    ("auditing.walks", "repro.auditing.auditor", "simulate_trial_walks",
     lambda args, kwargs: len(args[1]) * int(args[2]) * int(args[3])),
)

#: The public entry points that mark one operation inside the server
#: process, where the benchmark cannot open the op span itself.
SERVER_OPS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("op:run", "repro.api", "run", None),
    ("op:audit", "repro.api", "audit", None),
    ("op:bound", "repro.api", "bound", None),
)


_ABSENT = object()


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "work")

    def __init__(self, span_id, name, start, parent, op):
        self.id = span_id
        self.name = name
        self.start = start
        self.end: Optional[int] = None
        self.parent = parent
        self.op = op
        self.work: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Collects spans; installs and removes the layer wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- span bookkeeping ---------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, op: Optional[str] = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = parent.op
        span = Span(
            next(self._ids), name, time.perf_counter_ns(),
            None if parent is None else parent.id, op,
        )
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def op(self, kind: str):
        """Open one operation span; spans opened inside belong to it."""
        span = self._open(f"op:{kind}", op=f"{kind}-{next(self._ops)}")
        try:
            yield span
        finally:
            self._close(span)

    # -- wrappers -----------------------------------------------------
    def _wrap(self, name: str, original: Callable, work: Optional[Callable],
              is_op: bool) -> Callable:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            op = f"{name[3:]}-{next(tracer._ops)}" if is_op else None
            span = tracer._open(name, op=op)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(span)
                if work is not None:
                    try:
                        span.work = int(work(args, kwargs))
                    except (IndexError, TypeError, ValueError):
                        span.work = None

        return wrapper

    def install(self, targets=TARGETS, *, ops: bool = False) -> None:
        """Wrap every target that resolves; record the rest as missing.

        A module-level layer target is replaced in its own module and in
        every loaded ``repro`` module that bound it with ``from ...
        import``, so each caller sees the wrapper.  Op targets
        (``ops=True``) are replaced only where named: the server calls
        them through ``repro.api``, while the runner's own calls to the
        same functions are layer work inside an op, not new ops.
        """
        for name, module_name, path, work in targets:
            try:
                owner = importlib.import_module(module_name)
                *parents, attribute = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attribute)
            except (ImportError, AttributeError):
                if name not in self.missing:
                    self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, work, ops)
            self._patch(owner, attribute, wrapper)
            if ops or isinstance(owner, type):
                continue
            for module_key, module in list(sys.modules.items()):
                if module is owner or not (
                    module_key == "repro" or module_key.startswith("repro.")
                ):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner: Any, attribute: str, value: Any) -> None:
        # vars(), not getattr(): a method a class inherits must be
        # deleted again on uninstall, not pinned onto the subclass.
        self._patches.append(
            (owner, attribute, vars(owner).get(attribute, _ABSENT)))
        setattr(owner, attribute, value)

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    # -- output -------------------------------------------------------
    def dump(self, path) -> None:
        """Write every closed span and the missing targets as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": [span.to_dict() for span in self.spans],
                    "missing": self.missing,
                },
                handle,
            )


def load(path) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Read spans written by :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return data["spans"], data["missing"]


def per_op(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Aggregate spans by op: op wall time plus per-layer totals.

    For each op id (None for spans opened outside any op): ``wall`` is
    the op span's duration in seconds; ``self``/``calls``/``work`` map
    layer span names to the summed self time, call count and summed
    work.  A span's self time is its duration minus its direct
    children's.
    """
    children: Dict[int, int] = {}
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] = children.get(span["parent"], 0) + (
                span["end"] - span["start"]
            )
    ops: Dict[str, Dict[str, Any]] = {}
    for span in spans:
        op = ops.setdefault(span["op"], {
            "wall": None, "self": {}, "calls": {}, "work": {},
        })
        duration = span["end"] - span["start"]
        name = span["name"]
        if name.startswith("op:"):
            op["wall"] = duration / 1e9
            continue
        own = duration - children.get(span["id"], 0)
        op["self"][name] = op["self"].get(name, 0.0) + own / 1e9
        op["calls"][name] = op["calls"].get(name, 0) + 1
        if span["work"] is not None:
            op["work"][name] = op["work"].get(name, 0) + span["work"]
    return ops
