"""The frozen, serializable :class:`Scenario` and its component specs.

A scenario is *data*: which graph to build, which ``A_ldp`` to apply,
which protocol to exchange with and for how many rounds, which
fault model to apply, and the accounting knobs ``(delta, delta2)``.
``Scenario.to_dict`` / ``from_dict`` round-trip exactly through JSON, so
a workload can live in a file, travel over the wire, or key a cache.

The specs reference components by registry key (see
:mod:`repro.scenario.builders`); validation of the *keys* happens at
build time so specs stay importable without pulling in every backend.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Mapping, Optional, Union

import numpy as np

from repro.core.config import DEFAULT_CONFIG
from repro.exceptions import ValidationError
from repro.utils.validation import check_delta, check_epsilon, check_probability

#: Values accepted wherever a component spec is expected.
SpecLike = Union["ComponentSpec", str, Mapping[str, Any], None]

_PROTOCOLS = ("all", "single")
_ANALYSES = ("stationary", "symmetric")
#: Legacy values of the deprecated ``Scenario.engine`` field.
_ENGINES = ("fast", "vectorized", "faithful", "compiled")


def _number(value: Any, cast: type, name: str):
    """Coerce with the API's error type instead of a raw ValueError.

    ``int`` coercion rejects non-integral floats rather than silently
    truncating (``rounds=4.7`` is an authoring mistake, not 4 rounds).
    """
    if cast is int and isinstance(value, float) and not value.is_integer():
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise ValidationError(
            f"{name} must be a {cast.__name__}, got {value!r}"
        ) from None


def _canonical(value: Any) -> Any:
    """Normalize ``value`` to JSON-native types.

    Tuples become lists and NumPy scalars become Python scalars so that
    ``Scenario(...) == Scenario.from_dict(json.loads(json.dumps(...)))``
    holds regardless of how the parameters were first written.
    """
    if isinstance(value, Mapping):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        result = float(value)
        if not math.isfinite(result):
            # NaN/inf are not valid JSON and NaN breaks round-trip
            # equality (NaN != NaN); fail at construction, loudly.
            raise ValidationError(
                f"scenario parameters must be finite, got {result}"
            )
        return result
    if value is None or isinstance(value, str):
        return value
    raise ValidationError(
        f"scenario parameters must be JSON-serializable; got {type(value)!r}"
    )


class FrozenParams(Mapping):
    """Immutable, picklable mapping for a frozen spec's parameters.

    ``ComponentSpec`` is frozen and hashed by its JSON form; a plain
    ``dict`` payload would let ``spec.params["x"] = ...`` silently
    desynchronize identity from cache keys.  Item assignment raises
    instead, and equality matches any mapping with the same items so
    tests can still compare against plain dicts.
    """

    __slots__ = ("_data",)

    def __init__(self, data: Mapping[str, Any]):
        object.__setattr__(self, "_data", dict(data))

    def __getitem__(self, key: str) -> Any:
        return self._data[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, FrozenParams):
            return self._data == other._data
        if isinstance(other, Mapping):
            return self._data == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"FrozenParams({self._data!r})"

    def __reduce__(self):
        return (type(self), (self._data,))

    def __setitem__(self, key: str, value: Any) -> None:
        raise TypeError("spec params are immutable; use spec.replacing(...)")

    def __delitem__(self, key: str) -> None:
        raise TypeError("spec params are immutable; use spec.replacing(...)")


@dataclass(frozen=True)
class ComponentSpec:
    """A registry reference: component ``kind`` plus builder ``params``."""

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or not self.kind:
            raise ValidationError(f"spec kind must be a non-empty string, got {self.kind!r}")
        object.__setattr__(self, "params", FrozenParams(_canonical(self.params)))

    @classmethod
    def of(cls, kind: str, **params: Any):
        """Shorthand constructor: ``GraphSpec.of("k_regular", degree=8)``."""
        return cls(kind=kind, params=params)

    @classmethod
    def coerce(cls, value: SpecLike):
        """Accept a spec, a bare kind string, or a ``{kind, params}`` dict."""
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, ComponentSpec):
            # Cross-type coercion (e.g. a plain ComponentSpec where a
            # GraphSpec is expected) keeps the payload, fixes the type.
            return cls(kind=value.kind, params=value.params)
        if isinstance(value, str):
            return cls(kind=value)
        if isinstance(value, Mapping):
            unknown = set(value) - {"kind", "params"}
            if unknown:
                raise ValidationError(
                    f"unexpected spec keys {sorted(unknown)}; use 'kind' and 'params'"
                )
            if "kind" not in value:
                raise ValidationError(f"spec dict needs a 'kind': {dict(value)!r}")
            return cls(kind=value["kind"], params=dict(value.get("params") or {}))
        raise ValidationError(
            f"cannot interpret {value!r} as a {cls.__name__}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-native representation."""
        return {"kind": self.kind, "params": _canonical(self.params)}

    def replacing(self, **params: Any):
        """A copy with ``params`` merged over the existing parameters."""
        merged = dict(self.params)
        merged.update(params)
        return type(self)(kind=self.kind, params=merged)

    def __hash__(self) -> int:
        return hash((type(self).__name__, json.dumps(self.to_dict(), sort_keys=True)))


class GraphSpec(ComponentSpec):
    """Reference into the graph registry (``"k_regular"``, ``"dataset"``, ...).

    The ``"schedule"`` kind nests further graph sub-specs in its params
    (a time-varying topology); sub-specs are plain ``{kind, params}``
    payloads, so a schedule round-trips through JSON like any spec and
    its selector/block knobs sweep via dotted paths (``graph.block``).
    """


class MechanismSpec(ComponentSpec):
    """Reference into the LDP-mechanism registry (``"rr"``, ``"laplace"``, ...)."""


class FaultSpec(ComponentSpec):
    """Reference into the fault-model registry (``"independent"``, ...)."""


class ValuesSpec(ComponentSpec):
    """Reference into the workload-values registry (``"bernoulli"``, ...)."""


class DummySpec(ComponentSpec):
    """Reference into the dummy-factory registry (``"privunit_normal"``, ...).

    ``A_single`` substitutes one dummy report per empty-handed user
    (Algorithm 2 line 10); by default that is ``A_ldp(0)``.  A dummy
    spec swaps in a custom payload factory — Figure 9's normalized
    ``N(5, 1)^d`` PrivUnit draw being the canonical case.  Inert under
    ``A_all`` (which delivers every real report), so a ``protocol``
    axis can sweep across both algorithms from one base scenario.
    """


class AuditSpec(ComponentSpec):
    """Reference into the audit-statistic registry, plus audit knobs.

    ``kind`` names the attacker statistic (``"weighted_evidence"``,
    ``"topk_evidence"``, ...).  ``params`` carries the statistic's
    builder parameters together with the harness-reserved keys
    ``trials`` and ``confidence``, which configure the distinguishing
    game itself (so ``repro.sweep`` can sweep ``audit.trials`` like any
    other dotted path).
    """

    #: Params interpreted by the audit harness, not the statistic builder.
    RESERVED = ("trials", "confidence")


#: Scenario fields that hold a component spec, with their concrete type.
_SPEC_FIELDS: Dict[str, type] = {
    "graph": GraphSpec,
    "mechanism": MechanismSpec,
    "faults": FaultSpec,
    "values": ValuesSpec,
    "dummies": DummySpec,
    "audit": AuditSpec,
}


@dataclass(frozen=True)
class Scenario:
    """A complete, serializable network-shuffling workload description.

    Parameters
    ----------
    graph:
        Graph registry reference (required).
    mechanism:
        Local randomizer ``A_ldp``; ``None`` runs the exchange on bare
        reports (privacy-only runs, or pre-randomized payloads).
    protocol:
        ``"all"`` (Algorithm 1) or ``"single"`` (Algorithm 2).
    rounds:
        Exchange rounds ``t``; ``None`` selects the graph's mixing time
        ``alpha^{-1} log n`` (the paper's operating point).
    engine:
        Deprecated and ignored: every scenario runs on the one exchange
        engine.  Still validated against the legacy names
        (``"fast"``, ``"vectorized"``, ``"faithful"``, ``"compiled"``)
        and serialized, so archived scenario JSON parses and keeps its
        :func:`~repro.scenario.cache.scenario_hash`.
    faults / laziness:
        Dropout model reference, or the lazy-walk shorthand probability.
        Mutually exclusive.
    analysis:
        ``"stationary"`` (Theorems 5.3/5.5) or ``"symmetric"`` (exact
        k-regular tracking, Theorems 5.4/5.6).
    values:
        Optional workload-values reference; materialized into one value
        per user before randomization.
    dummies:
        Optional dummy-report factory reference for ``A_single``
        (Algorithm 2 line 10); ``None`` keeps the default ``A_ldp(0)``
        dummy.  Inert under ``A_all``.
    audit:
        Optional empirical-audit reference (attacker statistic plus
        ``trials``/``confidence`` knobs) consumed by
        :func:`repro.scenario.auditing.audit`; ``None`` audits with the
        default weighted-evidence adversary.
    epsilon0:
        Local budget for accounting when no mechanism is given.  When a
        mechanism is present its ``epsilon`` wins and this must match
        (or be ``None``).
    truncation:
        Schedule-accounting sparsity tolerance in ``(0, 1)``: per-entry
        profile mass below it is dropped each round, keeping panels
        sparse on bounded-degree churn so million-node schedules stay
        tractable.  The reported bound feeds the theorems a *provable
        upper end* of the resulting interval (sound, slightly
        conservative) and surfaces ``truncation_bound`` in the
        accounting payload.  It changes results, so it is a scenario
        field (hashed, sweepable) — memory strategy knobs, which do
        not, live in :class:`repro.scenario.profile.ProfilePolicy`.
        Only valid on ``schedule`` graphs with
        ``analysis="stationary"``.
    delta / delta2:
        Central composition and Lemma 5.1 failure probabilities.
    seed:
        Master seed; graph construction, values, and the protocol RNG
        are derived child streams (see
        :func:`repro.scenario.runner.seed_streams`).
    """

    graph: GraphSpec
    mechanism: Optional[MechanismSpec] = None
    protocol: str = "all"
    rounds: Optional[int] = None
    engine: str = "fast"
    faults: Optional[FaultSpec] = None
    laziness: float = 0.0
    analysis: str = "stationary"
    values: Optional[ValuesSpec] = None
    dummies: Optional[DummySpec] = None
    audit: Optional[AuditSpec] = None
    epsilon0: Optional[float] = None
    truncation: Optional[float] = None
    delta: float = DEFAULT_CONFIG.delta
    delta2: float = DEFAULT_CONFIG.delta2
    seed: int = 0

    def __post_init__(self) -> None:
        for name, spec_type in _SPEC_FIELDS.items():
            coerced = spec_type.coerce(getattr(self, name))
            object.__setattr__(self, name, coerced)
        if self.graph is None:
            raise ValidationError("a scenario requires a graph spec")
        if self.protocol not in _PROTOCOLS:
            raise ValidationError(
                f"protocol must be one of {_PROTOCOLS}, got {self.protocol!r}"
            )
        if self.engine not in _ENGINES:
            raise ValidationError(
                f"engine must be one of {_ENGINES}, got {self.engine!r}"
            )
        if self.analysis not in _ANALYSES:
            raise ValidationError(
                f"analysis must be one of {_ANALYSES}, got {self.analysis!r}"
            )
        if self.rounds is not None:
            rounds = _number(self.rounds, int, "rounds")
            if rounds < 0:
                raise ValidationError(f"rounds must be non-negative, got {rounds}")
            object.__setattr__(self, "rounds", rounds)
        object.__setattr__(
            self, "laziness", _number(self.laziness, float, "laziness")
        )
        check_probability(self.laziness, "laziness")
        if self.laziness and self.faults is not None:
            raise ValidationError("pass either faults or laziness, not both")
        if self.epsilon0 is not None:
            object.__setattr__(
                self,
                "epsilon0",
                check_epsilon(_number(self.epsilon0, float, "epsilon0"), "epsilon0"),
            )
        if self.truncation is not None:
            truncation = _number(self.truncation, float, "truncation")
            if not 0.0 < truncation < 1.0:
                raise ValidationError(
                    f"truncation must be in (0, 1), got {truncation}"
                )
            object.__setattr__(self, "truncation", truncation)
        check_delta(_number(self.delta, float, "delta"), "delta")
        check_delta(_number(self.delta2, float, "delta2"), "delta2")
        seed = _number(self.seed, int, "seed")
        if seed < 0:
            # SeedSequence rejects negative entropy; fail at construction
            # with the API's error type, not deep inside numpy at run time.
            raise ValidationError(f"seed must be non-negative, got {seed}")
        object.__setattr__(self, "seed", seed)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-native dict; ``from_dict`` inverts it exactly."""
        payload: Dict[str, Any] = {}
        for spec_field in dataclasses.fields(self):
            value = getattr(self, spec_field.name)
            if isinstance(value, ComponentSpec):
                value = value.to_dict()
            payload[spec_field.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Scenario":
        """Inverse of :meth:`to_dict`; unknown keys are an error."""
        known = {spec_field.name for spec_field in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValidationError(
                f"unknown scenario keys {sorted(unknown)}; known: {sorted(known)}"
            )
        if "graph" not in payload:
            raise ValidationError("a scenario requires a 'graph' spec")
        return cls(**dict(payload))

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        """JSON text of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Parse the output of :meth:`to_json`."""
        payload = json.loads(text)
        if not isinstance(payload, Mapping):
            raise ValidationError("scenario JSON must be an object")
        return cls.from_dict(payload)

    def __hash__(self) -> int:
        return hash(json.dumps(self.to_dict(), sort_keys=True))

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def updated(self, **changes: Any) -> "Scenario":
        """A copy with dotted-path overrides applied.

        Top-level fields are replaced directly (``rounds=8``).  A dotted
        key reaches into a component spec: ``graph.kind`` swaps the
        registry key (keeping params), and any other ``graph.<name>``
        sets that builder parameter — e.g.
        ``scenario.updated(**{"graph.degree": 16, "rounds": 4})``.
        Dotted keys are also accepted with the dot spelled out, which is
        what :func:`repro.scenario.sweep.sweep` feeds through.
        """
        plain: Dict[str, Any] = {}
        nested: Dict[str, Dict[str, Any]] = {}
        field_names = {spec_field.name for spec_field in dataclasses.fields(self)}
        for key, value in changes.items():
            if "." in key:
                head, _, tail = key.partition(".")
                if head not in _SPEC_FIELDS:
                    raise ValidationError(
                        f"cannot apply {key!r}: {head!r} is not a component spec "
                        f"(one of {sorted(_SPEC_FIELDS)})"
                    )
                nested.setdefault(head, {})[tail] = value
            elif key in field_names:
                plain[key] = value
            else:
                raise ValidationError(
                    f"unknown scenario field {key!r}; known: {sorted(field_names)}"
                )
        for head, overrides in nested.items():
            spec = plain.get(head, getattr(self, head))
            spec = _SPEC_FIELDS[head].coerce(spec)
            if spec is None:
                raise ValidationError(
                    f"cannot apply {head}.{next(iter(overrides))!r}: "
                    f"the scenario has no {head} spec"
                )
            kind = overrides.pop("kind", spec.kind)
            if kind != spec.kind:
                spec = _SPEC_FIELDS[head](kind=kind, params=spec.params)
            if overrides:
                spec = spec.replacing(**overrides)
            plain[head] = spec
        return dataclasses.replace(self, **plain)
