"""Differential-privacy composition theorems.

The network-shuffling proofs compose the per-output mechanisms
``B^(1), ..., B^(n)`` with the *heterogeneous advanced composition* of
Kairouz, Oh & Viswanath (2017), quoted as Equation 6 of the paper:

    eps = sum_i (e^{eps_i} - 1) eps_i / (e^{eps_i} + 1)
          + sqrt(2 log(1/delta) sum_i eps_i^2).

Basic and (homogeneous) advanced composition are included for tests and
for :class:`PrivacyAccountant`, which composes the ``(eps, delta)`` of
repeated collections against a total budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Tuple

import numpy as np

from repro.exceptions import BudgetExceededError, InvalidPrivacyParameterError
from repro.utils.validation import as_float_array, check_delta, check_epsilon


def basic_composition(epsilons: Iterable[float], deltas: Iterable[float] = ()) -> Tuple[float, float]:
    """Sequential (basic) composition: parameters add up."""
    eps_list = [check_epsilon(e, "epsilon", allow_zero=True) for e in epsilons]
    delta_list = [check_delta(d, "delta", allow_zero=True) for d in deltas]
    return float(sum(eps_list)), float(sum(delta_list))


def advanced_composition(
    epsilon: float, delta_prime: float, k: int, delta: float = 0.0
) -> Tuple[float, float]:
    """Homogeneous advanced composition (Dwork-Rothblum-Vadhan).

    ``k``-fold composition of an ``(epsilon, delta)``-DP mechanism is
    ``(eps', k*delta + delta_prime)``-DP with

        eps' = sqrt(2 k log(1/delta')) eps + k eps (e^eps - 1).
    """
    check_epsilon(epsilon)
    check_delta(delta_prime)
    check_delta(delta, allow_zero=True)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    eps_prime = (
        math.sqrt(2.0 * k * math.log(1.0 / delta_prime)) * epsilon
        + k * epsilon * math.expm1(epsilon)
    )
    return eps_prime, k * delta + delta_prime


def heterogeneous_advanced_composition(
    epsilons: Iterable[float], delta: float
) -> float:
    """Kairouz-Oh-Viswanath composition of heterogeneous pure-DP
    mechanisms (Equation 6 of the paper).

    Parameters
    ----------
    epsilons:
        Per-mechanism pure-DP parameters ``eps_1 .. eps_k``.
    delta:
        The composition's failure probability (any ``delta in (0,1)``).

    Returns
    -------
    float
        The composed ``eps`` such that the sequence is ``(eps, delta)``-DP.
    """
    check_delta(delta)
    eps_array = as_float_array(epsilons)
    if eps_array.size == 0:
        return 0.0
    if np.any(eps_array < 0.0) or not np.all(np.isfinite(eps_array)):
        raise ValueError("all epsilons must be finite and non-negative")
    expm1_terms = np.expm1(eps_array)
    linear = float(np.sum(expm1_terms * eps_array / (expm1_terms + 2.0)))
    quadratic = math.sqrt(2.0 * math.log(1.0 / delta) * float(np.sum(eps_array**2)))
    return linear + quadratic


@dataclass
class PrivacyAccountant:
    """Tracks cumulative privacy loss against a total budget.

    Network shuffling, like any DP mechanism, composes across repeated
    runs (e.g. a daily telemetry collection): record each collection's
    central ``(eps, delta)`` — :func:`repro.bound` prices one — and ask
    what is left.

    Parameters
    ----------
    epsilon_budget, delta_budget:
        The total central-DP budget.
    composition:
        ``"basic"`` (parameters add) or ``"advanced"`` (Kairouz-Oh-
        Viswanath across the recorded epsilons; spends an extra
        ``advanced_delta`` slack).
    advanced_delta:
        The composition-slack delta consumed by advanced composition;
        must lie in ``(0, 1)`` and, under advanced composition, below
        ``delta_budget``.
    """

    epsilon_budget: float
    delta_budget: float
    composition: str = "basic"
    advanced_delta: float = 1e-9
    _spent: List[Tuple[float, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon_budget, "epsilon_budget")
        check_delta(self.delta_budget, "delta_budget", allow_zero=True)
        if self.composition not in ("basic", "advanced"):
            raise ValueError(
                f"composition must be 'basic' or 'advanced', "
                f"got {self.composition!r}"
            )
        check_delta(self.advanced_delta, "advanced_delta")
        if (
            self.composition == "advanced"
            and self.advanced_delta >= self.delta_budget
        ):
            raise InvalidPrivacyParameterError(
                f"advanced_delta ({self.advanced_delta}) must be below "
                f"delta_budget ({self.delta_budget}): advanced composition "
                "spends it on every record"
            )

    @property
    def num_recorded(self) -> int:
        """Number of recorded mechanism invocations."""
        return len(self._spent)

    def _compose(self, spent: List[Tuple[float, float]]) -> Tuple[float, float]:
        if not spent:
            return (0.0, 0.0)
        epsilons = [eps for eps, _ in spent]
        deltas = [delta for _, delta in spent]
        if self.composition == "basic":
            return basic_composition(epsilons, deltas)
        eps = heterogeneous_advanced_composition(epsilons, self.advanced_delta)
        return (eps, sum(deltas) + self.advanced_delta)

    def spent(self) -> Tuple[float, float]:
        """Cumulative ``(eps, delta)`` under the configured composition."""
        return self._compose(self._spent)

    def remaining(self) -> Tuple[float, float]:
        """Budget minus spend (floored at zero)."""
        eps, delta = self.spent()
        return (
            max(0.0, self.epsilon_budget - eps),
            max(0.0, self.delta_budget - delta),
        )

    def can_afford(self, epsilon: float, delta: float) -> bool:
        """Whether recording ``(epsilon, delta)`` would stay in budget."""
        eps, total_delta = self._compose(self._spent + [(epsilon, delta)])
        return eps <= self.epsilon_budget and total_delta <= self.delta_budget

    def record(self, epsilon: float, delta: float) -> None:
        """Record one mechanism invocation, enforcing the budget."""
        check_epsilon(epsilon, allow_zero=True)
        check_delta(delta, allow_zero=True)
        if not self.can_afford(epsilon, delta):
            eps_spent, delta_spent = self.spent()
            raise BudgetExceededError(
                f"recording (eps={epsilon}, delta={delta}) exceeds budget: "
                f"spent ({eps_spent:.4f}, {delta_spent:.2e}) of "
                f"({self.epsilon_budget}, {self.delta_budget})"
            )
        self._spent.append((float(epsilon), float(delta)))
