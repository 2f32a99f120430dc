#!/usr/bin/env python
"""Private survey over a social network — the paper's motivating use case.

Users of a messaging app answer a 5-option survey question.  Instead of
trusting the operator with raw answers (central model) or paying full
LDP noise, they relay k-ary randomized-response reports to friends on
the social graph (the Facebook page-page stand-in from Table 4) before
delivery.  The operator reconstructs the answer histogram and never
learns who relayed what.

The whole deployment is one declarative scenario: its graph spec pins
the Facebook stand-in (seed as spec data), the answers are ``choice``
values drawn from the true shares, and ``A_single``'s empty-handed users
send ``A_ldp(0)`` dummies (``mechanism_zero``).  One ``repro.run`` per
protocol simulates it and prices it (Theorem 5.3 / 5.5 at the mixing
time); the operator's side is the k-ary RR estimator plus the dummy
correction.

Run:  python examples/social_survey.py
"""

from __future__ import annotations

import numpy as np

from repro import Scenario, run
from repro.estimation import correct_for_dummies, max_absolute_error
from repro.scenario import graph_summary

EPSILON0 = 0.5
DELTA = 1e-6
NUM_OPTIONS = 5
TRUE_SHARES = [0.35, 0.25, 0.2, 0.12, 0.08]


def main() -> None:
    scenario = Scenario(
        # The Facebook stand-in: calibrated to the published (n, Gamma_G).
        graph={"kind": "dataset", "params": {"name": "facebook", "seed": 0}},
        mechanism={"kind": "kary_rr",
                   "params": {"epsilon": EPSILON0, "num_symbols": NUM_OPTIONS}},
        values={"kind": "choice",
                "params": {"num_options": NUM_OPTIONS,
                           "probabilities": TRUE_SHARES}},
        dummies={"kind": "mechanism_zero"},
        delta=DELTA,
        delta2=DELTA,
        seed=0,
    )

    for protocol in ("all", "single"):
        result = run(scenario.updated(protocol=protocol))
        n = result.graph.num_nodes
        if protocol == "all":
            gamma = n * graph_summary(scenario).stationary_collision
            print(f"facebook stand-in: n={n}, Gamma={gamma:.2f}, "
                  f"mixing time={result.rounds}")

        # The operator: invert the RR channel, then remove A_single's
        # dummy spike at option 0.
        payloads = np.asarray(result.payloads(), dtype=np.int64)
        estimate = result.mechanism.estimate_frequencies(payloads)
        dummies = result.protocol_result.dummy_count
        if dummies:
            estimate = correct_for_dummies(estimate, dummies / n)
        truth = np.bincount(result.values, minlength=NUM_OPTIONS) / n

        print(f"\nA_{protocol}: central eps = {result.central_epsilon:.3f} "
              f"(local eps0 = {EPSILON0}), dummies = {dummies}")
        print(f"  true shares     : {np.round(truth, 3)}")
        print(f"  private estimate: {np.round(estimate, 3)}")
        print(f"  max abs error   : {max_absolute_error(estimate, truth):.4f}")


if __name__ == "__main__":
    main()
