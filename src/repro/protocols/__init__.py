"""Distributed protocols of network shuffling (Section 4.3).

* :func:`run_all_protocol` — Algorithm 1 (``A_all``): exchange for ``t``
  rounds, then every user sends *all* held reports to the server;
* :func:`run_single_protocol` — Algorithm 2 (``A_single``): exchange,
  then every user sends exactly one report — uniformly sampled from her
  held set, or a dummy ``A_ldp(0)`` if she holds none;
* :func:`fixed_size_responses` — Algorithm 3 (``A_fix``): the analysis
  device used by the Theorem 6.1 swap reduction;
* :func:`run_secure_protocol` — the Section 4.4 realization with the
  double-encryption envelope on the metered network simulator.

The runners exchange on :class:`repro.netsim.RoundBasedNetwork`, whose
one array engine (:class:`repro.netsim.ExchangeEngine`) meters every
user and scales to millions of reports.  A seeded run is bit-identical
to the per-message reference simulator of :mod:`repro.testing.reference`,
which the tests use as the oracle.
"""

from repro.protocols.reports import Report, ProtocolResult
from repro.protocols.all_protocol import run_all_protocol
from repro.protocols.single_protocol import run_single_protocol
from repro.protocols.fixed_size import fixed_size_responses, swap_first_element
from repro.protocols.secure import SecureRunResult, run_secure_protocol

__all__ = [
    "Report",
    "ProtocolResult",
    "run_all_protocol",
    "run_single_protocol",
    "fixed_size_responses",
    "swap_first_element",
    "SecureRunResult",
    "run_secure_protocol",
]
