"""Round-based message-passing network simulator.

The substrate the protocol simulators run on: users exchange reports in
synchronous rounds, a :class:`~repro.netsim.server.Server` collects
final reports, and every entity is metered (messages sent/received,
peak queue memory) so the Table 3 complexity comparison can be
*measured* rather than asserted.

One array engine realizes the exchange:
:class:`~repro.netsim.engine.ExchangeEngine` keeps every in-flight
report in flat NumPy arrays and advances it through the kernels of
:mod:`repro.netsim.kernels`, whose numba or NumPy bodies are picked
once per process (``backend_info()`` says which).
:class:`~repro.netsim.network.RoundBasedNetwork` pairs it with payloads
and the server.  Seeded runs reproduce the per-message reference
simulator of :mod:`repro.testing.reference` bit for bit; that simulator
is the tests' oracle, not a production path.

An :class:`~repro.netsim.adversary.AdversaryView` records exactly what
the paper's threat model grants the central adversary: the linkage of
each final-round report to the user who sent it (but not to the report's
originator).
"""

from repro.netsim.engine import ExchangeEngine
from repro.netsim.message import Message
from repro.netsim.metrics import EntityMeter, MeterBoard, VectorMeterBoard
from repro.netsim.network import RoundBasedNetwork
from repro.netsim.server import Server
from repro.netsim.adversary import AdversaryView
from repro.netsim.faults import AdversarialDropout, DropoutModel, NoFaults, IndependentDropout
from repro.netsim.collusion import (
    CollusionAttackResult,
    run_collusion_attack,
    simulate_walk_trajectories,
)

__all__ = [
    "Message",
    "EntityMeter",
    "MeterBoard",
    "VectorMeterBoard",
    "ExchangeEngine",
    "RoundBasedNetwork",
    "Server",
    "AdversaryView",
    "DropoutModel",
    "NoFaults",
    "IndependentDropout",
    "AdversarialDropout",
    "CollusionAttackResult",
    "run_collusion_attack",
    "simulate_walk_trajectories",
]
