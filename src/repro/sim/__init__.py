"""Synchronous message-passing simulation substrate.

This package provides the execution environment every protocol in
:mod:`repro` runs on top of:

* :mod:`repro.sim.messages` -- typed messages, envelopes, and the
  bit-cost model used for communication accounting.
* :mod:`repro.sim.node` -- the :class:`~repro.sim.node.Process`
  abstraction (a generator-based synchronous state machine) and the
  per-process :class:`~repro.sim.node.Context`.
* :mod:`repro.sim.network` -- the round-based network engine with
  link-addressed delivery, authentication stamping, and adversary hooks.
* :mod:`repro.sim.metrics` -- message / bit / round counters.
* :mod:`repro.sim.runner` -- convenience entry points returning an
  :class:`~repro.sim.runner.ExecutionResult`.
"""

from repro.sim.messages import CostModel, Envelope, Message, Send
from repro.sim.metrics import Metrics
from repro.sim.network import SyncNetwork
from repro.sim.node import Context, Process
from repro.sim.runner import ExecutionResult, run_network

__all__ = [
    "Context",
    "CostModel",
    "Envelope",
    "ExecutionResult",
    "Message",
    "Metrics",
    "Process",
    "Send",
    "SyncNetwork",
    "run_network",
]
