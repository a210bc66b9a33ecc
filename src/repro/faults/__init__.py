"""Link-level fault injection: omission, duplication, corruption,
transient partitions, and the graceful-degradation frontier.

This package sits between the crash adversary and delivery inside
:class:`repro.sim.network.SyncNetwork`; see :mod:`repro.faults.base`
for the verdict semantics and charging invariant.

Note: ``repro.sim.network`` imports :mod:`repro.faults.base`, so this
``__init__`` must stay limited to the leaf modules (``base``,
``channels``, ``spec``).  The fault-ladder vocabulary (outcomes,
:class:`~repro.faults.degradation.Rung`, the ladders' summary) lives
in :mod:`repro.faults.degradation`, which imports no harness, and the
``faults`` engine driver that classifies a run under the falsifier's
monitors in :mod:`repro.faults.driver`; both are imported explicitly
by their callers — the driver here would close an import cycle
through the scenario registry.
"""

from repro.faults.base import (
    CORRUPT,
    DROP,
    DUPLICATE,
    FAULT_KINDS,
    HOLD,
    FaultModel,
    FaultPlanError,
    FaultStats,
    FaultVerdict,
    NoFaults,
    corrupt,
    corrupt_message,
    drop,
    duplicate,
    hold,
    validate_plan,
)
from repro.faults.channels import (
    ComposedFaults,
    CorruptingChannel,
    DuplicateDelivery,
    OmissionFaults,
    TransientPartition,
)
from repro.faults.spec import (
    FAULT_SEED_OFFSET,
    FaultSpec,
    build_fault_model,
    normalize_spec,
    spec_to_json,
)

__all__ = [
    "CORRUPT",
    "DROP",
    "DUPLICATE",
    "FAULT_KINDS",
    "FAULT_SEED_OFFSET",
    "HOLD",
    "ComposedFaults",
    "CorruptingChannel",
    "DuplicateDelivery",
    "FaultModel",
    "FaultPlanError",
    "FaultSpec",
    "FaultStats",
    "FaultVerdict",
    "NoFaults",
    "OmissionFaults",
    "TransientPartition",
    "build_fault_model",
    "corrupt",
    "corrupt_message",
    "drop",
    "duplicate",
    "hold",
    "normalize_spec",
    "spec_to_json",
    "validate_plan",
]
