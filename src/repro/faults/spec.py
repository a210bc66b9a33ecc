"""Declarative fault specs: JSON-scalar-friendly fault configuration.

The sweep engine restricts request parameters to JSON scalars (that is
what makes a run content-addressable), and repro artifacts serialize
scenario parameters as JSON — so fault models are configured through a
*spec*: a list of plain dicts, or its JSON encoding as a string.

::

    [{"kind": "omission", "p": 0.1, "budget": 40},
     {"kind": "partition", "start": 2, "end": 5, "left_frac": 0.5}]

:func:`build_fault_model` turns a spec into a fresh, seeded
:class:`~repro.faults.base.FaultModel` for one execution.  The same
``(spec, n, seed)`` always yields a model making identical decisions,
which is what makes fault scenarios strict-replayable.
"""

from __future__ import annotations

import json
from typing import Mapping, Optional, Sequence, Union

from repro.faults.base import FaultModel, NoFaults
from repro.faults.channels import (
    ComposedFaults,
    CorruptingChannel,
    DuplicateDelivery,
    OmissionFaults,
    TransientPartition,
)

#: Accepted spec shapes: JSON text, one entry, or a list of entries.
FaultSpec = Union[str, Mapping, Sequence[Mapping], None]

#: Offset mixed into the execution seed for fault-model randomness, so
#: the channel's coin flips are independent of the adversary's
#: (``seed + 1``) and the nodes' (``seed + 2``) streams.
FAULT_SEED_OFFSET = 7


def normalize_spec(spec: FaultSpec) -> list[dict]:
    """Decode/shape-check a spec into a list of plain entry dicts."""
    if spec is None:
        return []
    if isinstance(spec, str):
        text = spec.strip()
        if not text:
            return []
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(f"fault spec is not JSON: {error}") from None
    if isinstance(spec, Mapping):
        spec = [spec]
    if not isinstance(spec, Sequence):
        raise ValueError(f"fault spec {spec!r} must be an object or a "
                         f"list of objects")
    # Imported here: importing experiments imports this package.
    from repro.analysis.experiments import lookup

    entries = []
    for entry in spec:
        if not isinstance(entry, Mapping) or "kind" not in entry:
            raise ValueError(
                f"fault spec entry {entry!r} must be an object with a "
                f"'kind' field"
            )
        lookup(FAULT_MODELS, "fault kind", entry["kind"])
        entries.append(dict(entry))
    return entries


def spec_to_json(spec: FaultSpec) -> str:
    """The canonical JSON string of a spec (stable key order)."""
    return json.dumps(normalize_spec(spec), sort_keys=True)


def _partition_sides(entry: Mapping, n: int) -> list[int]:
    """The left side of a partition entry: explicit ``left`` indices, or
    the first ``round(left_frac * n)`` links (default: half)."""
    if "left" in entry:
        return [int(v) for v in entry["left"]]
    frac = float(entry.get("left_frac", 0.5))
    if not 0.0 < frac < 1.0:
        raise ValueError(f"left_frac must be in (0, 1), got {frac}")
    return list(range(max(1, min(n - 1, round(frac * n)))))


#: The fault model of each spec kind, from ``(entry, n, seed, budget)``.
FAULT_MODELS = {
    "omission": lambda entry, n, seed, budget: OmissionFaults(
        float(entry.get("p", 0.05)), seed=seed, budget=budget),
    "duplicate": lambda entry, n, seed, budget: DuplicateDelivery(
        float(entry.get("p", 0.05)), copies=int(entry.get("copies", 1)),
        seed=seed, budget=budget),
    "corrupt": lambda entry, n, seed, budget: CorruptingChannel(
        float(entry.get("p", 0.05)), seed=seed, budget=budget),
    "partition": lambda entry, n, seed, budget: TransientPartition(
        int(entry.get("start", 2)),
        int(entry.get("end", entry.get("start", 2) + 3)),
        _partition_sides(entry, n)),
    "none": lambda entry, n, seed, budget: NoFaults(),
}


def build_fault_model(
    spec: FaultSpec,
    n: int,
    seed: int = 0,
) -> Optional[FaultModel]:
    """A fresh fault model for one execution, or ``None`` for no spec.

    ``seed`` is the *execution* seed; each randomized entry derives its
    own stream from ``seed + FAULT_SEED_OFFSET + position`` so stacked
    models never share coins.
    """
    models: list[FaultModel] = []
    for position, entry in enumerate(normalize_spec(spec)):
        budget = entry.get("budget")
        models.append(FAULT_MODELS[entry["kind"]](
            entry, n, int(entry.get("seed", seed + FAULT_SEED_OFFSET
                                    + position)),
            None if budget is None else int(budget)))
    if not models:
        return None
    if len(models) == 1:
        return models[0]
    return ComposedFaults(models)
