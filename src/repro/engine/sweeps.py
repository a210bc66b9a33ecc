"""Declarative sweep specifications and the named-driver registry.

A *driver* is a named summary function ``fn(n, f, seed, **params)``
returning one flat dict row — exactly the contract of
:func:`repro.analysis.experiments.summary` bound to a family.
Naming drivers (rather than passing callables) keeps every run request
picklable for the process pool and hashable for the run store.

A :class:`RunRequest` is one execution; a :class:`SweepSpec` is the
cross product ``n_values x seeds`` with a fault budget given as an
expression in ``n`` (``"0"``, ``"n//8"``, ``"max(1, n//4)"``), so a
whole sweep is a small, serializable value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from importlib import import_module
from inspect import signature
from typing import Callable, Iterable, Mapping, Optional

#: The built-in drivers: name -> summary function.  Populated lazily
#: from :mod:`repro.analysis.experiments` to avoid an import cycle.
DRIVERS: dict[str, Callable[..., dict]] = {}

_SCALARS = (str, int, float, bool, type(None))


#: Built-in drivers besides the protocol families' (which run through
#: ``experiments.summary``), by the module that defines their
#: ``<name>_run_summary`` and the ``<name>_inputs`` it builds its run's
#: arguments with; imported on first resolve.
OTHER_DRIVERS = {
    "falsify": "repro.falsify.campaign",
    "faults": "repro.faults.driver",
    "serve": "repro.serve.driver",
}


def _load_default_drivers() -> None:
    if "crash" in DRIVERS:
        return
    from repro.analysis.experiments import FAMILIES, summary

    for name in FAMILIES:
        DRIVERS.setdefault(name, partial(summary, name))
    for name, module in OTHER_DRIVERS.items():
        DRIVERS.setdefault(
            name, getattr(import_module(module), f"{name}_run_summary"))


def driver_names() -> list[str]:
    """Every resolvable driver name; imports no harness (the CLI's
    ``--driver`` choices are read from here on every start)."""
    from repro.analysis.experiments import FAMILIES

    return sorted({*FAMILIES, *OTHER_DRIVERS})


def resolve_driver(name: str) -> Callable[..., dict]:
    from repro.analysis.experiments import lookup

    _load_default_drivers()
    return lookup(DRIVERS, "driver", name)


def check_driver_params(name: str, n: int, f: int,
                        params: Mapping[str, object]) -> None:
    """Raise ``TypeError`` (or a ``ValueError``) for ``params`` that
    driver ``name`` would reject at ``(n, f)``, before any run: a
    negative ``f``; a protocol family's through :func:`~repro.analysis.
    experiments.check_params`; any other driver's against its
    keyword-only signature (one that takes ``**`` keywords takes any),
    then by building its run's arguments (``<name>_inputs``)."""
    from repro.analysis.experiments import FAMILIES, check_params

    if f < 0:
        raise ValueError(f"f={f} must be non-negative")
    if name in FAMILIES:
        check_params(FAMILIES[name], n, f, params)
        return
    taken = signature(resolve_driver(name))
    parameters = taken.parameters.values()
    known = [parameter.name for parameter in parameters
             if parameter.kind is parameter.KEYWORD_ONLY]
    unknown = sorted(set(params) - set(known))
    if unknown and not any(parameter.kind is parameter.VAR_KEYWORD
                           for parameter in parameters):
        raise TypeError(f"{name} takes no param {', '.join(unknown)}; "
                        f"known: {', '.join(known)}")
    bound = taken.bind(n, f, 0, **params)
    bound.apply_defaults()
    getattr(import_module(OTHER_DRIVERS[name]), f"{name}_inputs")(
        **bound.arguments)


def canonical_params(params: Mapping[str, object]) -> tuple:
    """Sorted ``(key, value)`` pairs, JSON scalars only.

    Restricting values to scalars is what makes a request hashable,
    picklable, and byte-stable across sessions; richer configuration
    belongs in a dedicated driver.
    """
    for key, value in params.items():
        if not isinstance(value, _SCALARS):
            raise TypeError(
                f"sweep parameter {key}={value!r} is not a JSON scalar; "
                "pass structured configuration as a JSON string"
            )
    return tuple(sorted(params.items()))


@dataclass(frozen=True)
class RunRequest:
    """One content-addressable protocol execution."""

    driver: str
    n: int
    f: int
    seed: int
    params: tuple = ()

    @classmethod
    def make(cls, driver: str, n: int, f: int, seed: int,
             **params) -> "RunRequest":
        return cls(driver, n, f, seed, canonical_params(params))

    def params_dict(self) -> dict:
        return dict(self.params)

    def describe(self) -> str:
        extra = "".join(f", {k}={v!r}" for k, v in self.params)
        return f"{self.driver}(n={self.n}, f={self.f}, seed={self.seed}{extra})"


#: Names usable inside ``--f`` expressions, besides ``n`` itself.
F_EXPRESSION_NAMES = {
    "ceil": math.ceil,
    "floor": math.floor,
    "log2": math.log2,
    "sqrt": math.sqrt,
    "min": min,
    "max": max,
    "int": int,
}


def evaluate_f(expression: str, n: int) -> int:
    """Evaluate a fault-budget expression such as ``"n//8"`` at one ``n``."""
    try:
        value = eval(  # noqa: S307 - restricted namespace, no builtins
            compile(expression, "<f-expression>", "eval"),
            {"__builtins__": {}},
            {"n": n, **F_EXPRESSION_NAMES},
        )
    except Exception as error:
        raise ValueError(
            f"bad fault-budget expression {expression!r}: {error}"
        ) from error
    return int(value)


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep: ``driver`` over ``n_values x seeds``.

    ``f`` is an expression in ``n`` so the whole spec stays a plain
    serializable value; ``params`` are extra driver keywords (JSON
    scalars, canonicalized).
    """

    driver: str
    n_values: tuple[int, ...]
    seeds: tuple[int, ...]
    f: str = "0"
    params: tuple = ()

    @classmethod
    def make(cls, driver: str, n_values: Iterable[int], seeds: Iterable[int],
             f: str = "0", **params) -> "SweepSpec":
        return cls(driver, tuple(n_values), tuple(seeds), f,
                   canonical_params(params))

    def requests(self) -> list[RunRequest]:
        return [
            RunRequest(self.driver, n, evaluate_f(self.f, n), seed,
                       self.params)
            for n in self.n_values
            for seed in self.seeds
        ]


def table1_requests(n: int, f: int, seed: int = 0) -> list[RunRequest]:
    """The measured rows of Table 1 as engine requests: one per
    protocol family.

    The Byzantine rows use ``f_byz = min(f, 2)`` corrupted nodes: each
    withholder inflates the divide-and-conquer work by ``log2 N``
    segments (Lemma 3.10), so a small ``f`` keeps the table affordable
    while still exercising the adversarial path; the dedicated F5/F9
    sweeps measure the growth in ``f`` itself.
    """
    from repro.analysis.experiments import FAMILIES, byzantine_attack

    f_byz = min(f, 2, max((n - 1) // 3, 0))
    return [
        RunRequest.make(
            name, n, f_byz if family.attack is byzantine_attack else f, seed)
        for name, family in FAMILIES.items()
    ]


#: Keys the engine strips off a driver row into the ledgers table.
LEDGER_KEYS = ("messages_per_round", "bits_per_round")


def execute_request(
    request: RunRequest,
) -> tuple[dict, Optional[list[int]], Optional[list[int]], Optional[dict]]:
    """Run one request in-process.

    Returns ``(row, messages_per_round, bits_per_round, telemetry)``;
    the ledger lists are popped off the row so table columns stay
    scalar, and so is ``row["telemetry"]`` -- where a driver puts what
    it read off a clock -- so the stored row is a pure function of the
    request.
    """
    driver = resolve_driver(request.driver)
    row = driver(request.n, request.f, request.seed, include_rounds=True,
                 **request.params_dict())
    messages_per_round = row.pop("messages_per_round", None)
    bits_per_round = row.pop("bits_per_round", None)
    telemetry = row.pop("telemetry", None)
    return row, messages_per_round, bits_per_round, telemetry
