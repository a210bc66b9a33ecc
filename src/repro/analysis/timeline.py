"""Execution timelines: render what happened, round by round.

Turns an :class:`~repro.sim.runner.ExecutionResult` and the events an
:class:`~repro.obs.events.EventRecorder` recorded during the run (the
``observer=`` of any ``run_*``) into human-readable summaries, for
failure-injection tests that want to assert on *when* things happened
rather than only on final outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.sim.runner import ExecutionResult


@dataclass(frozen=True)
class RoundSummary:
    round_no: int
    messages: int
    bits: int
    crashes: tuple[int, ...]
    finished: int


def round_summaries(result: ExecutionResult,
                    events: Iterable[dict]) -> list[RoundSummary]:
    """One summary per executed round: counts from the metrics, crashes
    from ``crash.apply`` and terminations from ``round.end`` events."""
    crashes_by_round: dict[int, list[int]] = {}
    finished_by_round: dict[int, int] = {}
    for event in events:
        if event["kind"] == "crash.apply":
            crashes_by_round.setdefault(event["round"], []).append(
                event["node"])
        elif event["kind"] == "round.end":
            finished_by_round[event["round"]] = event["data"]["finished"]
    summaries = []
    for index, (messages, bits) in enumerate(
        zip(result.metrics.messages_per_round, result.metrics.bits_per_round)
    ):
        round_no = index + 1
        summaries.append(RoundSummary(
            round_no=round_no,
            messages=messages,
            bits=bits,
            crashes=tuple(sorted(crashes_by_round.get(round_no, []))),
            finished=finished_by_round.get(round_no, 0),
        ))
    return summaries


def render_timeline(result: ExecutionResult, events: Iterable[dict], *,
                    width: int = 40) -> str:
    """An ASCII timeline: one line per round, message volume as a bar."""
    summaries = round_summaries(result, events)
    if not summaries:
        return "(no rounds executed)"
    peak = max(summary.messages for summary in summaries) or 1
    lines = []
    for summary in summaries:
        bar = "#" * max(
            1 if summary.messages else 0,
            round(summary.messages / peak * width),
        )
        annotations = []
        if summary.crashes:
            annotations.append(f"crash:{list(summary.crashes)}")
        if summary.finished:
            annotations.append(f"done:{summary.finished}")
        suffix = ("  " + " ".join(annotations)) if annotations else ""
        lines.append(
            f"r{summary.round_no:>4} |{bar:<{width}}| "
            f"{summary.messages:>7} msgs{suffix}"
        )
    return "\n".join(lines)


def describe(result: ExecutionResult) -> str:
    """A one-paragraph execution summary."""
    metrics = result.metrics
    return (
        f"{result.rounds} rounds; "
        f"{metrics.correct_messages} correct messages "
        f"({metrics.correct_bits} bits, largest "
        f"{metrics.max_message_bits} bits); "
        f"{metrics.byzantine_messages} adversary messages; "
        f"{len(result.crashed)} crashed, "
        f"{len(result.byzantine)} Byzantine, "
        f"{len(result.correct_results)} correct nodes finished"
    )
