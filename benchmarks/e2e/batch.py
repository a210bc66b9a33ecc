"""The three batch workloads: ``crash_paper``, ``byz_withholder``, ``f1_sweep``.

Each workload object builds its inputs from the seed (set-up), runs one
repetition at a time, checks every output, and can run one *traced*
repetition that also returns its per-layer metrics.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
import traceback
from contextlib import ExitStack
from dataclasses import dataclass, field
from random import Random
from typing import Optional

from repro.adversary import byzantine as byzantine_strategies
from repro.adversary.crash import CommitteeHunter
from repro.analysis.experiments import (
    EXPERIMENT_ELECTION_CONSTANT,
    byzantine_config_for,
    check_renaming,
    default_namespace,
    sample_uids,
)
from repro.core.byzantine_renaming import run_byzantine_renaming
from repro.core.crash_renaming import CrashRenamingConfig, run_crash_renaming
from repro.crypto.shared_randomness import SharedRandomness
from repro.engine.pool import run_requests
from repro.engine.store import RunStore
from repro.engine.sweeps import RunRequest

from benchmarks.e2e.spec import OUT_DIR, Sizes, percentile
from benchmarks.e2e.speed import SpeedMeter
from benchmarks.e2e.trace import (
    Recorder,
    RoundClock,
    Tally,
    timed_methods,
    timed_programs,
)

SHARED_METHODS = ("stream", "bits", "coin", "uniform_int", "bernoulli_subset")


@dataclass
class Rep:
    """One repetition: its wall time, counted results and verdicts."""

    start: float
    #: Seconds on the clock, sampling included (what the spans show).
    gross: float
    #: Seconds at reference machine speed (see ``speed.py``).
    wall: float
    speed: float
    #: JSON-able counted results; equal across reps of one seed.
    counted: object
    messages: int
    attempted: int
    failed: int
    #: ``(seconds, renames)`` pairs: how long the nodes of each run
    #: waited, from the start of their run, until they held a name.
    latencies: list[tuple[float, int]]
    detail: dict = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def scale(self) -> float:
        """Turns seconds on the clock inside the rep into reference seconds."""
        return self.wall / self.gross


class Timed:
    """Times a block against the meter: fills ``start``, ``gross``,
    ``wall`` (seconds at reference speed) and ``speed``."""

    def __init__(self, meter: SpeedMeter):
        self.meter = meter

    def __enter__(self) -> "Timed":
        self._mark = self.meter.mark()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.gross = time.perf_counter() - self.start
        self.wall, self.speed = self.meter.since(self._mark, self.gross)


class ProtocolWorkload:
    """One protocol execution per repetition."""

    n: int
    meter: SpeedMeter
    order_preserving = False
    #: The crash adversary class whose ``plan_round`` the traced pass times.
    adversary_class: Optional[type] = None

    def run(self, monitors):
        raise NotImplementedError

    def rep(self, clock: Optional[RoundClock] = None) -> Rep:
        if clock is not None:
            clock.mark()
        error = None
        with Timed(self.meter) as timed:
            try:
                result = self.run([clock] if clock is not None else [])
            except Exception:
                error = traceback.format_exc(limit=8)
        if error is not None:
            return Rep(timed.start, timed.gross, timed.wall, timed.speed,
                       None, 0, 1, 1, [], error=error)
        checks = check_renaming(result, self.n,
                                order_preserving=self.order_preserving)
        outputs = result.outputs_by_uid()
        messages = result.metrics.correct_messages
        detail = {
            "rounds": result.rounds,
            "bits": result.metrics.correct_bits,
            "crashed": len(result.crashed),
            "committee": sum(
                1 for process in result.processes
                if getattr(process, "ever_elected", False)
                or getattr(process, "was_committee", False)
            ),
            "p_max": max((getattr(process, "final_p", 0)
                          for process in result.processes), default=0),
        }
        return Rep(
            timed.start, timed.gross, timed.wall, timed.speed,
            [result.rounds, messages, detail["bits"], sorted(outputs.items())],
            messages, 1, 0 if all(checks.values()) else 1,
            [(timed.wall, len(outputs))], detail,
        )

    def traced(self, recorder: Recorder, parent: Optional[int]
               ) -> tuple[Rep, dict[str, float]]:
        """One repetition under the timing wrappers, and its layers."""
        tallies = {"program": Tally(), "adversary": Tally(),
                   "shared": Tally()}
        clock = RoundClock(tallies)
        with ExitStack() as stack:
            stack.enter_context(timed_programs(tallies["program"]))
            stack.enter_context(timed_methods(
                SharedRandomness, SHARED_METHODS, tallies["shared"]))
            if self.adversary_class is not None:
                stack.enter_context(timed_methods(
                    self.adversary_class, ("plan_round",),
                    tallies["adversary"]))
            rep = self.rep(clock)
        run_span = recorder.add("run", rep.start, rep.start + rep.gross,
                                parent, messages=rep.messages,
                                speed=rep.speed)
        # Spans keep the clock's seconds; the metrics are in reference
        # seconds like the rep's wall time, so that the layers add up.
        scale = rep.scale
        rounds = [scale * seconds
                  for seconds in clock.record(recorder, run_span)]
        if rep.failed:
            return rep, {}
        shared = scale * tallies["shared"].seconds
        program = scale * tallies["program"].seconds - shared
        adversary = scale * tallies["adversary"].seconds
        engine = rep.wall - program - shared - adversary
        layers = {
            "sim.rounds": rep.detail["rounds"],
            "sim.messages": rep.messages,
            "sim.bits": rep.detail["bits"],
            "sim.engine_s": engine,
            "sim.engine_us_per_msg": 1e6 * engine / rep.messages,
            "sim.round_p50_ms": 1e3 * percentile(rounds, 0.50),
            "sim.round_p95_ms": 1e3 * percentile(rounds, 0.95),
            "core.program_s": program,
            "core.program_us_per_node_round":
                1e6 * program / tallies["program"].calls,
            "core.committee_max": rep.detail["committee"],
            "core.p_max": rep.detail["p_max"],
            "crypto.shared_s": shared,
            "crypto.shared_calls": tallies["shared"].calls,
            "adversary.plan_s": adversary,
            "adversary.crashes": rep.detail["crashed"],
        }
        return rep, layers


class CrashPaper(ProtocolWorkload):
    """Crash renaming with the paper's constants: committee = everyone."""

    def __init__(self, seed: int, sizes: Sizes, meter: SpeedMeter):
        self.meter = meter
        rng = Random(f"crash_paper:{seed}")
        self.n = sizes.crash_n
        self.namespace = default_namespace(self.n)
        self.uids = sample_uids(self.n, self.namespace, rng)
        self.protocol_seed = rng.getrandbits(32)

    def run(self, monitors):
        return run_crash_renaming(
            self.uids, namespace=self.namespace,
            config=CrashRenamingConfig(), seed=self.protocol_seed,
            monitors=monitors,
        )


class ByzWithholder(ProtocolWorkload):
    """``byzantine_run_summary(n, f, 0, strategy="withholder")``, rebuilt
    here so that the execution result can be checked.

    The identities, the corrupt set and the shared seed are those of
    instance 0 whatever ``--seed`` says: they decide the committee size
    and the number of rounds, and a different draw is up to twice the
    work (3.8-7.9 s measured over four draws).  The seed varies what
    leaves the work alone: the withholders' choices and the nodes'
    private coins.
    """

    order_preserving = True
    instance = 0

    def __init__(self, seed: int, sizes: Sizes, meter: SpeedMeter):
        self.meter = meter
        rng = Random(f"byz_withholder:{seed}")
        self.n, f = sizes.byz_n, sizes.byz_f
        self.namespace = default_namespace(self.n)
        self.uids = sample_uids(self.n, self.namespace, Random(self.instance))
        corrupt = byzantine_strategies.corrupt_set(
            self.uids, f, Random(self.instance + 1))
        factory = byzantine_strategies.make_withholder(
            0.5, salt=rng.getrandbits(32))
        self.byzantine = {uid: factory for uid in corrupt}
        self.config = byzantine_config_for(self.n, max(f, 1))
        self.protocol_seed = rng.getrandbits(32)

    def run(self, monitors):
        return run_byzantine_renaming(
            self.uids, namespace=self.namespace, byzantine=self.byzantine,
            config=self.config, shared_seed=self.instance + 3,
            seed=self.protocol_seed, monitors=monitors,
        )


class SweepCrashRun(ProtocolWorkload):
    """One ``crash`` request of the sweep, as ``crash_run_summary`` builds it."""

    adversary_class = CommitteeHunter

    def __init__(self, request: RunRequest, meter: SpeedMeter):
        self.meter = meter
        self.n, self.f, self.seed = request.n, request.f, request.seed
        self.namespace = default_namespace(self.n)
        self.uids = sample_uids(self.n, self.namespace, Random(self.seed))
        self.config = CrashRenamingConfig(
            election_constant=request.params_dict()["election_constant"])

    def run(self, monitors):
        return run_crash_renaming(
            self.uids, namespace=self.namespace,
            adversary=CommitteeHunter(self.f, Random(self.seed + 1)),
            config=self.config, seed=self.seed + 2, monitors=monitors,
        )


class F1Sweep:
    """The F1 comparison through the engine: a cold campaign into a new
    sqlite store, then the same campaign again, served from the store.

    The campaign's own seeds are fixed — a sparse-committee run under
    the hunter costs 22k to 356k messages depending on its seed, so a
    campaign drawn afresh would measure the draw.  ``--seed`` shuffles
    the order of the requests.
    """

    DRIVERS = (
        ("crash", {"adversary": "hunter",
                   "election_constant": EXPERIMENT_ELECTION_CONSTANT}),
        ("obg", {}),
        ("balls", {}),
    )

    def __init__(self, seed: int, sizes: Sizes, meter: SpeedMeter):
        self.meter = meter
        self.requests = [
            RunRequest.make(driver, n, n // 8, run_seed, **params)
            for driver, params in self.DRIVERS
            for n in sizes.sweep_ns
            for run_seed in sizes.sweep_seeds
        ]
        Random(f"f1_sweep:{seed}").shuffle(self.requests)
        OUT_DIR.mkdir(exist_ok=True)

    def rep(self, recorder: Optional[Recorder] = None,
            parent: Optional[int] = None,
            store_tally: Optional[Tally] = None) -> Rep:
        directory = tempfile.mkdtemp(prefix="store-", dir=OUT_DIR)
        # ``progress`` is called once after the cache scan and then
        # after every run: each interval gets the machine speed sampled
        # inside it, as (begin, end, reference seconds per second).
        intervals: list[tuple[float, float, float]] = []
        last = [time.perf_counter(), self.meter.mark()]

        def progress(done: int, total: int) -> None:
            now = time.perf_counter()
            reference, _ = self.meter.since(last[1], now - last[0])
            intervals.append((last[0], now, reference / (now - last[0])))
            last[:] = now, self.meter.mark()

        try:
            with RunStore(f"{directory}/runs.sqlite") as store, ExitStack() as stack:
                if store_tally is not None:
                    stack.enter_context(timed_methods(
                        RunStore, ("put", "put_telemetry"), store_tally))
                with Timed(self.meter) as timed:
                    cold = run_requests(self.requests, jobs=1, store=store,
                                        progress=progress)
                warm_start = time.perf_counter()
                warm = run_requests(self.requests, jobs=1, store=store)
                warm_wall = time.perf_counter() - warm_start
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        failed = sum(
            not (first.ok and not first.cached
                 and first.row["unique"] and first.row["strong"]
                 and again.ok and again.cached and again.row == first.row)
            for first, again in zip(cold, warm)
        )
        rows = {result.request.describe(): result.row for result in cold}
        # The engine's own seconds of each run, in reference seconds.
        elapsed = [scale * result.elapsed for result, (_, _, scale)
                   in zip(cold, intervals[1:])]
        by_driver: dict[str, float] = {}
        for result, seconds in zip(cold, elapsed):
            by_driver[result.request.driver] = (
                by_driver.get(result.request.driver, 0.0) + seconds)
        if recorder is not None:
            campaign = recorder.add("campaign.cold", timed.start,
                                    timed.start + timed.gross, parent,
                                    speed=timed.speed)
            for index, (begin, end, _) in enumerate(intervals[1:]):
                recorder.add(f"run[{index}]", begin, end, campaign,
                             request=cold[index].request.describe(),
                             driver_s=cold[index].elapsed)
            recorder.add("campaign.warm", warm_start,
                         warm_start + warm_wall, parent)
        return Rep(
            timed.start, timed.gross, timed.wall, timed.speed,
            [[name, row and [row.get("rounds"), row["messages"], row["bits"]]]
             for name, row in sorted(rows.items())],
            sum(row["messages"] for row in rows.values() if row),
            len(cold) + len(warm), failed,
            [(seconds, result.row["n"] - result.row["f_actual"])
             for result, seconds in zip(cold, elapsed) if result.ok],
            {"warm_s": warm_wall, "by_driver": by_driver,
             "overhead_s":
                 timed.gross - sum(result.elapsed for result in cold),
             "hits": sum(result.cached for result in warm) / len(warm),
             "failed_runs": sum(not result.ok for result in cold),
             "rows": rows},
        )

    def traced(self, recorder: Recorder, parent: Optional[int]
               ) -> tuple[Rep, dict[str, float]]:
        store = Tally()
        rep = self.rep(recorder, parent, store)
        by_driver = rep.detail["by_driver"]
        layers = {
            "analysis.driver_crash_s": by_driver["crash"],
            "baselines.obg_s": by_driver["obg"],
            "baselines.balls_s": by_driver["balls"],
            "engine.overhead_s": rep.scale * rep.detail["overhead_s"],
            "engine.store_put_s": rep.scale * store.seconds,
            "engine.store_puts": store.calls,
            "engine.warm_s": rep.scale * rep.detail["warm_s"],
            "engine.cache_hit_share": rep.detail["hits"],
            "engine.failed_runs": rep.detail["failed_runs"],
        }
        # One representative crash request replayed directly, for the
        # layers below the engine; it must reproduce the campaign's row.
        request = max((r for r in self.requests if r.driver == "crash"),
                      key=lambda r: (r.n, -r.seed))
        replay, below = SweepCrashRun(request, self.meter).traced(
            recorder, parent)
        row = rep.detail["rows"][request.describe()]
        if replay.failed or row is None or replay.counted[:3] != [
                row["rounds"], row["messages"], row["bits"]]:
            rep.failed += 1
            rep.error = f"replay of {request.describe()} disagrees with its row"
        layers.update(below)
        return rep, layers


BATCH_WORKLOADS = {
    "crash_paper": CrashPaper,
    "byz_withholder": ByzWithholder,
    "f1_sweep": F1Sweep,
}


def end_to_end(reps: list[Rep]) -> dict[str, tuple[float, int]]:
    """``{metric: (value, samples)}`` of a batch workload's timed reps.

    Medians over the reps: of the wall time, and run by run of how long
    the renames waited (the reps make the same runs in the same order).
    """
    done = [rep for rep in reps if rep.error is None]
    seconds = [statistics.median(seconds for seconds, _ in same_run)
               for same_run in zip(*(rep.latencies for rep in done))]
    renames = [count for _, count in done[0].latencies]
    return {
        "wall_s": (statistics.median(rep.wall for rep in reps), len(reps)),
        "rename_p50_ms": (1e3 * percentile(seconds, 0.50, renames),
                          sum(renames)),
        "rename_p95_ms": (1e3 * percentile(seconds, 0.95, renames),
                          sum(renames)),
    }
