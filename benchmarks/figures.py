"""The figure registry: every measured artifact of EXPERIMENTS.md, once.

The paper's artifacts are Table 1 and the scaling claims of Theorems
1.2-1.4; the service that puts the crash algorithm behind a front door
adds two tables of its own (F16, F17).  Each is one entry of
:data:`FIGURES`: the engine runs it needs (``requests``), the table
made of their driver rows (``table``, printed through ``columns`` with
a ``note`` line) and the shape claimed for it (``shape``, over that
table).
``benchmarks/report.py`` prints every table and
``benchmarks/test_figures.py`` asserts every shape, both through
:func:`measure`; ``benchmarks/results/report.md`` is the committed
output.  The sweep sizes are the ones EXPERIMENTS.md quotes.
"""

from __future__ import annotations

import math
from dataclasses import replace
from random import Random
from typing import Iterable, Mapping, Optional

from repro.adversary import byzantine as byzantine_strategies
from repro.analysis import complexity, experiments
from repro.analysis.stats import summarize
from repro.baselines.balls_into_slots import run_balls_into_slots
from repro.core.byzantine_renaming import run_byzantine_renaming
from repro.engine.pool import run_requests
from repro.engine.store import RunStore
from repro.engine.sweeps import RunRequest, table1_requests
from repro.faults.degradation import SAFE_STALLED, SAFE_TERMINATED
from repro.lowerbound.anonymous import (
    SilentRenamingExperiment,
    minimum_messages_for_success,
)
from repro.serve.chaos import (
    DEFAULT_CHAOS_RESILIENCE,
    classify_serve_run,
    default_chaos_ladder,
    failed,
    goodput,
)

Table = list[dict]

#: The scales ``report.py --scale`` prints: ``points`` (what CI runs)
#: or ``large``, each large point run over :data:`LARGE_SEEDS`.
SCALES = ("default", "large")
LARGE_SEEDS = (1, 2, 3, 4, 5)


def crash(n: int, f: int, seed: int = 1, **params) -> RunRequest:
    return RunRequest.make("crash", n, f, seed, **params)


def withheld(n: int, f: int, seed: int, **params) -> RunRequest:
    """The Byzantine algorithm against ``f`` identity withholders, with
    the small-n settings of F5/F9 (tolerate 4, 8 coin iterations)."""
    return RunRequest.make("byzantine", n, f, seed, f_assumed=4,
                           consensus_iterations=8, **params)


def slope(table: Table, column: str) -> float:
    """The fitted exponent of ``column`` against ``n`` over ``table``."""
    return complexity.fit_loglog_slope(
        [row["n"] for row in table], [row[column] for row in table])


def strong(result, names: int) -> bool:
    """Distinct names, all within ``[1, names]``."""
    checks = experiments.check_renaming(result, names)
    return checks["unique"] and checks["strong"]


#: The crash algorithm's election constant as the paper states it.
PAPER_ELECTION_CONSTANT = 256.0


def _mean_sd(values) -> str:
    """``mean ± sd`` of ``values`` over seeds (one seed: the value;
    none: a dash), digits grouped."""
    if not values:
        return "—"
    spread = summarize(values)
    if spread.count == 1:
        return f"{spread.mean:,.0f}"
    return f"{spread.mean:,.0f} ± {spread.std:,.0f}"


def _spread(values) -> str:
    """``mean ± sd [min-max]`` of a fitted quantity over seeds."""
    spread = summarize(values)
    return (f"{spread.mean:.3f} ± {spread.std:.3f} "
            f"[{spread.minimum:.3f}-{spread.maximum:.3f}]")


def _crossover(points) -> float:
    """log2 n where ``ratio`` crosses 1, linear in ``(log2 n, log2
    ratio)`` through two ``(n, ratio)`` points (outside them: extended)."""
    (x1, y1), (x2, y2) = [(math.log2(n), math.log2(ratio))
                          for n, ratio in points]
    return x2 - y2 * (x2 - x1) / (y2 - y1)


def _predicted_crossover() -> float:
    """log2 n where ``2,304 n log2^2 n`` messages (the crash algorithm at
    the paper's constant, fitted) meet all-to-all's ``n^2 log2 n``: the
    fixed point of ``x = log2(2,304 x)``."""
    x = 15.0
    for _ in range(50):
        x = math.log2(2304 * x)
    return x


class Figure:
    """One measured artifact; the class docstring is the paper's claim.

    A figure names its sample ``points``, the engine runs of one point
    (``runs``) and the table row made of their driver rows (``row``).
    Rows reach ``table`` keyed by the request that produced them, never
    by position.  Its ``large`` points are the same claim at the scale
    it is made for: each is run over :data:`LARGE_SEEDS`
    (``large_runs``) and its row carries the seeds' spread
    (``large_row``, from :func:`repro.analysis.stats.summarize`).
    """

    #: The section heading ``report.py`` prints.
    title: str
    #: The printed columns, where the table has more.
    columns: Optional[tuple[str, ...]] = None
    #: Decimal places of the printed floats.
    digits = 2
    points: tuple = ()

    @property
    def id(self) -> str:
        return type(self).__name__

    def runs(self, point) -> dict[str, RunRequest]:
        """Engine runs of one point, under the keywords ``row`` takes."""
        return {}

    def row(self, point, run: dict) -> dict:
        return run

    def requests(self) -> list[RunRequest]:
        return [request for point in self.points
                for request in self.runs(point).values()]

    def table(self, row_of: Mapping[RunRequest, dict]) -> Table:
        return [
            self.row(point, **{name: row_of[request] for name, request
                               in self.runs(point).items()})
            for point in self.points
        ]

    def note(self, table: Table) -> str:
        """The line under the printed table, if any."""
        return ""

    #: The points of the large scale; none where a figure has none yet.
    large: tuple = ()
    #: The large table's printed columns.
    large_columns: Optional[tuple[str, ...]] = None

    def large_runs(self, point, seed: int) -> dict[str, RunRequest]:
        """Engine runs of one large point under one seed (a seed may
        leave a run out), under the names ``large_row`` reads."""
        return {}

    def large_row(self, point, by_seed: Mapping[int, dict]) -> dict:
        """The row of one large point: ``by_seed`` maps each seed to
        ``{run name: driver row}``."""
        raise NotImplementedError

    def large_note(self, table: Table) -> str:
        """The line under the printed large table, if any."""
        return ""

    def large_requests(self) -> list[RunRequest]:
        return [request for point in self.large for seed in LARGE_SEEDS
                for request in self.large_runs(point, seed).values()]

    def large_table(self, row_of: Mapping[RunRequest, dict]) -> Table:
        return [
            self.large_row(point, {
                seed: {name: row_of[request] for name, request
                       in self.large_runs(point, seed).items()}
                for seed in LARGE_SEEDS})
            for point in self.large
        ]

    def shape(self, table: Table) -> None:
        """Assert the paper's claim on ``table``."""
        raise NotImplementedError


class T1(Figure):
    """Table 1: measured rounds/messages/bits per family.

    Paper claim (Table 1): all prior algorithms are all-to-all
    (``Omega(n^2)`` messages; the big-message families ``Omega(n^3)``
    bits), while this work's crash algorithm sends ``O~((f+1)n)``
    messages and its Byzantine algorithm ``O~(f+n)``.  At a fixed
    measurable ``n`` the shape to reproduce is the ordering between
    families and the bit wall of the gossip family.
    """

    n, f = 64, 8
    title = f"T1 -- Table 1 measured (n={n}, f={f})"
    columns = ("algorithm", "rounds", "messages", "bits", "max_message_bits",
               "unique", "strong")
    points = tuple(table1_requests(n, f, seed=1))

    def runs(self, request):
        return {"run": request}

    def shape(self, rows):
        by_name = {row["algorithm"]: row for row in rows}
        ours_crash = by_name["crash-renaming (this work)"]
        gossip = by_name["full-information gossip [20]-style"]
        ours_byz = by_name["byzantine-renaming (this work)"]
        full_committee = by_name["byzantine-renaming, full committee"]

        # Every family must actually solve strong renaming.
        for row in rows:
            assert row["unique"] and row["strong"], row

        # The gossip family pays the bit wall: an order of magnitude more
        # bits than our crash algorithm, and Theta(n) rounds.
        assert gossip["bits"] > 10 * ours_crash["bits"]
        assert gossip["rounds"] >= self.n - 1

        # All-to-all message counts do not adapt to failures; ours stays
        # within the (f + log n) n log n envelope.
        envelope = complexity.crash_message_envelope(
            self.n, ours_crash["f_actual"])
        assert ours_crash["messages"] <= 24 * envelope

        # The committee keeps the Byzantine algorithm under the
        # full-committee ablation's traffic.
        assert ours_byz["messages"] <= full_committee["messages"]

        # Order preservation: the Byzantine algorithm and the gossip
        # family are order-preserving, matching their Table 1 columns.
        assert ours_byz["order_preserving"]
        assert gossip["order_preserving"]


class F1(Figure):
    """Crash-algorithm message scaling in n (Theorem 1.2).

    Paper claim: with no failures the crash algorithm sends
    ``O(n log^2 n)`` messages, versus the baselines' ``Theta(n^2 log n)``.
    Shape to reproduce: on a log-log plot of messages against ``n``, our
    slope stays near 1 (plus log factors) while the all-to-all baseline's
    slope is near 2, so the gap widens with ``n``.
    """

    title = "F1 -- crash messages vs n (f=0)"
    points = (32, 64, 128, 256)

    def runs(self, n):
        return {"ours": crash(n, 0, adversary=None),
                "obg": RunRequest.make("obg", n, 0, 1)}

    def row(self, n, ours, obg):
        return {"n": n, "ours_messages": ours["messages"],
                "obg_messages": obg["messages"],
                "ratio_obg_over_ours": obg["messages"] / ours["messages"]}

    def note(self, rows):
        return (f"log-log slopes: ours {slope(rows, 'ours_messages'):.2f}, "
                f"all-to-all {slope(rows, 'obg_messages'):.2f}.")

    #: Ours (the experiments' election constant) and all-to-all up to
    #: 16,384; the paper's constant from 4,096 on, on the first two
    #: seeds, with all-to-all beside it.
    large = (256, 1024, 4096, 16384, 32768)
    ours_up_to = 16384
    paper_from, paper_seeds = 4096, LARGE_SEEDS[:2]
    large_columns = (
        "n", "ours msgs", "ours bits", "all-to-all msgs", "all-to-all bits",
        "all-to-all / ours msgs", "paper constant msgs",
        "paper constant bits", "all-to-all / paper msgs",
        "all-to-all / paper bits")

    def large_runs(self, n, seed):
        runs = {}
        if n <= self.ours_up_to:
            runs["ours"] = crash(n, 0, seed, adversary=None)
        if n >= self.paper_from and seed in self.paper_seeds:
            runs["paper"] = crash(n, 0, seed, adversary=None,
                                  election_constant=PAPER_ELECTION_CONSTANT)
        if runs:
            runs["obg"] = RunRequest.make("obg", n, 0, seed)
        return runs

    def large_row(self, n, by_seed):
        runs = list(by_seed.values())

        def ratio(name, key):
            ratios = [by_name["obg"][key] / by_name[name][key]
                      for by_name in runs if name in by_name]
            return f"{summarize(ratios).mean:.2f}" if ratios else "—"

        row = {"n": n}
        for name, label in (("ours", "ours"), ("obg", "all-to-all"),
                            ("paper", "paper constant")):
            for key, unit in (("messages", "msgs"), ("bits", "bits")):
                row[f"{label} {unit}"] = _mean_sd(
                    [by_name[name][key] for by_name in runs
                     if name in by_name])
        row["all-to-all / ours msgs"] = ratio("ours", "messages")
        row["all-to-all / paper msgs"] = ratio("paper", "messages")
        row["all-to-all / paper bits"] = ratio("paper", "bits")
        row["by_seed"] = by_seed  # not printed: the note's fits read it
        return row

    def large_note(self, rows):
        def exponent(name):
            return _spread([complexity.fit_loglog_slope(*zip(*[
                (row["n"], row["by_seed"][seed][name]["messages"])
                for row in rows if row["n"] <= self.ours_up_to]))
                for seed in LARGE_SEEDS])

        last = [row for row in rows if row["n"] >= self.paper_from][-2:]

        def crossover(key):
            return _spread([_crossover([
                (row["n"], row["by_seed"][seed]["paper"][key]
                 / row["by_seed"][seed]["obg"][key]) for row in last])
                for seed in self.paper_seeds])

        return (
            f"log-log slopes of messages over n = {rows[0]['n']:,}-"
            f"{self.ours_up_to:,} ({len(LARGE_SEEDS)} seeds, mean ± sd "
            f"[min-max]): ours {exponent('ours')}, all-to-all "
            f"{exponent('obg')}.  Paper constant against all-to-all "
            f"({len(self.paper_seeds)} seeds; log2 n where the ratio "
            f"crosses 1, linear in log n through n = {last[0]['n']:,} and "
            f"{last[1]['n']:,}): messages {crossover('messages')}, bits "
            f"{crossover('bits')}; predicted {_predicted_crossover():.1f} "
            f"(n = 2,304 log2 n).")

    def shape(self, rows):
        ours_slope = slope(rows, "ours_messages")
        obg_slope = slope(rows, "obg_messages")
        ratios = [row["ratio_obg_over_ours"] for row in rows]
        # Shape: ours ~ n polylog -- the fitted exponent carries the log^2
        # factor, so it sits above 1 but clearly below the baseline's ~2 --
        # and the ours/baseline gap widens with n: the measured crossover
        # (ratio passing 1) lands near n = 128 at these constants.
        assert ours_slope < 1.8
        assert obg_slope > 1.9
        assert obg_slope - ours_slope > 0.4
        assert ratios[-1] > ratios[0]
        assert ratios[0] < 1.0 < ratios[-1]


class F2(Figure):
    """Crash-algorithm cost scales with the actual failure count.

    Paper claim (Theorem 1.2): ``O((f + log n) * n log n)`` messages where
    ``f`` is the number of crashes that actually happen, driven by the
    committee-hunter adversary re-triggering elections.  Shape: message
    count grows roughly linearly in ``f`` above an ``n polylog`` floor and
    stays inside the envelope.
    """

    n = 128
    title = f"F2 -- crash messages vs f (n={n}, committee hunter)"
    columns = ("f_budget", "f_actual", "messages", "rounds")
    points = (0, n // 8, n // 4, n // 2, int(0.8 * n))

    def runs(self, f):
        return {"run": crash(self.n, f)}

    def row(self, f, run):
        envelope = complexity.crash_message_envelope(self.n, run["f_actual"])
        return {**run, "envelope": envelope}

    def shape(self, rows):
        # Theorem 1.2's content is the *envelope*: messages stay within a
        # constant factor of (f + log n) n log n for every f, the largest
        # included.  Raw totals are deliberately NOT asserted monotone:
        # each crash also deletes a sender, so a dying network can emit
        # fewer messages in absolute terms even as the per-survivor and
        # committee-election costs rise (F8 measures that escalation
        # directly).
        for row in rows:
            assert row["messages"] <= 24 * row["envelope"]
        # The f = 0 floor is the n polylog term (~18 n log^2 n at these
        # constants), already below the all-to-all baseline's n^2 log n at
        # this n -- and diverging from it as n grows (F1).
        assert rows[0]["messages"] < self.n * self.n * math.log2(self.n)


class F3(Figure):
    """The crash algorithm's deterministic round bound.

    Paper claim (Theorem 1.2): always terminates within ``O(log n)``
    rounds -- concretely ``3 ceil(log2 n)`` phases of 3 rounds, under any
    adversary.  Shape: measured rounds equal the closed form exactly, for
    every ``n`` and adversary tried.
    """

    title = "F3 -- crash rounds vs n"
    points = (32, 64, 128, 256)

    def runs(self, n):
        return {"quiet": crash(n, 0, adversary=None),
                "hunted": crash(n, n // 2)}

    def row(self, n, quiet, hunted):
        return {"n": n, "bound_9ceil_log2": complexity.crash_round_bound(n),
                "rounds_f0": quiet["rounds"],
                "rounds_hunted": hunted["rounds"]}

    def shape(self, rows):
        for row in rows:
            assert row["rounds_f0"] == row["bound_9ceil_log2"]
            assert row["rounds_hunted"] == row["bound_9ceil_log2"]


class F4(Figure):
    """Byzantine-algorithm message scaling in n (Theorem 1.3).

    Paper claim: ``O(f log N log^3 n + n log n)`` messages -- almost linear
    in ``n`` when the actual corruption is small.  Shape: log-log slope of
    messages against ``n`` near 1 for honest executions, far below the
    all-to-all families' slope 2; the full-committee ablation pays a
    higher-order term.
    """

    title = "F4 -- Byzantine messages vs n (f=0)"
    columns = ("n", "messages", "bits", "rounds")
    points = (32, 64, 128, 256)

    def runs(self, n):
        return {"run": RunRequest.make(
            "byzantine", n, 0, 1, f_assumed=max(2, n // 32),
            consensus_iterations=8)}

    def note(self, rows):
        return (
            f"log-log slope: {slope(rows, 'messages'):.2f} -- far below the "
            "quadratic wall; at these n the committee's polylog consensus "
            "traffic dominates the n log n announcement term, so counts "
            "are nearly flat in n."
        )

    def shape(self, rows):
        assert all(row["unique"] and row["strong"]
                   and row["order_preserving"] for row in rows)
        # Almost-linear: clearly separated from the quadratic wall.  The
        # committee is Theta(log n) members whose pairwise consensus
        # traffic adds polylog factors, so the fitted slope sits a little
        # above 1.
        assert slope(rows, "messages") < 1.75


class F5(Figure):
    """Byzantine-algorithm rounds scale with the actual corruption.

    Paper claim (Theorem 1.3): ``O(max(f log N, 1) * log n)`` rounds where
    ``f`` is the number of *actual* Byzantine nodes -- honest executions
    finish in polylog rounds even though the protocol tolerates up to
    ``(1/3 - eps) n`` corruptions.  Shape: rounds grow roughly linearly in
    the number of identity-withholding corruptions.
    """

    n = 16
    title = f"F5 -- Byzantine rounds vs actual f (n={n}, withholders)"
    columns = ("f", "rounds", "messages", "splits")
    points = (0, 1, 2, 3, 4)

    def runs(self, f):
        return {"run": withheld(self.n, f, 3)}

    def row(self, f, run):
        envelope = complexity.byzantine_round_envelope(
            self.n, f, experiments.default_namespace(self.n))
        return {**run, "f": f, "splits": run["segments_split"],
                "envelope": round(envelope, 1)}

    def shape(self, rows):
        assert all(row["unique"] and row["strong"]
                   and row["order_preserving"] for row in rows)
        rounds = [row["rounds"] for row in rows]
        # Honest executions are two orders of magnitude cheaper than the
        # worst case; each withholder adds work.
        assert rounds[0] < rounds[-1] / 3
        assert all(b >= a for a, b in zip(rounds, rounds[1:]))
        # Within a constant factor of the theorem envelope.
        for row in rows:
            assert row["rounds"] <= 60 * max(row["envelope"], 1)


class F6(Figure):
    """The Omega(n) message lower bound (Theorem 1.4).

    Paper claim: any strong renaming algorithm succeeding with probability
    >= 3/4 sends Omega(n) messages in expectation, even with shared
    randomness, authentication, and no failures.  Shape: measured success
    of the best silent-node protocol crosses 3/4 only once all but one
    node has communicated, i.e. the message floor is ``n - 1``.
    """

    n, trials = 64, 4000
    title = f"F6 -- lower bound: success vs message budget (n={n})"
    points = (0, n // 2, n - 4, n - 2, n - 1, n)

    def table(self, row_of):
        # Monte-Carlo over an analytic model, every budget on the one
        # generator: not a protocol execution, so outside the engine.
        experiment = SilentRenamingExperiment(n=self.n, rng=Random(11))
        return experiment.sweep(self.points, trials=self.trials)

    def note(self, rows):
        return (f"messages needed for success >= 3/4: "
                f"{minimum_messages_for_success(self.n, 0.75)} (= n - 1).")

    def shape(self, rows):
        for row in rows:
            assert abs(row["measured_success"] - row["exact_success"]) <= 0.05
        by_budget = {row["messages"]: row["measured_success"] for row in rows}
        # Below the floor, failure probability stays over 1/4 ...
        assert by_budget[self.n - 2] <= 0.6
        assert by_budget[self.n // 2] <= 0.01
        # ... and only n-1 coordinated messages reach the 3/4 target.
        assert by_budget[self.n - 1] == 1.0
        assert minimum_messages_for_success(self.n, 0.75) == self.n - 1


class F7a(Figure):
    """Per-message bit complexity.

    Paper claim: every message of both algorithms is ``O(log N)`` bits.
    Shape: max message size grows linearly in ``log N`` at fixed ``n``.
    """

    n = 32
    title = f"F7a -- max message bits vs log2 N (n={n})"
    columns = ("log2_N", "max_message_bits")
    points = (1 << 12, 1 << 18, 1 << 24)

    def runs(self, namespace):
        return {"run": crash(self.n, 4, namespace=namespace)}

    def row(self, namespace, run):
        return {**run, "log2_N": int(math.log2(namespace))}

    def shape(self, rows):
        # Linear in log N: the size/log2(N) ratio is flat within a factor 2.
        ratios = [row["max_message_bits"] / row["log2_N"] for row in rows]
        assert max(ratios) <= 2 * min(ratios)
        # And nowhere near Omega(n) bits (the big-message families).
        assert all(row["max_message_bits"] < self.n * 4 for row in rows)


class F7b(Figure):
    """Total bit complexity.

    Paper claim: total bits are subquadratic for the crash algorithm
    whenever ``f = o(n / (log n log N))`` and almost linear for the
    Byzantine algorithm -- against the gossip family's
    ``Theta(n^3 log N)`` wall.  Shape: total-bit ratios versus the
    baselines widen with ``n``.
    """

    title = "F7b -- total bits, ours vs gossip family"
    points = (32, 64, 128)

    def runs(self, n):
        return {"ours": crash(n, n // 16),
                "gossip": RunRequest.make("gossip", n, n // 16, 1)}

    def row(self, n, ours, gossip):
        return {"n": n, "ours_bits": ours["bits"],
                "gossip_bits": gossip["bits"],
                "ratio": gossip["bits"] / ours["bits"]}

    def shape(self, rows):
        assert slope(rows, "gossip_bits") - slope(rows, "ours_bits") > 1.0
        assert rows[-1]["ratio"] > rows[0]["ratio"]


class F8(Figure):
    """Ablation: committee re-election under sustained attack.

    Design claim (Lemmas 2.4-2.7): every time the adversary wipes out the
    whole committee, survivors double their election probability (p += 1),
    so the adversary must crash geometrically more nodes to keep stalling
    -- that is what makes the message bound scale with f.  Shapes: p stays
    0 without failures; grows under the committee hunter; the p-spread
    stays <= 1 (Lemma 2.5); and the number of ever-elected nodes tracks
    ``min(2^p log n, n)`` (Lemma 2.6) within constants.
    """

    n = 128
    title = f"F8 -- committee re-election ablation (n={n})"
    columns = ("budget", "crashed", "max_p", "p_spread", "ever_elected",
               "messages")
    points = (0, 16, 48, 96, 120)

    def runs(self, budget):
        return {"run": crash(self.n, budget, 5)}

    def row(self, budget, run):
        return {**run, "budget": budget, "crashed": run["f_actual"]}

    def shape(self, rows):
        assert all(row["unique"] for row in rows)
        # No failures -> p never moves.
        assert rows[0]["max_p"] == 0
        # Heavy pressure -> re-elections happened.
        assert rows[-1]["max_p"] >= 1
        # Lemma 2.5: the p spread among survivors is at most 1, always.
        assert all(row["p_spread"] <= 1 for row in rows)
        # Lemma 2.6 shape: ever-elected count within constants of
        # min(2^p log n, n).
        for row in rows:
            envelope = min(
                (2 ** row["max_p"])
                * experiments.EXPERIMENT_ELECTION_CONSTANT
                * math.log2(self.n) * 4,
                self.n,
            )
            assert row["ever_elected"] <= envelope + 8
        # Lemma 2.7's converse shape: escalation is *caused* by crashes --
        # p and the election count rise monotonically with the adversary's
        # spend.  (Raw message totals are non-monotone because crashed
        # nodes stop sending; the election count is the resource the
        # adversary is forced to burn against.)
        max_ps = [row["max_p"] for row in rows]
        elected = [row["ever_elected"] for row in rows]
        assert max_ps == sorted(max_ps)
        assert elected == sorted(elected)
        assert elected[-1] > 4 * elected[0]


class F9a(Figure):
    """Ablation: divide-and-conquer segment count (Lemma 3.10).

    Design claim: the fingerprinted recursion splits a segment only when a
    discrepancy forces it, and each withheld identity can force at most one
    root-to-singleton path of ``~log2 N`` splits, so the while loop runs
    ``O(f log N)`` iterations.  Shapes: splits per withholder ~ ``log2 N``;
    splits grow with ``N`` at fixed ``f`` (F9b); honest runs never split.
    """

    n = 16
    namespace = experiments.default_namespace(n)
    # "F9", not "F9a": the heading this table had before F9b was printed,
    # so the committed report stays byte for byte what it was.
    title = f"F9 -- segment splits vs f (n={n}, N={namespace})"
    columns = ("f", "splits", "f_log2N_budget")
    points = (0, 1, 2, 3)

    def runs(self, f):
        return {"run": withheld(self.n, f, 7)}

    def row(self, f, run):
        return {**run, "f": f, "splits": run["segments_split"],
                "f_log2N_budget": round(f * math.log2(self.namespace), 1)}

    def shape(self, rows):
        assert all(row["unique"] and row["strong"] for row in rows)
        assert rows[0]["splits"] == 0
        for row in rows[1:]:
            # Lemma 3.10 budget: at most 4 f log N iterations; and at least
            # a root-to-singleton path when a withholder split the views.
            assert row["splits"] <= 4 * row["f_log2N_budget"]
        assert rows[1]["splits"] >= math.log2(self.namespace) - 2


class F9b(Figure):
    """F9a's recursion in N: one withholder, growing namespace."""

    n = 16
    title = f"F9b -- segment splits vs log2 N (n={n}, f=1)"
    columns = ("n", "namespace_log2", "splits")
    points = (1 << 10, 1 << 14, 1 << 18)

    def runs(self, namespace):
        return {"run": withheld(self.n, 1, 7, namespace=namespace)}

    def row(self, namespace, run):
        return {**run, "namespace_log2": int(math.log2(namespace)),
                "splits": run["segments_split"]}

    def shape(self, rows):
        assert all(row["unique"] and row["strong"] for row in rows)
        splits = [row["splits"] for row in rows]
        assert splits == sorted(splits)
        assert splits[-1] > splits[0]


class F10(Figure):
    """Ablation: what fingerprinting buys (Section 3.1's core trick).

    Design claim: committee members "cannot directly exchange these bit
    vectors, as that would again cost too much communication", so they
    exchange ``O(log N)``-bit fingerprints instead.  The ablation runs the
    *identical* divide-and-conquer with raw segment contents in place of
    digests.  Shape: identical control flow (same splits, same rounds,
    same names), but the biggest message grows from ``O(log N)`` bits to
    ``Theta(n log N)`` bits -- the per-message blow-up the paper's Table 1
    charges the big-message families for.
    """

    n = 64
    title = f"F10 -- fingerprint ablation (n={n}, f=1)"
    columns = ("fingerprints", "rounds", "splits", "bits", "max_message_bits")
    points = (True, False)

    def row(self, use_fingerprints):
        # `use_fingerprints` is a config field no driver takes, so the
        # pair runs here, on the seeds (21..24) of the committed table
        # and its withholder salt 0 (the family would salt by seed).
        uids, namespace = experiments.population(self.n, 21)
        corrupt = byzantine_strategies.corrupt_set(uids, 1, Random(22))
        config = replace(
            experiments.byzantine_config_for(
                self.n, 2, consensus_iterations=8),
            use_fingerprints=use_fingerprints,
        )
        result = run_byzantine_renaming(
            uids,
            namespace=namespace,
            byzantine={uid: byzantine_strategies.make_withholder(0.5)
                       for uid in corrupt},
            config=config,
            shared_seed=23,
            seed=24,
        )
        return {
            "fingerprints": use_fingerprints,
            "rounds": result.rounds,
            "splits": max(
                (p.segments_split for p in result.processes
                 if getattr(p, "was_committee", False) and not p.byzantine),
                default=0,
            ),
            "bits": result.metrics.correct_bits,
            "max_message_bits": result.metrics.max_message_bits,
            "unique": experiments.check_renaming(result, self.n)["unique"],
        }

    def shape(self, rows):
        with_fp, without_fp = rows
        assert with_fp["unique"] and without_fp["unique"]
        # Identical control flow: the recursion is driven by value
        # (in)equality, which both representations decide identically.
        assert with_fp["rounds"] == without_fp["rounds"]
        assert with_fp["splits"] == without_fp["splits"]
        # The trick's payoff: without fingerprints the worst message grows
        # ~n/6 times larger (raw n-identity segment vs a 6 log N digest).
        assert (without_fp["max_message_bits"]
                > 3 * with_fp["max_message_bits"])


class F11(Figure):
    """The three prior-work baseline families, side by side.

    Table 1 groups prior work into families by their cost signature.  This
    figure measures all three implemented families at one scale and
    asserts the signatures that distinguish them:

    * all-to-all halving [34]/[15]-style: few rounds, quadratic messages,
      small messages;
    * balls-into-slots [3]-style: few (randomized) rounds, quadratic
      messages, small messages;
    * full-information gossip [20]/[33]-style: Theta(n) rounds, big
      messages, cubic bits.

    None of them adapts its message count to the actual failure count --
    the gap the paper's algorithms close.
    """

    n, f = 96, 8
    title = f"F11 -- baseline families (n={n}, f={f})"
    columns = ("algorithm", "rounds", "messages", "bits", "max_message_bits")
    points = ("obg", "balls", "gossip", "crash")

    def runs(self, family):
        return {"run": RunRequest.make(family, self.n, self.f, 2)}

    def shape(self, rows):
        n, f = self.n, self.f
        obg, balls, gossip, ours = rows
        assert all(row["unique"] and row["strong"] for row in rows)

        # Round signatures.
        assert obg["rounds"] == math.ceil(math.log2(n))
        assert balls["rounds"] <= 4 * math.ceil(math.log2(n))
        assert gossip["rounds"] >= n - f - 1

        # Message-size signatures: only the gossip family ships
        # Theta(n)-bit messages.
        assert gossip["max_message_bits"] > 10 * obg["max_message_bits"]
        assert balls["max_message_bits"] < 64

        # Message-count signatures: every baseline is all-to-all (>= ~n^2 /
        # survivor-adjusted), while ours is committee-bound.
        survivors = n - f
        for row in (obg, balls, gossip):
            assert row["messages"] >= survivors * survivors
        assert ours["messages"] < obg["messages"]

        # Bit wall: gossip dwarfs everyone.
        assert gossip["bits"] > 20 * max(
            obg["bits"], balls["bits"], ours["bits"])


class F12(Figure):
    """Ablation: the early-stopping extension.

    An optional feature beyond the paper (see CrashRenamingConfig): the
    committee broadcasts DONE once every reporter holds a singleton, so
    nodes skip the remaining idle phases.  Shapes: ~2-3x fewer rounds and
    messages in failure-free runs, identical names, and unchanged
    correctness under the committee hunter.
    """

    title = "F12 -- early-stopping ablation (f=0)"
    columns = ("n", "rounds_base", "rounds_early", "messages_base",
               "messages_early", "same_names")
    points = (32, 64, 128)

    def row(self, n):
        # The names themselves are compared, and no driver row has them.
        def run(early_stopping, f=0):
            return experiments.execute(
                experiments.FAMILIES["crash"], n, f, 4, adversary="hunter",
                params={"early_stopping": early_stopping})

        base, fast, hunted = run(False), run(True), run(True, f=n // 3)
        return {
            "n": n,
            "rounds_base": base.rounds,
            "rounds_early": fast.rounds,
            "messages_base": base.metrics.correct_messages,
            "messages_early": fast.metrics.correct_messages,
            "same_names": base.outputs_by_uid() == fast.outputs_by_uid(),
            "ok": strong(base, n) and strong(fast, n),
            "ok_hunted": strong(hunted, n),
        }

    def shape(self, rows):
        for row in rows:
            assert row["ok"] and row["same_names"]
            assert row["rounds_early"] < row["rounds_base"]
            assert row["messages_early"] < row["messages_base"]
        # The saving compounds: roughly the 3x phase multiplier's worth.
        assert rows[-1]["rounds_base"] >= 2 * rows[-1]["rounds_early"]
        # And early stopping is safe under the committee hunter.
        assert all(row["ok_hunted"] for row in rows)


class F13(Figure):
    """The time-for-namespace trade (Definition 1.1's general M).

    Definition 1.1 allows any target namespace ``n <= M < N``; *strong*
    renaming (``M = n``) is the hardest case and the paper's focus.  The
    balls-into-slots family exposes the classical trade directly: with
    ``M = (1 + eps) n`` slots the per-probe collision probability stays
    below a constant, so the race finishes in a constant-ish number of
    rounds instead of ``O(log n)``.  Shape: rounds fall monotonically as
    the slack grows, names stay distinct and within ``[1, M]``.
    """

    n, seeds = 128, range(5)
    title = f"F13 -- rounds vs namespace slack (n={n}, {len(seeds)} seeds)"
    columns = ("M_over_n", "slots", "rounds_mean", "rounds_max",
               "messages_mean")
    points = (1.0, 1.25, 1.5, 2.0, 4.0)

    def row(self, slack):
        # Identities 1..n with no namespace around them: the race is over
        # the M slots alone, which is not a driver's population.
        slots = int(self.n * slack)
        results = [
            run_balls_into_slots(range(1, self.n + 1), slots=slots, seed=seed)
            for seed in self.seeds
        ]
        rounds = summarize([result.rounds for result in results])
        messages = summarize(
            [result.metrics.correct_messages for result in results])
        return {
            "M_over_n": slack,
            "slots": slots,
            "rounds_mean": rounds.mean,
            "rounds_max": rounds.maximum,
            "messages_mean": messages.mean,
            "ok": all(strong(result, slots) for result in results),
        }

    def shape(self, rows):
        assert all(row["ok"] for row in rows)
        means = [row["rounds_mean"] for row in rows]
        # Monotone improvement with slack, and a real gap end to end.
        assert all(b <= a for a, b in zip(means, means[1:]))
        assert means[-1] <= means[0] / 1.5
        # Fewer rounds also means fewer all-to-all broadcasts.
        assert rows[-1]["messages_mean"] < rows[0]["messages_mean"]


class F16(Figure):
    """Renaming as a service: one seeded load at 2, 4 and 8 shards.

    Not a paper figure.  ``repro.serve`` batches rename / release
    traffic into epochs of a long-lived directory -- each epoch one
    crash renaming among the batch's joiners -- and shards the
    namespace over independent directories.  Shape: every shard count
    answers the same trace with no failed epoch and a globally unique
    assignment, and more shards make more, smaller epochs that charge
    fewer protocol messages in total.
    """

    #: Client identities and the length of the trace they play.
    clients, trace = 256, 120_000
    title = f"F16 -- serve: {trace:,} requests vs shards"
    columns = ("shards", "batches", "epochs", "failed_epochs", "renamed",
               "members", "rounds", "messages", "bits", "unique")
    points = (2, 4, 8)

    def runs(self, shards):
        return {"run": RunRequest.make("serve", self.clients, 0, 0,
                                       requests=self.trace,
                                       shards=shards)}

    def note(self, rows):
        first, last = rows[0], rows[-1]
        return (f"{first['shards']} -> {last['shards']} shards: "
                f"{last['epochs'] / first['epochs']:.1f}x the epochs, "
                f"{first['messages'] / last['messages']:.1f}x fewer "
                "protocol messages.")

    def shape(self, rows):
        for row in rows:
            assert row["requests"] == self.trace
            assert row["unique"] and row["failed_epochs"] == 0
            assert failed(row) == row["unresolved"] == 0
        epochs = [row["epochs"] for row in rows]
        messages = [row["messages"] for row in rows]
        assert all(a < b for a, b in zip(epochs, epochs[1:]))
        assert all(a > b for a, b in zip(messages, messages[1:]))


class F17(Figure):
    """Resilient serving: the chaos ladder, resilient vs baseline.

    Not a paper figure.  Each rung of
    :func:`repro.serve.chaos.default_chaos_ladder` injects a seeded link
    fault into shard 0 of a 4-shard service -- most rungs for protocol
    attempts 1-8 only -- and one trace is played twice: with retries
    and a circuit breaker (resilient) and without (baseline).  Shape:
    behind the resilient arm a transient outage is invisible (every
    request answered, the breaker cycles and is closed again) where the
    baseline loses requests; no rung costs either arm a duplicate name
    or an unanswered request; resilience never names fewer.
    """

    clients, seed = 96, 7
    load = dict(requests=16_000, shards=4, max_batch=32, max_wait=0.002,
                arrival_rate=20_000.0, rename_weight=10.0,
                lookup_weight=80.0, release_weight=10.0, namespace=1 << 16)
    title = (f"F17 -- serve chaos ladder, resilient vs baseline "
             f"({load['requests']:,} requests)")
    digits = 3
    points = tuple(default_chaos_ladder())

    def runs(self, rung):
        # The serve driver's ``f`` is the number of faulted shards.
        faulted = 1 if rung.spec else 0
        resilient = {"resilience": DEFAULT_CHAOS_RESILIENCE.to_json()}
        return {
            arm: RunRequest.make("serve", self.clients, faulted, self.seed,
                                 **self.load, **rung.params(), **policy)
            for arm, policy in (("resilient", resilient), ("baseline", {}))
        }

    def row(self, rung, resilient, baseline):
        return {
            "rung": rung.label,
            "resilient": classify_serve_run(resilient)[0],
            "goodput": round(goodput(resilient), 3),
            "failed": failed(resilient),
            "retries": resilient["retries"],
            "breaker_opens": resilient["breaker_opens"],
            "breakers_open": resilient["breakers_open"],
            "baseline": classify_serve_run(baseline)[0],
            "baseline_goodput": round(goodput(baseline), 3),
            "baseline_failed": failed(baseline),
        }

    def shape(self, rows):
        by_rung = {row["rung"]: row for row in rows}
        safe = (SAFE_TERMINATED, SAFE_STALLED)
        control = by_rung["none"]
        assert control["resilient"] == control["baseline"] == SAFE_TERMINATED
        windowed = [rung.label for rung in self.points if rung.window]
        for row in rows:
            assert row["resilient"] in safe and row["baseline"] in safe, row
            assert row["goodput"] >= row["baseline_goodput"], row
        for label in windowed:
            row = by_rung[label]
            assert row["resilient"] == SAFE_TERMINATED, row
            assert row["goodput"] == 1.0, row
            assert row["breakers_open"] == 0, row
        assert by_rung["omission-100%-window"]["breaker_opens"] >= 1
        assert any(by_rung[label]["baseline"] == SAFE_STALLED
                   for label in windowed)


#: Every figure, in EXPERIMENTS.md's order, by id.
FIGURES: dict[str, Figure] = {
    figure.id: figure
    for figure in (T1(), F1(), F2(), F3(), F4(), F5(), F6(), F7a(), F7b(),
                   F8(), F9a(), F9b(), F10(), F11(), F12(), F13(), F16(),
                   F17())
}


def measure(figures: Iterable[Figure], *, jobs: int = 1,
            store: Optional[RunStore] = None,
            scale: str = "default") -> dict[str, Table]:
    """The table of each of ``figures`` at ``scale``, by id (at the
    large scale, of those that have one).

    Their requests go to the engine in one call, so a run two figures
    share executes once and a ``store`` resumes an interrupted pass.
    """
    large = scale == "large"
    figures = [figure for figure in figures if not large or figure.large]
    results = run_requests(
        [request for figure in figures for request in (
            figure.large_requests() if large else figure.requests())],
        jobs=jobs, store=store,
    )
    experiments.rows_or_raise(results)
    row_of = {result.request: result.row for result in results}
    return {figure.id: (figure.large_table(row_of) if large
                        else figure.table(row_of))
            for figure in figures}
