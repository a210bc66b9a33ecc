"""The timed and the traced pass of each workload (run in the child)."""

from __future__ import annotations

import hashlib
import json
import time

from benchmarks.e2e import paced
from benchmarks.e2e.batch import BATCH_WORKLOADS, Rep, end_to_end
from benchmarks.e2e.paced import ServePaced
from benchmarks.e2e.spec import QUICK, Sizes, middle, spread
from benchmarks.e2e.speed import SpeedMeter
from benchmarks.e2e.trace import Recorder


def build(name: str, seed: int, sizes: Sizes, seconds: float, trace: int,
          meter: SpeedMeter):
    """Set-up: the inputs from the seed, then one quick-size warm-up pass
    so that imports, caches and the store schema are paid before timing."""
    if name == "serve_paced":
        # A traced pass plays its trace twice, so it gets half of it.
        workload = ServePaced(seed, sizes,
                              seconds / 2 if trace else seconds, meter)
        ServePaced(seed, QUICK, 0.5, meter).play(paced=False)
    else:
        workload = BATCH_WORKLOADS[name](seed, sizes, meter)
        BATCH_WORKLOADS[name](seed, QUICK, meter).rep()
    return workload


def digest(counted: object) -> str:
    return hashlib.sha256(
        json.dumps(counted, sort_keys=True).encode()).hexdigest()


def _failures(reps: list[Rep]) -> tuple[int, int, list[str]]:
    """Attempted, failed, errors: checks plus agreement of the reps."""
    disagree = sum(rep.counted != reps[0].counted for rep in reps[1:])
    errors = [rep.error for rep in reps if rep.error]
    if disagree:
        errors.append(f"{disagree} reps disagree with the first in "
                      "(rounds, messages, bits, outputs)")
    return (sum(rep.attempted for rep in reps),
            sum(rep.failed for rep in reps) + disagree, errors)


def _wall(rep: Rep) -> float:
    return rep.wall


def _bench(reps: list[Rep]) -> dict[str, tuple[float, int]]:
    """How steady the timed reps were, and on how fast a machine."""
    typical = middle(reps, key=_wall)
    return {
        "bench.wall_spread": (spread([rep.wall for rep in reps]), len(reps)),
        "bench.machine_speed": (typical.speed, len(reps)),
        "bench.raw_wall_s": (typical.wall / typical.speed, len(reps)),
    }


def measure_batch(workload, sizes: Sizes, seconds: float) -> dict:
    """Timed reps, tracing off, until ``seconds`` have passed."""
    reps: list[Rep] = []
    begin = time.perf_counter()
    while (len(reps) < sizes.min_reps
           or time.perf_counter() - begin < seconds):
        reps.append(workload.rep())
    attempted, failed, errors = _failures(reps)
    metrics = end_to_end(reps)
    metrics.update(_bench(reps))
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "errors": errors, "digest": digest(reps[0].counted)}


def trace_batch(workload, name: str, seconds: float,
                recorder: Recorder) -> dict:
    """Plain and traced reps in turn, so that drift of the machine hits
    both; the layers are those of the median traced rep."""
    plain: list[Rep] = []
    traced: list[tuple[Rep, dict]] = []
    with recorder.span(name) as root:
        while not plain or time.perf_counter() - root["start"] < seconds:
            plain.append(workload.rep())
            traced.append(workload.traced(recorder, root["id"]))
    reps = plain + [rep for rep, _ in traced]
    attempted, failed, errors = _failures(reps)
    usual = middle(plain, key=_wall)
    typical, layers = middle(traced, key=lambda pair: pair[0].wall)
    metrics = {key: (value, 1) for key, value in layers.items()}
    metrics["sim.msgs_per_s"] = (usual.messages / usual.wall, len(plain))
    metrics["bench.trace_overhead"] = (typical.wall / usual.wall,
                                       len(traced))
    metrics.update(_bench(plain))
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "errors": errors, "digest": digest(reps[0].counted)}


def measure_serve(workload: ServePaced) -> dict:
    played = workload.play()
    metrics = paced.end_to_end(played)
    metrics["bench.machine_speed"] = (played.speed, 1)
    return {"metrics": metrics,
            "attempted": len(played.requests) + played.lookups,
            "failed": played.failed, "errors": [],
            "invalid": paced.validity(played),
            "digest": digest(workload.counted(played))}


def trace_serve(workload: ServePaced, name: str, recorder: Recorder) -> dict:
    """The same trace twice: tracing off, then on."""
    plain = workload.play()
    with recorder.span(name) as root:
        # The epoch spans open on the shard threads: name their parent.
        recorder.root = root["id"]
        traced = workload.play(recorder=recorder)
    metrics = {key: (value, 1)
               for key, value in paced.layers(traced, recorder).items()}
    before = paced.end_to_end(plain)["rename_p50_ms"]
    after = paced.end_to_end(traced)["rename_p50_ms"]
    metrics["bench.trace_overhead"] = (after[0] / before[0], after[1])
    same = workload.counted(plain) == workload.counted(traced)
    return {"metrics": metrics,
            "attempted": 2 * (len(plain.requests) + plain.lookups),
            "failed": plain.failed + traced.failed + (not same),
            "errors": [] if same else
            ["traced epochs differ from the untraced ones"],
            "invalid": paced.validity(traced),
            "digest": digest(workload.counted(plain))}
