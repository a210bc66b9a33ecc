"""``compare A.json B.json``: is B no worse than A, workload by workload."""

from __future__ import annotations

from repro.analysis.tables import plain_table

#: The metrics whose run-to-run spread ``bench.wall_spread`` measures.
REP_TIMINGS = ("wall_s", "rename_p50_ms", "rename_p95_ms")


def compare(before: dict, after: dict, spec: dict) -> int:
    """Print one row per workload and end-to-end metric; 1 if any regressed.

    A metric has regressed when it is worse than before by more than
    its bound, or when ``failed_share`` rose.  Where the timed reps of
    either report spread wider than the bound (``bench.wall_spread``)
    the verdict on a timing is ``unresolved``: the two numbers cannot
    be told apart.
    """
    rows, regressed = [], False
    for name, old in before["workloads"].items():
        new = after["workloads"].get(name)
        if new is None:
            continue
        spread = max(
            report["per_layer"].get("bench.wall_spread", [0.0])[0]
            for report in (old, new))
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            if key not in old["end_to_end"] or key not in new["end_to_end"]:
                continue
            was, now = old["end_to_end"][key][0], new["end_to_end"][key][0]
            change = (now - was) / was
            worse = change if metric["better"] == "lower" else -change
            verdict = ("unresolved" if key in REP_TIMINGS and spread > bound
                       else "regressed" if worse > bound else "ok")
            regressed |= verdict == "regressed"
            rows.append({
                "workload": name, "metric": key, "unit": metric["unit"],
                "before": was, "after": now, "change_%": 100 * change,
                "bound_%": 100 * bound, "verdict": verdict,
            })
        rose = new["failed_share"] > old["failed_share"]
        regressed |= rose
        rows.append({
            "workload": name, "metric": "failed_share", "unit": "ratio",
            "before": old["failed_share"], "after": new["failed_share"],
            "change_%": "", "bound_%": 0.0, "verdict": "regressed" if rose else "ok",
        })
        if old["counts_digest"] != new["counts_digest"]:
            print(f"note: {name}: counts_digest changed "
                  f"{old['counts_digest'][:12]} -> {new['counts_digest'][:12]}"
                  " (different counted results: not the same program)")
    print(plain_table(rows, float_digits=3))
    return 1 if regressed else 0
