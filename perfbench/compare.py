#!/usr/bin/env python3
"""Compares two sets of benchmark runs.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory is the --out of run.py (its runs/ records are read). Runs
are paired by workload and seed; each pair should have been run in
alternating order (see README.md). For every workload x end-to-end metric,
and every timing the runs printed without a bound, it prints one row and a
verdict:

  gain        the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range
  REGRESSION  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  either side's spread (IQR / median) exceeds the bound, and
              not every change run beats every parent run
  unchanged   none of the above
  no claim    a timing without a bound that shows no gain: it can neither
              pass nor fail a change

The comparison FAILS (exit 1) on any regression, on fewer than 10 pairs, on
pairs that did not alternate, on a failed run, on a different answer or
parameter digest, or on a different median share of failed operations.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10


def load_runs(directory):
    runs = {}
    for path in sorted(Path(directory, "runs").glob("*.json")):
        with open(path) as f:
            record = json.load(f)
        if not record["trace"]:
            runs[(record["workload"], record["seed"])] = record
    return runs


def value(record, name):
    """A metric of a run: an end-to-end one or a timing without a bound."""
    metrics = record["result"]["metrics"]
    return (metrics[name] if name in metrics
            else record["unbounded"][name])["value"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(sorted(values), n=4))


def verdict(parent, change, better, bound):
    """Applies the rule to paired values; returns (verdict, wins). Without a
    bound only a gain can be shown."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)

    def spread(q1, med, q3):
        return (q3 - q1) / abs(med) if med else 0.0

    gain = (wins >= 0.9 * len(parent) and sign * (cm - pm) > 0
            and abs(cm - pm) > p3 - p1)
    if bound is None:
        return ("gain" if gain else "no claim"), wins
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if max(spread(p1, pm, p3), spread(c1, cm, c3)) > bound and not all_better:
        return "unresolved", wins
    if sign * (pm - cm) > bound * abs(pm):
        return "REGRESSION", wins
    return ("gain" if gain else "unchanged"), wins


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    parent, change = load_runs(argv[1]), load_runs(argv[2])
    failures = []
    counts = {}
    print(f"{'workload':16s} {'metric':20s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'wins':>6s}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        seeds = sorted(s for (w, s) in parent if w == workload
                       and (w, s) in change)
        if len(seeds) < MIN_PAIRS:
            failures.append(f"{workload}: {len(seeds)} pairs, need "
                            f"{MIN_PAIRS}")
            continue
        pairs = [(parent[(workload, s)], change[(workload, s)])
                 for s in seeds]
        parent_first = sum(1 for p, c in pairs
                           if p["started_at"] < c["started_at"])
        if min(parent_first, len(pairs) - parent_first) < 0.4 * len(pairs):
            failures.append(f"{workload}: pairs did not alternate "
                            f"({parent_first} of {len(pairs)} parent first)")
        for p, c in pairs:
            for side, r in (("parent", p), ("change", c)):
                if r["exit_code"] != 0 or not r["result"] \
                        or not r["result"]["correct"]:
                    failures.append(f"{workload} seed {r['seed']}: {side} "
                                    "run failed or was incorrect")
        if any(not r["result"] for pair in pairs for r in pair):
            continue
        for key in ("answers", "params"):
            if {p["digests"].get(key) for p, _ in pairs} != \
                    {c["digests"].get(key) for _, c in pairs}:
                failures.append(f"{workload}: {key} digest changed")
        # The median run's share, so one run that a host stall pushed into
        # shedding does not decide it.
        share = [statistics.median(r["result"]["failed"] /
                                   r["result"]["attempted"] for r in side)
                 for side in zip(*pairs)]
        if share[0] != share[1]:
            failures.append(f"{workload}: median failed share "
                            f"{share[0]:.6f} -> {share[1]:.6f}")
        # The end-to-end metrics, then the timings printed without a bound.
        rows = [(m["name"], m["better"], m["bound"])
                for m in spec["end_to_end"]]
        rows += [(name, v["better"], None)
                 for name, v in sorted(pairs[0][0]["unbounded"].items())
                 if all(name in r["unbounded"] for pair in pairs
                        for r in pair)]
        for name, better, bound in rows:
            pv = [value(p, name) for p, _ in pairs]
            cv = [value(c, name) for _, c in pairs]
            v, wins = verdict(pv, cv, better, bound)
            counts[v] = counts.get(v, 0) + 1
            if v == "REGRESSION":
                failures.append(f"{workload}: {name} regressed")
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            print(f"{workload:16s} {name:20s} "
                  f"{pm:12.5g} [{p1:.5g}, {p3:.5g}]".ljust(70) +
                  f"{cm:12.5g} [{c1:.5g}, {c3:.5g}]".rjust(32) +
                  f" {wins:2d}/{len(pairs):<3d}  {v}")
    print("verdicts: " +
          ", ".join(f"{k} {n}" for k, n in sorted(counts.items())))
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
