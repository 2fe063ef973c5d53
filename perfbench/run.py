#!/usr/bin/env python3
"""The repo benchmark: builds the driver from source and runs workloads.

One run, whose last stdout line is its JSON result:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, each in its own process (the one command):

    python3 perfbench/run.py [--workloads a,b] [--seeds 1,2,3] [--trace]
                             [--quick] [--out DIR]

The second form prints every metric by name with its unit, writes
<out>/results.json plus one record per run under <out>/runs/ (the input of
compare.py), and exits non-zero if a run fails a check: 0-ULP parity,
answer digests across a reload, conservation, a training parameter digest
that differs between runs, or a metric named in BENCHMARK.json missing.
"""

import argparse
import datetime
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DEFAULT_OUT = ROOT / ".bench_build" / "perfbench-out"
# A run must end within 180 s; the build before the first run is not
# counted here.
RUN_TIMEOUT_S = 175


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures and builds the driver; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    for cmd in (["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(BUILD_DIR), "--target",
                 "perfbench_driver", "-j", jobs]):
        # Build chatter goes to stderr: stdout carries only results.
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    return BUILD_DIR / "perfbench_driver"


def run_driver(driver, workload, seed, seconds, trace, quick, out,
               echo=True):
    """Runs one workload in its own process; returns (exit code, stdout)."""
    Path(out).mkdir(parents=True, exist_ok=True)
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", str(out)]
    if quick:
        cmd.append("--quick")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    lines = []
    try:
        for line in proc.stdout:
            lines.append(line)
            if echo:
                sys.stdout.write(line)
                sys.stdout.flush()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    return proc.returncode, "".join(lines)


def parse_output(text):
    """Returns (result, digests, unbounded, samples) from the driver's
    stdout."""
    lines = [l for l in text.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None  # the driver died before printing its result
    digests = {}
    unbounded = {}  # timings printed without a bound, by name
    samples = {}  # the samples behind each median, by name
    for line in lines:
        if line.startswith("digests "):
            digests = json.loads(line[len("digests "):])
        elif line.startswith("unbounded "):
            unbounded = json.loads(line[len("unbounded "):])
        elif line.startswith("samples "):
            name, *values = line.split()[1:]
            samples[name] = [float(v) for v in values]
    return result, digests, unbounded, samples


def one_run(args):
    driver = build()
    seconds = args.seconds or load_spec()["run_seconds"]
    code, _ = run_driver(driver, args.workload, args.seed, seconds,
                         args.trace_flag == "1", args.quick,
                         args.out or DEFAULT_OUT)
    return code


def quartiles(values):
    values = sorted(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def all_runs(args):
    spec = load_spec()
    driver = Path(args.driver) if args.driver else build()
    seconds = args.seconds or spec["run_seconds"]
    if args.quick:
        seconds = min(seconds, 1)
    out = Path(args.out or DEFAULT_OUT)
    (out / "runs").mkdir(parents=True, exist_ok=True)
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    seeds = [int(s) for s in args.seeds.split(",")]
    expected = {False: [m["name"] for m in spec["end_to_end"]],
                True: [m["name"] for m in spec["per_layer"]]}

    problems = []
    records = []
    for seed in seeds:
        for workload in workloads:
            for trace in ([False, True] if args.trace else [False]):
                started = datetime.datetime.now().isoformat()
                code, text = run_driver(driver, workload, seed, seconds,
                                        trace, args.quick, out, echo=False)
                result, digests, unbounded, samples = parse_output(text)
                record = {"workload": workload, "seed": seed,
                          "trace": trace, "started_at": started,
                          "exit_code": code, "result": result,
                          "digests": digests, "unbounded": unbounded,
                          "samples": samples}
                records.append(record)
                name = f"{workload}-seed{seed}-trace{int(trace)}.json"
                with open(out / "runs" / name, "w") as f:
                    json.dump(record, f, indent=1)
                label = f"{workload} seed {seed}{' trace' if trace else ''}"
                if code != 0 or result is None:
                    problems.append(f"{label}: exit code {code}")
                    continue
                if not result["correct"]:
                    problems.append(f"{label}: a correctness check failed")
                missing = [m for m in expected[trace]
                           if m not in result["metrics"]]
                if missing:
                    problems.append(f"{label}: missing {', '.join(missing)}")
                print(f"{label}: attempted {result['attempted']} "
                      f"failed {result['failed']} correct {result['correct']}")
                for m, v in result["metrics"].items():
                    print(f"  {m:40s} {v['value']:16.6f} {v['unit']}")
                for m, v in unbounded.items():
                    print(f"  {m:40s} {v['value']:16.6f} {v['unit']} "
                          "(unbounded)")
                sys.stdout.flush()

    # Answers and trained parameters are pure functions of the workload,
    # whatever the seed: any difference between runs is a failure.
    for workload in workloads:
        for key in ("answers", "params"):
            seen = {r["digests"].get(key) for r in records
                    if r["workload"] == workload and not r["trace"]
                    and r["digests"]}
            if len(seen) > 1:
                problems.append(f"{workload}: {key} digest differs between "
                                f"runs: {sorted(seen)}")

    summary = {}
    for workload in workloads:
        runs = [r for r in records if r["workload"] == workload
                and not r["trace"] and r["result"]]
        summary[workload] = {}
        unbounded = sorted({m for r in runs for m in r["unbounded"]})
        for m in expected[False] + unbounded:
            values = [r["result"]["metrics"][m]["value"] for r in runs
                      if m in r["result"]["metrics"]] + \
                     [r["unbounded"][m]["value"] for r in runs
                      if m in r["unbounded"]]
            if values:
                q1, q2, q3 = quartiles(values)
                summary[workload][m] = {"median": q2, "q1": q1, "q3": q3,
                                        "min": min(values),
                                        "max": max(values), "n": len(values)}
    if len(seeds) > 1:
        print("\nsummary over seeds (median [q1, q3], IQR/median, "
              "(max-min)/median):")
        for workload, metrics in summary.items():
            print(workload)
            for m, s in metrics.items():
                med = s["median"] or 1
                print(f"  {m:24s} {s['median']:14.6f} "
                      f"[{s['q1']:.6f}, {s['q3']:.6f}] "
                      f"{(s['q3'] - s['q1']) / med:.3f} "
                      f"{(s['max'] - s['min']) / med:.3f}")

    with open(out / "results.json", "w") as f:
        json.dump({"seconds": seconds, "quick": args.quick,
                   "summary": summary, "runs": records, "problems": problems},
                  f, indent=1)
    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    print(f"results: {out / 'results.json'}")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run this one workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", nargs="?", const="all", dest="trace_flag",
                        help="with --workload: 0 or 1; alone: also run the "
                             "traced pass of every workload")
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--seeds", default="1", help="comma-separated seeds")
    parser.add_argument("--quick", action="store_true",
                        help="small inputs, for the smoke test")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--driver", help="use this driver binary, no build")
    args = parser.parse_args()
    # Stop the driver, not just this script, on SIGTERM.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.workload:
            if args.trace_flag not in (None, "0", "1"):
                parser.error("--trace takes 0 or 1 with --workload")
            return one_run(args)
        args.trace = args.trace_flag not in (None, "0")
        return all_runs(args)
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
