#!/usr/bin/env python3
"""Repository benchmark: build and run entry point. Run from the root of a source checkout.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      Build bench.exe from source (dune, into .bench_build/) and make one
      run. The last line of standard output is the JSON result.
  python3 perfbench/run.py selftest
      Check that the timing wrappers and the trace sink are non-invasive.
  python3 perfbench/run.py sweep --out FILE [--workloads a,b] [--seeds 1-10]
                                 [--seconds S] [--trace 0|1]
      Run every workload on every seed and append one JSON line per run.
  python3 perfbench/run.py spread FILE
      Per workload and metric: median, quartiles and quartile spread as a
      share of the median, against the bound in BENCHMARK.json.
  python3 perfbench/run.py compare PARENT CHANGE
      Per workload and metric: both sides' medians and quartiles and a
      verdict (improved / unchanged / worse / unresolved).

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 840
HERE = os.path.dirname(os.path.abspath(__file__))


def die(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Build bench.exe from the checkout's sources; exits on failure."""
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            die(2, "not a source checkout (missing %s); run from the repository root" % needed)
    if shutil.which("dune") is None:
        die(2, "dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD_DIR, "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(3, "build timed out")
    if r.returncode != 0:
        die(3, "build failed")


def run_timeout(seconds):
    """A run measures for `seconds`, then finishes its last repetition
    (and, traced, one more checker run): well under 100 s more."""
    return seconds + 100


def run_exe(args, timeout, capture=False):
    """Run bench.exe in its own process group, so that a timeout also
    stops the CPU occupier it forks."""
    proc = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE if capture else None,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die(4, "run timed out after %d s" % timeout)
    return subprocess.CompletedProcess(proc.args, proc.returncode, out)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def sweep(ns):
    spec = load_spec()
    names = ns.workloads.split(",") if ns.workloads else [w["name"] for w in spec["workloads"]]
    seconds = ns.seconds if ns.seconds else spec["run_seconds"]
    build()
    with open(ns.out, "a") as out:
        for seed in parse_seeds(ns.seeds):
            for name in names:
                r = run_exe(["run", "--workload", name, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(ns.trace)],
                            run_timeout(seconds), capture=True)
                lines = r.stdout.strip().splitlines()
                if r.returncode != 0 or not lines:
                    sys.stdout.write(r.stdout)
                    die(1, "run %s seed %d failed" % (name, seed))
                result = json.loads(lines[-1])
                row = {"workload": name, "seed": seed, "trace": ns.trace, "result": result}
                out.write(json.dumps(row) + "\n")
                out.flush()
                print("%-10s seed %3d  %s" % (name, seed, " ".join(
                    "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items()
                    if v["value"] is not None)))


def read_runs(path):
    """{(workload, metric): {seed: value}} plus the failure tally."""
    runs, failed, attempted = {}, 0, 0
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            row = json.loads(line)
            res = row["result"]
            failed += res["failed"]
            attempted += res["attempted"]
            for metric, mv in res["metrics"].items():
                runs.setdefault((row["workload"], metric), {})[row["seed"]] = mv["value"]
    return runs, failed, attempted


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def rel(x, base):
    return abs(x) / abs(base) if base else (0.0 if x == 0 else float("inf"))


def spread(ns):
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs, failed, attempted = read_runs(ns.file)
    print("%-10s %-22s %4s %14s %14s %14s %8s %6s  %s" % (
        "workload", "metric", "n", "q1", "median", "q3", "iqr/med", "bound", "verdict"))
    worst = "ok"
    for (wl, metric), by_seed in sorted(runs.items()):
        values = list(by_seed.values())
        q1, med, q3 = quartiles(values)
        s = rel(q3 - q1, med)
        bound = bounds.get(metric)
        verdict = ""
        if bound is not None:
            if s > bound:
                verdict, worst = "OVER BOUND", "over"
            elif s > bound / 3:
                verdict = "over bound/3"
                worst = worst if worst == "over" else "third"
            else:
                verdict = "ok"
        print("%-10s %-22s %4d %14.6g %14.6g %14.6g %8.4f %6s  %s" % (
            wl, metric, len(values), q1, med, q3, s,
            "-" if bound is None else "%.3g" % bound, verdict))
    print("failed %d of %d attempted" % (failed, attempted))
    return 0 if worst != "over" and failed == 0 else 1


def verdict(parent, change, better, bound):
    """Rules of the choosing-metrics guide, section 8, on runs paired by seed."""
    seeds = sorted(set(parent) & set(change))
    p = [parent[s] for s in seeds]
    c = [change[s] for s in seeds]
    if not seeds:
        return "no common seeds"
    sign = 1 if better == "higher" else -1
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
    p1, pm, p3 = quartiles(p)
    c1, cm, c3 = quartiles(c)
    gain = sign * (cm - pm)
    if wins >= 0.9 * len(seeds) and gain > (p3 - p1):
        return "improved"
    if bound is not None and -gain > bound * abs(pm):
        return "worse"
    wider = bound is not None and max(rel(p3 - p1, pm), rel(c3 - c1, cm)) > bound
    if wider and not all(sign * (b - a) > 0 for a in p for b in c):
        return "unresolved"
    losses = sum(1 for a, b in zip(p, c) if sign * (b - a) < 0)
    if bound is None and losses >= 0.9 * len(seeds) and -gain > (p3 - p1):
        return "worse"
    return "unchanged"


def compare(ns):
    spec = load_spec()
    info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, pf, pa = read_runs(ns.parent)
    change, cf, ca = read_runs(ns.change)
    print("%-10s %-32s %4s %12s %12s %12s   %12s %12s %12s  %s" % (
        "workload", "metric", "n", "parent q1", "median", "q3", "change q1", "median", "q3",
        "verdict"))
    for key in sorted(set(parent) & set(change)):
        wl, metric = key
        m = info.get(metric, {})
        v = verdict(parent[key], change[key], m.get("better", "higher"), m.get("bound"))
        pq = quartiles(list(parent[key].values()))
        cq = quartiles(list(change[key].values()))
        print("%-10s %-32s %4d %12.6g %12.6g %12.6g   %12.6g %12.6g %12.6g  %s" % (
            wl, metric, len(set(parent[key]) & set(change[key])), *pq, *cq, v))
    print("parent: failed %d of %d attempted; change: failed %d of %d attempted"
          % (pf, pa, cf, ca))
    if cf > pf:
        print("change fails more operations than the parent: no gain counts")
    return 0


def main():
    argv = sys.argv[1:]
    if argv and argv[0] in ("selftest", "sweep", "spread", "compare"):
        mode, argv = argv[0], argv[1:]
    else:
        mode = "run"
    ap = argparse.ArgumentParser(prog="perfbench/run.py " + mode)
    if mode == "run":
        ap.add_argument("--workload", required=True)
        ap.add_argument("--seed", type=int, required=True)
        ap.add_argument("--seconds", type=int, required=True)
        ap.add_argument("--trace", choices=["0", "1"], required=True)
        ns = ap.parse_args(argv)
        build()
        sys.stdout.flush()
        r = run_exe(["run", "--workload", ns.workload, "--seed", str(ns.seed),
                     "--seconds", str(ns.seconds), "--trace", ns.trace],
                    run_timeout(ns.seconds))
        return r.returncode
    if mode == "selftest":
        ap.parse_args(argv)
        build()
        return run_exe(["selftest"], run_timeout(60)).returncode
    if mode == "sweep":
        ap.add_argument("--out", required=True)
        ap.add_argument("--workloads")
        ap.add_argument("--seeds", default="1-10")
        ap.add_argument("--seconds", type=int)
        ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
        sweep(ap.parse_args(argv))
        return 0
    if mode == "spread":
        ap.add_argument("file")
        return spread(ap.parse_args(argv))
    ap.add_argument("parent")
    ap.add_argument("change")
    return compare(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
