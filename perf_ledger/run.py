#!/usr/bin/env python3
"""Build and run the paxsim performance ledger.

Run from the repository root:

    python3 perf_ledger/run.py --workload cg_coherence --seed 0 --seconds 30 --trace 0

The first call configures and builds perf_ledger/ (which compiles the
simulator from src/) into .bench_build/perf_ledger; every call runs
`cmake --build`, which does nothing when the binary is current.  All other
arguments go to the ledger binary unchanged; its last line of output is the
JSON result and its exit code is passed on.

Two maintenance modes:

    python3 perf_ledger/run.py --record-golden
        re-records perf_ledger/golden.tsv (seed 0 digests of every workload)
    python3 perf_ledger/run.py --trajectory "<note>"
        runs every workload 10 times (seeds 1..10) untraced and once traced,
        prints each end-to-end metric's median, its quartile spread and its
        change from the last entry of perf_ledger/trajectory.json, and
        appends the figures with host provenance to that file
"""
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perf_ledger")
BINARY = os.path.join(BUILD, "perf_ledger")
WORKLOADS = ["cg_coherence", "paper_sweep", "serial_fastpath", "tune_profile"]
SEEDS = range(1, 11)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perf_ledger", "-j", jobs],
    ]
    if os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("perf_ledger: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def run_once(workload, seed, seconds, trace, common):
    """One ledger run; returns (result dict, host provenance dict)."""
    proc = subprocess.run([BINARY, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)] + common,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        raise SystemExit("perf_ledger: %s seed %d failed" % (workload, seed))
    host = {}
    for line in lines:
        m = re.match(r'host: nproc=(\d+) compiler="([^"]*)" build=(\S+)', line)
        if m:
            host = {"nproc": int(m.group(1)), "compiler": m.group(2),
                    "build_type": m.group(3)}
    return json.loads(lines[-1]), host


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def trajectory(note, common):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    path = os.path.join(HERE, "trajectory.json")
    doc = {"kind": "perf_ledger_trajectory", "entries": []}
    if os.path.exists(path):
        with open(path) as f:
            doc = json.load(f)
    last = doc["entries"][-1]["workloads"] if doc["entries"] else {}
    seconds = bench["run_seconds"]
    entry = {"note": note, "run_seconds": seconds, "seeds": list(SEEDS),
             "workloads": {}}
    for w in [x["name"] for x in bench["workloads"]]:
        values = {}
        for seed in SEEDS:
            result, host = run_once(w, seed, seconds, 0, common)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        traced, _ = run_once(w, 1, seconds, 1, common)
        entry["host"] = dict(host, cpu=cpu_model())
        rows = {}
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            rows[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / med, "bound": m["bound"]}
            prev = last.get(w, {}).get("end_to_end", {}).get(m["name"])
            change = "" if prev is None else \
                " change %+.3f" % (med / prev["median"] - 1)
            print("%-16s %-17s median %-12.6g spread %.3f (bound %.2f)%s"
                  % (w, m["name"], med, (q3 - q1) / med, m["bound"], change),
                  flush=True)
        entry["workloads"][w] = {
            "end_to_end": rows,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}}
    doc["entries"].append(entry)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main(argv):
    if not build():
        return 1
    common = ["--golden", os.path.join(HERE, "golden.tsv"),
              "--out-dir", os.path.join(BUILD, "out")]
    if "--trajectory" in argv:
        return trajectory(argv[argv.index("--trajectory") + 1], common)
    if "--record-golden" in argv:
        for w in WORKLOADS:
            cmd = [BINARY, "--workload", w, "--seed", "0", "--seconds", "1",
                   "--trace", "0", "--record-golden"] + common
            if subprocess.run(cmd).returncode != 0:
                return 1
        return 0
    sys.stdout.flush()
    return subprocess.run([BINARY] + argv + common).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
