#!/usr/bin/env python3
"""A/A steadiness check: runs each workload on several seeds of the same
code and reports, per metric, the per-run values, the median and the
quartile spread (the distance between the first and third quartile as a
share of the median, as `statistics.quantiles(values, n=4)` gives them).

Run from the repository root:

    python3 perfbench/aa.py --runs 10 --seconds 25 [--workloads a,b] [--out FILE.json]
    python3 perfbench/aa.py --drift 12 --out drift.json
    python3 perfbench/aa.py --capacity 350,700,1050,1400,1750 --seconds 10 --out capacity.json

`--drift N` instead times one fixed `pdce opt` compile in N consecutive
2-second windows and prints each window's median: how much the machine's
own speed moves while nothing changes.

`--capacity R1,R2,...` instead runs serve-mixed once at each offered rate
(requests per second) and prints the latency and throughput it got: the
probe behind the workload's offered rate.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    return {"nproc": os.cpu_count(), "cpu": cpu, "rustc": rustc, "kernel": platform.release()}


def run_once(workload, seed, seconds, trace=0, extra=()):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    done = subprocess.run(cmd, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(lines[-1]), lines[:-1]


def capacity(rates, seed, seconds):
    out = []
    for rate in rates:
        entry = {"rate": rate, "seed": seed, "seconds": seconds}
        try:
            result, notes = run_once("serve-mixed", seed, seconds, extra=("--rate", str(rate)))
            entry["metrics"] = {k: v["value"] for k, v in result["metrics"].items()
                                if k in ("lat_ms_p50", "lat_ms_p99", "req_per_s", "compile_ms_p50")}
            entry["failed"] = result["failed"]
            entry["notes"] = [n for n in notes if n.startswith(("load generator", "per-lifetime"))]
            m = entry["metrics"]
            print(f"{rate:6} req/s offered: {m['req_per_s']:8.1f} req/s answered, "
                  f"lat p50 {m['lat_ms_p50']:.2f} ms, p99 {m['lat_ms_p99']:.2f} ms", flush=True)
        except RuntimeError as e:
            # An overloaded daemon or client makes the run invalid (exit 3).
            entry["invalid"] = str(e).splitlines()[-1]
            print(f"{rate:6} req/s offered: {entry['invalid']}", flush=True)
        out.append(entry)
    return out


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def drift(windows, program, mode):
    pdce = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "release", "pdce")
    out = []
    for _ in range(windows):
        samples = []
        end = time.monotonic() + 2.0
        while time.monotonic() < end:
            t = time.perf_counter()
            subprocess.run([pdce, "opt", "--mode", mode, program], stdout=subprocess.DEVNULL, check=True)
            samples.append((time.perf_counter() - t) * 1e3)
        out.append({"samples": len(samples), "median_ms": statistics.median(samples)})
        print(f"window {len(out):2d}: {len(samples):3d} compiles, median {out[-1]['median_ms']:.2f} ms",
              flush=True)
    meds = [w["median_ms"] for w in out]
    print(f"window medians range {min(meds):.2f}-{max(meds):.2f} ms "
          f"({(max(meds) - min(meds)) / statistics.median(meds) * 100:.1f}% of their median)")
    return out


def main():
    os.chdir(ROOT)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="opt-pfe-wide,opt-pde-narrow,serve-mixed")
    ap.add_argument("--drift", type=int, default=0)
    ap.add_argument("--capacity", default="")
    ap.add_argument("--drift-program", default=".perfbench/opt-pde-narrow/p000.pdce")
    ap.add_argument("--out")
    args = ap.parse_args()
    report = {"machine": fingerprint()}
    if args.capacity:
        rates = [float(r) for r in args.capacity.split(",")]
        report["capacity"] = capacity(rates, args.first_seed, args.seconds)
    elif args.drift:
        if not os.path.exists(args.drift_program):
            run_once("opt-pde-narrow", 1, 1)
        report["drift"] = {"program": args.drift_program,
                           "windows": drift(args.drift, args.drift_program, "pde")}
    else:
        report["seconds"] = args.seconds
        report["workloads"] = {}
        for workload in args.workloads.split(","):
            runs = []
            for k in range(args.runs):
                seed = args.first_seed + k
                t = time.monotonic()
                result, notes = run_once(workload, seed, args.seconds)
                runs.append({"seed": seed, "wall_s": round(time.monotonic() - t, 1),
                             "correct": result["correct"], "attempted": result["attempted"],
                             "failed": result["failed"],
                             "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                             "notes": [n for n in notes
                                       if n.startswith(("inputs", "load generator", "per-lifetime"))]})
                print(f"{workload} seed {seed}: {runs[-1]['wall_s']} s, failed {result['failed']}",
                      file=sys.stderr, flush=True)
            names = list(runs[0]["metrics"])
            summary = {}
            for name in names:
                values = [r["metrics"][name] for r in runs]
                summary[name] = {"values": values, **spread(values)}
            report["workloads"][workload] = {"runs": runs, "summary": summary}
            print(f"\n{workload} ({args.runs} runs, {args.seconds} s each)")
            print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
            for name, s in summary.items():
                sp = "n/a" if s["spread"] is None else f"{s['spread'] * 100:.2f}%"
                print(f"{name:<20} {s['median']:>12.5g} {s['q1']:>12.5g} {s['q3']:>12.5g} {sp:>8}",
                      flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
