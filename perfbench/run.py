#!/usr/bin/env python3
"""Build and run the ARES repository benchmark (see perfbench/README.md).

Run from the repository root.

One workload, one run:
    python3 perfbench/run.py --workload abd_rw --seed 1 --seconds 20 --trace 0
  The last line of stdout is the result JSON: correct, attempted, failed and
  the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

The whole suite:
    python3 perfbench/run.py --suite [--reps 5] [--seconds 20] [--out DIR]
  Each repetition runs every workload once untraced and once traced, in
  turn, so machine drift lands on all workloads alike; repetition r uses
  seed r. Writes DIR/BENCH_net.json (end-to-end, per-run values, median,
  min, max, quartile spread and sample counts) and DIR/BENCH_net_traced.json
  (per-layer medians and the tracing overhead). DIR defaults to
  perfbench/results.

Two suite results against the bounds in BENCHMARK.json:
    python3 perfbench/run.py --compare OLD.json NEW.json

The program is built in Release under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) by perfbench/CMakeLists.txt.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["abd_rw", "abd_lease_zipf", "treas_ec", "abd_batch8"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"


def build():
    """Configure (once) and build the benchmark program; returns its path."""
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(bdir), "-j", "4",
                    "--target", "ares_perf"], check=True, stdout=sys.stderr)
    return bdir / "ares_perf"


def run_one(exe, workload, seed, seconds, trace):
    """One run of the program; returns (exit code, stdout)."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


def parse_run(stdout):
    """The result of one run, with ops_per_s and each metric's sample count
    "n" merged in from the detail line before it; None if either line is
    missing or malformed."""
    lines = stdout.strip().splitlines()
    try:
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            m["n"] = detail["samples"][name]
    except (IndexError, KeyError, TypeError, ValueError):
        return None
    result["ops_per_s"] = detail["ops_per_s"]
    result["rounds"] = detail["rounds"]
    result["warmup_s"] = detail["warmup_s"]
    return result


def quartile_spread(values):
    """(Q3 - Q1) / median, the run-to-run spread of one metric."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def summarize(runs):
    """Per-metric per-run values, median, min, max, spread and counts."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "values": values,
            "median": statistics.median(values),
            "min": min(values),
            "max": max(values),
            "iqr_over_median": quartile_spread(values),
            "samples": [r["metrics"][name]["n"] for r in runs],
        }
    return out


def suite(reps, seconds, out_dir):
    exe = build()
    out_dir.mkdir(parents=True, exist_ok=True)
    runs = {w: {0: [], 1: []} for w in WORKLOADS}
    ok = True
    for rep in range(reps):
        for w in WORKLOADS:
            for trace in (0, 1):
                tag = f"rep {rep + 1}/{reps} {w} trace={trace}"
                try:
                    code, stdout = run_one(exe, w, rep + 1, seconds, trace)
                except subprocess.TimeoutExpired:
                    code, stdout = None, ""
                result = parse_run(stdout)
                if result is None:
                    log(f"{tag}: no result (exit code {code})")
                    ok = False
                    continue
                result["seed"] = rep + 1
                runs[w][trace].append(result)
                ok = ok and code == 0 and result["correct"]
                log(f"{tag}: correct={result['correct']} "
                    f"ops/s={result['ops_per_s']:.1f}")
    if not all(runs[w][t] for w in WORKLOADS for t in (0, 1)):
        log("some workload has no result at all; nothing written")
        return 1
    first = runs[WORKLOADS[0]][0][0]
    header = {"nproc": os.cpu_count(), "build_type": "Release",
              "seeds": list(range(1, reps + 1)), "reps": reps,
              "rounds_per_run": first["rounds"],
              "warmup_s_per_round": first["warmup_s"],
              "measured_s_per_run": seconds}
    untraced = dict(header, bench="net", workloads={})
    traced = dict(header, bench="net_traced", workloads={})
    log(f"\n{'workload':<15} {'metric':<28} {'median':>12} {'min':>12} "
        f"{'max':>12} {'iqr/med':>8} {'samples':>8}")
    for w in WORKLOADS:
        entry = {"correct": all(r["correct"] for r in runs[w][0]),
                 "attempted": sum(r["attempted"] for r in runs[w][0]),
                 "failed": sum(r["failed"] for r in runs[w][0]),
                 "metrics": summarize(runs[w][0])}
        untraced["workloads"][w] = entry
        # The traced and untraced runs of one seed run back to back, so
        # their ratio cancels most of the machine's drift.
        plain = {r["seed"]: r["ops_per_s"] for r in runs[w][0]}
        pairs = [1 - r["ops_per_s"] / plain[r["seed"]] for r in runs[w][1]
                 if r["seed"] in plain]
        overhead = statistics.median(pairs) if pairs else None
        traced["workloads"][w] = {
            "correct": all(r["correct"] for r in runs[w][1]),
            "ops_per_s_untraced": statistics.median(plain.values()),
            "ops_per_s_traced": statistics.median(
                r["ops_per_s"] for r in runs[w][1]),
            "tracing_overhead_per_seed": pairs,
            "tracing_overhead": overhead,
            "metrics": summarize(runs[w][1]),
        }
        for name, m in list(entry["metrics"].items()) + list(
                traced["workloads"][w]["metrics"].items()):
            log(f"{w:<15} {name:<28} {m['median']:>12.3f} {m['min']:>12.3f} "
                f"{m['max']:>12.3f} {m['iqr_over_median']:>8.3f} "
                f"{int(statistics.median(m['samples'])):>8}")
        if overhead is not None:
            log(f"{w:<15} tracing overhead: {overhead:+.3f} (median over "
                f"{len(pairs)} seeds of 1 - traced/untraced ops/s)")
    (out_dir / "BENCH_net.json").write_text(json.dumps(untraced, indent=2) + "\n")
    (out_dir / "BENCH_net_traced.json").write_text(
        json.dumps(traced, indent=2) + "\n")
    log(f"wrote {out_dir / 'BENCH_net.json'} and "
        f"{out_dir / 'BENCH_net_traced.json'}")
    return 0 if ok else 1


def compare(old_path, new_path):
    """Median change of every end-to-end metric against its bound."""
    spec = json.loads(Path("BENCHMARK.json").read_text())
    old = json.loads(Path(old_path).read_text())["workloads"]
    new = json.loads(Path(new_path).read_text())["workloads"]
    ok = True
    print(f"{'workload':<15} {'metric':<14} {'old':>12} {'new':>12} "
          f"{'worse by':>9} {'bound':>6}")
    for w in WORKLOADS:
        for m in spec["end_to_end"]:
            a = old[w]["metrics"][m["name"]]["median"]
            b = new[w]["metrics"][m["name"]]["median"]
            worse = (a - b) / a if m["better"] == "higher" else (b - a) / a
            within = worse <= m["bound"]
            ok = ok and within
            print(f"{w:<15} {m['name']:<14} {a:>12.3f} {b:>12.3f} "
                  f"{worse:>+9.3f} {m['bound']:>6.2f}"
                  f"{'' if within else '  OUT OF BOUND'}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--suite", action="store_true")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--out", type=Path, default=HERE / "results")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = p.parse_args()

    if args.compare:
        return compare(*args.compare)
    try:
        if args.suite:
            return suite(args.reps, args.seconds, args.out)
        if args.workload is None:
            p.error("--workload, --suite or --compare is required")
        exe = build()
        code, stdout = run_one(exe, args.workload, args.seed, args.seconds,
                               args.trace)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        log(f"perfbench: {e}")
        return 1
    sys.stdout.write(stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
