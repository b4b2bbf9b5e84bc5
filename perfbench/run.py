#!/usr/bin/env python3
"""Wall-clock benchmark of the Legion RMS simulation.

Run from the repository root:

  python3 perfbench/run.py --workload soak --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --smoke

A run builds perfbench/ (which compiles ../src) into .bench_build, runs
one workload through the perfbench binary, checks the correctness gate,
prints a human-readable report, and ends with one JSON line:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
--trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1 the
per_layer metrics plus an attribution table.  --smoke runs every workload
at reduced size, traced and untraced, and checks the gate and that both
leave the same simulation fingerprint.  See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("soak", "placement", "negotiate")
RUN_TIMEOUT_S = 170

# What each end-to-end number is measured in: the host's wall clock
# (scaled by the reference loop, see README), the host's memory, or the
# simulated clock (deterministic for a seed).
KIND = {
    "setup_s": "wall, reference-scaled",
    "wall_s_per_sim_h": "wall, reference-scaled",
    "wall_us_per_mapping": "wall, reference-scaled",
    "drift": "wall ratio",
    "peak_rss_mb": "host memory",
    "placed_frac": "sim",
    "turnaround_p50_sim_s": "sim",
    "turnaround_p99_sim_s": "sim",
    "granted_frac": "sim",
    "feedback_sim_s": "sim",
}


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    # The benchmark's build tree lives inside the checkout.
    return os.path.join(ROOT, ".bench_build")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("repository sources (src/) not found next to perfbench/", 2)
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            fail("build failed: " + " ".join(step), 3)
    return os.path.join(out, "perfbench")


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"perfbench exited with {proc.returncode}", 4)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed nothing", 4)
    return json.loads(lines[-1])


def check_fingerprint(binary, workload, seed, seconds, fingerprint):
    """Same binary, workload, seed and size must leave the same simulation
    fingerprint on every run; earlier runs are remembered in the build
    tree.  Returns a violation message or None."""
    with open(binary, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()[:16]
    path = os.path.join(build_dir(), "fingerprints.json")
    seen = {}
    if os.path.isfile(path):
        with open(path) as f:
            seen = json.load(f)
    key = f"{digest}:{workload}:{seed}:{seconds}"
    if key in seen:
        if seen[key] != fingerprint:
            return (f"fingerprint {fingerprint} differs from an earlier run "
                    f"of the same seed: {seen[key]}")
        return None
    seen[key] = fingerprint
    with open(path, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    return None


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found at the repository root", 2)
    with open(path) as f:
        return json.load(f)


def fmt(value):
    return f"{value:.6g}"


def print_attribution(metrics):
    """Per-layer self time over the traced window.  The first block is
    exclusive and sums to the window; the second block splits parts out
    of the handler rows (measured query wall, probe-based estimates)."""
    window = metrics["attr.window_s"]
    rows = [(name[len("attr."):], value) for name, value in metrics.items()
            if name.startswith("attr.") and name != "attr.window_s"]
    print(f"attribution over the traced window ({window:.3f} s wall):")
    for heading, nested in (("self time", False),
                            ("within the handler rows", True)):
        print(f"  -- {heading}")
        for key, value in rows:
            if key.startswith("within.") != nested:
                continue
            layer, _, what = key.removeprefix("within.").partition(".")
            share = value / window if window > 0 else 0.0
            print(f"  {layer:10s} {what:30s} {value:10.4f} s {share:7.1%}")
    print(f"  obs        trace.overhead_frac "
          f"{metrics['trace.overhead_frac']:+.3f}")


def report(result, specs, trace):
    """Human-readable lines; the JSON result line comes after them."""
    metrics = result["metrics"]
    samples = result["samples"]
    print(f"== perfbench {result['workload']} seed={result['seed']} "
          f"trace={trace} ==")
    print("pass window walls (s): " +
          " ".join(f"{w:.3f}" for w in result["pass_wall_s"]))
    print("segment walls (s): " +
          " ".join(f"{w:.3f}" for w in result["segment_wall_s"]))
    print(f"fingerprint: {json.dumps(result['fingerprint'], sort_keys=True)}")
    for spec in specs:
        name = spec["name"]
        kind = KIND.get(name, "")
        note = ""
        if name.startswith("turnaround"):
            note = f"  (n={int(samples['turnaround'])})"
        elif name == "feedback_sim_s":
            note = f"  (n={int(samples['feedback'])})"
        print(f"  {name:32s} {fmt(metrics[name]):>14s} {spec['unit']:8s} "
              f"{kind}{note}")
    if trace:
        print_attribution(metrics)
    for violation in result["violations"]:
        print(f"VIOLATION: {violation}")


def run(args):
    spec = load_spec()
    binary = build()
    result = run_binary(binary, args.workload, args.seed, args.seconds,
                        args.trace)
    violation = check_fingerprint(binary, args.workload, args.seed,
                                  args.seconds, result["fingerprint"])
    if violation:
        result["violations"].append(violation)
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [s["name"] for s in specs if s["name"] not in result["metrics"]]
    if missing:
        fail("metrics missing from perfbench output: " + ", ".join(missing), 5)
    report(result, specs, args.trace)
    failed = len(result["violations"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(1, int(result["attempted"])),
        "failed": failed,
        "metrics": {s["name"]: {"value": result["metrics"][s["name"]],
                                "unit": s["unit"]} for s in specs},
    }))
    sys.stdout.flush()
    return 0 if failed == 0 else 1


def smoke():
    """Every workload at reduced size: one traced run (an untraced and a
    traced pass) and one untraced run of the same seed; the gate must hold
    and all passes must leave one fingerprint."""
    binary = build()
    ok = True
    for workload in WORKLOADS:
        traced = run_binary(binary, workload, 7, 1, 1)
        plain = run_binary(binary, workload, 7, 1, 0)
        problems = traced["violations"] + plain["violations"]
        if traced["fingerprint"] != plain["fingerprint"]:
            problems.append("traced and untraced runs differ: "
                            f"{traced['fingerprint']} vs "
                            f"{plain['fingerprint']}")
        status = "ok" if not problems else "FAIL"
        fingerprint = json.dumps(plain["fingerprint"], sort_keys=True)
        print(f"smoke {workload:10s} {status}  fingerprint={fingerprint}")
        for problem in problems:
            print(f"  VIOLATION: {problem}")
        ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at reduced size and check")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required (or --smoke)")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
