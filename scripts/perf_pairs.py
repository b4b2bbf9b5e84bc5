#!/usr/bin/env python3
"""Parent-vs-change wall-clock pairs on one perfbench workload.

Usage (from anywhere inside the repository):

  scripts/perf_pairs.py <base-ref> --workload placement --seeds 1-10 \\
      [--trace] [--work-dir DIR]

Exports <base-ref> with `git archive` (as scripts/artifact_oracle.sh does)
and, for every seed, runs

  python3 perfbench/run.py --workload W --seed S --seconds 20 --trace 0

once in the exported tree and once in the working tree, alternating which
tree runs first, and reads each run's final JSON line.  The first run in
each tree builds its own .bench_build; the build finishes before the timed
binary starts.

For every end_to_end metric of BENCHMARK.json it prints each side's median
and quartiles, the change/parent ratio of the medians, and in how many
pairs the change won (in the metric's `better` direction).  It flags a
metric whose change median is worse than the parent's by more than its
`bound`, a median shift that is not larger than the parent's interquartile
range (too small to tell from noise), and every seed whose simulated
metrics or fingerprint differ between the trees.

With --trace the runs use --trace 1 instead, and the same table covers
every per_layer metric (these have no bound, and the simulated-results
check compares fingerprints only), so a per-layer claim rests on several
seeds rather than one traced run.

Seeds are a list of numbers and ranges, e.g. 1-10 or 4,6,9-11.  With
--work-dir the export, its build tree and a pairs-<workload>.json of every
run (pairs-<workload>-trace.json with --trace) are kept there (a rerun
rebuilds incrementally); without it a temporary directory is used and
removed.

Exit status: 0 when every run is correct, 1 if any run reports
`correct: false`, 2 on usage, export or run errors.  Flags do not change
the exit status.  The script only reads perfbench/ and BENCHMARK.json.
"""
import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 20
RUN_TIMEOUT_S = 900  # covers a cold build plus the run


def die(message):
    print(f"perf_pairs.py: {message}", file=sys.stderr)
    sys.exit(2)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        try:
            first = int(low)
            last = int(high) if high else first
        except ValueError:
            die(f"bad --seeds element {part!r}")
        if last < first:
            die(f"empty seed range {part!r}")
        seeds.extend(range(first, last + 1))
    return seeds


def export_base(ref, dest):
    proc = subprocess.run(["git", "-C", REPO, "rev-parse", "--verify",
                           "--quiet", ref + "^{commit}"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        die(f"{ref} does not name a commit")
    # Keep a previous export's build tree so reruns build incrementally.
    keep = os.path.join(dest, ".bench_build")
    if os.path.isdir(dest):
        for name in os.listdir(dest):
            path = os.path.join(dest, name)
            if path == keep:
                continue
            if os.path.isdir(path) and not os.path.islink(path):
                shutil.rmtree(path)
            else:
                os.remove(path)
    os.makedirs(dest, exist_ok=True)
    archive = subprocess.Popen(["git", "-C", REPO, "archive", ref],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        die(f"could not export {ref}")


def sim_metric_names(spec):
    """End-to-end metrics measured on the simulated clock, as classified
    by the working tree's perfbench/run.py."""
    path = os.path.join(REPO, "perfbench", "run.py")
    loader = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return [m["name"] for m in spec["end_to_end"]
            if module.KIND.get(m["name"]) == "sim"]


def run_once(tree, workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace",
           str(int(trace))]
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} seed {seed} in {tree} did not finish")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        die(f"no JSON result from {workload} seed {seed} in {tree}")
    result["fingerprint"] = next(
        (line.split(":", 1)[1].strip() for line in lines
         if line.startswith("fingerprint:")), None)
    return result


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def worse_by(base, change, better):
    """Relative worsening of `change` against `base` (positive = worse)."""
    delta = change - base if better == "lower" else base - change
    if base == 0:
        return 0.0 if delta == 0 else (float("inf") if delta > 0
                                       else float("-inf"))
    return delta / abs(base)


def summarize(metrics, workload, pairs):
    print(f"\n== {workload}: {len(pairs)} pairs, medians with quartiles "
          f"[q1-q3] ==")
    width = max(len(metric["name"]) for metric in metrics)
    print(f"{'metric':{width}s} {'parent':32s} {'change':32s} {'ratio':>7s} "
          f"{'won':>6s}  flags")
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        b1, b2, b3 = quartiles(base)
        c1, c2, c3 = quartiles(change)
        won = sum((c < b) if better == "lower" else (c > b)
                  for b, c in zip(base, change))
        ratio = c2 / b2 if b2 != 0 else float("nan")
        flags = []
        if "bound" in metric and worse_by(b2, c2, better) > metric["bound"]:
            flags.append(f"WORSE beyond bound {metric['bound']}")
        if c2 != b2 and abs(c2 - b2) <= b3 - b1:
            flags.append("shift within parent IQR")
        parent = f"{b2:.4g} [{b1:.4g}-{b3:.4g}]"
        changed = f"{c2:.4g} [{c1:.4g}-{c3:.4g}]"
        print(f"{name:{width}s} {parent:32s} {changed:32s} {ratio:7.3f} "
              f"{won:3d}/{len(pairs):<2d}  " + "; ".join(flags))


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[2:]))
    parser.add_argument("base_ref")
    parser.add_argument("--workload", required=True,
                        choices=("soak", "placement", "negotiate"))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", action="store_true",
                        help="run traced and compare the per_layer metrics")
    parser.add_argument("--work-dir")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)

    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    # A traced run reports no end_to_end metric; its fingerprint remains.
    sim_names = [] if args.trace else sim_metric_names(spec)
    wall_names = (("kernel.self_s", "handler.msg_s") if args.trace else
                  ("wall_s_per_sim_h", "wall_us_per_mapping"))

    if args.work_dir:
        work = os.path.abspath(args.work_dir)
        os.makedirs(work, exist_ok=True)
        cleanup = None
    else:
        work = cleanup = tempfile.mkdtemp(prefix="perf_pairs.")
    try:
        base_tree = os.path.join(work, "base-src")
        export_base(args.base_ref, base_tree)
        trees = {"base": base_tree, "change": REPO}
        pairs = []
        incorrect = 0
        for i, seed in enumerate(seeds):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], args.workload, seed,
                                      args.trace)
                if not pair[side]["correct"]:
                    incorrect += 1
                    print(f"seed {seed}: {side} run reports correct: false")
            pairs.append(pair)
            walls = "  ".join(
                f"{name} {pair['base']['metrics'][name]['value']:.4g} -> "
                f"{pair['change']['metrics'][name]['value']:.4g}"
                for name in wall_names if name in pair["base"]["metrics"])
            print(f"seed {seed} ({order[0]} first): {walls}", flush=True)
            differing = [n for n in sim_names
                         if pair["base"]["metrics"][n]["value"] !=
                         pair["change"]["metrics"][n]["value"]]
            if pair["base"]["fingerprint"] != pair["change"]["fingerprint"]:
                differing.append("fingerprint")
            if differing:
                print(f"  FLAG seed {seed}: simulated results differ: "
                      + ", ".join(differing))
        if args.work_dir:
            suffix = "-trace" if args.trace else ""
            path = os.path.join(work, f"pairs-{args.workload}{suffix}.json")
            with open(path, "w") as f:
                json.dump(pairs, f, indent=1)
        summarize(metrics, args.workload, pairs)
    finally:
        if cleanup:
            shutil.rmtree(cleanup, ignore_errors=True)
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
