#!/usr/bin/env python3
"""Functions under src/ that no bench or example reaches.

Usage (from anywhere inside the repository):

  scripts/unreached.py <work-dir>

Builds the working tree with `-O0 --coverage` into <work-dir>/build (the
bench and example targets only), runs every bench under
LEGION_BENCH_PRESET=smoke and every example, each from a fresh directory
under <work-dir>/runs, then runs `gcov --json-format` over every non-test
translation unit.  Execution counts are summed per (source file, start
line), so an inline or template function counts as reached if any copy or
instantiation of it ran, and a constructor's complete and base variants
count as one function.  Prints every src/ function whose sum is zero with
its line span, then the totals.

perfbench/ is not instrumented: a function only perfbench reaches is
listed here, so read perfbench's source for calls before deleting one.
A function no translation unit emits (an inline or template function
nothing instantiates) has no gcov record and is not listed either.

Rerunning with the same work-dir rebuilds incrementally; counts from an
earlier run are cleared first.

Exit status: 0 on success, 1 if a bench or example exits non-zero, 2 on
usage, build or gcov errors.
"""
import glob
import json
import os
import shutil
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def die(message):
    print(f"unreached.py: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(args, log, **kwargs):
    """Runs `args` with output appended to `log`; returns the exit code."""
    with open(log, "a", encoding="utf-8") as out:
        return subprocess.run(args, stdout=out, stderr=subprocess.STDOUT,
                              **kwargs).returncode


def workload_names():
    benches = sorted(glob.glob(os.path.join(REPO, "bench", "bench_*.cpp")))
    examples = sorted(glob.glob(os.path.join(REPO, "examples", "*.cpp")))
    return ([("bench", os.path.basename(p)[:-4]) for p in benches] +
            [("examples", os.path.basename(p)[:-4]) for p in examples])


def build(work, workloads):
    build_dir = os.path.join(work, "build")
    log = os.path.join(work, "build.log")
    open(log, "w").close()
    configure = ["cmake", "-S", REPO, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Debug",
                 "-DCMAKE_CXX_FLAGS=-O0 --coverage",
                 "-DCMAKE_EXE_LINKER_FLAGS=--coverage"]
    targets = [name for _, name in workloads]
    compile_ = ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                "--target", *targets]
    if run_logged(configure, log) != 0 or run_logged(compile_, log) != 0:
        die(f"build failed (log: {log})")
    return build_dir


def run_workloads(work, build_dir, workloads):
    """Runs each workload from a fresh directory; returns the failures."""
    for gcda in glob.glob(os.path.join(build_dir, "**", "*.gcda"),
                          recursive=True):
        os.remove(gcda)
    runs = os.path.join(work, "runs")
    shutil.rmtree(runs, ignore_errors=True)
    env = dict(os.environ, LEGION_BENCH_PRESET="smoke")
    failed = []
    for subdir, name in workloads:
        run_dir = os.path.join(runs, name)
        os.makedirs(run_dir)
        binary = os.path.join(build_dir, subdir, name)
        code = run_logged([binary], os.path.join(run_dir, "output.txt"),
                          cwd=run_dir, env=env)
        if code != 0:
            failed.append(name)
    return failed


def function_counts(work, build_dir):
    """Returns {(src path, start line): [name, end line, count]}."""
    gcov_dir = os.path.join(work, "gcov")
    shutil.rmtree(gcov_dir, ignore_errors=True)
    os.makedirs(gcov_dir)
    tests_dir = os.path.join(build_dir, "tests") + os.sep
    notes = [p for p in glob.glob(os.path.join(build_dir, "**", "*.gcno"),
                                  recursive=True)
             if not p.startswith(tests_dir)]
    functions = {}
    for note in sorted(notes):
        result = subprocess.run(["gcov", "--json-format", "--stdout", note],
                                cwd=gcov_dir, capture_output=True, text=True)
        if result.returncode != 0:
            die(f"gcov failed on {note}: {result.stderr.strip()}")
        report = json.loads(result.stdout)
        cwd = report.get("current_working_directory", gcov_dir)
        for entry in report["files"]:
            path = os.path.relpath(
                os.path.normpath(os.path.join(cwd, entry["file"])), REPO)
            if not path.startswith("src" + os.sep):
                continue
            for fn in entry["functions"]:
                key = (path, fn["start_line"])
                record = functions.setdefault(
                    key, [fn["demangled_name"], fn["end_line"], 0])
                record[2] += fn["execution_count"]
    return functions


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        die("usage: scripts/unreached.py <work-dir>")
    for tool in ("cmake", "gcov"):
        if shutil.which(tool) is None:
            die(f"{tool} not found on PATH")
    work = os.path.abspath(sys.argv[1])
    os.makedirs(work, exist_ok=True)

    workloads = workload_names()
    build_dir = build(work, workloads)
    failed = run_workloads(work, build_dir, workloads)
    functions = function_counts(work, build_dir)

    unreached = sorted((path, start, name, end)
                       for (path, start), (name, end, count)
                       in functions.items() if count == 0)
    spans = 0
    lines = set()
    for path, start, name, end in unreached:
        print(f"{path}:{start}-{end}  {name}")
        spans += end - start + 1
        lines.update((path, n) for n in range(start, end + 1))
    benches = sum(1 for subdir, _ in workloads if subdir == "bench")
    # A lambda's span lies inside its enclosing function's, so the summed
    # spans can exceed the distinct lines.
    print(f"unreached: {len(unreached)} of {len(functions)} src/ functions, "
          f"spanning {spans} lines ({len(lines)} distinct), by {benches} "
          f"benches (smoke preset) and {len(workloads) - benches} examples; "
          f"perfbench is not instrumented")
    if failed:
        print(f"failed (counts are partial): {' '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
