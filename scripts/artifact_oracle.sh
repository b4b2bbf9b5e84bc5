#!/usr/bin/env bash
# Behaviour oracle: same-seed artifacts of a base ref against the working
# tree.  Exports <base-ref> with `git archive`, builds it and the working
# tree (Release, bench and example targets only), runs every bench_*
# under the smoke preset and every example from a fresh directory per
# tree, then byte-compares every deterministic artifact:
#
#   BENCH_*.json, TIMELINE_*.json, TRACE_*.json, PROFILE_*.json,
#   AUDIT_*.jsonl, EXPLAIN_*.txt, quickstart.{trace.json,
#   trace.jsonl,metrics.json}, and each example's stdout (examples print
#   no wall time)
#
# It also runs the wall-clock benchmark's smoke gate,
# `python3 perfbench/run.py --smoke`, in both trees and compares the
# three `smoke <workload> <status> fingerprint=...` lines it prints.
# perfbench/ is only run, never edited.
#
# A change that only restructures or speeds up the code must leave every
# one of them identical.  Bench text output is diffed too, but only as a
# note: its wall-time columns move from run to run.
#
# Usage: scripts/artifact_oracle.sh <base-ref> [work-dir]
#   work-dir keeps the export, both build trees (the export's perfbench
#   .bench_build included) and both run directories (rerunning with the
#   same work-dir rebuilds incrementally); without it a temporary
#   directory is used and removed on exit.
# Exit status: 0 if every artifact and smoke fingerprint matches, 1
# naming every artifact that differs, exists on one side only, or comes
# from a run that failed, and every smoke line that differs or reports
# FAIL; 2 on usage or build errors.
set -euo pipefail

die() { echo "artifact_oracle.sh: $*" >&2; exit 2; }

[[ $# -ge 1 && $# -le 2 ]] ||
  die "usage: scripts/artifact_oracle.sh <base-ref> [work-dir]"
command -v cmake >/dev/null || die "cmake not found on PATH"

repo="$(cd "$(dirname "$0")/.." && pwd)"
base_ref="$1"
git -C "$repo" rev-parse --verify --quiet "$base_ref^{commit}" >/dev/null ||
  die "$base_ref does not name a commit"

if [[ $# -eq 2 ]]; then
  mkdir -p "$2"
  work="$(cd "$2" && pwd)"
else
  work="$(mktemp -d)"
  trap 'rm -rf "$work"' EXIT
fi

# The export is replaced, but its perfbench build tree is kept so a
# rerun does not rebuild perfbench cold.
if [[ -d "$work/base-src/.bench_build" ]]; then
  rm -rf "$work/base-bench_build"
  mv "$work/base-src/.bench_build" "$work/base-bench_build"
fi
rm -rf "$work/base-src"
mkdir -p "$work/base-src"
git -C "$repo" archive "$base_ref" | tar -x -C "$work/base-src"
if [[ -d "$work/base-bench_build" ]]; then
  mv "$work/base-bench_build" "$work/base-src/.bench_build"
fi

# Builds the bench and example targets of the source tree $1 into $2,
# logging to $2.log.
build_tree() {
  local src="$1" build="$2" targets=() file
  for file in "$src"/bench/bench_*.cpp "$src"/examples/*.cpp; do
    if [[ -f "$file" ]]; then targets+=("$(basename "$file" .cpp)"); fi
  done
  [[ ${#targets[@]} -gt 0 ]] || die "no bench or example sources in $src"
  if ! { cmake -S "$src" -B "$build" -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$build" -j "$(nproc)" --target "${targets[@]}"; } \
       >"$build.log" 2>&1; then
    tail -n 40 "$build.log" >&2
    die "build failed for $src (full log: $build.log)"
  fi
}

# Runs every bench and example of build tree $1 from the fresh directory
# $2, leaving bench output in $2/logs and example output, an artifact, in
# $2/stdout.  Prints the names of runs that exited non-zero.
run_tree() {
  local build="$1" run="$2" bin name out
  rm -rf "$run"
  mkdir -p "$run/logs" "$run/stdout"
  for bin in "$build"/bench/bench_* "$build"/examples/*; do
    [[ -f "$bin" && -x "$bin" ]] || continue
    name="$(basename "$bin")"
    out="logs/$name.txt"
    [[ "$bin" == "$build"/examples/* ]] && out="stdout/$name.txt"
    (cd "$run" && LEGION_BENCH_PRESET=smoke "$bin" >"$out" 2>&1) ||
      echo "$name"
  done
}

# Runs perfbench's smoke gate in source tree $1, logging to $2.  Prints
# its exit status.
smoke_tree() {
  local status=0
  (cd "$1" && python3 perfbench/run.py --smoke) >"$2" 2>&1 || status=$?
  echo "$status"
}

echo "artifact_oracle.sh: building $base_ref and the working tree"
build_tree "$work/base-src" "$work/base-build"
build_tree "$repo" "$work/head-build"

echo "artifact_oracle.sh: running benches (smoke preset) and examples"
base_failed="$(run_tree "$work/base-build" "$work/base-run")"
head_failed="$(run_tree "$work/head-build" "$work/head-run")"

echo "artifact_oracle.sh: running perfbench/run.py --smoke in both trees"
base_smoke_status="$(smoke_tree "$work/base-src" "$work/base-smoke.log")"
head_smoke_status="$(smoke_tree "$repo" "$work/head-smoke.log")"

differ=()
for name in $base_failed; do differ+=("run failed at $base_ref: $name"); done
for name in $head_failed; do differ+=("run failed in working tree: $name"); done

# perfbench smoke: a FAIL status, a failed run, or any line that differs.
# check_smoke <smoke lines> <exit status> <where> <log> reports one side.
check_smoke() {
  local failed workload
  failed="$(awk '$3 == "FAIL" {print $2}' <<<"$1")"
  for workload in $failed; do
    differ+=("perfbench smoke FAIL $3: $workload")
  done
  if [[ $2 != 0 && -z $failed ]]; then
    differ+=("perfbench smoke exited $2 $3 (log: $4)")
  fi
}
base_smoke="$(grep '^smoke ' "$work/base-smoke.log" || true)"
head_smoke="$(grep '^smoke ' "$work/head-smoke.log" || true)"
check_smoke "$base_smoke" "$base_smoke_status" "at $base_ref" \
  "$work/base-smoke.log"
check_smoke "$head_smoke" "$head_smoke_status" "in working tree" \
  "$work/head-smoke.log"
workloads="$(awk '{print $2}' <<<"$base_smoke
$head_smoke" | sort -u)"
[[ -n $workloads ]] || differ+=("perfbench smoke printed no fingerprint")
for workload in $workloads; do
  if [[ "$(grep "^smoke $workload " <<<"$base_smoke" || true)" != \
        "$(grep "^smoke $workload " <<<"$head_smoke" || true)" ]]; then
    differ+=("perfbench smoke fingerprint differs: $workload")
  fi
done

artifacts="$(cd "$work" && {
  for side in base-run head-run; do
    (cd "$side" && ls -1 BENCH_*.json TIMELINE_*.json TRACE_*.json \
      PROFILE_*.json AUDIT_*.jsonl EXPLAIN_*.txt quickstart.trace.json \
      quickstart.trace.jsonl quickstart.metrics.json stdout/*.txt \
      2>/dev/null || true)
  done
} | sort -u)"
[[ -n "$artifacts" ]] || die "no artifacts were written"

compared=0
for artifact in $artifacts; do
  compared=$((compared + 1))
  if [[ ! -f "$work/base-run/$artifact" ]]; then
    differ+=("only in working tree: $artifact")
  elif [[ ! -f "$work/head-run/$artifact" ]]; then
    differ+=("only at $base_ref: $artifact")
  elif ! cmp -s "$work/base-run/$artifact" "$work/head-run/$artifact"; then
    differ+=("differs: $artifact")
  fi
done

for log in "$work"/head-run/logs/*.txt; do
  name="$(basename "$log")"
  if [[ -f "$work/base-run/logs/$name" ]] &&
     ! cmp -s "$work/base-run/logs/$name" "$log"; then
    echo "note: stdout of ${name%.txt} differs (wall-time columns may move)"
  fi
done

if [[ ${#differ[@]} -gt 0 ]]; then
  printf 'artifact_oracle.sh: %s\n' "${differ[@]}" >&2
  echo "artifact_oracle.sh: ${#differ[@]} of $compared artifacts or runs" \
    "differ from $base_ref" >&2
  exit 1
fi
echo "artifact_oracle.sh: all $compared artifacts byte-identical to" \
  "$base_ref; perfbench smoke fingerprints identical ($(wc -w <<<"$workloads")" \
  "workloads)"
