#!/usr/bin/env bash
# Chaos sweep: builds the deterministic bench harnesses, runs them, and
# verifies that two same-seed runs produce byte-identical JSON mirrors
# -- the determinism guarantee the whole simulation rests on.
#
# Covered: every bench built from bench/bench_*.cpp.  Each must write
# at least one mirror, BENCH_<bench>.json or one BENCH_<bench>_<table>.json
# per table, and every mirror is compared; so are the observability
# exports bench_obs_overhead writes in its full-instrumentation cell
# (TIMELINE_*.json timeline, TRACE_*.json Chrome counter tracks,
# PROFILE_*.json profiler dump, AUDIT_*.jsonl decision audit).  Wall
# timings never enter any compared file: bench tables print them but
# record only deterministic columns (see bench_util.h RecordRow), and
# the kernel's WallClock stays pinned.
# Usage: scripts/chaos_sweep.sh [build-dir]
# Honors LEGION_BENCH_PRESET=smoke for the reduced CI sweep.
set -euo pipefail

die() { echo "chaos_sweep.sh: $*" >&2; exit 1; }

command -v cmake >/dev/null || die "cmake not found on PATH"

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"

if [[ -d "$build" && ! -f "$build/CMakeCache.txt" ]]; then
  die "$build exists but is not a CMake build tree (no CMakeCache.txt)"
fi

generator_args=()
if [[ -f "$build/CMakeCache.txt" ]]; then
  generator="$(sed -n 's/^CMAKE_GENERATOR:INTERNAL=//p' "$build/CMakeCache.txt")"
  [[ -n "$generator" ]] || die "cannot read CMAKE_GENERATOR from $build/CMakeCache.txt"
  generator_args=(-G "$generator")
fi

benches=()
for source in "$repo"/bench/bench_*.cpp; do
  name="$(basename "$source" .cpp)"
  benches+=("${name#bench_}")
done
[[ ${#benches[@]} -gt 0 ]] || die "no bench sources under $repo/bench"

cmake -B "$build" -S "$repo" "${generator_args[@]}" >/dev/null
cmake --build "$build" -j "$(nproc)" \
  --target "${benches[@]/#/bench_}"
for bench in "${benches[@]}"; do
  [[ -x "$build/bench/bench_$bench" ]] || die "bench_$bench did not build"
done

cd "$repo"
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

# Determinism check: a second same-seed run must be byte-identical, for
# every JSON artifact each bench writes.  A bench with several tables
# mirrors each one (bench_throughput writes BENCH_throughput.json and
# BENCH_throughput_batch.json, bench_ablation one file per ablation);
# bench_obs_overhead also exports the flight-recorder artifacts; all are
# held to the same bar.  Mirrors left by an earlier run are removed
# first, so a bench that stops writing one cannot pass on a stale file.
for name in "${benches[@]}"; do
  rm -f "BENCH_$name".json "BENCH_$name"_*.json
  "$build/bench/bench_$name"
  jsons=("BENCH_$name".json "BENCH_$name"_*.json
         "TIMELINE_$name".json "TRACE_$name".json "PROFILE_$name".json
         "AUDIT_$name".jsonl "EXPLAIN_$name".txt)
  compgen -G "BENCH_$name.json" >/dev/null ||
    compgen -G "BENCH_${name}_*.json" >/dev/null ||
    die "bench_$name wrote neither BENCH_$name.json nor BENCH_${name}_*.json"
  for json in "${jsons[@]}"; do
    [[ -f "$json" ]] && cp "$json" "$scratch/$json"
  done
  "$build/bench/bench_$name" >/dev/null
  for json in "${jsons[@]}"; do
    [[ -f "$scratch/$json" ]] || continue
    cmp -s "$json" "$scratch/$json" ||
      die "two same-seed sweep runs produced different $json"
  done
done
# The flight-recorder exports must actually exist (regression guard for
# the bench's full-instrumentation cell going silent).
for artifact in TIMELINE_obs_overhead.json TRACE_obs_overhead.json \
                PROFILE_obs_overhead.json AUDIT_obs_overhead.jsonl \
                EXPLAIN_obs_overhead.txt; do
  [[ -f "$artifact" ]] || die "bench_obs_overhead did not write $artifact"
done
# scripts/explain.py must reproduce the C++ ExplainMapping report
# byte-for-byte from the JSONL export.
if command -v python3 >/dev/null; then
  python3 scripts/explain.py AUDIT_obs_overhead.jsonl 2 0 |
    cmp -s - EXPLAIN_obs_overhead.txt ||
    die "explain.py diverged from the C++ ExplainMapping report"
fi
echo "chaos_sweep.sh: determinism check passed (two runs byte-identical)"
