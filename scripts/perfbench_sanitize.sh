#!/usr/bin/env bash
# Runs every perfbench workload at smoke size under ASan and UBSan.
#
# perfbench/ is configured into a build tree of its own with the sanitizer
# flags given on the cmake command line (perfbench/ itself is not edited),
# then each workload runs once, traced:
#   perfbench --workload W --seed 7 --seconds 1 --trace 1
# A `negotiate` round at this size drives thousands of event cancels
# through slot reuse, stale-entry skips and bucket compaction, more than
# any unit test.
# The script fails on a sanitizer report, a non-zero exit, or a non-empty
# `violations` list in a workload's JSON line.
# Usage: scripts/perfbench_sanitize.sh [build-dir]
set -euo pipefail

die() { echo "perfbench_sanitize.sh: $*" >&2; exit 1; }

command -v cmake >/dev/null || die "cmake not found on PATH"
command -v python3 >/dev/null || die "python3 not found on PATH"

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-perfbench-sanitize}"
if [[ -d "$build" && ! -f "$build/CMakeCache.txt" ]]; then
  die "$build exists but is not a CMake build tree (no CMakeCache.txt)"
fi

sanitize="-fsanitize=address,undefined -fno-sanitize-recover=undefined"
cmake -S "$repo/perfbench" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="$sanitize -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="$sanitize"
cmake --build "$build" -j "$(nproc)"

failed=0
for workload in soak placement negotiate; do
  out="$build/$workload.out"
  err="$build/$workload.err"
  status=0
  (cd "$repo" && "$build/perfbench" --workload "$workload" --seed 7 \
     --seconds 1 --trace 1) >"$out" 2>"$err" || status=$?
  problems="$(python3 - "$out" "$err" "$status" <<'EOF'
import json, sys
out, err, status = sys.argv[1], sys.argv[2], int(sys.argv[3])
problems = []
if status != 0:
    problems.append(f"exit status {status}")
with open(err, errors="replace") as f:
    text = f.read()
if "Sanitizer" in text or "runtime error:" in text:
    problems.append("sanitizer report on stderr")
with open(out) as f:
    lines = f.read().strip().splitlines()
try:
    result = json.loads(lines[-1])
    problems += [f"violation: {v}" for v in result["violations"]]
except (IndexError, ValueError, KeyError):
    problems.append("no JSON result line with a violations list")
print("\n".join(problems))
EOF
)"
  if [[ -n "$problems" ]]; then
    echo "perfbench $workload FAIL"
    sed 's/^/  /' <<<"$problems"
    tail -n 40 "$err" | sed 's/^/  | /'
    failed=1
  else
    echo "perfbench $workload ok"
  fi
done
exit "$failed"
