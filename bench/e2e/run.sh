#!/usr/bin/env bash
# The end-to-end serving benchmark in one command: builds pegabench
# (Release) from this checkout's sources into build-bench/ and runs it.
#
#   bench/e2e/run.sh              every workload at seed 1: every metric,
#                                 the oracle and the self-time tables
#   bench/e2e/run.sh --quick      ~20 s smoke pass with the same checks;
#                                 its numbers are not comparable
#   bench/e2e/run.sh --out A.json [--repeat N]
#                                 N invocations of every workload (default
#                                 1), appended to A.json for compare.py
#   bench/e2e/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#                                 one workload; the last line of stdout is
#                                 its JSON result
#
# Other flags pass through to pegabench (see main.cpp). Build output goes
# to stderr, so stdout carries only the benchmark's own report.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-bench"

workloads=(mlp-infer flow-churn capture-mt paced-swap)
single=0 repeat=1 out="" args=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workloads=("${2:?--workload needs a value}"); single=1; shift 2 ;;
    --repeat) repeat="${2:?--repeat needs a value}"; shift 2 ;;
    --out) out="${2:?--out needs a value}"; shift 2 ;;
    *) args+=("$1"); shift ;;
  esac
done

# The compiler's temporary files stay inside the build directory too.
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
jobs="$(nproc)"
[ "$jobs" -gt 4 ] && jobs=4
cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j "$jobs" >&2

# Only this checkout's own history: git must not walk up into an enclosing
# repository.
PEGABENCH_GIT_SHA=unknown
if [ -e "$root/.git" ]; then
  PEGABENCH_GIT_SHA="$(git -C "$root" describe --always --dirty 2>/dev/null || echo unknown)"
fi
export PEGABENCH_GIT_SHA
bin="$build/pegabench"

if [ "$single" = 1 ] && [ -z "$out" ]; then
  exec "$bin" --out-dir "$build" --workload "${workloads[0]}" "${args[@]}"
fi

record="$build/record.jsonl"
: > "$record"
status=0
for ((i = 0; i < repeat; i++)); do
  for w in "${workloads[@]}"; do
    "$bin" --out-dir "$build" --workload "$w" --record "$record" \
      "${args[@]}" || status=1
  done
done

if [ -n "$out" ]; then
  python3 - "$record" "$out" <<'EOF'
import json, os, sys
record, out = sys.argv[1], sys.argv[2]
runs = [json.loads(line) for line in open(record) if line.strip()]
if os.path.exists(out):
    with open(out) as f:
        runs = json.load(f)["runs"] + runs
with open(out, "w") as f:
    json.dump({"runs": runs}, f, indent=1)
print(f"{len(runs)} runs in {out}")
EOF
fi
exit "$status"
