#!/usr/bin/env bash
# Builds the benchmark harness, runs workloads (each in its own process),
# and prints every metric by name with its unit. The last line of stdout is
# one JSON summary: {"correct", "attempted", "failed", "metrics"}.
#
#   bench/harness/run.sh [--workload=NAME|all] [--seed=N] [--seconds=S]
#                        [--traced | --trace=0|1] [--smoke]
#                        [--build-dir=DIR] [--out=DIR]
#
# Flags also take their value as the next argument (--seed 7). Without
# --seconds the run length is BENCHMARK.json's run_seconds. --traced runs
# the per-layer view (spans on, Chrome trace written next to the result
# file) instead of the end-to-end metrics. The build goes to --build-dir,
# else $CARGO_TARGET_DIR/harness when that is set, else
# bench/harness/build; result files go to --out (default: <build>/results).
# Exit status: 0 when every output check passed, 1 otherwise.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"

workload=all
seed=1
seconds=""
trace=0
smoke=0
build_dir=""
out_dir=""

while [[ $# -gt 0 ]]; do
  arg="$1"
  shift
  case "$arg" in
    --*=*) name="${arg%%=*}"; value="${arg#*=}" ;;
    --traced|--smoke) name="$arg"; value="" ;;
    --*)
      name="$arg"
      [[ $# -gt 0 ]] || { echo "run.sh: $name needs a value" >&2; exit 2; }
      value="$1"
      shift
      ;;
    *) echo "run.sh: unexpected argument: $arg" >&2; exit 2 ;;
  esac
  case "$name" in
    --workload) workload="$value" ;;
    --seed) seed="$value" ;;
    --seconds) seconds="$value" ;;
    --trace) trace="$value" ;;
    --traced) trace=1 ;;
    --smoke) smoke=1 ;;
    --build-dir) build_dir="$value" ;;
    --out) out_dir="$value" ;;
    *) echo "run.sh: unknown flag: $name" >&2; exit 2 ;;
  esac
done

all_workloads="batch_paper_pair batch_large_blocked nway_vocab served_mixed"
if [[ "$workload" == all ]]; then
  workloads="$all_workloads"
elif [[ " $all_workloads " == *" $workload "* ]]; then
  workloads="$workload"
else
  echo "run.sh: unknown workload: $workload (expected one of: $all_workloads, all)" >&2
  exit 2
fi
[[ "$trace" == 0 || "$trace" == 1 ]] || { echo "run.sh: --trace takes 0 or 1" >&2; exit 2; }

if [[ -z "$build_dir" ]]; then
  if [[ -n "${CARGO_TARGET_DIR:-}" ]]; then
    build_dir="$CARGO_TARGET_DIR/harness"
  else
    build_dir="$here/build"
  fi
fi
mkdir -p "$build_dir"
build_dir="$(cd "$build_dir" && pwd)"
out_dir="${out_dir:-$build_dir/results}"
mkdir -p "$out_dir"

# Build. Output goes to a log so stdout stays the report.
log="$build_dir/build.log"
if [[ ! -f "$build_dir/CMakeCache.txt" ]]; then
  generator=()
  command -v ninja > /dev/null && generator=(-G Ninja)
  if ! cmake -S "$here" -B "$build_dir" "${generator[@]}" \
      -DCMAKE_BUILD_TYPE=Release > "$log" 2>&1; then
    tail -n 20 "$log" >&2
    rm -f "$build_dir/CMakeCache.txt"
    echo "run.sh: configure failed (log: $log)" >&2
    exit 1
  fi
fi
if ! cmake --build "$build_dir" -j "$(nproc)" >> "$log" 2>&1; then
  tail -n 40 "$log" >&2
  echo "run.sh: build failed (log: $log)" >&2
  exit 1
fi

[[ "$smoke" == 1 && -z "$seconds" ]] && seconds=1
if [[ -z "$seconds" ]]; then
  seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$root/BENCHMARK.json")"
fi
harness_flags=(--seed "$seed" --seconds "$seconds")
suffix=""
if [[ "$trace" == 1 ]]; then
  harness_flags+=(--traced)
  suffix="-traced"
fi
[[ "$smoke" == 1 ]] && harness_flags+=(--smoke)

HARNESS_GIT_SHA="$(git -C "$root" rev-parse HEAD 2> /dev/null || echo unknown)"
export HARNESS_GIT_SHA

results=()
status=0
for w in $workloads; do
  result="$out_dir/$w-seed$seed$suffix.json"
  rm -f "$result"
  "$build_dir/harmony_harness" --workload "$w" "${harness_flags[@]}" \
    --result "$result" --trace-file "$out_dir/$w-seed$seed.trace.json" || status=1
  if [[ ! -f "$result" ]]; then
    echo "run.sh: $w wrote no result" >&2
    exit 1
  fi
  results+=("$result")
done

python3 "$here/report.py" --benchmark "$root/BENCHMARK.json" --trace "$trace" \
  "${results[@]}" || status=1
exit "$status"
