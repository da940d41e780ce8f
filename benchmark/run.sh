#!/usr/bin/env bash
# Builds the standalone benchmark project and runs it.
#
#   benchmark/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
#       one workload; the last line of standard output is its JSON result
#       (end-to-end metrics with --trace 0, per-layer metrics with --trace 1)
#   benchmark/run.sh [--seed N] --out DIR
#       every workload in sequence, each with its traced repetition; writes
#       DIR/<workload>-seed<N>.json and DIR/<workload>-seed<N>-spans.tsv
#
# The build lives in benchmark/build; build output goes to standard error.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build_dir="$bench_dir/build"

workload=""
seed=1
seconds=""
trace=""
out=""
while [ $# -gt 0 ]; do
  case "$1" in
    --workload|--seed|--seconds|--trace|--out)
      if [ $# -lt 2 ]; then
        echo "run.sh: $1 needs a value" >&2
        exit 2
      fi
      case "$1" in
        --workload) workload="$2" ;;
        --seed) seed="$2" ;;
        --seconds) seconds="$2" ;;
        --trace) trace="$2" ;;
        --out) out="$2" ;;
      esac
      shift 2
      ;;
    *)
      echo "run.sh: unknown argument $1" >&2
      exit 2
      ;;
  esac
done

jobs="$(nproc 2>/dev/null || echo 1)"
if [ "$jobs" -gt 4 ]; then
  jobs=4
fi
# Once configured, the build step re-runs CMake itself when a list changes.
{
  if [ ! -f "$build_dir/CMakeCache.txt" ]; then
    cmake -S "$bench_dir" -B "$build_dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  fi
  cmake --build "$build_dir" -j "$jobs" --target keypad_bench
} >&2

bin="$build_dir/keypad_bench"
args=(--seed "$seed")
if [ -n "$seconds" ]; then
  args+=(--seconds "$seconds")
fi

if [ -n "$workload" ]; then
  if [ -n "$trace" ]; then
    args+=(--trace "$trace")
  fi
  # Traced runs write their spans; default them into benchmark/out.
  if [ -z "$out" ] && [ "$trace" = "1" ]; then
    out="$bench_dir/out"
  fi
  if [ -n "$out" ]; then
    args+=(--out "$out")
  fi
  exec "$bin" --workload "$workload" "${args[@]}"
fi

if [ -z "$out" ]; then
  echo "run.sh: --out DIR is required when no --workload is given" >&2
  exit 2
fi
status=0
for w in compile fleet keytier theft; do
  "$bin" --workload "$w" "${args[@]}" --trace "${trace:-1}" --out "$out" ||
    status=1
done
exit "$status"
