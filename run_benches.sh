#!/bin/bash
# Runs every bench binary, teeing combined output. Any bench exiting
# nonzero fails the whole run: the failing cell is named in the output and
# the script exits 1 (benches gate invariants, not just numbers).
#
# Schema-drift guard: benches that emit a BENCH_*.json may gain fields,
# but must never silently drop one the committed baseline had — dashboards
# and diffing tools key on field names. Before each JSON-emitting bench
# runs, the committed file's key set is snapshotted; afterwards any
# baseline key missing from the fresh output fails the run, naming the
# bench and the dropped key(s).
#
# BENCH_crypto.json is the exception to "the sweep rewrites the committed
# file": Google Benchmark stamps its output with the run's date, load
# average and executable path, so bench_crypto_micro writes beside the
# output log instead, to "<out>.crypto.json", and the guard checks that
# file. To refresh the committed baseline by hand after a crypto change:
#   cp bench_output.txt.crypto.json BENCH_crypto.json
set -u
# The checkout this script lives in: its build tree and its JSON files.
root="$(cd "$(dirname "$0")" && pwd)"
out="${1:-$root/bench_output.txt}"
: > "$out"
failed=()

# Every JSON object key (recursively) in a bench JSON, sorted, one per
# line. Empty output (e.g. unparseable file) disables the guard for that
# bench rather than failing it — the bench's own exit code covers that.
json_keys() {
  python3 - "$1" 2>/dev/null <<'PY'
import json, sys
def keys(node, out):
    if isinstance(node, dict):
        for k, v in node.items():
            out.add(k)
            keys(v, out)
    elif isinstance(node, list):
        for v in node:
            keys(v, out)
out = set()
with open(sys.argv[1]) as f:
    keys(json.load(f), out)
print("\n".join(sorted(out)))
PY
}

# Bench binary -> the JSON artifact it maintains: crypto kernels per
# backend (DESIGN.md §6), resilience (§7), key-tier scaling (§8, §13),
# simulator core + fleet (§11), service-tier availability (§9–§10),
# durability (§12), overload (§14) and the audit-log lifecycle (§15).
declare -A json_for=(
  [bench_crypto_micro]=$root/BENCH_crypto.json
  [bench_resilience]=$root/BENCH_resilience.json
  [bench_scale]=$root/BENCH_scale.json
  [bench_fleet]=$root/BENCH_simcore.json
  [bench_availability]=$root/BENCH_availability.json
  [bench_durability]=$root/BENCH_durability.json
  [bench_overload]=$root/BENCH_overload.json
  [bench_auditlog]=$root/BENCH_auditlog.json
)

for b in "$root"/build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  name="$(basename "$b")"
  echo "### $name" | tee -a "$out"
  json="${json_for[$name]:-}"
  # Where this run writes its JSON (the committed file, except for crypto).
  fresh="$json"
  baseline_keys=""
  if [[ -n "$json" && -f "$json" ]]; then
    baseline_keys="$(json_keys "$json")"
  fi
  if [[ "$name" == "bench_crypto_micro" ]]; then
    # JSON copy captures per-backend throughput (one entry per dispatch
    # tier, each labeled with the kernel that produced it).
    fresh="$out.crypto.json"
    rm -f "$fresh"
    "$b" --benchmark_min_time=0.2 \
         --benchmark_out="$fresh" \
         --benchmark_out_format=json >> "$out" 2>&1
  elif [[ -n "$json" ]]; then
    # Every other JSON bench takes its artifact path as argv[1].
    "$b" "$json" >> "$out" 2>&1
  else
    "$b" >> "$out" 2>&1
  fi
  status=$?
  if [[ "$status" -ne 0 ]]; then
    echo "FAILED: $name (exit $status)" | tee -a "$out"
    failed+=("$name")
  fi
  if [[ -n "$baseline_keys" && -f "$fresh" ]]; then
    new_keys="$(json_keys "$fresh")"
    if [[ -n "$new_keys" ]]; then
      missing="$(comm -23 <(printf '%s\n' "$baseline_keys") \
                          <(printf '%s\n' "$new_keys"))"
      if [[ -n "$missing" ]]; then
        echo "SCHEMA DRIFT: $name dropped baseline key(s):" \
             $missing | tee -a "$out"
        failed+=("$name(schema: $(echo $missing | tr ' ' ','))")
      fi
    fi
  fi
  echo >> "$out"
done
if [[ "${#failed[@]}" -ne 0 ]]; then
  echo "BENCH FAILURES: ${failed[*]}" | tee -a "$out"
  exit 1
fi
echo "ALL BENCHES DONE" | tee -a "$out"
