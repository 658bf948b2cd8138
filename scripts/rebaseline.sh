#!/usr/bin/env bash
# Re-baselines the bench-regression gate: re-runs every figure binary and
# promotes the fresh target/bench/BENCH_*.json headline reports AND the
# target/bench/BUNDLE_*.json telemetry bundles (the `obs diff` inputs) to the
# committed repo-root baselines. Before rewriting anything it prints the
# per-figure headline deltas (old -> new, direction-aware ✓/✗) so the
# promotion is reviewable at a glance. Run this after a deliberate
# performance change, review the diff, and commit the updated BENCH_*.json
# and BUNDLE_*.json files together — the gate and `obs diff` refuse
# mismatched schemas rather than partially comparing.
#
# BENCH_chaos.json is the one exception: it is refreshed by the nightly
# full fault-injection sweep (`cargo run --offline --release --bin chaos`),
# not by this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> regenerating all fresh reports and bundles"
for fig in fig7 fig8 fig9 fig10a fig10b fig11a fig11b rpc_micro saturation fig_interference; do
  cargo run --offline --release -q -p cronus-bench --bin "$fig" > /dev/null
done

# Extracts "key value better" lines from a BENCH_*.json headline array.
headlines() {
  grep -o '"key":"[^"]*","value":[^,]*,"unit":"[^"]*","better":"[^"]*"' "$1" \
    | sed -E 's/"key":"([^"]*)","value":([^,}]*),"unit":"[^"]*","better":"([^"]*)"/\1 \2 \3/'
}

echo "==> headline deltas (committed -> fresh)"
for fresh in target/bench/BENCH_*.json; do
  name=$(basename "$fresh" .json); name=${name#BENCH_}
  old=BENCH_${name}.json
  if [ ! -f "$old" ]; then
    echo "  $name: no committed baseline yet (will be seeded)"
    continue
  fi
  old_h=$(headlines "$old")
  while read -r key new_v better; do
    old_v=$(awk -v k="$key" '$1==k{print $2; exit}' <<< "$old_h")
    if [ -z "$old_v" ]; then
      echo "  ? $name/$key: new headline -> $new_v"
      continue
    fi
    awk -v k="$key" -v o="$old_v" -v n="$new_v" -v b="$better" -v f="$name" 'BEGIN{
      mark = "✓"
      if ((b == "lower" && n > o) || (b == "higher" && n < o)) mark = "✗"
      d = (o == 0) ? 0 : (n - o) / o * 100
      printf "  %s %-40s %g -> %g (%+.2f%%, %s-is-better)\n", mark, f "/" k, o, n, d, b
    }'
  done <<< "$(headlines "$fresh")"
done

echo "==> promoting fresh reports and bundles to repo-root baselines"
for fresh in target/bench/BENCH_*.json target/bench/BUNDLE_*.json; do
  cp -v "$fresh" "$(basename "$fresh")"
done

echo "re-baselined; review 'git diff BENCH_*.json BUNDLE_*.json' and commit."
