#!/usr/bin/env bash
# Holds the deterministic fields of an onesa-bench baseline bin to its
# committed BENCH_*.json: runs each bin (program_optimizer by default, or
# the ones named), drops the host-dependent fields (*_us_per_call,
# setup_speedup) from both sides and diffs the rest. Run from the
# repository root.
set -euo pipefail

bins=("$@")
if [ ${#bins[@]} -eq 0 ]; then
  bins=(program_optimizer)
fi

strip_host_fields() {
  sed -E 's/"([a-z0-9_]*_us_per_call|setup_speedup)": [-+0-9.e]+,? ?//g'
}

status=0
for bin in "${bins[@]}"; do
  if diff <(strip_host_fields <"BENCH_$bin.json") \
          <(cargo run --release -q -p onesa-bench --bin "$bin" | strip_host_fields); then
    echo "BENCH_$bin.json: deterministic fields match"
  else
    echo "BENCH_$bin.json: differs from what the bin prints (< committed, > printed)" >&2
    status=1
  fi
done
exit $status
