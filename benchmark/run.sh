#!/usr/bin/env bash
# Run all five workloads (each run a process of its own: REPEATS untraced
# runs and one traced run per workload) and write the numbers, with the
# machine they were taken on, to benchmark/results/<label>.json.
#
#   benchmark/run.sh <label> [seed] [repeats]
#
# Compare two result files with
#   benchmark/target/release/dialbench compare results/a.json results/b.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
label="${1:?usage: run.sh <label> [seed] [repeats]}"
seed="${2:-1}"
repeats="${3:-5}"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target"
mkdir -p "$here/results"
commit="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ -n "$(git -C "$here" status --porcelain 2>/dev/null)" ]; then commit="$commit+dirty"; fi
"$target/release/dialbench" suite \
    --label "$label" --seed "$seed" --repeats "$repeats" \
    --out "$here/out" --out-file "$here/results/$label.json" \
    --env "rustc=$(rustc -V)" --env "commit=$commit" --env "kernel=$(uname -r)" \
    --env "cpu=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -1)"
