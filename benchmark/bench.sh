#!/usr/bin/env bash
# The command of BENCHMARK.json: build dialbench from source, then run one
# workload. The driver calls, from the root of a checkout,
#   bash benchmark/bench.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# and reads the last line of standard output. In a directory that holds
# only the benchmark and not the crates it measures the build fails, and
# so does this script, without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/dialbench" run --out "$here/out" "$@"
