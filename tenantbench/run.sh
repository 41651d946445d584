#!/usr/bin/env bash
# Build the release abase-server and the benchmark, then run one workload.
#
#   bash tenantbench/run.sh --workload write_heavy --seed 1 --seconds 40 --trace 0
#
# Run from the repository root. Both builds go to one target directory,
# $CARGO_TARGET_DIR (default: target/), so the shared crates compile once;
# run data goes to tenantbench/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --target-dir "$target" --bin abase-server >&2
cargo build --release --quiet --target-dir "$target" --manifest-path tenantbench/Cargo.toml >&2
exec "$target/release/tenantbench" --server "$target/release/abase-server" "$@"
