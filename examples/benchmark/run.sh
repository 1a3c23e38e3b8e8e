#!/usr/bin/env bash
# Build the CLI and the harness (release, offline), then run the
# harness with the arguments given. Both builds share one target
# directory so the harness finds the CLI binary beside itself.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --bin rv-nvdla
cargo build --release --offline --quiet --manifest-path examples/benchmark/Cargo.toml
exec "$target/release/rvnv-benchmark" "$@"
