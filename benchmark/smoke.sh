#!/usr/bin/env bash
# Smoke run of the benchmark: all five workloads at about a twentieth of the
# work, untraced and traced, same result schema and same correctness gate as
# the full run. Takes well under 20 s once built. Exits non-zero if any
# checksum, digest, round-trip or HTTP check fails.
#
#   benchmark/smoke.sh [extra flags for the benchmark, e.g. --seed 7]
set -euo pipefail
cd "$(dirname "$0")/.."
CARGO_NET_OFFLINE=true exec cargo run --release --quiet \
    --manifest-path benchmark/Cargo.toml -- --smoke "$@"
