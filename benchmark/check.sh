#!/usr/bin/env bash
# Format, lint and test the benchmark crate. It is a workspace of its
# own, so the repository's scripts/check.sh and darkvec-lint do not see it.
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline
