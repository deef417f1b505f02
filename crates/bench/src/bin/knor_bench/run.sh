#!/usr/bin/env bash
# The benchmark's command (see BENCHMARK.json): build the shipped `knor`
# binary and `knor_bench` from the checkout's sources, then run
# `knor_bench` with the arguments given. Both builds are no-ops after the
# first run in a checkout.
#
#   bash crates/bench/src/bin/knor_bench/run.sh --workload im_dense --seed 1 --seconds 30 --trace 0
#
# In a directory that holds only the benchmark's own files the first build
# fails and the script exits non-zero without printing a result.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../../../../.." && pwd)
# One target directory for both builds, so `knor_bench` finds `knor`
# beside itself and the library crates compile once.
target=${CARGO_TARGET_DIR:-target}
case $target in
/*) ;;
*) target=$root/$target ;;
esac
export CARGO_TARGET_DIR=$target

cd "$root"
cargo build --release --quiet --bin knor >&2
cargo build --release --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/knor_bench" "$@"
