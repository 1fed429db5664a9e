#!/usr/bin/env bash
# Build odebench from this checkout and run it; every argument goes to
# `odebench run`, e.g.
#
#   bash bench/e2e/run.sh --workload stockroom_txn --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr, so the last line on stdout is the run's
# JSON result. The dune cache and $TMPDIR (the durable workload's log
# directory) are kept inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/../.." && pwd)"
cd "$root"
export DUNE_CACHE=disabled
dune build --root . ./bench/e2e/odebench.exe 1>&2
export TMPDIR="$root/bench/e2e/out/tmp"
mkdir -p "$TMPDIR"
exec ./_build/default/bench/e2e/odebench.exe run "$@"
