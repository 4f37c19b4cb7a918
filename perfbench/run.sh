#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload <voter_pipeline|analytic_mix|ingest_read> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Everything it writes (build cache, binary, WAL and spill directories,
# span files) goes under .bench_build/ at the checkout root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOFLAGS=
export GOPROXY=off
export GOSUMDB=off
export GOTOOLCHAIN=local
export GOWORK=off

commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || true)"
(cd "$here" && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" --root "$root" --commit "${commit:-none}" "$@"
