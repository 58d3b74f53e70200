#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload cksim-ops --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, build cache, Go's own state) goes
# under .bench_build/ at the repository root. Build output goes to
# standard error, so the benchmark's last line of standard output is its
# result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
mkdir -p "$GOTMPDIR"

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
