#!/usr/bin/env bash
# Builds krspperf from this checkout and runs it with the given arguments,
# for example:
#
#   bash cmd/krspperf/run.sh --workload solve-lgrid-2k --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and the
# krspd logs all stay under $CARGO_TARGET_DIR (default .bench_build), so a
# run writes nothing outside the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/krspd ] || [ ! -d internal/core ]; then
	echo "krspperf: run from the repository root (go.mod, cmd/krspd and internal/core are missing here)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/go-cache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
mkdir -p "$GOTMPDIR"

go -C cmd/krspperf build -o "$out/krspperf" .
exec "$out/krspperf" -build "$out" "$@"
