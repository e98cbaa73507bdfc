#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it; every
# argument is passed through (see perfbench/README.md). The Go build
# cache, the go command's config and telemetry files, temporary files,
# the binary and the traces all stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "perfbench: $root is not a checkout of the faultspace module" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
