#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload stream|ingest|recover --seed N --seconds S --trace 0|1
#
# The Go build cache, the module cache and the toolchain's own state live in
# .bench_build/ so the build reads and writes only inside the checkout, and
# module lookups stay offline (the module needs nothing beyond this
# repository).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
# The collector and scheduler run with their defaults whatever the caller's
# environment says, so two checkouts measure under the same runtime settings.
unset GOGC GOMEMLIMIT GODEBUG GOMAXPROCS
exec "$out/perfbench" "$@"
