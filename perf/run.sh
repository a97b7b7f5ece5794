#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given flags:
#
#   bash perf/run.sh --workload hot --seed 3 --seconds 20 --trace 0
#
# Run from the repository root. Every build artefact, Go cache and temporary
# file stays under .bench_build/ in the current directory, so a run reads and
# writes nothing outside the checkout. Without the vesta module one directory
# above perf/ the build fails and the script exits non-zero without a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/config" "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=

# Build to a private name and rename into place, so two runs sharing a
# checkout never execute a half-written binary.
bin="$build/perf"
tmpbin=$(mktemp "$build/tmp/perf.XXXXXX")
if ! (cd "$root/perf" && go build -o "$tmpbin" .) >&2; then
	rm -f "$tmpbin"
	exit 2
fi
mv -f "$tmpbin" "$bin"
exec "$bin" "$@"
