#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash e2ebench/run.sh --workload browse-weak --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every file the build and the run write
# (binary, Go build cache, temporary files, traces) stays under
# .bench_build in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off CGO_ENABLED=0

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" "$@"
