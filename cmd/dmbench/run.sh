#!/usr/bin/env bash
# Builds dmbench from source and runs it with the given arguments. Run it
# from the repository root:
#
#   bash cmd/dmbench/run.sh --workload serve-hit --seed 1 --seconds 16 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build and module caches, the binary, and the
# temporary directories of the run. The module is built offline; the
# build fails outside a full checkout, since dmbench needs the
# repository's own module next to it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/dmbench"
mkdir -p "$out/tmp" "$out/home"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0

(cd "$root/cmd/dmbench" && go build -o "$out/dmbench" .)
exec "$out/dmbench" "$@"
