#!/usr/bin/env bash
# Builds lakebench from this checkout's sources and runs it, passing
# every argument through. Run from the repository root:
#
#   bash lakebench/run.sh --workload star-warm --seed 1 --seconds 10 --trace 0
#
# Build outputs (binary, Go build cache, span files) stay under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/lakebench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/lakebench" && go build -o "$out/lakebench" .) >&2
rev="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)"
exec "$out/lakebench" -root "$root" -out "$out" -rev "$rev" "$@"
