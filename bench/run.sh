#!/usr/bin/env bash
# Builds the benchmark (bench and bench/node) from source into .bench_build/
# at the root of the checkout and runs it. Everything the build and the run
# write — Go's build cache included — stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/bin/" . ./node ./ref)
exec "$out/bin/bench" -node "$out/bin/node" -ref "$out/bin/ref" -scratch "$out/run" "$@"
