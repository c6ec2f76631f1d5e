#!/usr/bin/env bash
# Builds the benchmark into benchmark/.build (git-ignored, inside the
# checkout) and runs it with the arguments given:
#
#   bash benchmark/run.sh --workload paper_pipeline --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh -agree 10
#
# The Go build cache, the binary, scratch files and trace dumps all live in
# the build directory, so nothing is read or written outside the checkout.
# In a directory without the omptune module (go.mod's replace target) the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build/home" "$build/scratch"

commit="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"

HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" \
GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off \
	go build -C "$here" -buildvcs=false \
	-ldflags "-X main.commit=$commit" -o "$build/omptune-bench" . >&2

exec "$build/omptune-bench" -scratch "$build/scratch" "$@"
