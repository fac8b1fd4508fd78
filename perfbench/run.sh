#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload fleet-wearout --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# repository root (Go build cache and temporary files included), so a
# checkout is self-contained.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
go -C perfbench build -buildvcs=false -o "$build/perfbench" . >&2

commit=unknown
if top="$(git rev-parse --show-toplevel 2>/dev/null)" && [ "$top" = "$root" ]; then
	commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
	[ -z "$(git status --porcelain 2>/dev/null)" ] || commit="$commit+dirty"
fi

exec "$build/perfbench" -commit "$commit" "$@"
