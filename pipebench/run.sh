#!/usr/bin/env bash
# Builds the pipeline benchmark from the checkout's sources and runs it.
# Run from the repository root, for example:
#
#   bash pipebench/run.sh --workload campaign --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays in .bench_build/: the
# binary, the Go build cache, temporary files and chaos-resume's journals.
set -euo pipefail
root=$PWD
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/pipebench" && go build -buildvcs=false -o "$out/pipebench" .) >&2
commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/pipebench" -commit "$commit" "$@"
