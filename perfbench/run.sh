#!/usr/bin/env bash
# Builds the benchmark program from the checkout's sources and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload csi4-parbs --seed 1 --seconds 20 --trace 0
# Build outputs, the Go build cache and the compiler's temporary files stay
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/tmp \
	GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off CGO_ENABLED=0
go -C perfbench build -o "$out/perfbench" . >&2

# The source stamp is the commit, plus a digest of every Go source and
# module file outside the build directory when the work tree differs from
# it; a checkout without git metadata is stamped with the digest alone.
digest() {
	find . -path "./${out#"$root"/}" -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-12
}
if commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null); then
	if [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
		commit=$commit+tree-$(digest)
	fi
else
	commit=tree-$(digest)
fi
export PERFBENCH_COMMIT=$commit
exec "$out/perfbench" "$@"
