#!/usr/bin/env bash
# Builds the engine benchmark from the checkout's sources and runs it with
# the given arguments. Run from the repository root:
#
#   bash enginebench/run.sh --workload ring-stream --seed 1 --seconds 10 --trace 0
#
# Every build artifact (binary, Go build cache and temporary files, Go's
# config and telemetry files) stays under .bench_build/ in the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="${root}/.bench_build"
if [[ ! -f "${root}/go.mod" ]]; then
	echo "enginebench: no go.mod at ${root}; run from a full checkout of the repository" >&2
	exit 2
fi
mkdir -p "${build}/tmp"
export GOCACHE="${build}/gocache" GOMODCACHE="${build}/gomod" XDG_CONFIG_HOME="${build}/config"
export GOTMPDIR="${build}/tmp" TMPDIR="${build}/tmp"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "${here}" && go build -o "${build}/enginebench" .)
cd "${root}"
exec "${build}/enginebench" "$@"
