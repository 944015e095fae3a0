#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload library-source --seed 1 --seconds 60 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files,
# the go command's local telemetry counters) goes under $CARGO_TARGET_DIR,
# default .bench_build, inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a compass checkout (go.mod, internal/ and perfbench/ not found)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
if [[ -z "${COMPASS_COMMIT:-}" && -e .git ]]; then
	COMPASS_COMMIT="$(git rev-parse HEAD 2>/dev/null || true)"
	export COMPASS_COMMIT
fi

go -C perfbench build -o "$out/perfbench" . >&2
# Stop-the-world collection (and sweeping) happens at the same allocation
# points in every run, so memory use and collector work do not depend on
# how the host schedules a concurrent collector against the program.
GODEBUG=gcstoptheworld=2 exec "$out/perfbench" "$@"
