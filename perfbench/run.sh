#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, for example:
#
#   bash perfbench/run.sh --workload figures --seed 1 --seconds 25 --trace 0
#
# The Go build cache and the binary live under $CARGO_TARGET_DIR
# (default .bench_build), so a run writes only inside the checkout.
set -euo pipefail
if [[ ! -f go.mod || ! -d internal ]]; then
	echo "run.sh: run from the root of a photon checkout" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out=$PWD/$out
mkdir -p "$out"
(
	cd perfbench
	export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config \
		GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
	go build -o "$out/perfbench" .
)
export CARGO_TARGET_DIR=$out
exec "$out/perfbench" "$@"
