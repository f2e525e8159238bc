#!/usr/bin/env bash
# Builds served and the benchmark driver from this checkout's sources,
# then runs one workload. Run from the root of the checkout; arguments
# pass through to the driver, for example:
#
#   bash perfbench/run.sh --workload read-burst --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config/go/telemetry"
# With telemetry on, the go command starts a detached child that can
# outlive this script; turning it off in the fresh config keeps the go
# command from starting one.
printf 'off\n' >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$out/served" ./cmd/served >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --served "$out/served" --out "$out" "$@"
