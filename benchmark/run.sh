#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the arguments
# given: the command BENCHMARK.json names. By hand, `go run ./benchmark ...`
# from the repository root does the same with the usual build cache.
#
# The build cache is kept under .bench_build so that a run reads and writes
# nothing outside its checkout and needs no $HOME; the first run of a fresh
# checkout therefore compiles the standard library too.
set -euo pipefail
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
