#!/bin/sh
# Run the sharded-pipeline benchmarks and record a JSON baseline.
#
# Usage:
#   scripts/bench.sh [-profile] [output.json]
#
# Writes one JSON object per benchmark: name, iterations, ns/op, and any
# extra metrics (MB/s, B/op, allocs/op), plus an "obs_snapshot" key holding
# the self-observability metrics of a representative tanalyze run — so each
# baseline records not just how fast the pipeline was but how much work
# (records written, chunks flushed, ranks pruned, ...) the numbers represent.
# The default output is BENCH_PR15.json at the repo root — the checked-in
# baseline for the indexed-dissemination PR (GraphFromTraceSerial now runs at
# the full benchEvents); regenerate it when the pipeline changes materially
# and mention the delta in the PR.
#
# BENCH_BEFORE=<file> names raw `go test -bench` output captured on the
# parent commit; its results are recorded beside the new ones under
# "<name>@parent", so a baseline that moves a number carries its own before.
#
# With -profile, CPU and allocation profiles of the write, load, and query
# benchmark groups are additionally captured into bench-profiles/ (one
# .cpu.pprof / .mem.pprof / .test pair per group, ready for `go tool pprof`).
#
# On timed runs (BENCHTIME not 1x) two acceptance criteria are re-pinned:
# ObsOverhead/enabled must stay <= 1.05x ObsOverhead/noop, and the cold
# indexed query (QueryCold/Indexed) must beat the sidecar-less scan
# (QueryCold/Scan) by at least 5x, or the script fails.
set -eu

cd "$(dirname "$0")/.."

profile=0
if [ "${1:-}" = "-profile" ]; then
    profile=1
    shift
fi
out="${1:-BENCH_PR15.json}"
before="${BENCH_BEFORE:-/dev/null}"
benchtime="${BENCHTIME:-1s}"

raw="$(mktemp)"
snap="$(mktemp)"
trap 'rm -f "$raw" "$snap"' EXIT

go test -run '^$' \
    -bench 'SerialLoad|ParallelLoad|QuerySerial|QueryIndexed|QueryParallel|QueryCold|FileWriterSerial|ShardedWrite|SyncPolicy|GraphFromTrace|MergedOrder|ObsOverhead|StreamVsMaterialize|DaemonIngest|TailLatency' \
    -benchtime "$benchtime" -benchmem . | tee "$raw"

# The scrub CRC walk lives with the store package; append it to the same
# raw stream so the baseline records the background-scrub cost per byte.
go test -run '^$' -bench 'Scrub' \
    -benchtime "$benchtime" -benchmem ./internal/store | tee -a "$raw"

# Pin the obs-layer overhead criterion on timed runs: the single-iteration
# CI smoke (BENCHTIME=1x) is too noisy to resolve 5%.
if [ "$benchtime" != "1x" ]; then
    awk '
    /^BenchmarkObsOverhead\/enabled/ { enabled = $3 }
    /^BenchmarkObsOverhead\/noop/ { noop = $3 }
    END {
        if (enabled == "" || noop == "" || noop == 0) {
            print "bench.sh: ObsOverhead results missing from run" > "/dev/stderr"
            exit 1
        }
        ratio = enabled / noop
        printf "obs overhead: enabled/noop = %.4f (limit 1.05)\n", ratio
        if (ratio > 1.05) {
            printf "bench.sh: obs overhead ratio %.4f exceeds 1.05\n", ratio > "/dev/stderr"
            exit 1
        }
    }' "$raw"

    awk '
    /^BenchmarkQueryCold\/Indexed/ { indexed = $3 }
    /^BenchmarkQueryCold\/Scan/ { scan = $3 }
    END {
        if (indexed == "" || scan == "" || indexed == 0) {
            print "bench.sh: QueryCold results missing from run" > "/dev/stderr"
            exit 1
        }
        speedup = scan / indexed
        printf "cold indexed query: scan/indexed = %.2fx (floor 5x)\n", speedup
        if (speedup < 5) {
            printf "bench.sh: cold indexed speedup %.2fx below the 5x floor\n", speedup > "/dev/stderr"
            exit 1
        }
    }' "$raw"
fi

# Capture the obs snapshot of an in-process record + analyze pass: the
# counters land in the same JSON as the timings they contextualize.
go run ./cmd/tanalyze -app strassen -ranks 8 -size 16 -stats-json "$snap" > /dev/null

awk -v before="$before" '
BEGIN { print "{"; first = 1 }
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    if (FILENAME == before) name = name "@parent"
    if (!first) printf ",\n"
    first = 0
    printf "  \"%s\": {\"iterations\": %s, \"ns_per_op\": %s", name, $2, $3
    for (i = 6; i <= NF; i += 2) {
        unit = $(i)
        gsub(/\//, "_per_", unit)
        printf ", \"%s\": %s", unit, $(i - 1)
    }
    printf "}"
}
/^goos:/ { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/ { cpu = substr($0, 6); sub(/^[ \t]+/, "", cpu) }
END {
    if (!first) printf ",\n"
    printf "  \"_meta\": {\"goos\": \"%s\", \"goarch\": \"%s\", \"cpu\": \"%s\"},\n",
        goos, goarch, cpu
    printf "  \"obs_snapshot\":\n"
}' "$raw" "$before" > "$out"

sed 's/^/  /' "$snap" >> "$out"
echo "}" >> "$out"

echo "wrote $out"

# Optional profile capture: one CPU + allocation profile per hot-path group,
# runnable afterwards with e.g.
#   go tool pprof bench-profiles/write.test bench-profiles/write.cpu.pprof
if [ "$profile" = 1 ]; then
    mkdir -p bench-profiles
    for group in write load query; do
        case "$group" in
        write) pat='FileWriterSerial|ShardedWrite' ;;
        load)  pat='SerialLoad|ParallelLoad' ;;
        query) pat='QueryIndexed|StreamVsMaterialize/Query' ;;
        esac
        go test -run '^$' -bench "$pat" -benchtime "$benchtime" \
            -cpuprofile "bench-profiles/$group.cpu.pprof" \
            -memprofile "bench-profiles/$group.mem.pprof" \
            -o "bench-profiles/$group.test" . > /dev/null
    done
    echo "wrote bench-profiles/{write,load,query}.{cpu,mem}.pprof"
fi
