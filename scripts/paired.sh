#!/usr/bin/env bash
# Paired timing gate. Builds the timing benchmarks of two source trees with
# `go test -c`, runs them in 10 interleaved pairs on the same host,
# alternating which tree runs first, and has benchdiff compare each row's
# runs: a row fails only when the IQRs of the two sides separate and HEAD's
# median is more than 25% worse (scripts/benchdiff states the rule). Run
# from the repo root:
#
#   ./scripts/paired.sh PARENT_TREE HEAD_TREE
#
# ci.sh passes the parent commit's tree and the working tree. Passing one
# tree as both sides is the gate's false-positive check: no row may fail.
set -euo pipefail
declare -A tree=([parent]="$(cd "$1" && pwd)" [head]="$(cd "$2" && pwd)")
cd "$(dirname "$0")/.."
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

# Package directory and -bench pattern: the rows the retired best-of-N
# harness gates compared (replay kernels on mcf and the 901.steady cycle
# workload, obs off and on, serve sessions, and both pipelines), the
# stride kernel on 901.steady with local caches off as well as on, plus the
# batch kernels on 176.gcc, the trace-rich stream whose edges are mostly
# links, exits and NTE crossings, and the engine: the interpreter, and the
# DBT recording 176.gcc (the largest text, so the most blocks to copy),
# and the serve wire codec (Edges encode and decode on 176.gcc batches).
benches=(
    ".:^BenchmarkInterpreter$"
    ".:^BenchmarkDBTRecord$/^176\.gcc$"
    ".:CompiledReplay/^181\.mcf$"
    ".:CompiledReplay/^176\.gcc$/^compiled-(batch|soa)$"
    ".:CompiledReplay/^901\.steady$/^compiled-(batch|stride|soa-stride)"
    "internal/serve:ServeSession"
    "internal/serve:^Benchmark(ParseEdges|AppendEdges)$"
    "internal/pipeline:(Replay|Record)Pipeline/obs=/workers="
    "internal/pipeline:(Replay|Record)Pipeline/obs=off/(scan|merge)"
)

for side in parent head; do
    mkdir "$out/$side"
    for pkg in . internal/serve internal/pipeline; do
        (cd "${tree[$side]}" && go test -c -o "$out/$side-${pkg//\//-}.test" "./$pkg")
    done
done
go build -o "$out/benchdiff" ./scripts/benchdiff

# Each run is one process and one file. Inside it, -count=5 short
# repetitions of every row: benchdiff takes their median as the run's
# value, which damps host noise lasting under a second. Every row runs
# pinned to CPU 1, since unpinned single-threaded rows spread wider than
# the effects they judge, except the pipelines' workers=N rows (the
# patterns naming workers=), which need more than one CPU. The pipelines'
# scan and merge rows are single-threaded and stay pinned.
for pair in $(seq 1 10); do
    order="parent head"
    if [ $((pair % 2)) -eq 0 ]; then
        order="head parent"
    fi
    for i in "${!benches[@]}"; do
        pkg=${benches[$i]%%:*}
        pin=(taskset -c 1)
        case ${benches[$i]} in
        *workers=*) pin=() ;;
        esac
        for side in $order; do
            (cd "${tree[$side]}/$pkg" &&
                "${pin[@]}" "$out/$side-${pkg//\//-}.test" -test.run='^$' -test.bench="${benches[$i]#*:}" \
                    -test.count=5 -test.benchtime=20ms -test.timeout=5m) > "$out/$side/$pair-$i"
        done
    done
done
"$out/benchdiff" "$out/parent" "$out/head"
