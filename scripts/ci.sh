#!/usr/bin/env bash
# Repository verification gate: static checks, the full test suite under the
# race detector (which covers the sharded replay-pipeline tests), a
# one-iteration smoke of every benchmark so the bench code cannot rot
# silently, a short fuzz run over the wire-format decoder (the robustness
# surface most exposed to hostile input), the teavet typed-analysis suite
# (with a negative self-test proving the analyzers still flag), the obs-off
# codegen check (scripts/obsasm, with its own negative self-test), and the
# static-verifier gate: every checked-in valid corpus image must verify with
# zero findings, and the known-bad image (decodes cleanly, CFG-impossible
# link) must be flagged. Run from the repo root:
#
#   ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Formatting gate: gofmt must be clean everywhere, fixture modules under
# testdata/ included (they are parsed by the analysis tests).
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "ci: gofmt needed:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go test -race ./...
go test -run='^$' -bench=. -benchtime=1x ./...
go test -run='^$' -fuzz=FuzzDecode -fuzztime=10s ./internal/core
go test -run='^$' -fuzz=FuzzDecodeEvents -fuzztime=10s ./internal/obs
go test -run='^$' -fuzz=FuzzDecodeFlight -fuzztime=10s ./internal/obs
go test -run='^$' -fuzz=FuzzParseEdges -fuzztime=10s ./internal/serve

# Serving-layer gate: the wire/session/breaker suites and the chaos matrix
# under the race detector — including the flight-recorder suffix check, which
# requires every fault-class kill to leave a decodable post-mortem artifact —
# then the teaserve smoke: a live server replayed through every injected
# wire-fault class, requiring byte-exact stats or structured errors
# (DESIGN.md §13), plus the quota-kill flight leg fetched over the admin
# HTTP surface (DESIGN.md §17).
go test -race ./internal/serve/... ./internal/faultinject
go run ./cmd/teaserve -smoke
echo "ci: serve gate ok"

bin="$(mktemp -d)"
trap 'rm -rf "$bin"' EXIT

# Typed static-analysis gate: the four teavet analyzers (hotalloc,
# atomicmix, wirelock, failsem) against the checked-in ratchet baseline and
# wire-format golden. Built as a binary so the exact exit code is visible
# (`go run` collapses every nonzero status to 1).
go build -o "$bin/teavet" ./cmd/teavet
"$bin/teavet"
# Negative self-test, mirroring the badcfg.bin check below: the fixture
# module must keep producing findings from every analyzer (exit 1). If a
# refactor makes an analyzer silently stop flagging, this catches it.
rc=0
"$bin/teavet" -root cmd/teavet/testdata/selftest \
    -baseline baseline.txt -wirelock wirelock.json \
    > "$bin/selftest.out" || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "ci: teavet selftest should exit 1 (findings), got $rc" >&2
    cat "$bin/selftest.out" >&2
    exit 1
fi
for analyzer in hotalloc atomicmix wirelock failsem; do
    if ! grep -q "$analyzer" "$bin/selftest.out"; then
        echo "ci: teavet selftest lost its $analyzer findings" >&2
        cat "$bin/selftest.out" >&2
        exit 1
    fi
done
echo "ci: teavet gate ok"

# Obs-off codegen gate: each replay kernel in internal/core is one generic
# body with an obsOff and an obsOn instance (DESIGN.md §12). obsasm compiles
# the package with -gcflags=-S and fails if any obsOff instance carries
# emitter or internal/obs code. Negative self-test, as for teavet: the same
# check over the obsOn instances must flag every kernel (exit 1).
go build -o "$bin/obsasm" ./scripts/obsasm
"$bin/obsasm"
rc=0
"$bin/obsasm" -mode on > "$bin/obsasm.out" || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "ci: obsasm selftest should exit 1 (leaks), got $rc" >&2
    cat "$bin/obsasm.out" >&2
    exit 1
fi
for kernel in step specReplay merge sequentialReplay advanceBatchPlain advanceBatchStride; do
    if ! grep -q "^$kernel:" "$bin/obsasm.out"; then
        echo "ci: obsasm selftest found no obs code in the obsOn $kernel" >&2
        exit 1
    fi
done
echo "ci: obsasm gate ok"

# Static-verifier gate. Built as a binary so the exact exit code is visible
# (`go run` collapses every nonzero status to 1).
go build -o "$bin/teadump" ./cmd/teadump
for f in internal/core/testdata/decode_corpus/*-valid.bin; do
    "$bin/teadump" -bench figure2 -verify "$f"
done
# Negative test: the forged image must decode yet fail verification (exit 3).
rc=0
"$bin/teadump" -bench figure2 -verify internal/verify/testdata/badcfg.bin || rc=$?
if [ "$rc" -ne 3 ]; then
    echo "ci: badcfg.bin should exit 3 (verifier findings), got $rc" >&2
    exit 1
fi
# Stride-table corpus (C-STRIDE): the table Specialize admitted for the
# steady-state TEA must verify clean, and the forged blob — identical wire
# format, one per-traversal delta off by one — must be flagged (exit 3).
# The forgery is invisible to the decoder; only the admission re-proof
# against the compiled form can catch it.
"$bin/teadump" -bench 901.steady -target 200000 -verify \
    -stride internal/verify/testdata/goodstride.teas internal/verify/testdata/steady.tea
rc=0
"$bin/teadump" -bench 901.steady -target 200000 -verify \
    -stride internal/verify/testdata/badstride.teas internal/verify/testdata/steady.tea || rc=$?
if [ "$rc" -ne 3 ]; then
    echo "ci: badstride.teas should exit 3 (C-STRIDE findings), got $rc" >&2
    exit 1
fi
echo "ci: verify gate ok"

# Recording fast-path gate: a quick recordbench run must hold the batched
# recorder's hard invariant — zero steady-state allocations per edge. The
# instruction target is deliberately small (the smoke is about allocs, not
# timing), so benchdiff skips the ns/edge comparison against the checked-in
# baseline; rerun teabench with the baseline's target before trusting a
# timing diff.
go run ./cmd/teabench -recordbench "$bin/record.json" -target 300000 -bench gcc
go run ./scripts/benchdiff -base BENCH_record.json -new "$bin/record.json" -zero-allocs batch
echo "ci: recordbench gate ok"

# Replay fast-path gate: a one-benchmark smoke run of the replay
# micro-benchmark is compared row-by-row against the checked-in baseline
# (-gate compares ns/edge on the shared rows only, so the mcf subset is
# fine). The exact zero-alloc claim is checked by the obsbench gate below,
# whose allocs come from testing.AllocsPerRun; replaybench's are averaged
# out of the timing loop and legitimately show stray one-time allocations.
go run ./cmd/teabench -replaybench "$bin/replay.json" -target 300000 -bench mcf
go run ./scripts/benchdiff -base BENCH_replay.json -new "$bin/replay.json" -gate 25
echo "ci: replaybench gate ok"

# Stride speedup gate: on the steady-state cycle workloads the fused
# trace-cycle kernel must deliver at least 1.5× over the plain batched
# kernel. The gate is a ratio inside one run, so host speed drops out; the
# measured margin is ~8× (901.steady) and ~2.7× (902.stream), leaving
# honest headroom for a throttled runner. The exact zero-alloc claim for
# the stride kernel is checked by the obsbench gate below (AllocsPerRun is
# precise; replaybench's loop-averaged allocs legitimately show stray
# one-time allocations).
go run ./cmd/teabench -replaybench "$bin/stride.json" -target 300000 -bench 901.steady,902.stream
go run ./scripts/benchdiff -new "$bin/stride.json" \
    -faster compiled-stride:compiled-batch:1.5:901.steady,902.stream
echo "ci: stride gate ok"

# Observability gate: with no context attached the instrumented fast paths
# must stay at their BENCH_obs.json numbers — in particular every compiled
# kernel (batch and stride) stays exactly zero allocs/edge in both modes —
# and enabling the layer must not regress past its own checked-in baseline.
# The serve-session rows ride the same gate: a full wire Replay per pass,
# session events off (DisableSessionEvents) vs on, so the cost of the
# session event stream is regression-tested alongside the replay kernels.
go run ./cmd/teabench -obsbench "$bin/obs.json" -target 300000 -bench mcf
go run ./scripts/benchdiff -base BENCH_obs.json -new "$bin/obs.json" -gate 30 -zero-allocs compiled
# Same claims where the stride kernel actually fuses: on 901.steady the
# fused runs dominate (~99.9% of the stream), so this is the row that holds
# the stride consume loops — prefetch included — to zero allocations.
go run ./cmd/teabench -obsbench "$bin/obs9.json" -target 300000 -bench 901.steady
go run ./scripts/benchdiff -base BENCH_obs.json -new "$bin/obs9.json" -gate 40 -zero-allocs compiled
echo "ci: obsbench gate ok"

# Pipeline gate: the decoupled capture→process pipeline must stay
# byte-identical to sequential under the race detector (the property test
# randomizes worker counts and chunk sizes), and a one-benchmark smoke of
# the pipeline micro-benchmark must hold both hard claims — zero
# steady-state allocs/edge on every pipe row, and the ≥3× modeled recording
# scaling self-gate inside RunPipeBench — without regressing the shared
# rows of the checked-in baseline.
go test -race ./internal/pipeline
go run ./cmd/teabench -pipebench "$bin/pipe.json" -target 300000 -bench mcf
go run ./scripts/benchdiff -base BENCH_pipeline.json -new "$bin/pipe.json" -gate 30 -zero-allocs pipe
echo "ci: pipebench gate ok"
