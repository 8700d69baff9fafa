#!/usr/bin/env bash
# Repository verification gate: static checks, the full test suite under the
# race detector (which covers the sharded replay-pipeline tests and the
# zero-allocation tests of every compiled, batch, pipeline and recorder hot
# path), a one-iteration smoke of every benchmark so the bench code cannot
# rot silently, a short run of every fuzz target (the four decoders of
# hostile input: TEA images, event logs, flight records and Edges frames;
# the assembler; and FuzzExecutors, the differential oracle that holds
# every replay, record and serve executor to the reference replayer), the teavet
# typed-analysis suite (with a negative self-test proving the analyzers
# still flag), the obs-off codegen check (scripts/obsasm, with its own
# negative self-test), and the static-verifier gate: every checked-in valid
# corpus image must verify with zero findings, and the known-bad image
# (decodes cleanly, CFG-impossible link) must be flagged; regenerating every
# checked-in corpus must leave no diff. Then the timing
# checks, none of which reads a checked-in number: the paired gate runs the
# timing benchmarks of the parent commit and of this tree interleaved on
# this host (scripts/paired.sh; its negative self-test is benchdiff's unit
# tests), and two within-run ratio checks hold the stride speedup and the
# record pipeline's measured two-worker scaling. Run from the repo root:
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
go test -run='^$' -fuzz=FuzzAssemble -fuzztime=10s ./internal/asm
go test -run='^$' -fuzz=FuzzExecutors -fuzztime=10s ./internal/pipeline

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

# Typed static-analysis gate: the five teavet analyzers (hotalloc,
# atomicmix, wirelock, failsem, unused) against the checked-in ratchet
# baseline and wire-format golden. Built as a binary so the exact exit code is visible
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
for analyzer in hotalloc atomicmix wirelock failsem unused; do
    if ! grep -q "$analyzer" "$bin/selftest.out"; then
        echo "ci: teavet selftest lost its $analyzer findings" >&2
        cat "$bin/selftest.out" >&2
        exit 1
    fi
done
echo "ci: teavet gate ok"

# Obs-off codegen gate: each replay and record kernel in internal/core is one
# generic body with an obsOff and an obsOn instance (the cached kernel has
# one of each per stride mode; DESIGN.md §12). obsasm
# compiles the package with -gcflags=-S and fails if any obsOff instance
# carries emitter or internal/obs code. Negative self-test, as for teavet: the same
# check over the obsOn instances must flag every kernel (exit 1; obsasm exits
# 2 and names any kernel it finds no obs code in, on stderr; stdout holds
# only the flagged lines).
go build -o "$bin/obsasm" ./scripts/obsasm
"$bin/obsasm"
rc=0
"$bin/obsasm" -mode on > "$bin/obsasm.out" 2> "$bin/obsasm.err" || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "ci: obsasm selftest should exit 1 (every kernel flagged), got $rc" >&2
    cat "$bin/obsasm.err" >&2
    exit 1
fi
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

# Corpus freshness gate: regenerating the decoder, verifier and wire corpora
# must reproduce the files in the tree byte for byte, so an encoding or frame
# change cannot leave a corpus describing an older layout. On a clean tree
# that means git status shows nothing under any testdata/ afterwards; on a
# dirty one, that regenerating changed nothing relative to the tree.
corpus_state() {
    git status --porcelain --untracked-files=all -- '*/testdata/*'
    git diff --binary -- '*/testdata/*'
}
before="$(corpus_state)"
go run ./scripts/gencorpus
if [ "$(corpus_state)" != "$before" ]; then
    echo "ci: go run ./scripts/gencorpus changed checked-in corpora:" >&2
    git status --porcelain -- '*/testdata/*' >&2
    exit 1
fi
echo "ci: corpus gate ok"

# Paired timing gate: every timing row the retired best-of-N harness gates
# compared (replay kernels obs off and on, serve sessions, both pipelines),
# the batch kernels on 176.gcc, the replay pipeline's scan alone and the
# engine (BenchmarkInterpreter, BenchmarkDBTRecord/176.gcc) run in
# 10 interleaved pairs against the parent commit on this host. The
# parent is HEAD when the working tree differs from it, else HEAD~1; its
# tree is extracted with git archive, so nothing is left in .git. Rows that
# exist on one side only are listed, not failed: BenchmarkReplayPipeline's
# obs=off/merge and obs=off/merge-desync rows are head-only until the
# parent has them.
if [ -n "$(git status --porcelain)" ]; then parent=HEAD; else parent=HEAD~1; fi
mkdir "$bin/parent"
git archive "$parent" | tar -x -C "$bin/parent"
./scripts/paired.sh "$bin/parent" .
echo "ci: paired gate ok (parent $parent)"

# Stride speedup check: on the steady-state cycle workloads the fused
# trace-cycle kernel must deliver at least 1.5× over the plain batched
# kernel. The ratio is taken inside one run, so host speed drops out.
go test -run='^$' -bench='CompiledReplay/^90[12]\./^compiled-(batch|stride)$' . > "$bin/stride.txt"
go run ./scripts/benchdiff -faster compiled-stride:compiled-batch:1.5:901.steady,902.stream "$bin/stride.txt"
echo "ci: stride check ok"

# Measured record-scaling check, the last step: on the saturated record
# pipeline with obs off, two workers must run a pass at least 1.3× faster
# than one, both rows taken in one run so host speed drops out. On a 2-vCPU
# x86 host the quiet path reads 1.53–2.36× (median 1.8×, 14 runs); with
# every chunk run through the sequential recorder the pipeline reads
# 0.82–1.10× (median 1.0×, 14 runs), and the step fails.
go test -run='^$' -bench='RecordPipeline/^obs=off$/^workers=[12]$' ./internal/pipeline > "$bin/scaling.txt"
go run ./scripts/benchdiff -faster workers=2:workers=1:1.3:obs=off "$bin/scaling.txt"
echo "ci: measured scaling check ok"
