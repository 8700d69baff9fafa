package tea_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	tea "github.com/lsc-tea/tea"
)

// exampleSrc is a small program with one hot loop.
const exampleSrc = `
.entry main
main:
    movi ebp, 80
round:
    movi eax, 0
    movi esi, 100
    movi ecx, 64
loop:
    load  ebx, [esi+0]
    add   eax, ebx
    addi  esi, 1
    subi  ecx, 1
    jne   loop
    subi ebp, 1
    jgt  round
    halt
`

// ExampleBuild shows the paper's Algorithm 1: traces in, automaton out.
func ExampleBuild() {
	prog := tea.MustAssemble("sum", exampleSrc)
	set, err := tea.RecordTraces(context.Background(), prog, "mret", tea.TraceConfig{HotThreshold: 50}, 0)
	if err != nil {
		panic(err)
	}
	a := tea.Build(set)
	fmt.Println("states:", a.NumStates(), "entries:", len(a.Entries()))
	// Output:
	// states: 4 entries: 3
}

// ExampleReplay shows cross-run replay: the automaton maps a fresh
// execution of the unmodified program back onto the recorded traces.
func ExampleReplay() {
	prog := tea.MustAssemble("sum", exampleSrc)
	set, _ := tea.RecordTraces(context.Background(), prog, "mret", tea.TraceConfig{HotThreshold: 50}, 0)
	a := tea.Build(set)

	stats, err := tea.Replay(context.Background(), prog, a, tea.ConfigGlobalLocal, 0, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("coverage: %.0f%%\n", stats.Coverage()*100)
	// Output:
	// coverage: 100%
}

// ExampleSpecialize fuses the program's steady-state loop into a stride
// table: the specialized replayer consumes the loop's iterations as whole
// cycle traversals and still reports exactly the unspecialized replayer's
// Stats.
func ExampleSpecialize() {
	prog := tea.MustAssemble("sum", exampleSrc)
	set, _ := tea.RecordTraces(context.Background(), prog, "mret", tea.TraceConfig{HotThreshold: 50}, 0)
	stream, _, err := tea.CaptureStream(prog)
	if err != nil {
		panic(err)
	}
	c := tea.Compile(tea.Build(set), tea.ConfigGlobalLocal)
	plain := tea.NewCompiledReplayer(c)
	plain.AdvanceBatch(stream)
	fused := tea.NewCompiledReplayer(tea.Specialize(c, stream))
	fused.AdvanceBatch(stream)
	fmt.Println("fuses:", fused.StrideEdges() > 0)
	fmt.Println("same stats:", *fused.Stats() == *plain.Stats())
	// Output:
	// fuses: true
	// same stats: true
}

// ExampleEncode shows the wire format round-trip: the serialized automaton
// is a fraction of the replicated-code cost and decodes against the
// original program.
func ExampleEncode() {
	prog := tea.MustAssemble("sum", exampleSrc)
	set, _ := tea.RecordTraces(context.Background(), prog, "mret", tea.TraceConfig{HotThreshold: 50}, 0)
	a := tea.Build(set)

	data, err := tea.Encode(a)
	if err != nil {
		panic(err)
	}
	restored, err := tea.Decode(data, prog)
	if err != nil {
		panic(err)
	}
	fmt.Println("round trip ok:", restored.NumStates() == a.NumStates())
	fmt.Println("smaller than code:", uint64(len(data)) < tea.CodeBytes(set))
	// Output:
	// round trip ok: true
	// smaller than code: true
}

// ExampleRecordOnline shows Algorithm 2: the TEA is built while the
// program runs under the instrumentation engine, with no code generation.
func ExampleRecordOnline() {
	prog := tea.MustAssemble("sum", exampleSrc)
	a, stats, err := tea.RecordOnline(context.Background(), prog, "mret",
		tea.TraceConfig{HotThreshold: 50}, tea.ConfigGlobalLocal, 0, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println("traces:", a.Set().Len(), "coverage above 90%:", stats.Coverage() > 0.9)
	// Output:
	// traces: 3 coverage above 90%: true
}

// ExampleNewInstrReplayer shows the instruction-granularity variant of the
// DFA: every executed PC is fed to the cursor, and in-block steps need no
// lookup.
func ExampleNewInstrReplayer() {
	prog := tea.MustAssemble("sum", exampleSrc)
	set, _ := tea.RecordTraces(context.Background(), prog, "mret", tea.TraceConfig{HotThreshold: 50}, 0)
	a := tea.Build(set)

	r := tea.NewInstrReplayer(a, tea.ConfigGlobalLocal, prog)
	m := tea.NewMachine(prog)
	for !m.Halted() {
		r.StepInstr(m.PC())
		if _, err := m.Step(); err != nil {
			panic(err)
		}
	}
	st := r.Stats()
	fmt.Printf("instrs: %d, coverage: %.0f%%, in-block steps: %d\n", st.Instrs, st.Coverage()*100, st.SeqHits)
	// Output:
	// instrs: 26002, coverage: 100%, in-block steps: 20793
}

// ExampleMerge unions trace sets recorded on two runs of one program.
func ExampleMerge() {
	prog := tea.MustAssemble("sum", exampleSrc)
	ctx := context.Background()
	early, _ := tea.RecordTraces(ctx, prog, "mret", tea.TraceConfig{HotThreshold: 50}, 5_000)
	full, _ := tea.RecordTraces(ctx, prog, "mret", tea.TraceConfig{HotThreshold: 50}, 0)
	merged, err := tea.Merge(early, full)
	if err != nil {
		panic(err)
	}
	fmt.Println("traces:", early.Len(), "+", full.Len(), "->", merged.Len())
	// Output:
	// traces: 1 + 3 -> 3
}

// ExamplePrune keeps only the traces a profiled run entered often enough,
// so the next run loads a smaller TEA.
func ExamplePrune() {
	prog := tea.MustAssemble("sum", exampleSrc)
	set, _ := tea.RecordTraces(context.Background(), prog, "mret", tea.TraceConfig{HotThreshold: 50}, 0)
	prof, _, err := tea.ProfileReplay(prog, tea.Build(set), tea.ConfigGlobalLocal, nil)
	if err != nil {
		panic(err)
	}
	pruned, err := tea.Prune(set, prof, 100)
	if err != nil {
		panic(err)
	}
	fmt.Println("traces:", set.Len(), "->", pruned.Len())
	// Output:
	// traces: 3 -> 1
}

// ExampleVerifyImage audits a serialized TEA against its program; a
// damaged image surfaces as a finding, not a panic.
func ExampleVerifyImage() {
	prog := tea.MustAssemble("sum", exampleSrc)
	set, _ := tea.RecordTraces(context.Background(), prog, "mret", tea.TraceConfig{HotThreshold: 50}, 0)
	data, err := tea.Encode(tea.Build(set))
	if err != nil {
		panic(err)
	}
	fmt.Println("intact ok:", tea.VerifyImage(data, prog, tea.ConfigGlobalLocal).OK())
	bad := tea.VerifyImage(data[:len(data)/2], prog, tea.ConfigGlobalLocal)
	fmt.Println("truncated ok:", bad.OK(), "rule:", bad.Findings[0].Rule)
	// Output:
	// intact ok: true
	// truncated ok: false rule: W-DEC
}

// ExampleBenchmarkNames lists the synthetic SPEC CPU2000 stand-ins that
// Benchmark generates.
func ExampleBenchmarkNames() {
	names := tea.BenchmarkNames()
	fmt.Println(len(names), "benchmarks, from", names[0], "to", names[len(names)-1])
	// Output:
	// 26 benchmarks, from 168.wupwise to 300.twolf
}

// ExampleNewReplayer steps the reference transition function along a
// captured block stream one edge at a time; it agrees with the compiled
// batch kernel.
func ExampleNewReplayer() {
	prog := tea.MustAssemble("sum", exampleSrc)
	set, _ := tea.RecordTraces(context.Background(), prog, "mret", tea.TraceConfig{HotThreshold: 50}, 0)
	a := tea.Build(set)
	stream, _, err := tea.CaptureStream(prog)
	if err != nil {
		panic(err)
	}
	r := tea.NewReplayer(a, tea.ConfigGlobalLocal)
	for _, e := range stream {
		r.Advance(e.Label, e.Instrs)
	}
	c := tea.NewCompiledReplayer(tea.Compile(a, tea.ConfigGlobalLocal))
	c.AdvanceBatch(stream)
	fmt.Println("same stats:", *r.Stats() == *c.Stats())
	// Output:
	// same stats: true
}

// ExampleDecodeError shows the decoder's failure contract: a damaged image
// is rejected with the field and byte offset where decoding stopped, never
// with a panic.
func ExampleDecodeError() {
	prog := tea.MustAssemble("sum", exampleSrc)
	set, _ := tea.RecordTraces(context.Background(), prog, "mret", tea.TraceConfig{HotThreshold: 50}, 0)
	data, err := tea.Encode(tea.Build(set))
	if err != nil {
		panic(err)
	}
	_, err = tea.Decode(data[:len(data)/2], prog)
	var de *tea.DecodeError
	fmt.Println("structured:", errors.As(err, &de))
	fmt.Printf("field %q at offset %d\n", de.Field, de.Offset)
	// Output:
	// structured: true
	// field "trace count" at offset 11
}

// ExampleNewServer hosts an automaton on a loopback listener and replays a
// captured block stream over the wire protocol: the session's stats are
// the local replay's, and a session past the tenant's step quota ends in a
// structured error.
func ExampleNewServer() {
	prog := tea.MustAssemble("sum", exampleSrc)
	set, _ := tea.RecordTraces(context.Background(), prog, "mret", tea.TraceConfig{HotThreshold: 50}, 0)
	a := tea.Build(set)
	stream, _, err := tea.CaptureStream(prog)
	if err != nil {
		panic(err)
	}

	s := tea.NewServer(tea.ServeConfig{Quota: tea.ServeQuota{MaxSessionEdges: uint64(len(stream))}})
	if err := s.Host("sum", prog, a); err != nil {
		panic(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	go func() { _ = s.Serve(l) }()
	defer func() { _ = s.Shutdown(context.Background()) }()

	session := func(edges []tea.StreamEdge) (*tea.ReplayStats, error) {
		c, err := tea.DialServe(l.Addr().String(), tea.ServeClientConfig{Tenant: "demo", Timeout: 5 * time.Second})
		if err != nil {
			panic(err)
		}
		defer c.Close()
		stats, _, err := c.Replay(context.Background(), "sum", edges, 256)
		return stats, err
	}
	stats, err := session(stream)
	if err != nil {
		panic(err)
	}
	local := tea.NewCompiledReplayer(tea.Compile(a, tea.LookupConfig{}))
	local.AdvanceBatch(stream)
	fmt.Println("same stats as local replay:", *stats == *local.Stats())

	_, err = session(append(stream, stream...))
	var serr *tea.ServeError
	fmt.Println("over quota:", errors.As(err, &serr), serr.Code)
	// Output:
	// same stats as local replay: true
	// over quota: true quota-steps
}
