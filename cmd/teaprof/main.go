// Command teaprof is the "pintool" of the paper's evaluation: it records a
// TEA for a program, or loads a previously recorded TEA and replays (and
// optionally profiles) it against a fresh execution of the unmodified
// program.
//
// Usage:
//
//	teaprof -bench mcf -record out.tea              # record (Table 3 mode)
//	teaprof -bench mcf -replay out.tea              # replay (Table 2 mode)
//	teaprof -bench mcf -replay out.tea -profile     # + per-trace profile
//	teaprof -bench mcf -replay out.tea -compiled    # batched compiled replay
//	teaprof -bench mcf -replay out.tea -layout      # SoA/stride-table layout report
//	teaprof -bench mcf -replay out.tea -pipeline -workers 4  # sharded replay
//	teaprof -asm prog.s -record out.tea             # use an assembly file
//	teaprof -bench gcc -record out.tea -strategy tt # TT instead of MRET
//
// Observability (disabled unless requested; see DESIGN.md §12):
//
//	teaprof -bench mcf -replay out.tea -obs                  # + Prometheus metrics on stdout
//	teaprof -bench mcf -replay out.tea -obs -events t.evlog  # + binary event log (teadump -events)
//	teaprof -bench mcf -replay out.tea -serve :8080          # replay loop + /metrics, /debug/events, pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"

	tea "github.com/lsc-tea/tea"
	"github.com/lsc-tea/tea/internal/cli"
)

func main() {
	bench := flag.String("bench", "", "synthetic benchmark name (e.g. mcf, 176.gcc)")
	asmFile := flag.String("asm", "", "assembly source file to run instead of -bench")
	target := flag.Uint64("target", 1_000_000, "dynamic instruction target for -bench")
	record := flag.String("record", "", "record a TEA and write it to this file")
	replay := flag.String("replay", "", "load a TEA from this file and replay it")
	strategy := flag.String("strategy", "mret", "trace strategy: mret, tt, ctt, mfet")
	threshold := flag.Int("threshold", 12, "hot threshold")
	profileFlag := flag.Bool("profile", false, "with -replay: collect and print the trace profile")
	top := flag.Int("top", 5, "with -profile: how many hottest traces to print")
	compiled := flag.Bool("compiled", false, "with -replay: replay through the compiled flat automaton")
	layout := flag.Bool("layout", false, "with -replay: print the compiled form's memory-layout report (SoA residency, stride-table occupancy, cycle hit rate)")
	pipelineFlag := flag.Bool("pipeline", false, "decouple capture from processing: sequenced chunks, scan workers, reconciling drain (works with -record and -replay)")
	workers := flag.Int("workers", 0, "with -pipeline or -serve: scan worker count (0 = GOMAXPROCS)")
	chunkEdges := flag.Int("chunk", 0, "with -pipeline or -serve: edges per chunk (0 = default 4096)")
	obsFlag := flag.Bool("obs", false, "attach the observability layer and print Prometheus metrics after the run")
	eventsOut := flag.String("events", "", "with -obs: write the drained binary event log to this file (decode with teadump -events)")
	serve := flag.String("serve", "", "with -replay: replay the stream in a loop through the pipeline and serve /metrics, /metrics.json, /debug/events and /debug/pprof on this address")
	flag.Parse()

	prog, err := cli.LoadProgram("teaprof", *bench, *asmFile, *target)
	if err != nil {
		fail(err)
	}

	var o *tea.Obs
	if *obsFlag || *eventsOut != "" || *serve != "" {
		o = tea.NewObs()
	}

	pcfg := tea.PipelineConfig{Workers: *workers, ChunkEdges: *chunkEdges, Obs: o}

	switch {
	case *record != "":
		if *pipelineFlag {
			a, stats, pm, err := tea.RecordPipeline(prog, *strategy, tea.TraceConfig{HotThreshold: *threshold}, pcfg)
			if err != nil {
				fail(err)
			}
			data, err := tea.Encode(a)
			if err != nil {
				fail(err)
			}
			if err := os.WriteFile(*record, data, 0o644); err != nil {
				fail(err)
			}
			set := a.Set()
			fmt.Printf("pipeline-recorded %d traces (%d TBBs) with %s\n", set.Len(), set.NumTBBs(), *strategy)
			fmt.Printf("recording-run coverage: %.1f%% of %d instructions\n", stats.Coverage()*100, stats.Instrs)
			printPipeMetrics(pm)
			emitObs(o, *eventsOut)
			return
		}
		a, stats, err := tea.RecordOnline(context.Background(), prog, *strategy, tea.TraceConfig{HotThreshold: *threshold}, tea.ConfigGlobalLocal, 0, o)
		if err != nil {
			fail(err)
		}
		data, err := tea.Encode(a)
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*record, data, 0o644); err != nil {
			fail(err)
		}
		set := a.Set()
		fmt.Printf("recorded %d traces (%d TBBs) with %s\n", set.Len(), set.NumTBBs(), *strategy)
		fmt.Printf("recording-run coverage: %.1f%% of %d instructions\n", stats.Coverage()*100, stats.Instrs)
		fmt.Printf("wrote %s: %d bytes (code replication would take %d bytes, %.0f%% savings)\n",
			*record, len(data), tea.CodeBytes(set),
			(1-float64(len(data))/float64(tea.CodeBytes(set)))*100)
		emitObs(o, *eventsOut)

	case *replay != "":
		data, err := os.ReadFile(*replay)
		if err != nil {
			fail(err)
		}
		a, err := tea.Decode(data, prog)
		if err != nil {
			fail(err)
		}
		if *serve != "" {
			serveObs(prog, a, pcfg, *serve)
			return
		}
		if *layout {
			// Specialize against the program's own captured stream so the
			// report shows the stride table this TEA would actually carry,
			// then replay once to measure how much of the stream it fuses.
			stream, _, err := tea.CaptureStream(prog)
			if err != nil {
				fail(err)
			}
			sp := tea.Specialize(tea.Compile(a, tea.ConfigGlobalLocal), stream)
			fmt.Print(tea.CompiledLayout(sp))
			r := tea.NewCompiledReplayer(sp)
			r.AdvanceBatch(stream)
			if len(stream) > 0 {
				fmt.Printf("cycle hit rate:      %.1f%% of %d captured edges consumed by fused cycles\n",
					100*float64(r.StrideEdges())/float64(len(stream)), len(stream))
			}
			return
		}
		if *pipelineFlag {
			stats, pm, err := tea.ReplayPipeline(prog, a, pcfg)
			if err != nil {
				fail(err)
			}
			fmt.Printf("pipeline replay: %d chunks drained\n", pm.Drained)
			printStats(stats)
			printPipeMetrics(pm)
			emitObs(o, *eventsOut)
			return
		}
		if *compiled {
			if o != nil {
				stream, tail, err := tea.CaptureStream(prog)
				if err != nil {
					fail(err)
				}
				r := tea.NewCompiledReplayer(tea.Compile(a, tea.ConfigGlobalLocal))
				r.SetObs(o)
				r.AdvanceBatch(stream)
				stats := *r.Stats()
				stats.AccountTail(r.Cur(), tail)
				printStats(&stats)
				emitObs(o, *eventsOut)
				return
			}
			stats, err := tea.ReplayCompiled(prog, a, tea.ConfigGlobalLocal)
			if err != nil {
				fail(err)
			}
			printStats(stats)
			return
		}
		if *profileFlag {
			prof, stats, err := tea.ProfileReplay(prog, a, tea.ConfigGlobalLocal, nil)
			if err != nil {
				fail(err)
			}
			printStats(stats)
			fmt.Printf("\nhottest traces:\n")
			for _, h := range prof.HottestTraces(*top) {
				fmt.Printf("  %-28v entered %8d  instrs %10d  exit ratio %.3f\n",
					h.Trace, h.Enters, h.Instrs, prof.ExitRatio(h.Trace))
			}
			return
		}
		stats, err := tea.Replay(context.Background(), prog, a, tea.ConfigGlobalLocal, 0, o)
		if err != nil {
			fail(err)
		}
		printStats(stats)
		emitObs(o, *eventsOut)

	default:
		fmt.Fprintln(os.Stderr, "teaprof: one of -record or -replay is required")
		flag.Usage()
		os.Exit(2)
	}
}

// emitObs prints the Prometheus exposition after an observed run and, when
// requested, writes the drained binary event log.
func emitObs(o *tea.Obs, eventsOut string) {
	if o == nil {
		return
	}
	if eventsOut != "" {
		events, dropped := o.Tracer.Drain()
		if err := os.WriteFile(eventsOut, tea.EncodeEvents(events), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s: %d events (%d dropped by the ring)\n", eventsOut, len(events), dropped)
	}
	fmt.Println()
	if err := o.Reg.WritePrometheus(os.Stdout); err != nil {
		fail(err)
	}
}

// serveObs replays the captured stream in a loop through one persistent
// replay pipeline while serving the observability endpoints; it blocks
// until the process is killed.
func serveObs(prog *tea.Program, a *tea.Automaton, pcfg tea.PipelineConfig, addr string) {
	stream, _, err := tea.CaptureStream(prog)
	if err != nil {
		fail(err)
	}
	pl := tea.NewReplayPipeline(tea.Compile(a, tea.ConfigGlobalNoLocal), pcfg)
	go func() {
		for {
			pl.Feed(stream)
			pl.Barrier()
			pl.Reset()
		}
	}()
	fmt.Printf("serving /metrics, /metrics.json, /debug/events, /debug/pprof on %s (replaying %d edges in a loop through the pipeline)\n",
		addr, len(stream))
	if err := http.ListenAndServe(addr, tea.ObsHandler(pcfg.Obs)); err != nil {
		fail(err)
	}
}

// printPipeMetrics prints the pipeline's self-telemetry after a -pipeline
// run.
func printPipeMetrics(m tea.PipelineMetrics) {
	fmt.Printf("pipeline: %d chunks, %d backpressure waits, %d quiet / %d handoff / %d sequential, %d recompiles\n",
		m.Drained, m.BackpressureWaits, m.QuietChunks, m.Handoffs, m.SeqChunks, m.Recompiles)
}

func printStats(s *tea.ReplayStats) {
	fmt.Printf("replay coverage: %.1f%% of %d instructions (%d blocks)\n",
		s.Coverage()*100, s.Instrs, s.Blocks)
	fmt.Printf("transitions: %d in-trace, %d enters, %d links, %d exits\n",
		s.InTraceHits, s.TraceEnters, s.TraceLinks, s.TraceExits)
	fmt.Printf("lookups: %d local hits, %d local misses, %d global (%d hits)\n",
		s.LocalHits, s.LocalMisses, s.GlobalLookups, s.GlobalHits)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "teaprof: %v\n", err)
	os.Exit(1)
}
