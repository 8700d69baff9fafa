package tea_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	tea "github.com/lsc-tea/tea"
	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/dbt"
	"github.com/lsc-tea/tea/internal/faultinject"
	"github.com/lsc-tea/tea/internal/pin"
	"github.com/lsc-tea/tea/internal/serve"
	"github.com/lsc-tea/tea/internal/trace"
)

// progA is a hot two-block loop; progB executes the same addresses except
// that the loop's jmp is retargeted through an appended detour block. The
// shared prefix has identical layout (jmp targets are immediates of fixed
// size), so a TEA recorded on A finds its entry addresses in B — and then
// observes transitions A's blocks cannot produce.
const progA = `
.entry main
main:
    movi ecx, 40
loop:
    addi eax, 1
    add  eax, ecx
    jmp  mid
mid:
    subi ecx, 1
    jgt  loop
    halt
`

const progB = `
.entry main
main:
    movi ecx, 40
loop:
    addi eax, 1
    add  eax, ecx
    jmp  detour
mid:
    subi ecx, 1
    jgt  loop
    halt
detour:
    addi ebx, 1
    jmp  mid
`

// TestReplayMismatchedProgramDegrades is the acceptance criterion of the
// fault-injection issue: replaying a TEA against a program it does not
// describe completes without error and reports the mismatch through the
// desync counters instead of attributing garbage coverage.
func TestReplayMismatchedProgramDegrades(t *testing.T) {
	a := tea.MustAssemble("a", progA)
	b := tea.MustAssemble("b", progB)

	set, err := tea.RecordTraces(context.Background(), a, "mret", tea.TraceConfig{HotThreshold: 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	automaton := tea.Build(set)

	// Control: replaying the recording program itself never desyncs.
	clean, err := tea.Replay(context.Background(), a, automaton, tea.ConfigGlobalLocal, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Desyncs != 0 || clean.Resyncs != 0 {
		t.Fatalf("same-program replay desynced: %+v", clean)
	}

	// Mismatch: the replay must complete (err == nil) and flag the divergence.
	stats, err := tea.Replay(context.Background(), b, automaton, tea.ConfigGlobalLocal, 0, nil)
	if err != nil {
		t.Fatalf("mismatched replay failed instead of degrading: %v", err)
	}
	if stats.Desyncs == 0 {
		t.Fatalf("mismatched replay reported no desyncs: %+v", stats)
	}
	if stats.Resyncs == 0 {
		t.Fatalf("replay never re-acquired a trace after desync: %+v", stats)
	}
	if !stats.Desynced() {
		t.Error("Stats.Desynced() is false despite Desyncs > 0")
	}
	if stats.Instrs == 0 || stats.Blocks == 0 {
		t.Errorf("mismatched replay consumed nothing: %+v", stats)
	}
}

// TestReplayPerturbedPrograms replays a recorded TEA against every
// faultinject program perturbation: each run either completes or stops on a
// structured guest-CPU fault (a mutated program may genuinely crash), never
// a panic — and layout shifts (where no recorded address exists anymore)
// yield zero trace coverage rather than false attribution.
func TestReplayPerturbedPrograms(t *testing.T) {
	p := tea.MustAssemble("victim", progB)
	set, err := tea.RecordTraces(context.Background(), p, "mret", tea.TraceConfig{HotThreshold: 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := tea.Build(set)

	for _, kind := range []faultinject.ProgramFault{
		faultinject.ShiftLayout, faultinject.MutateBlock, faultinject.EraseBlock,
	} {
		for seed := int64(1); seed <= 5; seed++ {
			pp, err := faultinject.New(seed).PerturbProgram(p, kind)
			if err != nil {
				t.Fatalf("%v seed %d: %v", kind, seed, err)
			}
			stats, err := tea.Replay(context.Background(), pp, a, tea.ConfigGlobalLocal, 100000, nil)
			if kind == faultinject.ShiftLayout {
				// A shifted program is self-consistent and must run to
				// completion; no recorded address exists, so nothing may be
				// attributed to traces.
				if err != nil {
					t.Fatalf("shift seed %d: replay failed instead of degrading: %v", seed, err)
				}
				if stats.TraceInstrs != 0 {
					t.Errorf("shifted layout attributed %d instrs to traces", stats.TraceInstrs)
				}
				continue
			}
			// A mutated or erased program may genuinely crash the guest
			// (e.g. an indirect jump through a garbage register, or control
			// running off the erased region); that surfaces as an error —
			// reaching this line at all means no panic escaped.
			if err != nil {
				t.Logf("%v seed %d degraded with: %v", kind, seed, err)
			}
		}
	}
}

// TestReplayContextGuards exercises the resource guards on the public
// replay/record entry points: cancellation surfaces ctx.Err() alongside
// partial results, and a step cap bounds the run.
func TestReplayContextGuards(t *testing.T) {
	p := tea.MustAssemble("a", progA)
	set, err := tea.RecordTraces(context.Background(), p, "mret", tea.TraceConfig{HotThreshold: 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := tea.Build(set)

	full, err := tea.Replay(context.Background(), p, a, tea.ConfigGlobalLocal, 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("replay-canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		stats, err := tea.Replay(ctx, p, a, tea.ConfigGlobalLocal, 0, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if stats == nil {
			t.Fatal("no partial stats returned on cancellation")
		}
	})

	t.Run("replay-step-cap", func(t *testing.T) {
		stats, err := tea.Replay(context.Background(), p, a, tea.ConfigGlobalLocal, 10, nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Instrs >= full.Instrs {
			t.Errorf("capped replay ran to completion: %d instrs", stats.Instrs)
		}
	})

	t.Run("record-canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		set, err := tea.RecordTraces(ctx, p, "mret", tea.TraceConfig{HotThreshold: 5}, 0)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if set == nil {
			t.Fatal("no partial set returned on cancellation")
		}
	})

	t.Run("record-online-canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		automaton, stats, err := tea.RecordOnline(ctx, p, "mret",
			tea.TraceConfig{HotThreshold: 5}, tea.ConfigGlobalLocal, 0, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if automaton == nil || stats == nil {
			t.Fatal("no partial results returned on cancellation")
		}
	})

	t.Run("nil-context", func(t *testing.T) {
		if _, err := tea.Replay(nil, p, a, tea.ConfigGlobalLocal, 0, nil); err != nil { //nolint:staticcheck
			t.Fatalf("nil context: %v", err)
		}
	})
}

// spinSrc never halts: one two-instruction block jumping to itself, so a
// run ends only by its step cap or its context.
const spinSrc = `
.entry e
e:
    addi eax, 1
    jmp  e
`

// spinBlock is the instruction count of spinSrc's one block: the cap is
// tested before each block runs, so a capped run overshoots by less.
const spinBlock = 2

// finiCounter is a pin tool counting its Fini callbacks.
type finiCounter struct{ finis int }

func (f *finiCounter) Edge(cfg.Edge, uint64) {}
func (f *finiCounter) Fini(uint64)           { f.finis++ }

// stopDriver runs spinSrc through one guest-run entry point. steps is the
// run's dynamic instruction count, or -1 where the entry point reports
// none. whole reports that every result came back, beside any error, and
// for pin that the tool saw Fini exactly once.
type stopDriver struct {
	name string
	run  func(ctx context.Context, maxSteps uint64) (steps int64, whole bool, err error)
}

func stopDrivers(t *testing.T) []stopDriver {
	p := tea.MustAssemble("spin", spinSrc)
	tc := tea.TraceConfig{HotThreshold: 5}
	set, err := tea.RecordTraces(context.Background(), p, "mret", tc, 1000)
	if err != nil {
		t.Fatal(err)
	}
	a := tea.Build(set)
	return []stopDriver{
		{"pin", func(ctx context.Context, n uint64) (int64, bool, error) {
			tool := &finiCounter{}
			res, err := pin.New().RunContext(ctx, p, tool, n)
			if res == nil {
				return 0, false, err
			}
			return int64(res.Steps), tool.finis == 1, err
		}},
		{"trace", func(ctx context.Context, n uint64) (int64, bool, error) {
			s, _ := trace.NewStrategy("mret", p, tc)
			set, info, err := trace.Record(ctx, cpu.New(p), cfg.StarDBT, s, n)
			if info == nil {
				return 0, false, err
			}
			return int64(info.Steps), set != nil, err
		}},
		{"dbt", func(ctx context.Context, n uint64) (int64, bool, error) {
			s, _ := trace.NewStrategy("mret", p, tc)
			res, err := dbt.New().RunWith(ctx, p, s, n)
			if res == nil {
				return 0, false, err
			}
			return int64(res.Info.Steps), res.Set != nil, err
		}},
		{"record-traces", func(ctx context.Context, n uint64) (int64, bool, error) {
			set, err := tea.RecordTraces(ctx, p, "mret", tc, n)
			return -1, set != nil, err
		}},
		{"replay", func(ctx context.Context, n uint64) (int64, bool, error) {
			st, err := tea.Replay(ctx, p, a, tea.ConfigGlobalLocal, n, nil)
			if st == nil {
				return 0, false, err
			}
			return int64(st.Instrs), true, err
		}},
		{"record-online", func(ctx context.Context, n uint64) (int64, bool, error) {
			a, st, err := tea.RecordOnline(ctx, p, "mret", tc, tea.ConfigGlobalLocal, n, nil)
			if st == nil {
				return 0, false, err
			}
			return int64(st.Instrs), a != nil, err
		}},
	}
}

// TestStopRule holds the one stop rule (cfg.Runner.Arm) through every
// guest-run driver on a program that never halts: a cancelled context
// returns ctx.Err() beside a partial result, a deadline ends the run, a
// step cap N stops every driver at the same count in [N, N+spinBlock), and
// a nil context is accepted. Runs that must end by their context carry a
// safety cap, so a guard that never fires fails here instead of hanging.
func TestStopRule(t *testing.T) {
	const safety = 1 << 24
	drivers := stopDrivers(t)

	t.Run("pre-canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for _, d := range drivers {
			_, whole, err := d.run(ctx, safety)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s: err = %v, want context.Canceled", d.name, err)
			}
			if !whole {
				t.Errorf("%s: partial result missing on cancellation", d.name)
			}
		}
	})

	t.Run("deadline", func(t *testing.T) {
		for _, d := range drivers {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			steps, whole, err := d.run(ctx, safety)
			cancel()
			if !whole {
				t.Errorf("%s: partial result missing at the deadline", d.name)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("%s: err = %v, want context.DeadlineExceeded", d.name, err)
			}
			if steps == 0 {
				t.Errorf("%s: no progress before the deadline", d.name)
			}
		}
	})

	t.Run("step-cap", func(t *testing.T) {
		for _, n := range []uint64{1, 1000, 4097} {
			want := int64(-1)
			for _, d := range drivers {
				steps, whole, err := d.run(context.Background(), n)
				if err != nil || !whole {
					t.Fatalf("%s cap %d: err %v, whole result %v", d.name, n, err, whole)
				}
				if steps < 0 {
					continue
				}
				if steps < int64(n) || steps >= int64(n)+spinBlock {
					t.Errorf("%s: cap %d stopped at %d steps", d.name, n, steps)
				}
				if want < 0 {
					want = steps
				} else if steps != want {
					t.Errorf("%s: cap %d stopped at %d steps, other drivers at %d", d.name, n, steps, want)
				}
			}
		}
	})

	t.Run("nil-context", func(t *testing.T) {
		for _, d := range drivers {
			//nolint:staticcheck // a nil ctx must be accepted
			if _, whole, err := d.run(nil, 100); err != nil || !whole {
				t.Errorf("%s: nil context: err %v, whole result %v", d.name, err, whole)
			}
		}
	})
}

// replayCountersMatch fails unless o's replay counters equal st field by
// field.
func replayCountersMatch(t *testing.T, what string, o *tea.Obs, st *tea.ReplayStats) {
	t.Helper()
	m := o.Replay
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"blocks", m.Blocks.Value(), st.Blocks},
		{"instrs", m.Instrs.Value(), st.Instrs},
		{"trace blocks", m.TraceBlocks.Value(), st.TraceBlocks},
		{"trace instrs", m.TraceInstrs.Value(), st.TraceInstrs},
		{"in-trace hits", m.InTraceHits.Value(), st.InTraceHits},
		{"local hits", m.LocalHits.Value(), st.LocalHits},
		{"local misses", m.LocalMisses.Value(), st.LocalMisses},
		{"global lookups", m.GlobalLookups.Value(), st.GlobalLookups},
		{"global hits", m.GlobalHits.Value(), st.GlobalHits},
		{"enters", m.Enters.Value(), st.TraceEnters},
		{"links", m.Links.Value(), st.TraceLinks},
		{"exits", m.Exits.Value(), st.TraceExits},
		{"desyncs", m.Desyncs.Value(), st.Desyncs},
		{"resyncs", m.Resyncs.Value(), st.Resyncs},
	} {
		if c.got != c.want {
			t.Errorf("%s: registry %s = %d, stats say %d", what, c.name, c.got, c.want)
		}
	}
	if st.Instrs == 0 {
		t.Errorf("%s: empty run proves nothing", what)
	}
}

// TestObsLeg: Replay and RecordOnline with an *Obs return the same Stats,
// and RecordOnline the same automaton encoding, as dark runs; the
// registry's replay counters equal those Stats; and the counters are
// flushed when a deadline stops the run too.
func TestObsLeg(t *testing.T) {
	ctx := context.Background()
	p := tea.MustAssemble("a", progA)
	tc := tea.TraceConfig{HotThreshold: 5}
	set, err := tea.RecordTraces(ctx, p, "mret", tc, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := tea.Build(set)

	t.Run("replay", func(t *testing.T) {
		dark, err := tea.Replay(ctx, p, a, tea.ConfigGlobalLocal, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		o := tea.NewObs()
		lit, err := tea.Replay(ctx, p, a, tea.ConfigGlobalLocal, 0, o)
		if err != nil {
			t.Fatal(err)
		}
		if *lit != *dark {
			t.Errorf("observed stats %+v, dark %+v", *lit, *dark)
		}
		replayCountersMatch(t, "replay", o, lit)
	})

	t.Run("record-online", func(t *testing.T) {
		darkA, dark, err := tea.RecordOnline(ctx, p, "mret", tc, tea.ConfigGlobalLocal, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		o := tea.NewObs()
		litA, lit, err := tea.RecordOnline(ctx, p, "mret", tc, tea.ConfigGlobalLocal, 0, o)
		if err != nil {
			t.Fatal(err)
		}
		if *lit != *dark {
			t.Errorf("observed stats %+v, dark %+v", *lit, *dark)
		}
		darkEnc, err1 := tea.Encode(darkA)
		litEnc, err2 := tea.Encode(litA)
		if err1 != nil || err2 != nil || !bytes.Equal(darkEnc, litEnc) {
			t.Errorf("observed automaton encodes differently (%v, %v)", err1, err2)
		}
		replayCountersMatch(t, "record-online", o, lit)
	})

	t.Run("deadline", func(t *testing.T) {
		spin := tea.MustAssemble("spin", spinSrc)
		set, err := tea.RecordTraces(ctx, spin, "mret", tc, 1000)
		if err != nil {
			t.Fatal(err)
		}
		sa := tea.Build(set)
		for _, d := range []struct {
			name string
			run  func(ctx context.Context, o *tea.Obs) (*tea.ReplayStats, error)
		}{
			{"replay", func(ctx context.Context, o *tea.Obs) (*tea.ReplayStats, error) {
				return tea.Replay(ctx, spin, sa, tea.ConfigGlobalLocal, 1<<24, o)
			}},
			{"record-online", func(ctx context.Context, o *tea.Obs) (*tea.ReplayStats, error) {
				_, st, err := tea.RecordOnline(ctx, spin, "mret", tc, tea.ConfigGlobalLocal, 1<<24, o)
				return st, err
			}},
		} {
			dctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
			o := tea.NewObs()
			st, err := d.run(dctx, o)
			cancel()
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("%s: err = %v, want context.DeadlineExceeded", d.name, err)
			}
			replayCountersMatch(t, d.name+" at the deadline", o, st)
		}
	})
}

// TestDecodeAgainstPerturbedProgram: a serialized TEA decoded against a
// perturbed image either fails with a structured *DecodeError or yields a
// consistent automaton — never a panic, never silent nonsense.
func TestDecodeAgainstPerturbedProgram(t *testing.T) {
	p := tea.MustAssemble("victim", progB)
	set, err := tea.RecordTraces(context.Background(), p, "mret", tea.TraceConfig{HotThreshold: 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	data, err := tea.Encode(tea.Build(set))
	if err != nil {
		t.Fatal(err)
	}

	for _, kind := range []faultinject.ProgramFault{
		faultinject.ShiftLayout, faultinject.MutateBlock, faultinject.EraseBlock,
	} {
		for seed := int64(1); seed <= 5; seed++ {
			pp, err := faultinject.New(seed).PerturbProgram(p, kind)
			if err != nil {
				t.Fatal(err)
			}
			a, err := tea.Decode(data, pp)
			if err != nil {
				var de *tea.DecodeError
				if !errors.As(err, &de) {
					t.Fatalf("%v seed %d: %T is not *DecodeError: %v", kind, seed, err, err)
				}
				continue
			}
			if a.NumStates() == 0 {
				t.Errorf("%v seed %d: decode returned an empty automaton without error", kind, seed)
			}
		}
	}
}

// serveFixtureImage is one hosted image plus the exact answer every
// completed session must reproduce.
type serveFixtureImage struct {
	name  string
	prog  *tea.Program
	auto  *tea.Automaton
	edges []tea.StreamEdge
	want  tea.ReplayStats
	final core.StateID
}

// buildServeFixture records progA and progB as two distinct images — their
// streams and stats differ, so any cross-tenant or cross-image state leak
// in the server shows up as a wrong-answer failure in the storm below.
func buildServeFixture(t *testing.T) []serveFixtureImage {
	t.Helper()
	var images []serveFixtureImage
	for _, d := range []struct{ name, src string }{{"imga", progA}, {"imgb", progB}} {
		p := tea.MustAssemble(d.name, d.src)
		set, err := tea.RecordTraces(context.Background(), p, "mret", tea.TraceConfig{HotThreshold: 5}, 0)
		if err != nil {
			t.Fatal(err)
		}
		a := tea.Build(set)
		edges, _, err := tea.CaptureStream(p)
		if err != nil {
			t.Fatal(err)
		}
		want, final := core.SequentialReplay(tea.Compile(a, tea.LookupConfig{}), edges, nil)
		images = append(images, serveFixtureImage{d.name, p, a, edges, want, final})
	}
	if images[0].want == images[1].want {
		t.Fatal("fixture images must have distinguishable stats")
	}
	return images
}

// startServeFixture hosts the images on a loopback listener through the
// facade and returns the server plus its address.
func startServeFixture(t *testing.T, cfg tea.ServeConfig) (*tea.Server, string, []serveFixtureImage) {
	t.Helper()
	images := buildServeFixture(t)
	s := tea.NewServer(cfg)
	for _, img := range images {
		if err := s.Host(img.name, img.prog, img.auto); err != nil {
			t.Fatal(err)
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, l.Addr().String(), images
}

// TestServeSessionStorm is the facade-level robustness storm (run under
// -race): several tenants replay different images concurrently, a fraction
// of the sessions are cancelled mid-flight, and every outcome must be the
// session's own exact answer or a structured error — never a hang, a
// panic, or another image's stats.
func TestServeSessionStorm(t *testing.T) {
	s, addr, images := startServeFixture(t, tea.ServeConfig{
		IdleTimeout: 2 * time.Second,
		Quota:       serve.Quota{MaxConcurrent: 32, MaxParked: 64},
	})
	const (
		tenants  = 4
		sessions = 4
	)
	var wg sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		for si := 0; si < sessions; si++ {
			wg.Add(1)
			go func(ti, si int) {
				defer wg.Done()
				img := images[(ti+si)%len(images)]
				label := fmt.Sprintf("tenant%d/s%d", ti, si)
				c, err := tea.DialServe(addr, tea.ServeClientConfig{
					Tenant:  fmt.Sprintf("tenant%d", ti),
					Seed:    int64(ti*100 + si + 1),
					Timeout: 2 * time.Second,
				})
				if err != nil {
					t.Errorf("%s: dial: %v", label, err)
					return
				}
				defer c.Close()
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				if (ti+si)%4 == 0 {
					// Random mid-flight cancels: must surface as ctx.Err,
					// never as a wedge or a server casualty.
					cancel()
					ctx, cancel = context.WithTimeout(context.Background(), time.Duration(1+ti+si)*time.Millisecond)
				}
				defer cancel()
				stats, final, rerr := c.Replay(ctx, img.name, img.edges, 8+si*16)
				if rerr == nil {
					if *stats != img.want || final != img.final {
						t.Errorf("%s: wrong answer:\n got %+v\nwant %+v", label, *stats, img.want)
					}
					return
				}
				var serr *serve.Error
				if errors.As(rerr, &serr) {
					return
				}
				if errors.Is(rerr, context.Canceled) || errors.Is(rerr, context.DeadlineExceeded) {
					return
				}
				t.Errorf("%s: unstructured failure: %v", label, rerr)
			}(ti, si)
		}
	}
	wg.Wait()
	if got := s.PanicsRecovered(); got != 0 {
		t.Fatalf("server recovered %d panics during the storm, want 0", got)
	}
}

// TestServeQuotaExhaustion drives both per-session quotas to exhaustion
// through the facade and checks the structured codes: the step quota and
// the byte quota each terminate only the offending session, and a fresh
// session on the same server still gets the exact answer.
func TestServeQuotaExhaustion(t *testing.T) {
	_, addr, images := startServeFixture(t, tea.ServeConfig{
		IdleTimeout: 2 * time.Second,
		Quota:       serve.Quota{MaxSessionEdges: 16},
	})
	img := images[0]
	if uint64(len(img.edges)) <= 16 {
		t.Fatalf("fixture stream too short (%d edges) to exhaust the quota", len(img.edges))
	}
	c, err := tea.DialServe(addr, tea.ServeClientConfig{Tenant: "greedy", Seed: 1, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, _, rerr := c.Replay(ctx, img.name, img.edges, 8)
	var serr *serve.Error
	if !errors.As(rerr, &serr) {
		t.Fatalf("over-quota replay: err %v, want structured quota error", rerr)
	}
	if serr.Code != serve.CodeQuotaSteps {
		t.Fatalf("over-quota replay: code %v, want %v", serr.Code, serve.CodeQuotaSteps)
	}
	if serr.Temporary() {
		t.Fatal("quota exhaustion must not be marked retryable")
	}

	// A well-behaved session on the same server is untouched by the
	// neighbor's exhaustion.
	c2, err := tea.DialServe(addr, tea.ServeClientConfig{Tenant: "modest", Seed: 2, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	stats, final, rerr := c2.Replay(ctx, img.name, img.edges[:12], 4)
	if rerr != nil {
		t.Fatalf("under-quota replay: %v", rerr)
	}
	wantShort, wantFinal := core.SequentialReplay(tea.Compile(img.auto, tea.LookupConfig{}), img.edges[:12], nil)
	if *stats != wantShort || final != wantFinal {
		t.Fatalf("under-quota replay diverged:\n got %+v\nwant %+v", *stats, wantShort)
	}
}

// TestServeByteQuotaExhaustion is the byte-quota twin: a tiny byte budget
// terminates the session with CodeQuotaBytes.
func TestServeByteQuotaExhaustion(t *testing.T) {
	_, addr, images := startServeFixture(t, tea.ServeConfig{
		IdleTimeout: 2 * time.Second,
		Quota:       serve.Quota{MaxSessionBytes: 64},
	})
	img := images[0]
	c, err := tea.DialServe(addr, tea.ServeClientConfig{Tenant: "wordy", Seed: 3, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, _, rerr := c.Replay(ctx, img.name, img.edges, 64)
	var serr *serve.Error
	if !errors.As(rerr, &serr) || serr.Code != serve.CodeQuotaBytes {
		t.Fatalf("over-byte-quota replay: err %v, want CodeQuotaBytes", rerr)
	}
}
