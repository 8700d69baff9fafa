// Chaos suite for the serving layer. Runs in the external test package so
// it can drive the real client (internal/serve/client imports serve).
//
// The invariant under test, from DESIGN.md §13: under every injected
// wire-fault class — truncate, corrupt, reorder, stall, drop — every
// session terminates with a structured error or the exact
// sequential-replay result; the server never panics, never wedges a
// handler, and never leaks state across tenants. Run with -race.
package serve_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/faultinject"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/obs"
	"github.com/lsc-tea/tea/internal/pin"
	"github.com/lsc-tea/tea/internal/progs"
	"github.com/lsc-tea/tea/internal/serve"
	"github.com/lsc-tea/tea/internal/serve/client"
	"github.com/lsc-tea/tea/internal/teatool"
	"github.com/lsc-tea/tea/internal/trace"
)

// chaosImage is one hosted image plus its ground truth: the captured edge
// stream and the sequential-replay answer every served session must match.
type chaosImage struct {
	name  string
	prog  *isa.Program
	auto  *core.Automaton
	edges []core.Edge
	want  core.Stats
	final core.StateID
}

var (
	chaosOnce   sync.Once
	chaosImages []chaosImage
)

// chaosFixture records two distinct demo programs. Their streams and stats
// differ, which is what makes cross-tenant or cross-image leakage visible:
// a session served from the wrong image cannot produce its own answer.
func chaosFixture(t testing.TB) []chaosImage {
	t.Helper()
	chaosOnce.Do(func() {
		for _, d := range []struct {
			name string
			prog *isa.Program
		}{
			{"figure1", progs.Figure1(6, 40)},
			{"figure2", progs.Figure2(8, 30)},
		} {
			strat, ok := trace.NewStrategy("mret", d.prog, trace.Config{HotThreshold: 5})
			if !ok {
				panic("mret strategy missing")
			}
			set, _, err := trace.Record(context.Background(), cpu.New(d.prog), cfg.StarDBT, strat, 0)
			if err != nil {
				panic(err)
			}
			a := core.Build(set)
			tool := teatool.NewCaptureTool()
			if _, err := pin.New().Run(d.prog, tool, 0); err != nil {
				panic(err)
			}
			edges := tool.Stream()
			want, final := core.SequentialReplay(core.Compile(a, core.LookupConfig{}), edges, nil)
			chaosImages = append(chaosImages, chaosImage{
				name: d.name, prog: d.prog, auto: a,
				edges: edges, want: want, final: final,
			})
		}
	})
	return chaosImages
}

// startChaosServer hosts the fixture images on a loopback TCP listener.
func startChaosServer(t testing.TB, cfgOverride func(*serve.Config)) (*serve.Server, string) {
	t.Helper()
	c := serve.Config{IdleTimeout: 500 * time.Millisecond}
	if cfgOverride != nil {
		cfgOverride(&c)
	}
	s := serve.NewServer(c)
	for _, img := range chaosFixture(t) {
		if err := s.Host(img.name, img.prog, img.auto); err != nil {
			t.Fatalf("Host %s: %v", img.name, err)
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go func() { _ = s.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, l.Addr().String()
}

// faultyFirstDialer returns a dial function whose first connection carries
// the fault and whose retries are clean — the recoverable-outage shape.
func faultyFirstDialer(addr string, seed int64, fault faultinject.WireFault, target int) func() (net.Conn, error) {
	inj := faultinject.New(seed)
	dials := 0
	return func() (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		dials++
		if dials == 1 {
			return faultinject.NewFaultyConn(conn, inj, fault, target, time.Millisecond), nil
		}
		return conn, nil
	}
}

// checkOutcome enforces the chaos invariant on one session result.
func checkOutcome(t *testing.T, label string, img chaosImage, stats *core.Stats, final core.StateID, err error) {
	t.Helper()
	if err == nil {
		if *stats != img.want || final != img.final {
			t.Errorf("%s: completed with wrong answer:\n got %+v\nwant %+v", label, *stats, img.want)
		}
		return
	}
	var serr *serve.Error
	if errors.As(err, &serr) {
		return // structured termination is within contract
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return // the session's own context ended it
	}
	t.Errorf("%s: unstructured failure: %v", label, err)
}

// TestChaosMatrix sweeps every fault class against several frame indices:
// index 0 hits the Hello, 1 the Open, later indices hit Edges batches. In
// every cell the client must converge to the exact answer (via resume) or
// a structured error — and the server must survive with zero panics.
func TestChaosMatrix(t *testing.T) {
	images := chaosFixture(t)
	s, addr := startChaosServer(t, nil)
	img := images[0]

	for _, fault := range faultinject.WireFaults {
		for _, target := range []int{0, 1, 2, 4, 7} {
			label := fmt.Sprintf("%v@%d", fault, target)
			c, err := client.New(client.Config{
				Tenant:  "chaos",
				Dial:    faultyFirstDialer(addr, int64(1000+target), fault, target),
				Seed:    int64(target + 1),
				Timeout: time.Second,
			})
			if err != nil {
				t.Fatalf("%s: client: %v", label, err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			stats, final, rerr := c.Replay(ctx, img.name, img.edges, 32)
			cancel()
			c.Close()
			checkOutcome(t, label, img, stats, final, rerr)
		}
	}
	if got := s.PanicsRecovered(); got != 0 {
		t.Fatalf("server recovered %d panics during the matrix, want 0", got)
	}
	// The server is still healthy: a clean session gets the exact answer.
	c, err := client.New(client.Config{
		Tenant:  "chaos",
		Dial:    func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Seed:    99,
		Timeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	stats, final, rerr := c.Replay(ctx, img.name, img.edges, 64)
	if rerr != nil {
		t.Fatalf("post-chaos clean session: %v", rerr)
	}
	if *stats != img.want || final != img.final {
		t.Fatalf("post-chaos stats diverged")
	}
}

// TestChaosPersistentFaultTerminates pins the no-hang half of the
// invariant: when EVERY connection is faulty the client must still
// terminate within its retry budget — with an error, not a wedge.
func TestChaosPersistentFaultTerminates(t *testing.T) {
	images := chaosFixture(t)
	_, addr := startChaosServer(t, nil)
	img := images[0]
	for _, fault := range faultinject.WireFaults {
		if fault == faultinject.WireStall {
			continue // a 1ms stall on every frame still converges; nothing to pin
		}
		inj := faultinject.New(7)
		dial := func() (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			// Every connection faults its Edges frames (index 2 onward).
			return faultinject.NewFaultyConn(conn, inj, fault, 2, time.Millisecond), nil
		}
		c, err := client.New(client.Config{
			Tenant: "storm", Dial: dial, Seed: 3, Retries: 3, Timeout: time.Second,
			BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_, _, rerr := c.Replay(ctx, img.name, img.edges, 16)
		cancel()
		c.Close()
		if elapsed := time.Since(start); elapsed > 25*time.Second {
			t.Fatalf("%v: client wedged for %v", fault, elapsed)
		}
		// Drop and reorder can still converge through resume; the others
		// must surface an error.
		if rerr != nil {
			var serr *serve.Error
			if !errors.As(rerr, &serr) && !errors.Is(rerr, faultinject.ErrTruncated) &&
				!errors.Is(rerr, context.DeadlineExceeded) {
				// Transport-level termination is acceptable; a wedge is not.
				t.Logf("%v: terminated with transport error: %v", fault, rerr)
			}
		}
	}
}

// TestChaosConcurrentTenants is the cross-tenant isolation storm: many
// tenants replay different images through faulty first connections
// concurrently (run under -race). Every completed session must return its
// OWN image's answer — any cross-session or cross-tenant state leak shows
// up as a wrong-stats failure or a race report.
func TestChaosConcurrentTenants(t *testing.T) {
	images := chaosFixture(t)
	s, addr := startChaosServer(t, func(c *serve.Config) {
		c.Quota = serve.Quota{MaxConcurrent: 64, MaxParked: 128}
	})
	const (
		tenants  = 4
		sessions = 3
	)
	var wg sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		for si := 0; si < sessions; si++ {
			wg.Add(1)
			go func(ti, si int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(ti*100 + si)))
				img := images[(ti+si)%len(images)]
				fault := faultinject.WireFaults[rng.Intn(len(faultinject.WireFaults))]
				target := rng.Intn(6)
				label := fmt.Sprintf("tenant%d/s%d/%v@%d", ti, si, fault, target)
				c, err := client.New(client.Config{
					Tenant:  fmt.Sprintf("tenant%d", ti),
					Dial:    faultyFirstDialer(addr, int64(ti*1000+si), fault, target),
					Seed:    int64(ti + si + 1),
					Timeout: time.Second,
				})
				if err != nil {
					t.Errorf("%s: %v", label, err)
					return
				}
				defer c.Close()
				ctx := context.Background()
				var cancel context.CancelFunc
				if rng.Intn(4) == 0 {
					// Random mid-flight cancels: cancellation must surface as
					// ctx.Err, never as a hang or a server casualty.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(1+rng.Intn(20))*time.Millisecond)
				} else {
					ctx, cancel = context.WithTimeout(ctx, 30*time.Second)
				}
				defer cancel()
				stats, final, rerr := c.Replay(ctx, img.name, img.edges, 16+rng.Intn(64))
				checkOutcome(t, label, img, stats, final, rerr)
			}(ti, si)
		}
	}
	wg.Wait()
	if got := s.PanicsRecovered(); got != 0 {
		t.Fatalf("server recovered %d panics during the storm, want 0", got)
	}
}

// TestChaosFlightRecorderSuffix: for EVERY wire-fault class, a session that
// the server kills with a structured error — here a tiny edge quota, hit
// after the client claws its way through the faulty first connection — must
// leave a flight artifact that (a) survives an encode/decode round trip,
// and (b) whose event log ends with the EvSessionFail carrying the exact
// code that terminated the session, preceded by its quota rejection. Run
// with -race: trips happen on handler goroutines while this test scrapes.
func TestChaosFlightRecorderSuffix(t *testing.T) {
	images := chaosFixture(t)
	img := images[0]
	for fi, fault := range faultinject.WireFaults {
		t.Run(fault.String(), func(t *testing.T) {
			s, addr := startChaosServer(t, func(c *serve.Config) {
				c.Quota = serve.Quota{MaxSessionEdges: 24}
			})
			c, err := client.New(client.Config{
				Tenant:  "doomed",
				Dial:    faultyFirstDialer(addr, int64(500+fi), fault, 2),
				Seed:    int64(fi + 1),
				Timeout: time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			_, _, rerr := c.Replay(ctx, img.name, img.edges, 32)
			var serr *serve.Error
			if !errors.As(rerr, &serr) || serr.Code != serve.CodeQuotaSteps {
				t.Fatalf("expected quota-steps kill, got %v", rerr)
			}

			rec, ok := s.Obs().Flight.Last()
			if !ok {
				t.Fatal("no flight artifact after the kill")
			}
			if rec.Reason != "session-fail" || rec.Err == "" || rec.Src == 0 {
				t.Fatalf("artifact metadata incoherent: reason=%q src=%d err=%q",
					rec.Reason, rec.Src, rec.Err)
			}
			dec, derr := obs.DecodeFlight(obs.EncodeFlight(rec))
			if derr != nil {
				t.Fatalf("artifact does not decode: %v", derr)
			}
			n := len(dec.Events)
			if n == 0 {
				t.Fatal("artifact event log empty")
			}
			last := dec.Events[n-1]
			if last.Kind != obs.EvSessionFail || last.Aux != uint64(serve.CodeQuotaSteps) ||
				last.Src != rec.Src {
				t.Fatalf("artifact suffix does not end with the structured kill: %+v", last)
			}
			if n < 2 || dec.Events[n-2].Kind != obs.EvQuotaReject ||
				dec.Events[n-2].Src != rec.Src {
				t.Fatalf("quota-reject event missing before the kill: %+v", dec.Events)
			}
			if len(dec.Metrics) == 0 {
				t.Fatal("artifact carries no registry snapshot")
			}
		})
	}
}
