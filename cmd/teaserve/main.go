// Command teaserve hosts a fleet of compiled TEA images and serves
// concurrent replay/publish sessions over the length-prefixed wire
// protocol (internal/serve), with an admin HTTP surface for metrics and
// health probes.
//
// Usage:
//
//	teaserve                       # serve demo images on :7421, admin on :7422
//	teaserve -addr :9000           # wire listener address
//	teaserve -admin :9001          # admin HTTP (metrics, /healthz, /readyz)
//	teaserve -session-timeout 30s  # per-session context deadline
//	teaserve -max-concurrent 16    # per-tenant concurrent-session bound
//	teaserve -smoke                # self-test: serve on loopback, run a
//	                               # chaos subset through the client, shut
//	                               # down cleanly; exit 0 iff all invariants
//	                               # held
//
// The server hosts the paper's demo programs (figure1, figure2, repdemo,
// calldemo) recorded with the MRET strategy at startup, so a fresh binary
// is immediately serveable; production embedders use internal/serve
// directly and host their own images.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	tea "github.com/lsc-tea/tea"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/faultinject"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/obs"
	"github.com/lsc-tea/tea/internal/progs"
	"github.com/lsc-tea/tea/internal/serve"
	"github.com/lsc-tea/tea/internal/serve/client"
)

func main() {
	addr := flag.String("addr", ":7421", "wire listener address")
	admin := flag.String("admin", ":7422", "admin HTTP address (metrics, /healthz, /readyz)")
	sessionTimeout := flag.Duration("session-timeout", serve.DefaultSessionTimeout, "per-session context deadline")
	maxConcurrent := flag.Int("max-concurrent", serve.DefaultMaxConcurrent, "per-tenant concurrent-session bound")
	maxEdges := flag.Uint64("max-session-edges", 0, "per-session edge quota (0 = unbounded)")
	smoke := flag.Bool("smoke", false, "run the self-test chaos subset and exit")
	flag.Parse()

	cfg := serve.Config{Quota: serve.Quota{
		MaxConcurrent:   *maxConcurrent,
		MaxSessionEdges: *maxEdges,
		SessionTimeout:  *sessionTimeout,
	}}

	if *smoke {
		if err := runSmoke(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "teaserve: smoke FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("teaserve: smoke ok")
		return
	}
	if err := run(cfg, *addr, *admin); err != nil {
		fmt.Fprintf(os.Stderr, "teaserve: %v\n", err)
		os.Exit(1)
	}
}

// demoImages builds and records the demo program fleet.
func demoImages() (map[string]*isa.Program, map[string]*core.Automaton, error) {
	programs := map[string]*isa.Program{
		"figure1":  progs.Figure1(6, 40),
		"figure2":  progs.Figure2(8, 30),
		"repdemo":  progs.RepDemo(30),
		"calldemo": progs.CallDemo(20),
	}
	automata := make(map[string]*core.Automaton, len(programs))
	for name, p := range programs {
		set, err := tea.RecordTraces(context.Background(), p, "mret", tea.TraceConfig{HotThreshold: 5}, 0)
		if err != nil {
			return nil, nil, fmt.Errorf("record %s: %w", name, err)
		}
		automata[name] = core.Build(set)
	}
	return programs, automata, nil
}

// run hosts the demo fleet and serves until SIGINT/SIGTERM, then drains.
func run(cfg serve.Config, addr, admin string) error {
	s := serve.NewServer(cfg)
	programs, automata, err := demoImages()
	if err != nil {
		return err
	}
	for name := range programs {
		if err := s.Host(name, programs[name], automata[name]); err != nil {
			return fmt.Errorf("host %s: %w", name, err)
		}
	}

	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Addr: admin, Handler: s.Handler()}
	go func() { _ = httpSrv.ListenAndServe() }()
	fmt.Printf("teaserve: serving %d images on %s (admin %s)\n", len(programs), l.Addr(), admin)

	errc := make(chan error, 1)
	go func() { errc <- s.Serve(l) }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("teaserve: %v, draining\n", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(ctx)
	return s.Shutdown(ctx)
}

// runSmoke is the CI self-test: bring the server up on loopback, replay a
// clean session plus one session per wire-fault class through the retrying
// client, assert every session ends in the exact sequential-replay answer
// or a structured error, check the health endpoints flip on drain, and
// shut down within a bounded deadline.
func runSmoke(cfg serve.Config) error {
	cfg.IdleTimeout = 2 * time.Second
	s := serve.NewServer(cfg)
	programs, automata, err := demoImages()
	if err != nil {
		return err
	}
	for name := range programs {
		if err := s.Host(name, programs[name], automata[name]); err != nil {
			return fmt.Errorf("host %s: %w", name, err)
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := l.Addr().String()
	go func() { _ = s.Serve(l) }()

	// Ground truth: the in-process sequential replay of the same stream.
	const image = "figure1"
	p := programs[image]
	edges, _, err := tea.CaptureStream(p)
	if err != nil {
		return err
	}
	compiled := core.Compile(automata[image], cfg.Lookup)
	wantStats, wantFinal := core.SequentialReplay(compiled, edges, nil)

	check := func(label string, dial func() (net.Conn, error)) error {
		c, err := client.New(client.Config{Tenant: "smoke", Dial: dial, Seed: 1})
		if err != nil {
			return err
		}
		defer c.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		stats, final, err := c.Replay(ctx, image, edges, 512)
		if err != nil {
			var serr *serve.Error
			if asStructured(err, &serr) {
				fmt.Printf("teaserve: smoke %-10s structured error: %v\n", label, serr)
				return nil
			}
			return fmt.Errorf("%s: unstructured failure: %w", label, err)
		}
		if *stats != wantStats || final != wantFinal {
			return fmt.Errorf("%s: stats diverged from sequential replay", label)
		}
		fmt.Printf("teaserve: smoke %-10s ok (%d edges, %d desyncs)\n", label, len(edges), stats.Desyncs)
		return nil
	}

	tcpDial := func() (net.Conn, error) { return net.Dial("tcp", addr) }
	if err := check("clean", tcpDial); err != nil {
		return err
	}
	// One session per fault class: the first connection is faulty, retries
	// dial clean — the client must converge through resume.
	for i, fault := range faultinject.WireFaults {
		fault := fault
		inj := faultinject.New(int64(100 + i))
		dials := 0
		dial := func() (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			dials++
			if dials == 1 {
				return faultinject.NewFaultyConn(conn, inj, fault, 3, time.Millisecond), nil
			}
			return conn, nil
		}
		if err := check(fault.String(), dial); err != nil {
			return err
		}
	}

	// Flight-recorder leg: a second server with a tiny edge quota kills the
	// session with a structured error; the post-mortem artifact must be
	// fetchable over the admin surface and fully decodable, ending with the
	// EvSessionFail that terminated the session.
	if err := smokeFlight(cfg, programs, automata, edges); err != nil {
		return fmt.Errorf("flight: %w", err)
	}
	fmt.Printf("teaserve: smoke %-10s ok (quota kill -> decodable artifact)\n", "flight")

	// Drain: readiness must flip before the listener closes, liveness after.
	if !s.Health().Ready() {
		return fmt.Errorf("server not ready while serving")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if s.Health().Ready() || s.Health().Live() {
		return fmt.Errorf("health flags not cleared after shutdown")
	}
	return nil
}

// smokeFlight drives one quota-doomed session and verifies the flight
// recorder end to end: the artifact is served at /debug/flight/last on the
// admin surface, decodes cleanly, and its event log ends with the
// structured failure.
func smokeFlight(cfg serve.Config, programs map[string]*isa.Program, automata map[string]*core.Automaton, edges []core.Edge) error {
	cfg.Quota.MaxSessionEdges = 64
	cfg.IdleTimeout = 2 * time.Second
	s := serve.NewServer(cfg)
	const image = "figure1"
	if err := s.Host(image, programs[image], automata[image]); err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go func() { _ = s.Serve(l) }()
	al, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	admin := &http.Server{Handler: s.Handler()}
	go func() { _ = admin.Serve(al) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = admin.Shutdown(ctx)
		_ = s.Shutdown(ctx)
	}()

	c, err := client.New(client.Config{
		Tenant: "doomed",
		Dial:   func() (net.Conn, error) { return net.Dial("tcp", l.Addr().String()) },
		Seed:   7,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, _, rerr := c.Replay(ctx, image, edges, 512)
	var serr *serve.Error
	if !asStructured(rerr, &serr) || serr.Code != serve.CodeQuotaSteps {
		return fmt.Errorf("expected quota-steps kill, got %v", rerr)
	}

	resp, err := http.Get("http://" + al.Addr().String() + "/debug/flight/last")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/debug/flight/last: HTTP %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	rec, err := tea.DecodeFlight(raw)
	if err != nil {
		return fmt.Errorf("artifact does not decode: %w", err)
	}
	if rec.Reason != "session-fail" || rec.Err == "" || len(rec.Events) == 0 {
		return fmt.Errorf("artifact incoherent: reason=%q err=%q events=%d", rec.Reason, rec.Err, len(rec.Events))
	}
	last := rec.Events[len(rec.Events)-1]
	if last.Kind != obs.EvSessionFail || last.Aux != uint64(serve.CodeQuotaSteps) {
		return fmt.Errorf("artifact does not end with the structured kill: %+v", last)
	}
	return nil
}

// asStructured reports whether err is (or wraps) a *serve.Error.
func asStructured(err error, out **serve.Error) bool {
	for err != nil {
		if e, ok := err.(*serve.Error); ok {
			*out = e
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
