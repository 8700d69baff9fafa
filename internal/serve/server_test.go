package serve

import (
	"context"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/obs"
	"github.com/lsc-tea/tea/internal/pin"
	"github.com/lsc-tea/tea/internal/progs"
	"github.com/lsc-tea/tea/internal/teatool"
	"github.com/lsc-tea/tea/internal/trace"
)

// fixture builds a recorded demo program, its automaton, and the captured
// edge stream the tests replay through the server.
type fixture struct {
	prog  *isa.Program
	auto  *core.Automaton
	edges []core.Edge
	want  core.Stats
	final core.StateID
}

var (
	fixOnce sync.Once
	fix     fixture
)

func testFixture(t testing.TB) fixture {
	t.Helper()
	fixOnce.Do(func() {
		p := progs.Figure1(6, 40)
		strat, ok := trace.NewStrategy("mret", p, trace.Config{HotThreshold: 5})
		if !ok {
			panic("mret strategy missing")
		}
		set, _, err := trace.Record(context.Background(), cpu.New(p), cfg.StarDBT, strat, 0)
		if err != nil {
			panic(err)
		}
		a := core.Build(set)
		tool := teatool.NewCaptureTool()
		if _, err := pin.New().Run(p, tool, 0); err != nil {
			panic(err)
		}
		edges := tool.Stream()
		want, final := core.SequentialReplay(core.Compile(a, core.LookupConfig{}), edges, nil)
		fix = fixture{prog: p, auto: a, edges: edges, want: want, final: final}
	})
	return fix
}

// newTestServer hosts the fixture image under "img" and returns the server.
func newTestServer(t testing.TB, cfgOverride func(*Config)) *Server {
	t.Helper()
	f := testFixture(t)
	c := Config{IdleTimeout: 2 * time.Second}
	if cfgOverride != nil {
		cfgOverride(&c)
	}
	s := NewServer(c)
	if err := s.Host("img", f.prog, f.auto); err != nil {
		t.Fatalf("Host: %v", err)
	}
	return s
}

// testConn is a raw frame-level client over one half of a net.Pipe.
type testConn struct {
	t    testing.TB
	c    net.Conn
	rbuf []byte
}

// dialPipe connects a testConn to the server through an in-memory pipe.
func dialPipe(t testing.TB, s *Server) *testConn {
	t.Helper()
	cli, srv := net.Pipe()
	go s.ServeConn(srv)
	return &testConn{t: t, c: cli}
}

func (tc *testConn) send(payload []byte) {
	tc.t.Helper()
	_ = tc.c.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if err := WriteFrame(tc.c, payload); err != nil {
		tc.t.Fatalf("WriteFrame: %v", err)
	}
}

func (tc *testConn) recv() (FrameType, []byte) {
	tc.t.Helper()
	_ = tc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	payload, err := ReadFrame(tc.c, tc.rbuf)
	if err != nil {
		tc.t.Fatalf("ReadFrame: %v", err)
	}
	tc.rbuf = payload[:cap(payload)]
	typ, body, err := ParseFrame(payload)
	if err != nil {
		tc.t.Fatalf("ParseFrame: %v", err)
	}
	return typ, body
}

// hello performs the handshake.
func (tc *testConn) hello(tenant string) {
	tc.t.Helper()
	h := Hello{Version: ProtoVersion, Tenant: tenant}
	tc.send(h.Append(nil))
	typ, _ := tc.recv()
	if typ != FrameHelloAck {
		tc.t.Fatalf("handshake: got %v", typ)
	}
}

// open opens or resumes a session and returns the ack or error.
func (tc *testConn) open(image, resume string) (OpenAck, *Error) {
	tc.t.Helper()
	o := Open{Image: image, Resume: resume}
	tc.send(o.Append(nil))
	typ, body := tc.recv()
	switch typ {
	case FrameOpenAck:
		ack, err := ParseOpenAck(body)
		if err != nil {
			tc.t.Fatalf("ParseOpenAck: %v", err)
		}
		return ack, nil
	case FrameError:
		serr, err := ParseError(body)
		if err != nil {
			tc.t.Fatalf("ParseError: %v", err)
		}
		return OpenAck{}, serr
	}
	tc.t.Fatalf("open: unexpected frame %v", typ)
	return OpenAck{}, nil
}

// edges sends one batch and returns the ack watermark or error.
func (tc *testConn) sendEdges(batch []core.Edge) (uint64, *Error) {
	tc.t.Helper()
	tc.send(AppendEdges(nil, batch, NoClock))
	typ, body := tc.recv()
	switch typ {
	case FrameEdgesAck:
		ack, err := ParseEdgesAck(body)
		if err != nil {
			tc.t.Fatalf("ParseEdgesAck: %v", err)
		}
		return ack.Watermark, nil
	case FrameError:
		serr, err := ParseError(body)
		if err != nil {
			tc.t.Fatalf("ParseError: %v", err)
		}
		return 0, serr
	}
	tc.t.Fatalf("edges: unexpected frame %v", typ)
	return 0, nil
}

// close requests final stats (or the session's terminal error).
func (tc *testConn) closeSession() (StatsMsg, *Error) {
	tc.t.Helper()
	tc.send([]byte{byte(FrameClose)})
	typ, body := tc.recv()
	switch typ {
	case FrameStats:
		m, err := ParseStats(body)
		if err != nil {
			tc.t.Fatalf("ParseStats: %v", err)
		}
		return m, nil
	case FrameError:
		serr, err := ParseError(body)
		if err != nil {
			tc.t.Fatalf("ParseError: %v", err)
		}
		return StatsMsg{}, serr
	}
	tc.t.Fatalf("close: unexpected frame %v", typ)
	return StatsMsg{}, nil
}

func TestServeHappyPath(t *testing.T) {
	f := testFixture(t)
	s := newTestServer(t, nil)
	tc := dialPipe(t, s)
	defer tc.c.Close()
	tc.hello("acme")
	ack, serr := tc.open("img", "")
	if serr != nil {
		t.Fatalf("open: %v", serr)
	}
	if ack.Gen != 1 || ack.Watermark != 0 {
		t.Fatalf("ack: %+v", ack)
	}
	for off := 0; off < len(f.edges); off += 64 {
		end := off + 64
		if end > len(f.edges) {
			end = len(f.edges)
		}
		wm, serr := tc.sendEdges(f.edges[off:end])
		if serr != nil {
			t.Fatalf("edges: %v", serr)
		}
		if wm != uint64(end) {
			t.Fatalf("watermark %d, want %d", wm, end)
		}
	}
	m, serr := tc.closeSession()
	if serr != nil {
		t.Fatalf("close: %v", serr)
	}
	if m.Stats != f.want || m.Final != f.final {
		t.Fatalf("served stats diverged from sequential replay:\n got %+v\nwant %+v", m.Stats, f.want)
	}
}

func TestOpenUnknownImage(t *testing.T) {
	s := newTestServer(t, nil)
	tc := dialPipe(t, s)
	defer tc.c.Close()
	tc.hello("acme")
	_, serr := tc.open("nope", "")
	if serr == nil || serr.Code != CodeUnknownImage {
		t.Fatalf("got %v, want unknown-image", serr)
	}
}

func TestBackpressureBoundedRejection(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Quota = Quota{MaxConcurrent: 1, RetryAfter: 20 * time.Millisecond}
	})
	tc1 := dialPipe(t, s)
	defer tc1.c.Close()
	tc1.hello("acme")
	if _, serr := tc1.open("img", ""); serr != nil {
		t.Fatalf("first open: %v", serr)
	}
	tc2 := dialPipe(t, s)
	defer tc2.c.Close()
	tc2.hello("acme")
	_, serr := tc2.open("img", "")
	if serr == nil || serr.Code != CodeBackpressure {
		t.Fatalf("got %v, want backpressure", serr)
	}
	if serr.RetryAfter <= 0 {
		t.Fatalf("backpressure must carry a retry-after hint: %+v", serr)
	}
	if !serr.Temporary() {
		t.Fatal("backpressure must be temporary")
	}
	// Another tenant is not affected by acme's bound.
	tc3 := dialPipe(t, s)
	defer tc3.c.Close()
	tc3.hello("globex")
	if _, serr := tc3.open("img", ""); serr != nil {
		t.Fatalf("other tenant open: %v", serr)
	}
}

func TestEdgeQuotaTerminatesSession(t *testing.T) {
	f := testFixture(t)
	s := newTestServer(t, func(c *Config) {
		c.Quota = Quota{MaxSessionEdges: 10}
	})
	tc := dialPipe(t, s)
	defer tc.c.Close()
	tc.hello("acme")
	ack, serr := tc.open("img", "")
	if serr != nil {
		t.Fatalf("open: %v", serr)
	}
	_, serr = tc.sendEdges(f.edges[:32])
	if serr == nil || serr.Code != CodeQuotaSteps {
		t.Fatalf("got %v, want quota-steps", serr)
	}
	// The terminal error replays on resume: quota failures are sticky.
	tc2 := dialPipe(t, s)
	defer tc2.c.Close()
	tc2.hello("acme")
	if _, serr := tc2.open("img", ack.Session); serr != nil {
		t.Fatalf("resume: %v", serr)
	}
	_, serr = tc2.closeSession()
	if serr == nil || serr.Code != CodeQuotaSteps {
		t.Fatalf("resumed close: got %v, want replayed quota-steps", serr)
	}
}

func TestByteQuotaTerminatesSession(t *testing.T) {
	f := testFixture(t)
	s := newTestServer(t, func(c *Config) {
		c.Quota = Quota{MaxSessionBytes: 8}
	})
	tc := dialPipe(t, s)
	defer tc.c.Close()
	tc.hello("acme")
	if _, serr := tc.open("img", ""); serr != nil {
		t.Fatalf("open: %v", serr)
	}
	_, serr := tc.sendEdges(f.edges[:32])
	if serr == nil || serr.Code != CodeQuotaBytes {
		t.Fatalf("got %v, want quota-bytes", serr)
	}
}

func TestSessionDeadline(t *testing.T) {
	f := testFixture(t)
	s := newTestServer(t, func(c *Config) {
		c.Quota = Quota{SessionTimeout: time.Millisecond}
	})
	tc := dialPipe(t, s)
	defer tc.c.Close()
	tc.hello("acme")
	if _, serr := tc.open("img", ""); serr != nil {
		t.Fatalf("open: %v", serr)
	}
	time.Sleep(5 * time.Millisecond)
	_, serr := tc.sendEdges(f.edges[:4])
	if serr == nil || serr.Code != CodeDeadline {
		t.Fatalf("got %v, want deadline", serr)
	}
}

func TestResumeIdempotent(t *testing.T) {
	f := testFixture(t)
	s := newTestServer(t, nil)
	half := len(f.edges) / 2

	tc := dialPipe(t, s)
	tc.hello("acme")
	ack, serr := tc.open("img", "")
	if serr != nil {
		t.Fatalf("open: %v", serr)
	}
	if _, serr := tc.sendEdges(f.edges[:half]); serr != nil {
		t.Fatalf("first half: %v", serr)
	}
	tc.c.Close() // connection dies; the session parks

	tc2 := dialPipe(t, s)
	defer tc2.c.Close()
	tc2.hello("acme")
	var rack OpenAck
	// The dead handler may still be detaching; resume reports the session
	// attached (backpressure, temporary) until the park lands.
	for i := 0; ; i++ {
		var rerr *Error
		rack, rerr = tc2.open("img", ack.Session)
		if rerr == nil {
			break
		}
		if rerr.Code != CodeBackpressure || i > 100 {
			t.Fatalf("resume: %v", rerr)
		}
		time.Sleep(time.Millisecond)
	}
	if rack.Session != ack.Session || rack.Watermark != uint64(half) {
		t.Fatalf("resume ack %+v, want session %s watermark %d", rack, ack.Session, half)
	}
	// The client re-sends from the watermark — the consumed prefix is never
	// replayed twice.
	if _, serr := tc2.sendEdges(f.edges[half:]); serr != nil {
		t.Fatalf("second half: %v", serr)
	}
	m, serr := tc2.closeSession()
	if serr != nil {
		t.Fatalf("close: %v", serr)
	}
	if m.Stats != f.want || m.Final != f.final {
		t.Fatalf("resumed stats diverged:\n got %+v\nwant %+v", m.Stats, f.want)
	}
	// Close is idempotent: re-resume and fetch the same frozen stats.
	tc3 := dialPipe(t, s)
	defer tc3.c.Close()
	tc3.hello("acme")
	if _, serr := tc3.open("img", ack.Session); serr != nil {
		t.Fatalf("re-resume: %v", serr)
	}
	m2, serr := tc3.closeSession()
	if serr != nil || m2 != m {
		t.Fatalf("idempotent close: %+v, %v", m2, serr)
	}
}

func TestCrossTenantResumeDenied(t *testing.T) {
	f := testFixture(t)
	s := newTestServer(t, nil)
	tc := dialPipe(t, s)
	tc.hello("acme")
	ack, serr := tc.open("img", "")
	if serr != nil {
		t.Fatalf("open: %v", serr)
	}
	if _, serr := tc.sendEdges(f.edges[:8]); serr != nil {
		t.Fatalf("edges: %v", serr)
	}
	tc.c.Close()
	time.Sleep(5 * time.Millisecond) // let the session park

	evil := dialPipe(t, s)
	defer evil.c.Close()
	evil.hello("mallory")
	_, serr = evil.open("img", ack.Session)
	if serr == nil || serr.Code != CodeUnknownSession {
		t.Fatalf("cross-tenant resume: got %v, want unknown-session", serr)
	}
}

// panicConn panics on the first Read after the handshake, modeling a
// poisoned connection handler.
type panicConn struct {
	net.Conn
	reads int
}

func (p *panicConn) Read(b []byte) (int, error) {
	p.reads++
	if p.reads > 2 { // survive the two handshake reads (header+payload)
		panic("poisoned connection")
	}
	return p.Conn.Read(b)
}

func TestPanicIsolation(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.IdleTimeout = 200 * time.Millisecond })
	cli, srv := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeConn(&panicConn{Conn: srv})
	}()
	tc := &testConn{t: t, c: cli}
	tc.hello("acme")
	// Drive the poisoned read; the handler must recover, not crash.
	h := Hello{Version: ProtoVersion, Tenant: "acme"}
	_ = WriteFrame(cli, h.Append(nil))
	<-done
	cli.Close()
	if got := s.m.panics.Value(); got != 1 {
		t.Fatalf("panics recovered: %d, want 1", got)
	}
	// The server survives and serves new sessions.
	f := testFixture(t)
	tc2 := dialPipe(t, s)
	defer tc2.c.Close()
	tc2.hello("acme")
	if _, serr := tc2.open("img", ""); serr != nil {
		t.Fatalf("post-panic open: %v", serr)
	}
	if _, serr := tc2.sendEdges(f.edges[:8]); serr != nil {
		t.Fatalf("post-panic edges: %v", serr)
	}
}

func TestPublishSwapsGenerationAndBadImageRefused(t *testing.T) {
	f := testFixture(t)
	s := newTestServer(t, nil)
	data, err := core.Encode(f.auto)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	tc := dialPipe(t, s)
	defer tc.c.Close()
	tc.hello("ops")
	pub := Publish{Image: "img", Data: data}
	tc.send(pub.Append(nil))
	typ, body := tc.recv()
	if typ != FramePublishAck {
		t.Fatalf("publish: got %v", typ)
	}
	ack, perr := ParsePublishAck(body)
	if perr != nil || ack.Gen != 2 {
		t.Fatalf("publish ack: %+v, %v", ack, perr)
	}
	// New sessions see the new generation.
	ack2, serr := tc.open("img", "")
	if serr != nil || ack2.Gen != 2 {
		t.Fatalf("open after publish: %+v, %v", ack2, serr)
	}
	if _, serr := tc.closeSession(); serr != nil {
		t.Fatalf("close: %v", serr)
	}

	// A corrupted image is refused admission with a structured error.
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0xff
	pub = Publish{Image: "img", Data: bad}
	tc.send(pub.Append(nil))
	typ, body = tc.recv()
	if typ != FrameError {
		t.Fatalf("bad publish: got %v", typ)
	}
	serr2, perr := ParseError(body)
	if perr != nil || serr2.Code != CodeBadImage {
		t.Fatalf("bad publish: %+v, %v", serr2, perr)
	}
	// The refused image never becomes visible.
	img, gerr := s.Store().Peek("img")
	if gerr != nil || img.Gen != 2 {
		t.Fatalf("generation after refused publish: %+v, %v", img, gerr)
	}
}

func TestBreakerQuarantinesAndReadmits(t *testing.T) {
	f := testFixture(t)
	s := newTestServer(t, func(c *Config) {
		c.BreakerThreshold = 2
		c.BreakerCooldown = 30 * time.Millisecond
		c.Quota = Quota{MaxSessionDesyncs: 1}
	})
	// The reversed stream enters traces and then diverges on every visit:
	// each completed session desyncs far past the threshold, so it counts
	// as failure evidence against the image.
	garbage := make([]core.Edge, len(f.edges))
	for i := range garbage {
		garbage[i] = f.edges[len(f.edges)-1-i]
	}
	failOnce := func() {
		tc := dialPipe(t, s)
		defer tc.c.Close()
		tc.hello("acme")
		if _, serr := tc.open("img", ""); serr != nil {
			t.Fatalf("open: %v", serr)
		}
		if _, serr := tc.sendEdges(garbage); serr != nil {
			t.Fatalf("edges: %v", serr)
		}
		if _, serr := tc.closeSession(); serr != nil {
			t.Fatalf("close: %v", serr)
		}
	}
	quarantined := func() bool {
		e, serr := s.Store().lookupEntry("img")
		return serr == nil && e.brk.isOpen()
	}
	failOnce()
	if quarantined() {
		t.Fatal("breaker tripped below threshold")
	}
	failOnce()
	if !quarantined() {
		t.Fatal("breaker did not trip at threshold")
	}
	// While quarantined, opens are refused with the remaining cooldown.
	tc := dialPipe(t, s)
	tc.hello("acme")
	_, serr := tc.open("img", "")
	if serr == nil || serr.Code != CodeQuarantined {
		t.Fatalf("got %v, want quarantined", serr)
	}
	if !serr.Temporary() || serr.RetryAfter <= 0 {
		t.Fatalf("quarantine must be temporary with retry-after: %+v", serr)
	}
	tc.c.Close()

	// After the cooldown the image re-verifies (it is statically clean) and
	// is readmitted; a healthy session closes the breaker.
	time.Sleep(40 * time.Millisecond)
	tc2 := dialPipe(t, s)
	defer tc2.c.Close()
	tc2.hello("acme")
	if _, serr := tc2.open("img", ""); serr != nil {
		t.Fatalf("readmission open: %v", serr)
	}
	if _, serr := tc2.sendEdges(f.edges[:64]); serr != nil {
		t.Fatalf("healthy edges: %v", serr)
	}
	if _, serr := tc2.closeSession(); serr != nil {
		t.Fatalf("healthy close: %v", serr)
	}
	if quarantined() {
		t.Fatal("breaker still open after clean re-verify and healthy session")
	}
	if got := s.m.breakerTrips.Value(); got != 1 {
		t.Fatalf("breaker trips: %d, want 1", got)
	}
}

func TestShutdownDrains(t *testing.T) {
	s := newTestServer(t, nil)
	if !s.Health().Ready() {
		t.Fatal("server with a hosted image must be ready")
	}
	tc := dialPipe(t, s)
	defer tc.c.Close()
	tc.hello("acme")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(ctx) }()
	// Wait until Shutdown has begun (it marks the server closed before it
	// clears readiness), so the open below cannot overtake it.
	for s.Health().Ready() {
		if ctx.Err() != nil {
			t.Fatal("Shutdown never began draining")
		}
		runtime.Gosched()
	}
	// Draining: new opens are refused with CodeShutdown.
	_, serr := tc.open("img", "")
	if serr == nil || serr.Code != CodeShutdown {
		t.Fatalf("got %v, want shutdown", serr)
	}
	tc.c.Close()
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if s.Health().Ready() || s.Health().Live() {
		t.Fatal("health flags not cleared after drain")
	}
}

func TestTenantMetricsSanitized(t *testing.T) {
	s := newTestServer(t, nil)
	tc := dialPipe(t, s)
	defer tc.c.Close()
	// A hostile tenant name must not panic the metrics registry, and the
	// label value must land in the scrape with quote/backslash escaping so
	// it cannot forge extra series or break the exposition format.
	tc.hello(`evil" tenant{} -1`)
	if _, serr := tc.open("img", ""); serr != nil {
		t.Fatalf("open: %v", serr)
	}
	var sb strings.Builder
	if err := s.Obs().Reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	want := `tea_serve_tenant_sessions_total{tenant="evil\" tenant{} -1"}`
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("escaped tenant series %q missing from scrape:\n%s", want, sb.String())
	}
}

// TestStreamClockSkewRejected: a batch claiming a watermark other than the
// session's accepted one is a desynced sender; the session dies with a
// structured CodeProto error instead of silently double-applying edges.
func TestStreamClockSkewRejected(t *testing.T) {
	f := testFixture(t)
	s := newTestServer(t, nil)
	tc := dialPipe(t, s)
	defer tc.c.Close()
	tc.hello("acme")
	if _, serr := tc.open("img", ""); serr != nil {
		t.Fatalf("open: %v", serr)
	}
	if _, serr := tc.sendEdges(f.edges[:8]); serr != nil {
		t.Fatalf("first batch: %v", serr)
	}
	// Claim watermark 3 while the session sits at 8.
	tc.send(AppendEdges(nil, f.edges[8:16], 3))
	typ, body := tc.recv()
	if typ != FrameError {
		t.Fatalf("skewed batch: got %v, want error frame", typ)
	}
	serr, err := ParseError(body)
	if err != nil {
		t.Fatalf("ParseError: %v", err)
	}
	if serr.Code != CodeProto || !strings.Contains(serr.Msg, "clock skew") {
		t.Fatalf("got %v, want clock-skew proto error", serr)
	}
	// An honest clock is accepted.
	tc2 := dialPipe(t, s)
	defer tc2.c.Close()
	tc2.hello("acme")
	if _, serr := tc2.open("img", ""); serr != nil {
		t.Fatalf("open2: %v", serr)
	}
	tc2.send(AppendEdges(nil, f.edges[:8], 0))
	if typ, _ := tc2.recv(); typ != FrameEdgesAck {
		t.Fatalf("honest clock: got %v, want ack", typ)
	}
	tc2.send(AppendEdges(nil, f.edges[8:16], 8))
	if typ, _ := tc2.recv(); typ != FrameEdgesAck {
		t.Fatalf("honest clock at 8: got %v, want ack", typ)
	}
}

// TestSessionEventStream: an open → edges → close lifecycle lands causally
// ordered events in the ring, all stamped with the session's source id.
func TestSessionEventStream(t *testing.T) {
	f := testFixture(t)
	s := newTestServer(t, nil)
	tc := dialPipe(t, s)
	defer tc.c.Close()
	tc.hello("acme")
	ack, serr := tc.open("img", "")
	if serr != nil {
		t.Fatalf("open: %v", serr)
	}
	if ack.Src == 0 {
		t.Fatal("server did not assign a source id")
	}
	if _, serr := tc.sendEdges(f.edges[:16]); serr != nil {
		t.Fatalf("edges: %v", serr)
	}
	if _, serr := tc.closeSession(); serr != nil {
		t.Fatalf("close: %v", serr)
	}
	events, _ := s.Obs().Tracer.Snapshot()
	var kinds []obs.EventKind
	for _, e := range events {
		if e.Src != ack.Src {
			t.Fatalf("event %v carries src %d, want %d", e.Kind, e.Src, ack.Src)
		}
		kinds = append(kinds, e.Kind)
	}
	want := []obs.EventKind{obs.EvSessionOpen, obs.EvSessionClose}
	if len(kinds) != len(want) {
		t.Fatalf("event kinds %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event kinds %v, want %v", kinds, want)
		}
	}
	if last := events[len(events)-1]; last.Edge != 16 || last.Aux != 16 {
		t.Fatalf("close event clock %d/%d, want 16/16", last.Edge, last.Aux)
	}
}

// TestClientSrcProposalHonored: an Open carrying a client trace context gets
// it echoed on the OpenAck and stamped on the session's events.
func TestClientSrcProposalHonored(t *testing.T) {
	s := newTestServer(t, nil)
	tc := dialPipe(t, s)
	defer tc.c.Close()
	tc.hello("acme")
	o := Open{Image: "img", Src: 0xbeef}
	tc.send(o.Append(nil))
	typ, body := tc.recv()
	if typ != FrameOpenAck {
		t.Fatalf("got %v", typ)
	}
	ack, err := ParseOpenAck(body)
	if err != nil {
		t.Fatalf("ParseOpenAck: %v", err)
	}
	if ack.Src != 0xbeef {
		t.Fatalf("ack src %#x, want 0xbeef", ack.Src)
	}
	events, _ := s.Obs().Tracer.Snapshot()
	if len(events) == 0 || events[0].Kind != obs.EvSessionOpen || events[0].Src != 0xbeef {
		t.Fatalf("open event not stamped with client src: %+v", events)
	}
}

// TestQuotaFailureTripsFlightRecorder: a quota-killed session must leave a
// decodable flight artifact whose event log ends with the EvSessionFail
// carrying the structured code that terminated it.
func TestQuotaFailureTripsFlightRecorder(t *testing.T) {
	f := testFixture(t)
	s := newTestServer(t, func(c *Config) {
		c.Quota = Quota{MaxSessionEdges: 10}
	})
	tc := dialPipe(t, s)
	defer tc.c.Close()
	tc.hello("acme")
	ack, serr := tc.open("img", "")
	if serr != nil {
		t.Fatalf("open: %v", serr)
	}
	if _, serr := tc.sendEdges(f.edges[:32]); serr == nil || serr.Code != CodeQuotaSteps {
		t.Fatalf("got %v, want quota-steps", serr)
	}
	rec, ok := s.Obs().Flight.Last()
	if !ok {
		t.Fatal("no flight artifact after quota kill")
	}
	if rec.Reason != "session-fail" || rec.Src != ack.Src || rec.Err == "" {
		t.Fatalf("artifact metadata wrong: %+v", rec)
	}
	// The artifact must survive an encode/decode round trip and end with
	// the terminal event.
	dec, err := obs.DecodeFlight(obs.EncodeFlight(rec))
	if err != nil {
		t.Fatalf("DecodeFlight: %v", err)
	}
	last := dec.Events[len(dec.Events)-1]
	if last.Kind != obs.EvSessionFail || last.Aux != uint64(CodeQuotaSteps) || last.Src != ack.Src {
		t.Fatalf("artifact does not end with the quota failure: %+v", last)
	}
	// The quota rejection itself precedes the failure in the suffix.
	if n := len(dec.Events); n < 2 || dec.Events[n-2].Kind != obs.EvQuotaReject {
		t.Fatalf("quota-reject event missing before the failure: %+v", dec.Events)
	}
}

// TestTenantEvictionReleasesSeries: when a tenant's last connection drops
// and nothing resumable remains, its metric series leave the registry —
// the per-tenant label set is bounded by live tenants, not by history.
func TestTenantEvictionReleasesSeries(t *testing.T) {
	f := testFixture(t)
	s := newTestServer(t, nil)
	tc := dialPipe(t, s)
	tc.hello("evictme")
	if _, serr := tc.open("img", ""); serr != nil {
		t.Fatalf("open: %v", serr)
	}
	if _, serr := tc.sendEdges(f.edges[:8]); serr != nil {
		t.Fatalf("edges: %v", serr)
	}
	if _, serr := tc.closeSession(); serr != nil {
		t.Fatalf("close: %v", serr)
	}
	scrape := func() string {
		var sb strings.Builder
		if err := s.Obs().Reg.WritePrometheus(&sb); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		return sb.String()
	}
	if !strings.Contains(scrape(), `tenant="evictme"`) {
		t.Fatal("tenant series missing while connected")
	}
	tc.c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for strings.Contains(scrape(), `tenant="evictme"`) {
		if time.Now().After(deadline) {
			t.Fatal("tenant series still present after last connection dropped")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// A returning tenant gets fresh series, starting from zero.
	tc2 := dialPipe(t, s)
	defer tc2.c.Close()
	tc2.hello("evictme")
	if !strings.Contains(scrape(), `tea_serve_tenant_sessions_total{tenant="evictme"} 0`) {
		t.Fatalf("returning tenant did not get a fresh series:\n%s", scrape())
	}
}

// TestDisableSessionEventsSilencesStream: the obs-off serve configuration
// keeps the event ring empty while sessions still work and the flight
// recorder still trips.
func TestDisableSessionEventsSilencesStream(t *testing.T) {
	f := testFixture(t)
	s := newTestServer(t, func(c *Config) {
		c.DisableSessionEvents = true
		c.Quota = Quota{MaxSessionEdges: 10}
	})
	tc := dialPipe(t, s)
	defer tc.c.Close()
	tc.hello("acme")
	if _, serr := tc.open("img", ""); serr != nil {
		t.Fatalf("open: %v", serr)
	}
	if _, serr := tc.sendEdges(f.edges[:32]); serr == nil || serr.Code != CodeQuotaSteps {
		t.Fatalf("got %v, want quota-steps", serr)
	}
	if _, ok := s.Obs().Flight.Last(); !ok {
		t.Fatal("flight recorder silenced by DisableSessionEvents")
	}
	events, _ := s.Obs().Tracer.Snapshot()
	// The flight trip appends only its terminal event; nothing else may
	// have reached the ring.
	if len(events) != 1 || events[0].Kind != obs.EvSessionFail {
		t.Fatalf("session events leaked with DisableSessionEvents: %+v", events)
	}
}
