package serve

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/obs"
)

// Config tunes one Server.
type Config struct {
	// Lookup selects the replay transition-function configuration sessions
	// run with (Local settings; the compiled path always uses the flat
	// entry table).
	Lookup core.LookupConfig
	// Quota bounds per-tenant and per-session consumption.
	Quota Quota
	// BreakerThreshold consecutive failed sessions quarantine an image
	// (0 selects DefaultBreakerThreshold; negative disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is the quarantine window before a verify-gated
	// readmission attempt (0 selects DefaultBreakerCooldown).
	BreakerCooldown time.Duration
	// IdleTimeout bounds every single read and write on a connection, so a
	// stalled or half-dead peer can never wedge a handler goroutine: a peer
	// silent for IdleTimeout loses its connection, at the latest 9/8 of it
	// after going silent (0 selects DefaultIdleTimeout).
	IdleTimeout time.Duration
	// DisableSessionEvents turns off the per-session trace events
	// (open/resume/close/fail/quota/backpressure) stamped into the event
	// ring. The flight recorder still trips; only the steady-state event
	// stream is silenced, which is the events=off row of
	// BenchmarkServeSession.
	DisableSessionEvents bool
	// Obs receives the server's metrics and health; nil creates a private
	// context (reachable via Server.Obs for scraping).
	Obs *obs.Obs
}

// Config defaults.
const (
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = time.Second
	DefaultIdleTimeout      = 30 * time.Second
)

// publishSlots bounds concurrent publish admissions server-wide; beyond it
// publishes are rejected with CodeBackpressure.
const publishSlots = 2

func (c Config) withDefaults() Config {
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = DefaultBreakerThreshold
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = DefaultBreakerCooldown
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = DefaultIdleTimeout
	}
	c.Quota = c.Quota.withDefaults()
	return c
}

// serveMetrics is the server's pre-resolved global metric set, plus the
// labeled families for the per-tenant and per-image dimensions.
type serveMetrics struct {
	opened, resumed, completed, failed *obs.Counter
	panics, rejBackpressure, rejQuota  *obs.Counter
	breakerTrips, publishes, pubRej    *obs.Counter
	edges, bytesIn, bytesOut           *obs.Counter
	active, parked                     *obs.Gauge

	tenantSessions, tenantEdges, tenantRejects *obs.CounterVec
	imageGen                                   *obs.GaugeVec
	imageTrips                                 *obs.CounterVec
}

// tenantMetrics is one tenant's pre-resolved series, bound out of the
// labeled families on first Hello so the per-frame paths never re-hash the
// tenant name. The series are released when the tenant is evicted (no
// connections, no attached or parked sessions), which is what keeps the
// label sets bounded over a long-lived server.
type tenantMetrics struct {
	sessions, edges, rejects *obs.Counter
}

// Server hosts a fleet of compiled automata and serves concurrent
// replay/publish sessions over the wire protocol. One poisoned session
// never takes the process down: every connection handler converts panics
// into CodeInternal error frames, every read and write carries a deadline,
// and all per-session state is isolated behind per-tenant quotas.
type Server struct {
	cfg    Config
	store  *Store
	obs    *obs.Obs
	health *obs.Health
	m      serveMetrics

	pubSem chan struct{}

	mu       sync.Mutex
	tenants  map[string]*tenant
	sessions map[string]*session
	conns    map[net.Conn]struct{}

	nextID    atomic.Uint64
	closed    atomic.Bool
	listeners []net.Listener
	wg        sync.WaitGroup
}

// NewServer creates a server with no hosted images; Host images before
// (or while) serving. The server reports ready once it hosts at least one
// image and is not draining.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	o := cfg.Obs
	if o == nil {
		o = obs.New()
	}
	s := &Server{
		cfg:      cfg,
		store:    NewStore(cfg.Lookup, cfg.BreakerThreshold, cfg.BreakerCooldown),
		obs:      o,
		health:   obs.NewHealth(),
		pubSem:   make(chan struct{}, publishSlots),
		tenants:  make(map[string]*tenant),
		sessions: make(map[string]*session),
		conns:    make(map[net.Conn]struct{}),
	}
	c := func(name, help string) *obs.Counter { return o.Reg.Counter(name, help) }
	s.m = serveMetrics{
		opened:          c("tea_serve_sessions_opened_total", "sessions opened"),
		resumed:         c("tea_serve_sessions_resumed_total", "sessions resumed from a park"),
		completed:       c("tea_serve_sessions_completed_total", "sessions closed with final stats"),
		failed:          c("tea_serve_sessions_failed_total", "sessions terminated by a structured error"),
		panics:          c("tea_serve_panics_recovered_total", "panics converted to CodeInternal errors"),
		rejBackpressure: c("tea_serve_rejects_backpressure_total", "opens rejected at the concurrency bound"),
		rejQuota:        c("tea_serve_rejects_quota_total", "sessions terminated by step/byte quotas"),
		breakerTrips:    c("tea_serve_breaker_trips_total", "image circuit-breaker quarantines"),
		publishes:       c("tea_serve_publishes_total", "image generations admitted"),
		pubRej:          c("tea_serve_publish_rejects_total", "publishes refused admission"),
		edges:           c("tea_serve_edges_total", "stream edges replayed across all sessions"),
		bytesIn:         c("tea_serve_bytes_in_total", "wire payload bytes received"),
		bytesOut:        c("tea_serve_bytes_out_total", "wire payload bytes sent"),
		active:          o.Reg.Gauge("tea_serve_sessions_active", "sessions currently attached"),
		parked:          o.Reg.Gauge("tea_serve_sessions_parked", "sessions parked for resume"),
		tenantSessions: o.Reg.CounterVec("tea_serve_tenant_sessions_total",
			"sessions opened per tenant", "tenant"),
		tenantEdges: o.Reg.CounterVec("tea_serve_tenant_edges_total",
			"stream edges replayed per tenant", "tenant"),
		tenantRejects: o.Reg.CounterVec("tea_serve_tenant_rejects_total",
			"admission and quota rejections per tenant", "tenant"),
		imageGen: o.Reg.GaugeVec("tea_serve_image_gen",
			"last generation served per hosted image", "image"),
		imageTrips: o.Reg.CounterVec("tea_serve_image_breaker_trips_total",
			"circuit-breaker quarantines per hosted image", "image"),
	}
	return s
}

// event stamps one session-scoped trace event into the event ring: the
// session's source id plus its accepted-edge watermark as the logical
// clock, so a spliced multi-session stream stays causally ordered per
// source. Disabled (one branch) when Config.DisableSessionEvents is set.
//
//tea:hotpath
func (s *Server) event(kind obs.EventKind, src uint32, edge, aux uint64) {
	if s.cfg.DisableSessionEvents {
		return
	}
	s.obs.SessionEvent(kind, src, edge, aux)
}

// Host admits an automaton (static verification included) under name.
func (s *Server) Host(name string, p *isa.Program, a *core.Automaton) error {
	if err := s.store.Add(name, p, a); err != nil {
		return err
	}
	s.health.SetReady(!s.closed.Load())
	return nil
}

// Store exposes the image store (introspection and tests).
func (s *Server) Store() *Store { return s.store }

// Obs exposes the server's observability context.
func (s *Server) Obs() *obs.Obs { return s.obs }

// Health exposes the liveness/readiness state.
func (s *Server) Health() *obs.Health { return s.health }

// PanicsRecovered reports how many connection-handler panics the server
// has converted into structured errors — the chaos suite asserts zero.
func (s *Server) PanicsRecovered() uint64 { return s.m.panics.Value() }

// Handler serves the admin surface: the obs endpoints (/metrics,
// /metrics.json, /debug/events, /debug/pprof/*) plus /healthz and /readyz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", obs.Handler(s.obs))
	mux.Handle("/healthz", obs.HealthHandler(s.health))
	mux.Handle("/readyz", obs.HealthHandler(s.health))
	return mux
}

// Serve accepts connections until the listener fails or Shutdown runs.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	s.listeners = append(s.listeners, l)
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.ServeConn(conn)
		}()
	}
}

// Shutdown drains the server: new sessions are rejected with CodeShutdown,
// listeners close, and handlers get until ctx's deadline to finish before
// their connections are force-closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closed.Store(true)
	s.health.SetReady(false)
	s.mu.Lock()
	for _, l := range s.listeners {
		l.Close()
	}
	s.listeners = nil
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	s.health.SetLive(false)
	return err
}

// tenantLocked returns (creating if needed) the tenant record, binding its
// metric series out of the labeled families. mu held.
func (s *Server) tenantLocked(name string) *tenant {
	t, ok := s.tenants[name]
	if !ok {
		t = &tenant{name: name, m: tenantMetrics{
			sessions: s.m.tenantSessions.With(name),
			edges:    s.m.tenantEdges.With(name),
			rejects:  s.m.tenantRejects.With(name),
		}}
		s.tenants[name] = t
	}
	return t
}

// releaseTenant drops one connection's reference on t, evicting the tenant
// record — and releasing its metric series — once nothing keeps it alive:
// no connections, no attached sessions, and no parked session still worth
// resuming (a live, unexpired one pins the tenant; done or expired parks
// only existed for idempotent stats re-fetch, and that grace ends with the
// tenant's last connection — a later resume gets CodeUnknownSession). This
// is the bound on per-tenant label cardinality: a tenant that came and went
// costs nothing forever after.
func (s *Server) releaseTenant(t *tenant) {
	if t == nil {
		return
	}
	s.mu.Lock()
	t.conns--
	evict := t.conns <= 0 && t.attached == 0
	if evict {
		now := time.Now()
		for _, p := range t.parked {
			if !p.done && !p.expired(now) {
				evict = false
				break
			}
		}
	}
	if evict {
		for _, p := range t.parked {
			delete(s.sessions, p.id)
		}
		t.parked = nil
		delete(s.tenants, t.name)
	}
	s.mu.Unlock()
	if evict {
		s.m.tenantSessions.Release(t.name)
		s.m.tenantEdges.Release(t.name)
		s.m.tenantRejects.Release(t.name)
	}
}

// connHandler is the per-connection state machine.
type connHandler struct {
	s      *Server
	conn   net.Conn
	tenant *tenant
	sess   *session // currently attached session, nil between sessions

	br      *bufio.Reader // buffered frame reads: one transport read per frame
	rbuf    []byte        // frame read buffer, reused
	wbuf    []byte        // frame write buffer, reused: header then payload
	edgeBuf []core.Edge   // parsed-edge scratch, reused

	rdl, wdl idleDeadline // sparse read and write deadline refresh

	// windowed is set by the handshake when the client asked for windowed
	// batches: Edges frames go unacknowledged and each Sync gets one
	// cumulative EdgesAck.
	windowed bool
	// held is a session-ending error raised in mid-window. It is sent at
	// the window's Sync, and the window's remaining Edges frames are
	// discarded until then: the client may still be writing them.
	held *Error
}

// idleDeadline refreshes one direction's deadline on a connection at most
// once per idle/8, to now + idle + idle/8. A peer silent since time t is
// then cut off between t + idle and t + 9·idle/8 — never sooner than with
// a deadline reset on every frame — while a busy connection pays one
// SetDeadline per idle/8 instead of one per frame.
type idleDeadline struct{ last time.Time }

// due reports whether the deadline needs a refresh at now, and to when.
func (d *idleDeadline) due(now time.Time, idle time.Duration) (time.Time, bool) {
	if now.Sub(d.last) < idle/8 {
		return time.Time{}, false
	}
	d.last = now
	return now.Add(idle + idle/8), true
}

// ReadBufferSize sizes the per-connection read buffer on both ends of the
// wire: large enough that a typical Edges batch and its header arrive in
// one transport read, small enough that a connection costs a few tens of
// KiB. It also bounds a client's window of Edges frames and its Sync, so a
// window arrives in one read too. Larger frames bypass the buffer and read
// straight into the frame buffer.
const ReadBufferSize = 32 << 10

// ServeConn drives one connection to completion. It is safe to call
// directly with one end of a net.Pipe (the chaos tests do); Serve calls it
// per accepted connection. Panics anywhere below are converted into a
// best-effort CodeInternal error frame and a failed session — the
// process-scope blast radius of any single connection is zero.
func (s *Server) ServeConn(conn net.Conn) {
	s.mu.Lock()
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	h := &connHandler{s: s, conn: conn, br: bufio.NewReaderSize(conn, ReadBufferSize)}
	defer func() {
		if r := recover(); r != nil {
			s.m.panics.Add(1)
			serr := errf(CodeInternal, "recovered panic: %v", r)
			var src uint32
			var edge uint64
			if h.sess != nil {
				src, edge = h.sess.src, h.sess.edges
			}
			s.event(obs.EvPanicRecovered, src, edge, 0)
			if h.sess != nil {
				h.finishSessionReason(serr, "panic")
			} else {
				s.obs.Flight.Trip("panic", src, serr.Error(),
					obs.Event{Edge: edge, Src: src, State: -1, Kind: obs.EvPanicRecovered})
			}
			_ = h.sendError(serr)
		}
		h.detach()
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.releaseTenant(h.tenant)
	}()
	if !h.handshake() {
		return
	}
	for h.serveFrame() {
	}
}

// readFrame reads one frame under the idle deadline.
func (h *connHandler) readFrame() ([]byte, error) {
	if at, ok := h.rdl.due(time.Now(), h.s.cfg.IdleTimeout); ok {
		_ = h.conn.SetReadDeadline(at)
	}
	payload, err := ReadFrame(h.br, h.rbuf)
	if err != nil {
		return nil, err
	}
	h.rbuf = payload[:cap(payload)]
	h.s.m.bytesIn.Add(uint64(len(payload)))
	return payload, nil
}

// begin empties the write buffer down to a reserved frame header; the
// message appends its payload after it and write seals the frame.
func (h *connHandler) begin() []byte {
	return append(h.wbuf[:0], make([]byte, FrameHeaderLen)...)
}

// write seals a frame built on begin and sends it in one Write under the
// idle deadline — a peer that stops reading cannot wedge the handler, it
// gets its connection closed.
func (h *connHandler) write(frame []byte) error {
	h.wbuf = frame
	if err := SealFrame(frame); err != nil {
		return err
	}
	if at, ok := h.wdl.due(time.Now(), h.s.cfg.IdleTimeout); ok {
		_ = h.conn.SetWriteDeadline(at)
	}
	h.s.m.bytesOut.Add(uint64(len(frame) - FrameHeaderLen))
	_, err := h.conn.Write(frame)
	return err
}

// sendError writes a structured error frame (best effort).
func (h *connHandler) sendError(serr *Error) error {
	return h.write(AppendError(h.begin(), serr))
}

// handshake performs Hello/HelloAck and resolves the tenant.
func (h *connHandler) handshake() bool {
	payload, err := h.readFrame()
	if err != nil {
		return false
	}
	typ, body, perr := ParseFrame(payload)
	if perr != nil || typ != FrameHello {
		_ = h.sendError(errf(CodeProto, "expected Hello"))
		return false
	}
	hello, herr := ParseHello(body)
	if herr != nil {
		_ = h.sendError(asError(herr))
		return false
	}
	if hello.Version != ProtoVersion {
		_ = h.sendError(errf(CodeProto, "protocol version %d unsupported", hello.Version))
		return false
	}
	h.s.mu.Lock()
	h.tenant = h.s.tenantLocked(hello.Tenant)
	h.tenant.conns++
	h.s.mu.Unlock()
	h.windowed = hello.Windowed
	ack := HelloAck{Version: ProtoVersion, Windowed: h.windowed}
	return h.write(ack.Append(h.begin())) == nil
}

// serveFrame reads and dispatches one frame; false ends the connection.
func (h *connHandler) serveFrame() bool {
	payload, err := h.readFrame()
	if err != nil {
		if serr, ok := err.(*Error); ok {
			_ = h.sendError(serr)
		}
		return false
	}
	typ, body, perr := ParseFrame(payload)
	if perr != nil {
		_ = h.sendError(asError(perr))
		return false
	}
	if h.held != nil && typ != FrameSync {
		if typ == FrameEdges {
			return true // the rest of a window whose session already ended
		}
		_ = h.sendError(errf(CodeProto, "%s inside a failed window", typ))
		return false
	}
	switch typ {
	case FrameSync:
		if h.windowed {
			return h.handleSync(body)
		}
	case FrameOpen:
		return h.handleOpen(body)
	case FrameEdges:
		return h.handleEdges(body)
	case FrameClose:
		return h.handleClose()
	case FramePublish:
		return h.handlePublish(body)
	}
	_ = h.sendError(errf(CodeProto, "unexpected frame %s", typ))
	return false
}

// handleOpen admits a new session or resumes a parked one.
func (h *connHandler) handleOpen(body []byte) bool {
	m, err := ParseOpen(body)
	if err != nil {
		_ = h.sendError(asError(err))
		return false
	}
	if h.sess != nil {
		_ = h.sendError(errf(CodeProto, "session already open on connection"))
		return false
	}
	if h.s.closed.Load() {
		h.tenant.m.rejects.Add(1)
		_ = h.sendError(errRetry(CodeShutdown, h.s.cfg.Quota.RetryAfter, "server draining"))
		return true
	}
	if m.Resume != "" {
		return h.resume(m.Resume)
	}

	q := h.s.cfg.Quota
	s := h.s
	s.mu.Lock()
	if h.tenant.attached >= q.MaxConcurrent {
		attached := uint64(h.tenant.attached)
		s.mu.Unlock()
		s.m.rejBackpressure.Add(1)
		h.tenant.m.rejects.Add(1)
		s.event(obs.EvBackpressure, m.Src, 0, attached)
		_ = h.sendError(errRetry(CodeBackpressure, q.RetryAfter,
			"tenant %s at %d concurrent sessions", h.tenant.name, q.MaxConcurrent))
		return true
	}
	s.mu.Unlock()

	// Breaker-gated image admission happens outside mu: readmission may run
	// a full static verification.
	img, serr := s.store.Get(m.Image)
	if serr != nil {
		h.tenant.m.rejects.Add(1)
		_ = h.sendError(serr)
		return true
	}

	id := s.nextID.Add(1)
	src := m.Src
	if src == 0 {
		// No client trace context: assign a server-side source id so the
		// session's events are still attributable after splicing.
		src = uint32(id)
	}
	sess := &session{
		id:       fmt.Sprintf("s%08x", id),
		tenant:   h.tenant.name,
		img:      img,
		src:      src,
		rep:      core.NewCompiledReplayer(img.Compiled),
		deadline: time.Now().Add(q.SessionTimeout),
		attached: true,
	}
	s.mu.Lock()
	// Re-check under the lock: the slot may have been taken while verifying.
	if h.tenant.attached >= q.MaxConcurrent {
		attached := uint64(h.tenant.attached)
		s.mu.Unlock()
		s.m.rejBackpressure.Add(1)
		h.tenant.m.rejects.Add(1)
		s.event(obs.EvBackpressure, m.Src, 0, attached)
		_ = h.sendError(errRetry(CodeBackpressure, q.RetryAfter,
			"tenant %s at %d concurrent sessions", h.tenant.name, q.MaxConcurrent))
		return true
	}
	h.tenant.attached++
	s.sessions[sess.id] = sess
	s.mu.Unlock()
	h.sess = sess
	s.m.opened.Add(1)
	s.m.active.Set(s.activeCount())
	h.tenant.m.sessions.Add(1)
	s.m.imageGen.With(img.Name).Set(img.Gen)
	s.event(obs.EvSessionOpen, src, 0, img.Gen)

	ack := OpenAck{Session: sess.id, Gen: img.Gen, Src: src}
	return h.write(ack.Append(h.begin())) == nil
}

// resume re-attaches a parked session. The token must name a session of
// the same tenant: a token leaked across tenants resolves to
// CodeUnknownSession, indistinguishable from an expired one, so session
// state can never cross a tenant boundary.
func (h *connHandler) resume(token string) bool {
	q := h.s.cfg.Quota
	s := h.s
	s.mu.Lock()
	sess, ok := s.sessions[token]
	if !ok || sess.tenant != h.tenant.name {
		s.mu.Unlock()
		h.tenant.m.rejects.Add(1)
		_ = h.sendError(errf(CodeUnknownSession, "no resumable session %q", token))
		return true
	}
	if sess.attached {
		s.mu.Unlock()
		_ = h.sendError(errRetry(CodeBackpressure, q.RetryAfter, "session %s still attached", token))
		return true
	}
	if !sess.done && h.tenant.attached >= q.MaxConcurrent {
		s.mu.Unlock()
		s.m.rejBackpressure.Add(1)
		h.tenant.m.rejects.Add(1)
		_ = h.sendError(errRetry(CodeBackpressure, q.RetryAfter,
			"tenant %s at %d concurrent sessions", h.tenant.name, q.MaxConcurrent))
		return true
	}
	sess.attached = true
	if !sess.done {
		h.tenant.attached++
	}
	h.tenant.unpark(sess)
	s.mu.Unlock()
	h.sess = sess
	s.m.resumed.Add(1)
	s.m.active.Set(s.activeCount())
	s.m.parked.Set(s.parkedCount())
	s.event(obs.EvSessionResume, sess.src, sess.edges, sess.edges)

	ack := OpenAck{Session: sess.id, Gen: sess.img.Gen, Watermark: sess.edges, Src: sess.src}
	return h.write(ack.Append(h.begin())) == nil
}

// handleEdges replays one batch on the attached session. On a windowed
// connection the batch goes unacknowledged; the window's Sync acks it.
func (h *connHandler) handleEdges(body []byte) bool {
	sess := h.sess
	if sess == nil {
		_ = h.sendError(errf(CodeProto, "Edges without an open session"))
		return false
	}
	if sess.done {
		_ = h.sendError(errf(CodeProto, "Edges on a closed session"))
		return false
	}
	if sess.expired(time.Now()) {
		h.failSession(errf(CodeDeadline, "session %s exceeded its deadline", sess.id))
		return true
	}
	edges, clock, err := ParseEdges(body, h.edgeBuf)
	if err != nil {
		_ = h.sendError(asError(err))
		return false
	}
	h.edgeBuf = edges[:cap(edges)]
	// Trace-context clock check: the clock orders the stream. A batch
	// claiming a watermark ahead of the session's is a gap — an earlier
	// frame of the window was lost or reordered in flight — so the
	// connection closes and the session parks: the client resumes from the
	// accepted watermark. A batch behind it is a replay, a sender whose
	// stream cursor desynced from the server's; it would apply edges twice,
	// so the session fails. Frames without a clock skip the check — old
	// clients stay valid.
	if clock != NoClock && uint64(clock) != sess.edges {
		if uint64(clock) > sess.edges {
			return false
		}
		h.failSession(errf(CodeProto,
			"stream clock skew: batch claims watermark %d, session %s at %d", clock, sess.id, sess.edges))
		return true
	}
	if serr := sess.chargeBytes(uint64(len(body)), h.s.cfg.Quota); serr != nil {
		h.s.m.rejQuota.Add(1)
		h.s.event(obs.EvQuotaReject, sess.src, sess.edges, uint64(serr.Code))
		h.failSession(serr)
		return true
	}
	if serr := sess.chargeEdges(uint64(len(edges)), h.s.cfg.Quota); serr != nil {
		h.s.m.rejQuota.Add(1)
		h.s.event(obs.EvQuotaReject, sess.src, sess.edges, uint64(serr.Code))
		h.failSession(serr)
		return true
	}

	// The replay itself: one bounded batch on the pinned immutable image.
	// MaxBatchEdges bounds the work between deadline checks, so a session
	// cannot smuggle an unbounded loop into the handler.
	sess.rep.AdvanceBatch(edges)
	sess.edges += uint64(len(edges))
	h.s.m.edges.Add(uint64(len(edges)))
	h.tenant.m.edges.Add(uint64(len(edges)))

	if h.windowed {
		return true
	}
	ack := EdgesAck{Watermark: sess.edges}
	return h.write(ack.Append(h.begin())) == nil
}

// handleSync closes a window on a windowed connection: it sends the error
// held from a session that ended in mid-window, or else one EdgesAck with
// the attached session's cumulative watermark.
func (h *connHandler) handleSync(body []byte) bool {
	if err := parseSync(body); err != nil {
		_ = h.sendError(asError(err))
		return false
	}
	if serr := h.held; serr != nil {
		h.held = nil
		return h.sendError(serr) == nil
	}
	if h.sess == nil {
		_ = h.sendError(errf(CodeProto, "Sync without an open session"))
		return false
	}
	ack := EdgesAck{Watermark: h.sess.edges}
	return h.write(ack.Append(h.begin())) == nil
}

// handleClose finalizes the attached session and returns its stats. A
// resumed-after-done session gets the same frozen stats again — Close is
// idempotent, which is what makes client retry safe.
func (h *connHandler) handleClose() bool {
	sess := h.sess
	if sess == nil {
		_ = h.sendError(errf(CodeProto, "Close without an open session"))
		return false
	}
	if !sess.done {
		h.finishSession(nil)
	} else if sess.err != nil {
		// Resumed into a failed session: replay the terminal error.
		serr := sess.err
		h.sess = nil
		h.parkSession(sess)
		_ = h.sendError(serr)
		return true
	}
	frame := sess.final.Append(h.begin())
	h.sess = nil
	h.parkSession(sess)
	return h.write(frame) == nil
}

// handlePublish admits a new image generation under bounded concurrency.
func (h *connHandler) handlePublish(body []byte) bool {
	m, err := ParsePublish(body)
	if err != nil {
		_ = h.sendError(asError(err))
		return false
	}
	select {
	case h.s.pubSem <- struct{}{}:
	default:
		h.s.m.rejBackpressure.Add(1)
		_ = h.sendError(errRetry(CodeBackpressure, h.s.cfg.Quota.RetryAfter, "publish admission busy"))
		return true
	}
	gen, serr := h.s.store.Publish(m.Image, m.Data)
	<-h.s.pubSem
	if serr != nil {
		h.s.m.pubRej.Add(1)
		_ = h.sendError(serr)
		return true
	}
	h.s.m.publishes.Add(1)
	ack := PublishAck{Gen: gen}
	return h.write(ack.Append(h.begin())) == nil
}

// asError coerces any error into the structured taxonomy (parse helpers
// always return *Error; this keeps a future non-conforming error from
// panicking a handler).
func asError(err error) *Error {
	if e, ok := err.(*Error); ok {
		return e
	}
	return errf(CodeProto, "%v", err)
}

// failSession terminates the attached session with a structured error
// frame; the connection survives (the tenant may open another session).
// On a windowed connection the frame is held until the window's Sync.
func (h *connHandler) failSession(serr *Error) {
	sess := h.sess
	h.finishSession(serr)
	h.sess = nil
	h.parkSession(sess)
	if h.windowed {
		h.held = serr
		return
	}
	_ = h.sendError(serr)
}

// finishSession settles the attached session (if any, and not already
// done), releases its concurrency slot, and feeds the image breaker.
func (h *connHandler) finishSession(serr *Error) {
	h.finishSessionReason(serr, "session-fail")
}

// finishSessionReason is finishSession with an explicit flight-recorder
// trigger class (the panic path labels its artifact "panic" instead of
// "session-fail"). Every terminating path lands in the event ring and —
// when something actually went wrong — in a flight artifact whose event
// log ends with the terminal event:
//
//   - structured error  → EvSessionFail (Aux = code) + artifact
//   - desync threshold  → EvSessionFail (Aux = 0)    + artifact "desync-threshold"
//   - clean completion  → EvSessionClose, no artifact
//   - breaker trip      → additionally EvBreakerTrip + artifact "breaker-open"
func (h *connHandler) finishSessionReason(serr *Error, reason string) {
	sess := h.sess
	if sess == nil || sess.done {
		return
	}
	s := h.s
	s.mu.Lock()
	sess.finish(serr, s.cfg.Quota)
	h.tenant.attached--
	s.mu.Unlock()
	if serr == nil {
		s.m.completed.Add(1)
		if sess.failed {
			// Completed for the tenant, but desync-dominated: evidence
			// against the image, and a post-mortem worth keeping.
			s.obs.Flight.Trip("desync-threshold", sess.src, "",
				obs.Event{Edge: sess.edges, Src: sess.src, State: -1, Kind: obs.EvSessionFail})
		} else {
			s.event(obs.EvSessionClose, sess.src, sess.edges, sess.edges)
		}
	} else {
		s.m.failed.Add(1)
		s.obs.Flight.Trip(reason, sess.src, serr.Error(),
			obs.Event{Edge: sess.edges, Aux: uint64(serr.Code), Src: sess.src, State: -1, Kind: obs.EvSessionFail})
	}
	s.m.active.Set(s.activeCount())
	if s.store.Result(sess.img.Name, sess.failed) {
		s.m.breakerTrips.Add(1)
		s.m.imageTrips.With(sess.img.Name).Add(1)
		s.obs.Flight.Trip("breaker-open", sess.src, "",
			obs.Event{Edge: sess.edges, Aux: sess.img.Gen, Src: sess.src, State: -1, Kind: obs.EvBreakerTrip})
	}
}

// parkSession detaches sess and parks it for resume (or, when done, for
// idempotent stats re-fetch), bounding the parked pool oldest-first.
func (h *connHandler) parkSession(sess *session) {
	if sess == nil {
		return
	}
	s := h.s
	s.mu.Lock()
	sess.attached = false
	h.tenant.parked = append(h.tenant.parked, sess)
	for len(h.tenant.parked) > s.cfg.Quota.MaxParked {
		old := h.tenant.parked[0]
		h.tenant.parked = h.tenant.parked[1:]
		delete(s.sessions, old.id)
	}
	s.mu.Unlock()
	s.m.active.Set(s.activeCount())
	s.m.parked.Set(s.parkedCount())
}

// detach parks the attached session on connection teardown so the tenant
// can resume it, releasing its concurrency slot if it was still live.
func (h *connHandler) detach() {
	sess := h.sess
	h.sess = nil
	if sess == nil {
		return
	}
	s := h.s
	s.mu.Lock()
	if !sess.done {
		h.tenant.attached--
	}
	s.mu.Unlock()
	h.parkSession(sess)
}

// activeCount totals attached sessions across tenants.
func (s *Server) activeCount() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	for _, t := range s.tenants {
		n += uint64(t.attached)
	}
	return n
}

// parkedCount totals parked sessions across tenants.
func (s *Server) parkedCount() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	for _, t := range s.tenants {
		n += uint64(len(t.parked))
	}
	return n
}
