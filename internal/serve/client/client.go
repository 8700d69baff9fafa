// Package client is the wire client for the TEA serving layer
// (internal/serve): it dials a server, opens replay sessions, streams edge
// batches, and survives the failures the chaos suite injects — connection
// loss, truncated frames, backpressure rejections, server restarts —
// through retry with jittered exponential backoff and idempotent session
// resume.
//
// Edge batches travel in windows: the client asks for a windowed
// connection in its Hello, then sends as many Edges frames as fit in
// serve.ReadBufferSize bytes, closed by a Sync, in one Write, and reads one
// EdgesAck per window. The client is single-goroutine: it never writes and
// reads at once.
//
// Idempotency contract: every window is acknowledged with the session's
// cumulative accepted-edge watermark, and a resumed session's OpenAck
// carries the same watermark, so after any interruption the client
// re-sends exactly the un-acknowledged suffix. Each Edges frame carries the
// watermark it starts at, and the server accepts a frame only at its own
// watermark, so a frame lost or reordered inside a window cannot apply
// edges out of order. A replay therefore consumes each edge exactly once
// server-side no matter how many times the connection died in between.
package client

import (
	"bufio"
	"context"
	"errors"
	"math/rand"
	"net"
	"time"

	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/obs"
	"github.com/lsc-tea/tea/internal/serve"
)

// Config tunes one Client.
type Config struct {
	// Tenant is the identity sent in Hello (required).
	Tenant string
	// Dial opens a transport connection (required unless using Dial()).
	Dial func() (net.Conn, error)
	// Retries bounds reconnect/backoff attempts per operation
	// (0 selects DefaultRetries; negative disables retry).
	Retries int
	// BaseBackoff and MaxBackoff shape the exponential backoff curve
	// (0 selects the defaults). The sleep before attempt n is a uniformly
	// jittered value in [d/2, d) with d = min(MaxBackoff, BaseBackoff<<n),
	// floored by any server-provided retry-after hint.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Timeout bounds each frame read/write: a server silent for Timeout
	// fails the operation, at the latest 9/8 of it after going silent
	// (0 selects DefaultTimeout).
	Timeout time.Duration
	// Seed makes the jitter deterministic for tests; 0 derives from time.
	Seed int64
	// Obs, when non-nil, receives client-side trace events (EvClientRetry,
	// stamped with the session's source id and acknowledged watermark), so
	// a spliced client+server event stream shows each retry in causal order
	// with the server's park/resume events for the same source.
	Obs *obs.Obs
}

// Config defaults.
const (
	DefaultRetries     = 6
	DefaultBaseBackoff = 5 * time.Millisecond
	DefaultMaxBackoff  = 500 * time.Millisecond
	DefaultTimeout     = 10 * time.Second
	// DefaultBatch is the edge-batch size Replay uses when none is given.
	DefaultBatch = 8192
)

func (c Config) withDefaults() Config {
	if c.Retries == 0 {
		c.Retries = DefaultRetries
	}
	if c.BaseBackoff == 0 {
		c.BaseBackoff = DefaultBaseBackoff
	}
	if c.MaxBackoff == 0 {
		c.MaxBackoff = DefaultMaxBackoff
	}
	if c.Timeout == 0 {
		c.Timeout = DefaultTimeout
	}
	if c.Seed == 0 {
		c.Seed = time.Now().UnixNano()
	}
	return c
}

// Client is a wire client bound to one tenant identity. It is not safe for
// concurrent use; open one Client per concurrent session.
type Client struct {
	cfg      Config
	rng      *rand.Rand
	conn     net.Conn
	br       *bufio.Reader // buffered frame reads over conn
	rbuf     []byte
	wbuf     []byte       // frame write buffer, reused: header then payload
	rdl, wdl idleDeadline // sparse read and write deadline refresh on conn
}

// idleDeadline refreshes one direction's deadline on a connection at most
// once per timeout/8, to now + timeout + timeout/8, so a silent server is
// given up on between timeout and 9/8 of it after going silent while a
// busy connection pays one SetDeadline per timeout/8.
type idleDeadline struct{ last time.Time }

// due reports whether the deadline needs a refresh at now, and to when.
func (d *idleDeadline) due(now time.Time, timeout time.Duration) (time.Time, bool) {
	if now.Sub(d.last) < timeout/8 {
		return time.Time{}, false
	}
	d.last = now
	return now.Add(timeout + timeout/8), true
}

// New creates a client over cfg.Dial.
func New(cfg Config) (*Client, error) {
	if cfg.Tenant == "" {
		return nil, errors.New("client: empty tenant")
	}
	if cfg.Dial == nil {
		return nil, errors.New("client: nil Dial")
	}
	cfg = cfg.withDefaults()
	return &Client{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Dial creates a client connecting to a TCP address.
func Dial(addr string, cfg Config) (*Client, error) {
	cfg.Dial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	return New(cfg)
}

// Close drops the transport connection (sessions park server-side and stay
// resumable until evicted).
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// ensure dials and performs the Hello handshake if no connection is live.
func (c *Client) ensure() error {
	if c.conn != nil {
		return nil
	}
	conn, err := c.cfg.Dial()
	if err != nil {
		return err
	}
	c.conn = conn
	c.rdl, c.wdl = idleDeadline{}, idleDeadline{}
	if c.br == nil {
		c.br = bufio.NewReaderSize(conn, serve.ReadBufferSize)
	} else {
		c.br.Reset(conn)
	}
	hello := serve.Hello{Version: serve.ProtoVersion, Tenant: c.cfg.Tenant, Windowed: true}
	typ, body, err := c.roundTrip(hello.Append(c.begin()))
	if err != nil {
		c.drop()
		return err
	}
	if typ != serve.FrameHelloAck {
		c.drop()
		return &serve.Error{Code: serve.CodeProto, Msg: "expected HelloAck, got " + typ.String()}
	}
	ack, err := serve.ParseHelloAck(body)
	if err != nil {
		c.drop()
		return err
	}
	if !ack.Windowed {
		c.drop()
		return &serve.Error{Code: serve.CodeProto, Msg: "server did not grant windowed batches"}
	}
	return nil
}

// drop discards the connection so the next attempt redials.
func (c *Client) drop() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// begin empties the write buffer down to a reserved frame header; the
// message appends its payload after it and roundTrip seals the frame.
func (c *Client) begin() []byte {
	return append(c.wbuf[:0], make([]byte, serve.FrameHeaderLen)...)
}

// roundTrip seals a frame built on begin, sends it and reads the response
// frame.
func (c *Client) roundTrip(frame []byte) (serve.FrameType, []byte, error) {
	if err := serve.SealFrame(frame); err != nil {
		return 0, nil, err
	}
	return c.exchange(frame)
}

// exchange sends sealed frames in one Write and reads the response frame,
// both under the configured timeout. A FrameError response is parsed into
// *serve.Error and returned as the error with frame type FrameError.
func (c *Client) exchange(frames []byte) (serve.FrameType, []byte, error) {
	c.wbuf = frames
	if at, ok := c.wdl.due(time.Now(), c.cfg.Timeout); ok {
		_ = c.conn.SetWriteDeadline(at)
	}
	if _, err := c.conn.Write(frames); err != nil {
		return 0, nil, err
	}
	if at, ok := c.rdl.due(time.Now(), c.cfg.Timeout); ok {
		_ = c.conn.SetReadDeadline(at)
	}
	resp, err := serve.ReadFrame(c.br, c.rbuf)
	if err != nil {
		return 0, nil, err
	}
	c.rbuf = resp[:cap(resp)]
	typ, body, err := serve.ParseFrame(resp)
	if err != nil {
		return 0, nil, err
	}
	if typ == serve.FrameError {
		serr, perr := serve.ParseError(body)
		if perr != nil {
			return 0, nil, perr
		}
		return typ, nil, serr
	}
	return typ, body, nil
}

// transient classifies an error as retryable: transport failures (the
// connection may have died mid-frame) and temporary structured errors
// (backpressure, quarantine cooldown, draining replica).
func transient(err error) bool {
	var serr *serve.Error
	if errors.As(err, &serr) {
		return serr.Temporary()
	}
	// Anything non-structured is a transport failure.
	return true
}

// backoff sleeps the jittered exponential delay for attempt n, floored by
// a server retry-after hint, honoring ctx.
func (c *Client) backoff(ctx context.Context, attempt int, err error) error {
	d := c.cfg.BaseBackoff << uint(attempt)
	if d > c.cfg.MaxBackoff || d <= 0 {
		d = c.cfg.MaxBackoff
	}
	d = d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	var serr *serve.Error
	if errors.As(err, &serr) && serr.RetryAfter > d {
		d = serr.RetryAfter
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Replay streams edges through a server-side session against image and
// returns the final statistics and state. batch <= 0 selects DefaultBatch.
// Interruptions retry up to cfg.Retries times with jittered exponential
// backoff, resuming the same session from the server's watermark.
func (c *Client) Replay(ctx context.Context, image string, edges []core.Edge, batch int) (*core.Stats, core.StateID, error) {
	if batch <= 0 {
		batch = DefaultBatch
	}
	if batch > serve.MaxBatchEdges {
		batch = serve.MaxBatchEdges
	}
	var (
		sessionID string
		sent      uint64 // acknowledged watermark
		attempt   int
	)
	// The session's trace-context source id: proposed from the jitter rng
	// (deterministic under Config.Seed, never 0), confirmed or replaced by
	// the server's OpenAck echo.
	src := uint32(c.rng.Int63())>>15 | 1
	for {
		stats, final, err := c.replayOnce(image, edges, batch, &sessionID, &sent, &src)
		if err == nil {
			return stats, final, nil
		}
		c.drop()
		if ctx.Err() != nil {
			return nil, core.NTE, ctx.Err()
		}
		if !transient(err) || attempt >= c.cfg.Retries {
			return nil, core.NTE, err
		}
		if berr := c.backoff(ctx, attempt, err); berr != nil {
			return nil, core.NTE, berr
		}
		attempt++
		if c.cfg.Obs != nil {
			c.cfg.Obs.SessionEvent(obs.EvClientRetry, src, sent, uint64(attempt))
		}
	}
}

// replayOnce drives one connection's worth of the session: (re)open,
// stream the unacknowledged suffix, close for stats.
func (c *Client) replayOnce(image string, edges []core.Edge, batch int, sessionID *string, sent *uint64, src *uint32) (*core.Stats, core.StateID, error) {
	if err := c.ensure(); err != nil {
		return nil, core.NTE, err
	}
	open := serve.Open{Image: image, Resume: *sessionID, Src: *src}
	typ, body, err := c.roundTrip(open.Append(c.begin()))
	if err != nil {
		return nil, core.NTE, err
	}
	if typ != serve.FrameOpenAck {
		return nil, core.NTE, &serve.Error{Code: serve.CodeProto, Msg: "expected OpenAck, got " + typ.String()}
	}
	ack, err := serve.ParseOpenAck(body)
	if err != nil {
		return nil, core.NTE, err
	}
	*sessionID = ack.Session
	*sent = ack.Watermark
	if ack.Src != 0 {
		*src = ack.Src
	}
	if *sent > uint64(len(edges)) {
		return nil, core.NTE, &serve.Error{Code: serve.CodeProto, Msg: "server watermark beyond stream length"}
	}

	for *sent < uint64(len(edges)) {
		if err := c.window(edges, batch, sent); err != nil {
			return nil, core.NTE, err
		}
	}

	closeFrame := append(c.begin(), byte(serve.FrameClose))
	typ, body, err = c.roundTrip(closeFrame)
	if err != nil {
		return nil, core.NTE, err
	}
	if typ != serve.FrameStats {
		return nil, core.NTE, &serve.Error{Code: serve.CodeProto, Msg: "expected Stats, got " + typ.String()}
	}
	msg, err := serve.ParseStats(body)
	if err != nil {
		return nil, core.NTE, err
	}
	stats := msg.Stats
	return &stats, msg.Final, nil
}

// window sends the next window of the stream — Edges frames of batch
// edges from *sent on, as many as fit in serve.ReadBufferSize bytes with
// the closing Sync — in one Write, and advances *sent to the watermark the
// server acknowledges for it.
func (c *Client) window(edges []core.Edge, batch int, sent *uint64) error {
	const syncLen = serve.FrameHeaderLen + 1
	buf := c.wbuf[:0]
	next := *sent
	for next < uint64(len(edges)) {
		end := min(next+uint64(batch), uint64(len(edges)))
		at := len(buf)
		buf = append(buf, make([]byte, serve.FrameHeaderLen)...)
		buf = serve.AppendEdges(buf, edges[next:end], int64(next))
		if at > 0 && len(buf)+syncLen > serve.ReadBufferSize {
			buf = buf[:at] // the frame opens the next window
			break
		}
		if err := serve.SealFrame(buf[at:]); err != nil {
			return err
		}
		next = end
	}
	at := len(buf)
	buf = append(buf, make([]byte, serve.FrameHeaderLen)...)
	buf = append(buf, byte(serve.FrameSync))
	if err := serve.SealFrame(buf[at:]); err != nil {
		return err
	}
	typ, body, err := c.exchange(buf)
	if err != nil {
		return err
	}
	if typ != serve.FrameEdgesAck {
		return &serve.Error{Code: serve.CodeProto, Msg: "expected EdgesAck, got " + typ.String()}
	}
	ack, err := serve.ParseEdgesAck(body)
	if err != nil {
		return err
	}
	switch {
	case ack.Watermark < *sent || ack.Watermark > next:
		return &serve.Error{Code: serve.CodeProto, Msg: "server watermark outside the window"}
	case ack.Watermark < next:
		// Some of the window's frames never reached the server in order:
		// the link lost or reordered them. A reordered frame may still be
		// in flight, so continuing on this connection could replay it;
		// a fresh connection resumes from the server's watermark.
		return &serve.Error{Code: serve.CodeCorrupt, Msg: "window acknowledged short: frames lost in flight"}
	}
	*sent = next
	return nil
}

// Publish uploads a serialized TEA (core.Encode bytes) as image's next
// generation, retrying transient failures. Publishing is idempotent in
// content but not in generation number: a retry after a lost ack may admit
// the same image twice, which is harmless (generations are equivalent).
func (c *Client) Publish(ctx context.Context, image string, data []byte) (uint64, error) {
	attempt := 0
	for {
		gen, err := c.publishOnce(image, data)
		if err == nil {
			return gen, nil
		}
		c.drop()
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
		if !transient(err) || attempt >= c.cfg.Retries {
			return 0, err
		}
		if berr := c.backoff(ctx, attempt, err); berr != nil {
			return 0, berr
		}
		attempt++
	}
}

func (c *Client) publishOnce(image string, data []byte) (uint64, error) {
	if err := c.ensure(); err != nil {
		return 0, err
	}
	pub := serve.Publish{Image: image, Data: data}
	typ, body, err := c.roundTrip(pub.Append(c.begin()))
	if err != nil {
		return 0, err
	}
	if typ != serve.FramePublishAck {
		return 0, &serve.Error{Code: serve.CodeProto, Msg: "expected PublishAck, got " + typ.String()}
	}
	ack, err := serve.ParsePublishAck(body)
	if err != nil {
		return 0, err
	}
	return ack.Gen, nil
}
