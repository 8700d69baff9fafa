package serve

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"time"

	"github.com/lsc-tea/tea/internal/core"
)

// Wire protocol: length-prefixed, checksummed binary frames.
//
//	frame   := length(uint32 big-endian) crc(uint32 big-endian) payload
//	payload := type(1 byte) body
//	length  := 4 + len(payload)   // counts the crc, so frame boundaries
//	                              // derive from the length prefix alone
//	crc     := IEEE CRC-32 of payload
//
// The checksum is what turns in-flight corruption from a silent
// wrong-answer into a structured CodeCorrupt error: without it, a bit flip
// inside an Edges body could decode as a different — but wire-valid —
// batch and replay the wrong stream. The chaos suite's WireCorrupt class
// asserts exactly this detection.
//
// The body encodings reuse the internal/obs event-log idiom: uvarints for
// counts and magnitudes, zigzag varints for deltas (edge labels are
// near-monotonic addresses, so label deltas are small). Edges bodies, the
// hot path, pack each edge into a fixed three-byte record instead (see
// edgesPacked). Every parse validates declared counts against the bytes
// actually present, so a hostile or fault-injected frame yields a
// structured *Error (CodeProto), never an allocation bomb, a panic, or an
// unbounded loop.
//
// Conversation: the client sends Hello once, then any sequence of
// Open → (Edges → EdgesAck)* → Close → Stats, or Publish → PublishAck.
// Any server-detected failure crosses as an Error frame; protocol
// violations additionally close the connection (parked sessions survive
// and can be resumed on a new connection).
//
// Windowed connections: a Hello with Windowed set, granted by the
// HelloAck, replaces the per-frame EdgesAck with one per window. The
// client sends a window of Edges frames closed by a Sync, in one Write,
// and the server answers only the Sync: (Edges* → Sync → EdgesAck)*. The
// server never writes while the client may still be writing its window,
// so a synchronous transport such as net.Pipe cannot deadlock, and a
// session-ending error in mid-window is held back and sent at the Sync.
// The Edges clocks order the stream: a clock ahead of the session's
// watermark is a gap (a frame was lost or reordered in flight) and closes
// the connection, so the client resumes from the watermark; a clock
// behind it is a replay and fails the session with CodeProto.

// ProtoVersion is the wire protocol version carried in Hello.
const ProtoVersion = 1

// MaxFrame bounds one frame's payload; a larger declared length is a
// protocol violation (a corrupt or hostile length prefix must not make the
// server allocate unboundedly).
const MaxFrame = 1 << 20

// MaxBatchEdges bounds the edges in one Edges frame.
const MaxBatchEdges = 1 << 16

// maxString bounds tenant/image/session identifier lengths on the wire.
const maxString = 256

// FrameType identifies one frame's payload. The numeric values are part of
// the wire format; append new types at the end.
type FrameType byte

const (
	// FrameHello opens a connection: protocol version + tenant identity.
	FrameHello FrameType = 1 + iota
	// FrameHelloAck acknowledges Hello with the server's version.
	FrameHelloAck
	// FrameOpen opens (or resumes) a replay session against a named image.
	FrameOpen
	// FrameOpenAck returns the session ID, image generation and the
	// accepted-edge watermark (nonzero when resuming).
	FrameOpenAck
	// FrameEdges streams a batch of dynamic block-stream edges.
	FrameEdges
	// FrameEdgesAck acknowledges a batch — on a windowed connection, a
	// window — with the cumulative watermark.
	FrameEdgesAck
	// FrameClose ends the session and requests final statistics.
	FrameClose
	// FrameStats carries the final replay statistics and final state.
	FrameStats
	// FrameError carries a structured *Error.
	FrameError
	// FramePublish uploads a serialized TEA image for a hosted program.
	FramePublish
	// FramePublishAck acknowledges a publish with the new generation.
	FramePublishAck
	// FrameSync closes a window of Edges frames on a windowed connection;
	// the server answers it with one cumulative EdgesAck. The body is
	// empty.
	FrameSync
)

// String returns the stable name of the frame type.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "Hello"
	case FrameHelloAck:
		return "HelloAck"
	case FrameOpen:
		return "Open"
	case FrameOpenAck:
		return "OpenAck"
	case FrameEdges:
		return "Edges"
	case FrameEdgesAck:
		return "EdgesAck"
	case FrameClose:
		return "Close"
	case FrameStats:
		return "Stats"
	case FrameError:
		return "Error"
	case FramePublish:
		return "Publish"
	case FramePublishAck:
		return "PublishAck"
	case FrameSync:
		return "Sync"
	}
	return "FrameType(?)"
}

// FrameHeaderLen is the size of the length and checksum prefix that
// precedes every frame payload.
const FrameHeaderLen = 8

// putHeader fills hdr[:FrameHeaderLen] with payload's length prefix and
// checksum.
func putHeader(hdr, payload []byte) {
	binary.BigEndian.PutUint32(hdr[:4], uint32(4+len(payload)))
	binary.BigEndian.PutUint32(hdr[4:FrameHeaderLen], crc32.ChecksumIEEE(payload))
}

// WriteFrame writes one length-prefixed, checksummed frame payload.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return errf(CodeProto, "frame payload %d exceeds MaxFrame", len(payload))
	}
	var hdr [FrameHeaderLen]byte
	putHeader(hdr[:], payload)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// SealFrame completes a frame built in place: frame[:FrameHeaderLen] is
// space reserved for the header, and the payload follows it. SealFrame
// fills in the length prefix and checksum, so the whole frame can go out in
// one Write — the connection paths build every frame this way, and a
// message-passing transport like net.Pipe then pays one rendezvous per
// frame instead of two.
func SealFrame(frame []byte) error {
	if len(frame) < FrameHeaderLen {
		return errf(CodeProto, "frame of %d bytes has no room for its header", len(frame))
	}
	payload := frame[FrameHeaderLen:]
	if len(payload) > MaxFrame {
		return errf(CodeProto, "frame payload %d exceeds MaxFrame", len(payload))
	}
	putHeader(frame, payload)
	return nil
}

// ReadFrame reads one frame payload, reusing buf when it is large enough.
// A declared length beyond MaxFrame, a length too short to hold the
// checksum, or a checksum mismatch is a protocol violation (*Error,
// CodeCorrupt); a short read surfaces as the transport's error (typically
// io.EOF or io.ErrUnexpectedEOF on truncation). The header is read into
// buf itself, so a reused buffer makes the read allocation-free.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < FrameHeaderLen {
		buf = make([]byte, FrameHeaderLen)
	}
	hdr := buf[:FrameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	sum := binary.BigEndian.Uint32(hdr[4:])
	if n < 4 {
		return nil, errf(CodeCorrupt, "frame length %d below checksum size", n)
	}
	n -= 4
	if n > MaxFrame {
		return nil, errf(CodeCorrupt, "frame length %d exceeds MaxFrame", n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(buf) != sum {
		return nil, errf(CodeCorrupt, "frame checksum mismatch")
	}
	return buf, nil
}

// ParseFrame splits a payload into its type and body.
func ParseFrame(payload []byte) (FrameType, []byte, error) {
	if len(payload) == 0 {
		return 0, nil, errf(CodeProto, "empty frame")
	}
	return FrameType(payload[0]), payload[1:], nil
}

// wireReader is a cursor over one frame body with structured failures.
type wireReader struct {
	data []byte
	off  int
}

func (r *wireReader) uvarint(field string) (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, errf(CodeProto, "truncated %s at offset %d", field, r.off)
	}
	r.off += n
	return v, nil
}

func (r *wireReader) varint(field string) (int64, error) {
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		return 0, errf(CodeProto, "truncated %s at offset %d", field, r.off)
	}
	r.off += n
	return v, nil
}

func (r *wireReader) str(field string) (string, error) {
	n, err := r.uvarint(field + " length")
	if err != nil {
		return "", err
	}
	if n > maxString {
		return "", errf(CodeProto, "%s length %d exceeds %d", field, n, maxString)
	}
	if uint64(len(r.data)-r.off) < n {
		return "", errf(CodeProto, "truncated %s at offset %d", field, r.off)
	}
	s := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func (r *wireReader) bytes(field string, max int) ([]byte, error) {
	n, err := r.uvarint(field + " length")
	if err != nil {
		return nil, err
	}
	if n > uint64(max) || uint64(len(r.data)-r.off) < n {
		return nil, errf(CodeProto, "%s length %d exceeds available bytes", field, n)
	}
	b := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

func (r *wireReader) done(what string) error {
	if r.off != len(r.data) {
		return errf(CodeProto, "%d trailing bytes after %s", len(r.data)-r.off, what)
	}
	return nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// Hello is the connection-opening frame body. Windowed asks for windowed
// Edges batches; the field is optional-trailing and written only when set,
// so a legacy Hello is byte-for-byte what pre-window clients send.
type Hello struct {
	Version  uint64
	Tenant   string
	Windowed bool
}

// Append serializes the message after a FrameHello type byte.
func (m *Hello) Append(dst []byte) []byte {
	dst = append(dst, byte(FrameHello))
	dst = binary.AppendUvarint(dst, m.Version)
	dst = appendString(dst, m.Tenant)
	return appendWindowed(dst, m.Windowed)
}

// ParseHello parses a FrameHello body.
func ParseHello(body []byte) (Hello, error) {
	r := wireReader{data: body}
	var m Hello
	var err error
	if m.Version, err = r.uvarint("version"); err != nil {
		return m, err
	}
	if m.Tenant, err = r.str("tenant"); err != nil {
		return m, err
	}
	if m.Tenant == "" {
		return m, errf(CodeProto, "empty tenant")
	}
	if m.Windowed, err = r.windowed(); err != nil {
		return m, err
	}
	return m, r.done("Hello")
}

// HelloAck acknowledges Hello. Windowed grants a Hello's request for
// windowed batches; like Hello.Windowed it is written only when set.
type HelloAck struct {
	Version  uint64
	Windowed bool
}

// Append serializes the message after a FrameHelloAck type byte.
func (m *HelloAck) Append(dst []byte) []byte {
	dst = append(dst, byte(FrameHelloAck))
	dst = binary.AppendUvarint(dst, m.Version)
	return appendWindowed(dst, m.Windowed)
}

// ParseHelloAck parses a FrameHelloAck body.
func ParseHelloAck(body []byte) (HelloAck, error) {
	r := wireReader{data: body}
	var m HelloAck
	var err error
	if m.Version, err = r.uvarint("version"); err != nil {
		return m, err
	}
	if m.Windowed, err = r.windowed(); err != nil {
		return m, err
	}
	return m, r.done("HelloAck")
}

// appendWindowed appends the optional-trailing windowed flag of Hello and
// HelloAck: a uvarint 1 when set, nothing otherwise.
func appendWindowed(dst []byte, windowed bool) []byte {
	if !windowed {
		return dst
	}
	return append(dst, 1)
}

// windowed reads the optional-trailing windowed flag: absent or 0 is false,
// 1 is true, anything else a protocol violation.
func (r *wireReader) windowed() (bool, error) {
	if r.off == len(r.data) {
		return false, nil
	}
	v, err := r.uvarint("windowed flag")
	if err != nil {
		return false, err
	}
	if v > 1 {
		return false, errf(CodeProto, "windowed flag %d out of range", v)
	}
	return v == 1, nil
}

// parseSync checks a FrameSync body, which is empty.
func parseSync(body []byte) error {
	r := wireReader{data: body}
	return r.done("Sync")
}

// Open opens a new session (Resume == "") or resumes a parked one. Src is
// the client's trace-context source id: the stamp its events carry in
// spliced event streams (0 asks the server to assign one). The field is
// optional-trailing on the wire — frames from pre-trace-context clients
// parse with Src 0, and the regression corpus of old frames stays valid.
type Open struct {
	Image  string
	Resume string
	Src    uint32
}

// Append serializes the message after a FrameOpen type byte.
func (m *Open) Append(dst []byte) []byte {
	dst = append(dst, byte(FrameOpen))
	dst = appendString(dst, m.Image)
	dst = appendString(dst, m.Resume)
	return binary.AppendUvarint(dst, uint64(m.Src))
}

// ParseOpen parses a FrameOpen body.
func ParseOpen(body []byte) (Open, error) {
	r := wireReader{data: body}
	var m Open
	var err error
	if m.Image, err = r.str("image"); err != nil {
		return m, err
	}
	if m.Resume, err = r.str("resume token"); err != nil {
		return m, err
	}
	if r.off < len(r.data) {
		src, err := r.uvarint("source id")
		if err != nil {
			return m, err
		}
		if src > 1<<32-1 {
			return m, errf(CodeProto, "source id %d out of range", src)
		}
		m.Src = uint32(src)
	}
	return m, r.done("Open")
}

// OpenAck acknowledges Open: the session identity, the generation of the
// image the session is pinned to, and the accepted-edge watermark (nonzero
// only when resuming). Src echoes the session's trace-context source id
// (the client's requested id, or a server-assigned one when the client
// sent 0); optional-trailing like Open.Src.
type OpenAck struct {
	Session   string
	Gen       uint64
	Watermark uint64
	Src       uint32
}

// Append serializes the message after a FrameOpenAck type byte.
func (m *OpenAck) Append(dst []byte) []byte {
	dst = append(dst, byte(FrameOpenAck))
	dst = appendString(dst, m.Session)
	dst = binary.AppendUvarint(dst, m.Gen)
	dst = binary.AppendUvarint(dst, m.Watermark)
	return binary.AppendUvarint(dst, uint64(m.Src))
}

// ParseOpenAck parses a FrameOpenAck body.
func ParseOpenAck(body []byte) (OpenAck, error) {
	r := wireReader{data: body}
	var m OpenAck
	var err error
	if m.Session, err = r.str("session"); err != nil {
		return m, err
	}
	if m.Gen, err = r.uvarint("generation"); err != nil {
		return m, err
	}
	if m.Watermark, err = r.uvarint("watermark"); err != nil {
		return m, err
	}
	if r.off < len(r.data) {
		src, err := r.uvarint("source id")
		if err != nil {
			return m, err
		}
		if src > 1<<32-1 {
			return m, errf(CodeProto, "source id %d out of range", src)
		}
		m.Src = uint32(src)
	}
	return m, r.done("OpenAck")
}

// Edges body layouts. The body opens with uvarint(count | edgesPacked):
//
//	packed  := count × record · escapes · [clock]
//	record  := label(u16 little-endian) instrs(u8)
//	escapes := the escaped values as uvarints, in edge order
//
// A record's label is the zigzag delta against the previous label and its
// instrs the instruction count; escLabel or escInstrs in a record means the
// value did not fit and is the next uvarint of the escape list. Fixed
// records put no varint length on the path to the next edge, so neither
// side runs a serial chain of dependent offsets. On the e2ebench images
// 0.2% (181.mcf, 901.steady, 902.stream) to 2.7% (176.gcc) of edges
// escape, and e2ebench's sessions send 3.06 body bytes per edge against
// the varint layout's 2.44.
//
// The legacy layout, without the layout bit, is count × (zigzag-varint
// label delta, uvarint instrs) · [clock]. ParseEdges still reads it, so
// clients that predate the packed layout keep working; AppendEdges never
// writes it. The layout bit sits above MaxBatchEdges, so a legacy parser
// rejects a packed body with "exceeds MaxBatchEdges" and no body that was
// valid before changes meaning.
const (
	edgesPacked = MaxBatchEdges << 1
	edgeRecLen  = 3
	escLabel    = 0xFFFF
	escInstrs   = 0xFF
)

// NoClock is the ParseEdges clock result for frames that carry no
// trace-context clock (pre-trace-context senders).
const NoClock = int64(-1)

// AppendEdges serializes an Edges frame in the packed layout, followed —
// when clock is not NoClock — by the sender's logical stream clock: the
// edge watermark this batch starts at, which the server checks against the
// session's accepted watermark so a confused retry loop desyncing its own
// stream surfaces as a structured CodeProto error instead of silently
// replaying edges twice.
func AppendEdges(dst []byte, edges []core.Edge, clock int64) []byte {
	dst = append(dst, byte(FrameEdges))
	dst = binary.AppendUvarint(dst, uint64(len(edges))|edgesPacked)
	at := len(dst)
	dst = append(dst, make([]byte, edgeRecLen*len(edges))...)
	prev := uint64(0)
	for i, e := range edges {
		d := int64(e.Label - prev)
		prev = e.Label
		zz := uint64(d<<1 ^ d>>63)
		label, instrs := min(zz, escLabel), min(e.Instrs, escInstrs)
		r := dst[at+edgeRecLen*i : at+edgeRecLen*i+edgeRecLen]
		r[0], r[1], r[2] = byte(label), byte(label>>8), byte(instrs)
		if label == escLabel {
			dst = binary.AppendUvarint(dst, zz)
		}
		if instrs == escInstrs {
			dst = binary.AppendUvarint(dst, e.Instrs)
		}
	}
	if clock != NoClock {
		dst = binary.AppendUvarint(dst, uint64(clock))
	}
	return dst
}

// ParseEdges parses a FrameEdges body of either layout into dst (reused
// when large enough). The declared count is validated against both
// MaxBatchEdges and the bytes present (a packed edge occupies at least
// three bytes, a legacy one two), so a forged count cannot drive
// allocation. The returned clock is the sender's stream clock, or NoClock
// for frames without one (the field is optional-trailing, so old corpus
// frames still parse). Every failure is a structured CodeProto error:
// "truncated <field> at offset <n>" for a short or overlong varint, the
// count bounds, the clock range and trailing bytes.
func ParseEdges(body []byte, dst []core.Edge) ([]core.Edge, int64, error) {
	v, off := uvarintAt(body, 0)
	if off < 0 {
		return nil, NoClock, errf(CodeProto, "truncated edge count at offset 0")
	}
	count := v &^ edgesPacked
	if count > MaxBatchEdges {
		return nil, NoClock, errf(CodeProto, "edge count %d exceeds MaxBatchEdges", count)
	}
	var err error
	if v&edgesPacked != 0 {
		dst, off, err = parsePackedEdges(body, off, count, dst)
	} else {
		dst, off, err = parseVarintEdges(body, off, count, dst)
	}
	if err != nil {
		return nil, NoClock, err
	}
	clock := NoClock
	if off < len(body) {
		c, next := uvarintAt(body, off)
		if next < 0 {
			return nil, NoClock, errf(CodeProto, "truncated stream clock at offset %d", off)
		}
		if c > 1<<62 {
			return nil, NoClock, errf(CodeProto, "stream clock %d out of range", c)
		}
		clock, off = int64(c), next
	}
	if off != len(body) {
		return nil, NoClock, errf(CodeProto, "%d trailing bytes after Edges", len(body)-off)
	}
	return dst, clock, nil
}

// parsePackedEdges decodes count packed records at body[off:] and their
// escape list, and returns the edges with the offset past the escapes.
func parsePackedEdges(body []byte, off int, count uint64, dst []core.Edge) ([]core.Edge, int, error) {
	if count > uint64(len(body)-off)/edgeRecLen {
		return nil, 0, errf(CodeProto, "edge count %d exceeds frame size", count)
	}
	recs := body[off : off+edgeRecLen*int(count)]
	esc := off + len(recs)
	dst = edgeSlice(dst, count)
	prev := uint64(0)
	for i := range dst {
		r := recs[edgeRecLen*i : edgeRecLen*i+edgeRecLen]
		zz, instrs := uint64(r[0])|uint64(r[1])<<8, uint64(r[2])
		if zz == escLabel {
			at := esc
			if zz, esc = uvarintAt(body, esc); esc < 0 {
				return nil, 0, errf(CodeProto, "truncated label delta at offset %d", at)
			}
		}
		if instrs == escInstrs {
			at := esc
			if instrs, esc = uvarintAt(body, esc); esc < 0 {
				return nil, 0, errf(CodeProto, "truncated instrs at offset %d", at)
			}
		}
		// Zigzag decode, as binary.Varint does.
		prev += uint64(int64(zz>>1) ^ -int64(zz&1))
		dst[i] = core.Edge{Label: prev, Instrs: instrs}
	}
	return dst, esc, nil
}

// parseVarintEdges decodes count legacy (zigzag-varint label delta, uvarint
// instrs) pairs at body[off:] and returns the edges with the offset past
// them.
func parseVarintEdges(body []byte, off int, count uint64, dst []core.Edge) ([]core.Edge, int, error) {
	if count > uint64(len(body))/2+1 {
		return nil, 0, errf(CodeProto, "edge count %d exceeds frame size", count)
	}
	dst = edgeSlice(dst, count)
	prev := uint64(0)
	for i := range dst {
		var zz, instrs uint64
		at := off
		if zz, off = uvarintAt(body, off); off < 0 {
			return nil, 0, errf(CodeProto, "truncated label delta at offset %d", at)
		}
		at = off
		if instrs, off = uvarintAt(body, off); off < 0 {
			return nil, 0, errf(CodeProto, "truncated instrs at offset %d", at)
		}
		prev += uint64(int64(zz>>1) ^ -int64(zz&1))
		dst[i] = core.Edge{Label: prev, Instrs: instrs}
	}
	return dst, off, nil
}

// edgeSlice returns dst resized to count edges, reallocated when its
// capacity is short.
func edgeSlice(dst []core.Edge, count uint64) []core.Edge {
	if uint64(cap(dst)) < count {
		return make([]core.Edge, count)
	}
	return dst[:count]
}

// uvarintAt decodes the uvarint at body[off:] and returns it with the
// offset just past it, or a negative offset when the bytes there are
// truncated or overflow 64 bits. One- and two-byte values are decoded
// without the general loop.
func uvarintAt(body []byte, off int) (uint64, int) {
	if off < len(body) && body[off] < 0x80 {
		return uint64(body[off]), off + 1
	}
	if off+1 < len(body) && body[off+1] < 0x80 {
		return uint64(body[off]&0x7f) | uint64(body[off+1])<<7, off + 2
	}
	v, n := binary.Uvarint(body[off:])
	if n <= 0 {
		return 0, -1
	}
	return v, off + n
}

// EdgesAck acknowledges a batch with the session's cumulative watermark.
type EdgesAck struct {
	Watermark uint64
}

// Append serializes the message after a FrameEdgesAck type byte.
func (m *EdgesAck) Append(dst []byte) []byte {
	dst = append(dst, byte(FrameEdgesAck))
	return binary.AppendUvarint(dst, m.Watermark)
}

// ParseEdgesAck parses a FrameEdgesAck body.
func ParseEdgesAck(body []byte) (EdgesAck, error) {
	r := wireReader{data: body}
	var m EdgesAck
	var err error
	if m.Watermark, err = r.uvarint("watermark"); err != nil {
		return m, err
	}
	return m, r.done("EdgesAck")
}

// StatsMsg carries a session's final result: the full replay statistics,
// the final automaton state, and the total edges accepted.
type StatsMsg struct {
	Stats     core.Stats
	Final     core.StateID
	Watermark uint64
}

// statsFields flattens Stats into its wire order. The order is part of the
// wire format; append new fields at the end.
func statsFields(s *core.Stats) [14]uint64 {
	return [14]uint64{
		s.Blocks, s.Instrs, s.TraceBlocks, s.TraceInstrs,
		s.InTraceHits, s.LocalHits, s.LocalMisses,
		s.GlobalLookups, s.GlobalHits,
		s.TraceEnters, s.TraceLinks, s.TraceExits,
		s.Desyncs, s.Resyncs,
	}
}

// Append serializes the message after a FrameStats type byte.
func (m *StatsMsg) Append(dst []byte) []byte {
	dst = append(dst, byte(FrameStats))
	for _, v := range statsFields(&m.Stats) {
		dst = binary.AppendUvarint(dst, v)
	}
	dst = binary.AppendVarint(dst, int64(m.Final))
	return binary.AppendUvarint(dst, m.Watermark)
}

// ParseStats parses a FrameStats body.
func ParseStats(body []byte) (StatsMsg, error) {
	r := wireReader{data: body}
	var m StatsMsg
	var f [14]uint64
	for i := range f {
		v, err := r.uvarint("stats field")
		if err != nil {
			return m, err
		}
		f[i] = v
	}
	m.Stats = core.Stats{
		Blocks: f[0], Instrs: f[1], TraceBlocks: f[2], TraceInstrs: f[3],
		InTraceHits: f[4], LocalHits: f[5], LocalMisses: f[6],
		GlobalLookups: f[7], GlobalHits: f[8],
		TraceEnters: f[9], TraceLinks: f[10], TraceExits: f[11],
		Desyncs: f[12], Resyncs: f[13],
	}
	final, err := r.varint("final state")
	if err != nil {
		return m, err
	}
	if final < -1 || final >= 1<<31 {
		return m, errf(CodeProto, "final state %d out of range", final)
	}
	m.Final = core.StateID(final)
	if m.Watermark, err = r.uvarint("watermark"); err != nil {
		return m, err
	}
	return m, r.done("Stats")
}

// AppendError serializes an Error frame.
func AppendError(dst []byte, e *Error) []byte {
	dst = append(dst, byte(FrameError))
	dst = binary.AppendUvarint(dst, uint64(e.Code))
	dst = binary.AppendUvarint(dst, uint64(e.RetryAfter/time.Millisecond))
	msg := e.Msg
	if len(msg) > maxString {
		msg = msg[:maxString]
	}
	return appendString(dst, msg)
}

// ParseError parses a FrameError body back into a *Error.
func ParseError(body []byte) (*Error, error) {
	r := wireReader{data: body}
	code, err := r.uvarint("error code")
	if err != nil {
		return nil, err
	}
	retryMs, err := r.uvarint("retry-after")
	if err != nil {
		return nil, err
	}
	msg, err := r.str("error message")
	if err != nil {
		return nil, err
	}
	if err := r.done("Error"); err != nil {
		return nil, err
	}
	return &Error{
		Code:       Code(code),
		RetryAfter: time.Duration(retryMs) * time.Millisecond,
		Msg:        msg,
	}, nil
}

// Publish uploads a serialized TEA image (core.Encode bytes) for a hosted
// program; admission decodes it against the program, statically verifies
// it, compiles it, and swaps it in as the image's next generation.
type Publish struct {
	Image string
	Data  []byte
}

// Append serializes the message after a FramePublish type byte.
func (m *Publish) Append(dst []byte) []byte {
	dst = append(dst, byte(FramePublish))
	dst = appendString(dst, m.Image)
	dst = binary.AppendUvarint(dst, uint64(len(m.Data)))
	return append(dst, m.Data...)
}

// ParsePublish parses a FramePublish body. The image bytes alias the frame
// buffer; the store copies what it keeps.
func ParsePublish(body []byte) (Publish, error) {
	r := wireReader{data: body}
	var m Publish
	var err error
	if m.Image, err = r.str("image"); err != nil {
		return m, err
	}
	if m.Data, err = r.bytes("image data", MaxFrame); err != nil {
		return m, err
	}
	return m, r.done("Publish")
}

// PublishAck acknowledges a publish with the image's new generation.
type PublishAck struct {
	Gen uint64
}

// Append serializes the message after a FramePublishAck type byte.
func (m *PublishAck) Append(dst []byte) []byte {
	dst = append(dst, byte(FramePublishAck))
	return binary.AppendUvarint(dst, m.Gen)
}

// ParsePublishAck parses a FramePublishAck body.
func ParsePublishAck(body []byte) (PublishAck, error) {
	r := wireReader{data: body}
	var m PublishAck
	var err error
	if m.Gen, err = r.uvarint("generation"); err != nil {
		return m, err
	}
	return m, r.done("PublishAck")
}
