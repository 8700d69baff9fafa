package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/faultinject"
	"github.com/lsc-tea/tea/internal/pin"
	"github.com/lsc-tea/tea/internal/teatool"
	"github.com/lsc-tea/tea/internal/workload"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{byte(FrameClose), 1, 2, 3}
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	got, err := ReadFrame(&buf, nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload round trip: got %x want %x", got, payload)
	}

	// A frame sealed in place is byte-identical to WriteFrame's output.
	frame := append(make([]byte, FrameHeaderLen), payload...)
	if err := SealFrame(frame); err != nil {
		t.Fatalf("SealFrame: %v", err)
	}
	var want bytes.Buffer
	_ = WriteFrame(&want, payload)
	if !bytes.Equal(frame, want.Bytes()) {
		t.Fatalf("sealed frame %x, WriteFrame wrote %x", frame, want.Bytes())
	}
	if err := SealFrame(make([]byte, FrameHeaderLen+MaxFrame+1)); err == nil {
		t.Fatal("SealFrame accepted a payload beyond MaxFrame")
	}
	if err := SealFrame(make([]byte, FrameHeaderLen-1)); err == nil {
		t.Fatal("SealFrame accepted a frame shorter than its header")
	}
}

func TestFrameChecksumDetectsEveryBitFlip(t *testing.T) {
	var buf bytes.Buffer
	payload := AppendEdges(nil, []core.Edge{{Label: 0x1000, Instrs: 7}, {Label: 0x1008, Instrs: 3}}, NoClock)
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	frame := buf.Bytes()
	for bit := 0; bit < len(frame)*8; bit++ {
		mut := append([]byte(nil), frame...)
		mut[bit/8] ^= 1 << (bit % 8)
		_, err := ReadFrame(bytes.NewReader(mut), nil)
		if err == nil {
			t.Fatalf("bit flip %d went undetected", bit)
		}
		// Every detected failure is either structured (corrupt length /
		// checksum) or a clean transport error from a shortened read.
		var serr *Error
		if errors.As(err, &serr) {
			if serr.Code != CodeCorrupt {
				t.Fatalf("bit flip %d: code %v, want corrupt", bit, serr.Code)
			}
		} else if err != io.EOF && err != io.ErrUnexpectedEOF {
			t.Fatalf("bit flip %d: unexpected error %v", bit, err)
		}
	}
}

func TestReadFrameRejectsHostileLength(t *testing.T) {
	hdr := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	if _, err := ReadFrame(bytes.NewReader(hdr), nil); err == nil {
		t.Fatal("oversized length accepted")
	}
	hdr = []byte{0, 0, 0, 1, 0, 0, 0, 0} // below checksum size
	if _, err := ReadFrame(bytes.NewReader(hdr), nil); err == nil {
		t.Fatal("undersized length accepted")
	}
}

func TestMessageRoundTrips(t *testing.T) {
	parse := func(payload []byte, want FrameType) []byte {
		t.Helper()
		typ, body, err := ParseFrame(payload)
		if err != nil {
			t.Fatalf("ParseFrame: %v", err)
		}
		if typ != want {
			t.Fatalf("frame type %v, want %v", typ, want)
		}
		return body
	}

	hello := Hello{Version: ProtoVersion, Tenant: "acme"}
	if got, err := ParseHello(parse(hello.Append(nil), FrameHello)); err != nil || got != hello {
		t.Fatalf("Hello round trip: %+v, %v", got, err)
	}
	open := Open{Image: "gcc", Resume: "s0000002a"}
	if got, err := ParseOpen(parse(open.Append(nil), FrameOpen)); err != nil || got != open {
		t.Fatalf("Open round trip: %+v, %v", got, err)
	}
	ack := OpenAck{Session: "s01", Gen: 3, Watermark: 99}
	if got, err := ParseOpenAck(parse(ack.Append(nil), FrameOpenAck)); err != nil || got != ack {
		t.Fatalf("OpenAck round trip: %+v, %v", got, err)
	}
	sm := StatsMsg{
		Stats: core.Stats{Blocks: 10, Instrs: 50, Desyncs: 2, Resyncs: 2,
			TraceEnters: 4, TraceExits: 4, GlobalLookups: 6, GlobalHits: 4},
		Final:     core.StateID(17),
		Watermark: 10,
	}
	if got, err := ParseStats(parse(sm.Append(nil), FrameStats)); err != nil || got != sm {
		t.Fatalf("Stats round trip: %+v, %v", got, err)
	}
	serr := &Error{Code: CodeBackpressure, RetryAfter: 250 * time.Millisecond, Msg: "busy"}
	got, err := ParseError(parse(AppendError(nil, serr), FrameError))
	if err != nil || *got != *serr {
		t.Fatalf("Error round trip: %+v, %v", got, err)
	}
	pub := Publish{Image: "gcc", Data: []byte{1, 2, 3, 4}}
	pgot, err := ParsePublish(parse(pub.Append(nil), FramePublish))
	if err != nil || pgot.Image != pub.Image || !bytes.Equal(pgot.Data, pub.Data) {
		t.Fatalf("Publish round trip: %+v, %v", pgot, err)
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	edges := []core.Edge{
		{Label: 0x400000, Instrs: 12},
		{Label: 0x400010, Instrs: 3},
		{Label: 0x3ffff0, Instrs: 9}, // negative delta
		{Label: 0, Instrs: 0},
	}
	payload := AppendEdges(nil, edges, 96)
	typ, body, err := ParseFrame(payload)
	if err != nil || typ != FrameEdges {
		t.Fatalf("ParseFrame: %v %v", typ, err)
	}
	got, clock, err := ParseEdges(body, nil)
	if err != nil {
		t.Fatalf("ParseEdges: %v", err)
	}
	if clock != 96 {
		t.Fatalf("clock %d, want 96", clock)
	}
	if len(got) != len(edges) {
		t.Fatalf("len %d, want %d", len(got), len(edges))
	}
	for i := range edges {
		if got[i] != edges[i] {
			t.Fatalf("edge %d: %+v want %+v", i, got[i], edges[i])
		}
	}
}

// legacyEdges encodes an Edges body in the legacy layout: a uvarint count,
// then per edge a zigzag-varint label delta and a uvarint instruction
// count, then the clock unless it is NoClock. AppendEdges no longer writes
// it; ParseEdges still reads it from clients that predate the packed
// layout.
func legacyEdges(edges []core.Edge, clock int64) []byte {
	body := binary.AppendUvarint(nil, uint64(len(edges)))
	prev := uint64(0)
	for _, e := range edges {
		body = binary.AppendVarint(body, int64(e.Label-prev))
		body = binary.AppendUvarint(body, e.Instrs)
		prev = e.Label
	}
	if clock != NoClock {
		body = binary.AppendUvarint(body, uint64(clock))
	}
	return body
}

// checkEdgesBody parses body and requires exactly edges and clock back.
func checkEdgesBody(t *testing.T, what string, body []byte, edges []core.Edge, clock int64) bool {
	t.Helper()
	got, gotClock, err := ParseEdges(body, nil)
	if err != nil || gotClock != clock || len(got) != len(edges) {
		t.Errorf("%s: %d edges, clock %d → %d edges, clock %d, %v", what, len(edges), clock, len(got), gotClock, err)
		return false
	}
	for i := range edges {
		if got[i] != edges[i] {
			t.Errorf("%s: edge %d: %+v want %+v", what, i, got[i], edges[i])
			return false
		}
	}
	return true
}

// TestEdgesRoundTripVarintMix: random batches survive AppendEdges →
// ParseEdges unchanged, clock included, and so do their legacy-layout
// encodings. Label deltas take every sign and magnitude up to full 64-bit
// wraps, straddling the packed record's ±2^15 and the varints' byte
// boundaries; instruction counts straddle 0xfe/0xff and 0x7f/0x80 up to
// math.MaxUint64; batch sizes reach MaxBatchEdges.
func TestEdgesRoundTripVarintMix(t *testing.T) {
	magnitudes := []uint64{0, 1, 0x3f, 0x40, 0x7f, 0x80, 0xfe, 0xff, 0x100, 0x3fff, 0x4000,
		0x7ffe, 0x7fff, 0x8000, 0x8001, 0xffff, 1 << 32, math.MaxUint64}
	value := func(r *rand.Rand) uint64 {
		m := magnitudes[r.Intn(len(magnitudes))]
		switch {
		case r.Intn(2) == 0:
			return m
		case m == math.MaxUint64:
			return r.Uint64()
		}
		return r.Uint64() % (m + 1)
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(600)
		if r.Intn(8) == 0 {
			n = MaxBatchEdges
		}
		edges := make([]core.Edge, n)
		label := uint64(0x400000)
		for i := range edges {
			switch r.Intn(3) {
			case 0:
				label += value(r)
			case 1:
				label -= value(r) // a decreasing label
			default:
				label = r.Uint64()
			}
			edges[i] = core.Edge{Label: label, Instrs: value(r)}
		}
		clock := NoClock
		if r.Intn(2) == 0 {
			clock = int64(value(r) >> 2) // within the 1<<62 clock range
		}
		what := fmt.Sprintf("seed %d", seed)
		return checkEdgesBody(t, what, AppendEdges(nil, edges, clock)[1:], edges, clock) &&
			checkEdgesBody(t, what+" legacy", legacyEdges(edges, clock), edges, clock)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEdgesPackedBoundaries pins the packed layout at its edges: label
// deltas at ±2^15, where a record's u16 gives way to an escape, instrs at
// 0xfe/0xff, escapes on the first and the last edge, and both clock forms.
// A body without escapes is exactly the count and three bytes per edge.
func TestEdgesPackedBoundaries(t *testing.T) {
	const base = 0x08048000
	deltas := []int64{0, 1, -1, 1<<15 - 1, -(1<<15 - 1), 1 << 15, -1 << 15, 1<<15 + 1, -(1<<15 + 1)}
	for _, d := range deltas {
		for _, instrs := range []uint64{0, 0xfe, 0xff, 0x100} {
			// The first edge's label escapes (base is far from 0); the
			// last edge carries the delta under test, and both the instrs.
			edges := []core.Edge{{Label: base, Instrs: instrs}, {Label: base + 8, Instrs: 5}, {Label: uint64(base + 8 + d), Instrs: instrs}}
			for _, clock := range []int64{NoClock, 0, 1 << 62} {
				what := fmt.Sprintf("delta %d instrs %d clock %d", d, instrs, clock)
				body := AppendEdges(nil, edges, clock)[1:]
				last := body[len(binary.AppendUvarint(nil, edgesPacked|3))+2*edgeRecLen:]
				wantEsc := d >= 1<<15 || d <= -1<<15
				if gotEsc := binary.LittleEndian.Uint16(last) == escLabel; gotEsc != wantEsc {
					t.Errorf("%s: label escaped %v, want %v", what, gotEsc, wantEsc)
				}
				if gotEsc, wantEsc := last[2] == escInstrs, instrs >= escInstrs; gotEsc != wantEsc {
					t.Errorf("%s: instrs escaped %v, want %v", what, gotEsc, wantEsc)
				}
				checkEdgesBody(t, what, body, edges, clock)
			}
		}
	}
	// No escapes: the labels stay within ±(2^15-1) of each other and 0.
	edges := []core.Edge{{Label: 1<<15 - 1, Instrs: 0xfe}, {Label: 0, Instrs: 0}, {Label: 0x7000, Instrs: 1}}
	body := AppendEdges(nil, edges, NoClock)[1:]
	if want := len(binary.AppendUvarint(nil, edgesPacked|3)) + 3*edgeRecLen; len(body) != want {
		t.Fatalf("escape-free body is %d bytes, want %d", len(body), want)
	}
	checkEdgesBody(t, "escape-free", body, edges, NoClock)
	if body := AppendEdges(nil, nil, 7)[1:]; !checkEdgesBody(t, "empty", body, nil, 7) {
		t.Fatalf("empty batch body %x", body)
	}
}

// parseEdgesReference is a cursor-based Edges decoder for both layouts:
// one wireReader call per varint field, packed records read at their fixed
// stride. It is the oracle ParseEdges is fuzzed against.
func parseEdgesReference(body []byte, dst []core.Edge) ([]core.Edge, int64, error) {
	r := wireReader{data: body}
	v, err := r.uvarint("edge count")
	if err != nil {
		return nil, NoClock, err
	}
	packed, count := v&edgesPacked != 0, v&^edgesPacked
	if count > MaxBatchEdges {
		return nil, NoClock, errf(CodeProto, "edge count %d exceeds MaxBatchEdges", count)
	}
	var recs []byte
	if packed {
		if count*edgeRecLen > uint64(len(body)-r.off) {
			return nil, NoClock, errf(CodeProto, "edge count %d exceeds frame size", count)
		}
		recs = body[r.off : r.off+int(count)*edgeRecLen]
		r.off += len(recs)
	} else if count > uint64(len(body))/2+1 {
		return nil, NoClock, errf(CodeProto, "edge count %d exceeds frame size", count)
	}
	if uint64(cap(dst)) < count {
		dst = make([]core.Edge, count)
	}
	dst = dst[:count]
	prev := uint64(0)
	for i := range dst {
		var delta int64
		var instrs uint64
		if packed {
			rec := recs[i*edgeRecLen : (i+1)*edgeRecLen]
			zz := binary.LittleEndian.Uint16(rec)
			delta, instrs = int64(zz>>1)^-int64(zz&1), uint64(rec[2])
			if zz == escLabel {
				if delta, err = r.varint("label delta"); err != nil {
					return nil, NoClock, err
				}
			}
			if instrs == escInstrs {
				if instrs, err = r.uvarint("instrs"); err != nil {
					return nil, NoClock, err
				}
			}
		} else {
			if delta, err = r.varint("label delta"); err != nil {
				return nil, NoClock, err
			}
			if instrs, err = r.uvarint("instrs"); err != nil {
				return nil, NoClock, err
			}
		}
		prev += uint64(delta)
		dst[i] = core.Edge{Label: prev, Instrs: instrs}
	}
	clock := NoClock
	if r.off < len(r.data) {
		c, err := r.uvarint("stream clock")
		if err != nil {
			return nil, NoClock, err
		}
		if c > 1<<62 {
			return nil, NoClock, errf(CodeProto, "stream clock %d out of range", c)
		}
		clock = int64(c)
	}
	return dst, clock, r.done("Edges")
}

// FuzzParseEdges differentially checks ParseEdges against the reference
// cursor decoder on bodies of both layouts: on every body, ParseEdges
// returns the same edges and clock when the reference accepts, and the
// same structured *Error when it rejects.
func FuzzParseEdges(f *testing.F) {
	entries, err := os.ReadDir(filepath.Join("testdata", "wire_corpus"))
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join("testdata", "wire_corpus", e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		if len(data) > FrameHeaderLen && FrameType(data[FrameHeaderLen]) == FrameEdges {
			f.Add(data[FrameHeaderLen+1:])
		}
	}
	// Legacy bodies: values straddling the one- and two-byte varint forms,
	// 10-byte varints, and overflowing or unterminated encodings.
	straddle := []core.Edge{{Label: 0x3f, Instrs: 0x7f}, {Label: 0x7f, Instrs: 0x80}, {Label: 0x40, Instrs: 0x3fff}, {Label: 0, Instrs: 0x4000}}
	f.Add(legacyEdges(straddle, 0x7f))
	f.Add(legacyEdges(straddle, 0x80))
	ten := binary.AppendUvarint(nil, math.MaxUint64)
	f.Add(append(append([]byte{1}, ten...), ten...))
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 0x00}) // 10th byte overflows
	f.Add([]byte{1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}) // 11 bytes
	f.Add([]byte{1, 0x80})                                                             // truncated delta
	f.Add([]byte{1, 0x02, 0x80})                                                       // truncated instrs
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})             // clock out of range
	f.Add([]byte{0, 0x05, 0x00})                                                       // trailing byte
	f.Add([]byte{0x81})                                                                // truncated count
	// Packed bodies: label and instrs escapes, MaxUint64 values, the count
	// bounds, and a truncated escape list.
	escapes := []core.Edge{{Label: 1 << 15, Instrs: escInstrs}, {Label: 1, Instrs: 0xfe}, {Label: 1<<15 + 2, Instrs: 1 << 40}}
	f.Add(AppendEdges(nil, straddle, 0x80)[1:])
	f.Add(AppendEdges(nil, escapes, NoClock)[1:])
	f.Add(AppendEdges(nil, escapes, 1<<62)[1:])
	f.Add(AppendEdges(nil, []core.Edge{{Label: math.MaxUint64, Instrs: math.MaxUint64}, {Label: 1, Instrs: 1 << 63}}, NoClock)[1:])
	f.Add(binary.AppendUvarint(nil, edgesPacked|(MaxBatchEdges+1)))                       // flagged count above MaxBatchEdges
	f.Add(append(binary.AppendUvarint(nil, edgesPacked|2), 1, 2, 3, 4, 5))                // 3×count past the body
	f.Add(append(binary.AppendUvarint(nil, edgesPacked|1), 0xff, 0xff, 0xff, 0x80))       // truncated label escape
	f.Add(append(binary.AppendUvarint(nil, edgesPacked|1), 0xff, 0xff, 0xff, 0x05))       // escape list ends before instrs
	f.Add(append(binary.AppendUvarint(nil, edgesPacked|1), 0x02, 0x00, 0x03, 0x07, 0x00)) // trailing byte after the clock
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantClock, wantErr := parseEdgesReference(body, nil)
		got, gotClock, gotErr := ParseEdges(body, make([]core.Edge, 0, 4))
		if wantErr != nil {
			var serr *Error
			if !errors.As(gotErr, &serr) {
				t.Fatalf("reference rejects (%v), ParseEdges returned %v", wantErr, gotErr)
			}
			if serr.Error() != wantErr.Error() {
				t.Fatalf("error text %q, reference %q", serr.Error(), wantErr.Error())
			}
			return
		}
		if gotErr != nil {
			t.Fatalf("reference accepts, ParseEdges rejects: %v", gotErr)
		}
		if gotClock != wantClock || len(got) != len(want) {
			t.Fatalf("clock %d, %d edges; reference clock %d, %d edges", gotClock, len(got), wantClock, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("edge %d: %+v, reference %+v", i, got[i], want[i])
			}
		}
	})
}

func TestParseEdgesRejectsForgedCount(t *testing.T) {
	// A count far beyond the bytes present must fail before allocating.
	body := []byte{0xff, 0xff, 0x3} // uvarint 65535 with no edge bytes
	if _, _, err := ParseEdges(body, nil); err == nil {
		t.Fatal("forged count accepted")
	}
	big := AppendEdges(nil, make([]core.Edge, 8), NoClock)[1:]
	big[0] = 0xff // corrupt the count upward
	if _, _, err := ParseEdges(big, nil); err == nil {
		t.Fatal("corrupt count accepted")
	}
}

// TestParsersSurviveMutation drives every parser with deterministic
// mutations of valid bodies: any outcome but a panic or unbounded loop is
// acceptable, and errors must carry the structured taxonomy.
func TestParsersSurviveMutation(t *testing.T) {
	inj := faultinject.New(7)
	hello := Hello{Version: 1, Tenant: "t"}
	open := Open{Image: "img", Resume: "s01"}
	sm := StatsMsg{Final: core.NTE, Watermark: 4}
	edges := AppendEdges(nil, []core.Edge{{Label: 5, Instrs: 5}, {Label: 9, Instrs: 1}}, 2)
	seeds := [][]byte{
		hello.Append(nil), open.Append(nil), sm.Append(nil), edges,
		AppendError(nil, errf(CodeInternal, "x")),
		(&Publish{Image: "i", Data: []byte{1}}).Append(nil),
		(&Hello{Version: 1, Tenant: "t", Windowed: true}).Append(nil),
		(&HelloAck{Version: 1, Windowed: true}).Append(nil),
		{byte(FrameSync)},
	}
	for _, seed := range seeds {
		for round := 0; round < 200; round++ {
			mut := inj.Mutate(seed)
			typ, body, err := ParseFrame(mut)
			if err != nil {
				continue
			}
			var perr error
			switch typ {
			case FrameHello:
				_, perr = ParseHello(body)
			case FrameHelloAck:
				_, perr = ParseHelloAck(body)
			case FrameSync:
				perr = parseSync(body)
			case FrameOpen:
				_, perr = ParseOpen(body)
			case FrameOpenAck:
				_, perr = ParseOpenAck(body)
			case FrameEdges:
				_, _, perr = ParseEdges(body, nil)
			case FrameEdgesAck:
				_, perr = ParseEdgesAck(body)
			case FrameStats:
				_, perr = ParseStats(body)
			case FrameError:
				_, perr = ParseError(body)
			case FramePublish:
				_, perr = ParsePublish(body)
			case FramePublishAck:
				_, perr = ParsePublishAck(body)
			}
			if perr != nil {
				var serr *Error
				if !errors.As(perr, &serr) {
					t.Fatalf("%v parse error not structured: %v", typ, perr)
				}
			}
		}
	}
}

func TestErrorTaxonomy(t *testing.T) {
	for c := CodeOK; c <= CodeCorrupt; c++ {
		if s := c.String(); len(s) == 0 || s[len(s)-1] == ')' {
			t.Fatalf("code %d has placeholder name %q", uint32(c), s)
		}
	}
	if (&Error{Code: CodeBackpressure}).Temporary() != true {
		t.Fatal("backpressure must be temporary")
	}
	if (&Error{Code: CodeQuotaSteps}).Temporary() {
		t.Fatal("quota exhaustion must not be temporary")
	}
	if (&Error{Code: CodeCorrupt}).Temporary() != true {
		t.Fatal("corruption must be temporary (reconnect + resume recovers)")
	}
}

// TestTraceContextOptionalFields: the Src trace-context fields on Open and
// OpenAck, and the stream clock on Edges, round-trip — and bodies written
// by pre-trace-context peers (no trailing field) still parse, with the
// zero/absent value.
func TestTraceContextOptionalFields(t *testing.T) {
	o := Open{Image: "img", Resume: "s01", Src: 0xdeadbeef}
	_, body, err := ParseFrame(o.Append(nil))
	if err != nil {
		t.Fatal(err)
	}
	got, perr := ParseOpen(body)
	if perr != nil || got != o {
		t.Fatalf("Open round trip: %+v, %v", got, perr)
	}
	// Legacy body: same layout minus the trailing Src uvarint.
	legacy := Open{Image: "img", Resume: "s01"}
	full := legacy.Append(nil)
	_, body, _ = ParseFrame(full[:len(full)-1]) // strip the one-byte Src 0
	if got, perr := ParseOpen(body); perr != nil || got != legacy {
		t.Fatalf("legacy Open: %+v, %v", got, perr)
	}

	a := OpenAck{Session: "s01", Gen: 3, Watermark: 128, Src: 1<<32 - 1}
	_, body, err = ParseFrame(a.Append(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got, perr := ParseOpenAck(body); perr != nil || got != a {
		t.Fatalf("OpenAck round trip: %+v, %v", got, perr)
	}
	lack := OpenAck{Session: "s01", Gen: 3, Watermark: 128}
	full = lack.Append(nil)
	_, body, _ = ParseFrame(full[:len(full)-1])
	if got, perr := ParseOpenAck(body); perr != nil || got != lack {
		t.Fatalf("legacy OpenAck: %+v, %v", got, perr)
	}

	// Edges without a clock parses to the NoClock sentinel.
	_, body, _ = ParseFrame(AppendEdges(nil, []core.Edge{{Label: 4, Instrs: 2}}, NoClock))
	_, clock, perr := ParseEdges(body, nil)
	if perr != nil || clock != NoClock {
		t.Fatalf("clockless Edges: clock %d, %v", clock, perr)
	}
}

// TestWindowedFlagOptional: the windowed flag on Hello and HelloAck
// round-trips, is written only when set — so a legacy Hello or HelloAck
// keeps its exact bytes — and parses as false when absent or 0. Any other
// value is a protocol violation, and Sync's body must be empty.
func TestWindowedFlagOptional(t *testing.T) {
	legacy := Hello{Version: ProtoVersion, Tenant: "acme"}
	win := legacy
	win.Windowed = true
	lb, wb := legacy.Append(nil), win.Append(nil)
	if !bytes.Equal(wb[:len(lb)], lb) || len(wb) != len(lb)+1 {
		t.Fatalf("windowed Hello %x does not extend legacy %x by one byte", wb, lb)
	}
	for _, m := range []Hello{legacy, win} {
		if got, err := ParseHello(m.Append(nil)[1:]); err != nil || got != m {
			t.Fatalf("Hello round trip: %+v, %v", got, err)
		}
	}
	if got, err := ParseHello(append(lb[1:len(lb):len(lb)], 0)); err != nil || got != legacy {
		t.Fatalf("Hello with flag 0: %+v, %v", got, err)
	}
	var serr *Error
	if _, err := ParseHello(append(lb[1:len(lb):len(lb)], 2)); !errors.As(err, &serr) || serr.Code != CodeProto {
		t.Fatalf("Hello with flag 2: %v, want a protocol error", err)
	}

	for _, m := range []HelloAck{{Version: ProtoVersion}, {Version: ProtoVersion, Windowed: true}} {
		b := m.Append(nil)
		if m.Windowed != (len(b) == 3) {
			t.Fatalf("HelloAck %+v encodes as %x", m, b)
		}
		if got, err := ParseHelloAck(b[1:]); err != nil || got != m {
			t.Fatalf("HelloAck round trip: %+v, %v", got, err)
		}
	}

	if err := parseSync(nil); err != nil {
		t.Fatalf("empty Sync: %v", err)
	}
	if err := parseSync([]byte{0}); !errors.As(err, &serr) || serr.Code != CodeProto {
		t.Fatalf("Sync with a body: %v, want a protocol error", err)
	}
}

// wireBenchBatches cuts a captured 176.gcc block stream into the 512-edge
// batches a serve session sends, encoded as Edges frame payloads.
func wireBenchBatches(b *testing.B) ([][]core.Edge, [][]byte) {
	b.Helper()
	spec, _ := workload.ByName("176.gcc")
	p, err := workload.Generate(spec, 500_000)
	if err != nil {
		b.Fatal(err)
	}
	tool := teatool.NewCaptureTool()
	if _, err := pin.New().Run(p, tool, 0); err != nil {
		b.Fatal(err)
	}
	stream := tool.Stream()
	var batches [][]core.Edge
	var payloads [][]byte
	for off := 0; off+512 <= len(stream); off += 512 {
		batches = append(batches, stream[off:off+512])
		payloads = append(payloads, AppendEdges(nil, stream[off:off+512], int64(off)))
	}
	return batches, payloads
}

// BenchmarkParseEdges times the Edges decode layer on captured batches.
func BenchmarkParseEdges(b *testing.B) {
	_, payloads := wireBenchBatches(b)
	dst := make([]core.Edge, 512)
	b.SetBytes(int64(len(payloads[0])))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ParseEdges(payloads[i%len(payloads)][1:], dst); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*512), "ns/edge")
}

// BenchmarkAppendEdges times the Edges encode layer on captured batches
// and reports the payload bytes it writes per edge.
func BenchmarkAppendEdges(b *testing.B) {
	batches, _ := wireBenchBatches(b)
	var buf []byte
	bytes := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendEdges(buf[:0], batches[i%len(batches)], int64(i))
		bytes += len(buf)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*512), "ns/edge")
	b.ReportMetric(float64(bytes)/float64(b.N*512), "bytes/edge")
}
