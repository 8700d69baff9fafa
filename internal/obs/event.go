package obs

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// EventKind identifies one structured replay/record event.
type EventKind uint8

// Event kinds. The numeric values are part of the binary log format and
// must not be reordered; append new kinds at the end.
const (
	// EvTraceEnter: the replay cursor moved from NTE into a trace.
	// State = entered trace head state, Aux = edge label (target address).
	EvTraceEnter EventKind = iota + 1
	// EvTraceExit: the cursor left trace code for NTE (a trace-side global
	// search found no successor). State = exited state, Aux = edge label.
	EvTraceExit
	// EvDesync: an in-trace transition contradicted the recorded automaton
	// (the paper's desynchronization). State = state at the mismatch,
	// Aux = offending edge label.
	EvDesync
	// EvResync: a desynchronized cursor re-entered a plausible state.
	// State = state resynchronized onto, Aux = edge label.
	EvResync
	// EvCacheMissProbe: a trace-side successor search consulted the global
	// container — after a local-cache miss when local caches are on, or
	// unconditionally in the cache-less ablation (the paper's Table 4
	// CacheMiss→probe path). State = searching state, Aux = probe depth
	// (container slots/nodes inspected).
	EvCacheMissProbe
	// EvEntryTableHit: a trace-side global search hit — the cursor linked
	// to another trace state without leaving trace code.
	// State = target state, Aux = edge label.
	EvEntryTableHit
	// EvSync: the online recorder synchronized a created/extended trace
	// into the automaton. State = trace head state, Aux = trace block count.
	EvSync
	// EvSessionOpen: a serving session opened (fresh attach, not a resume).
	// Src = session source id, Aux = image generation.
	EvSessionOpen
	// EvSessionResume: a parked session re-attached idempotently.
	// Src = session source id, Aux = resume watermark (edges already applied).
	EvSessionResume
	// EvSessionClose: a session closed cleanly. Src = session source id,
	// Aux = total edges replayed.
	EvSessionClose
	// EvSessionFail: a session terminated with a structured error or crossed
	// the desync threshold. Src = session source id, Aux = serve error code
	// (0 for a desync-threshold failure).
	EvSessionFail
	// EvQuotaReject: a per-tenant quota rejected work mid-session.
	// Src = session source id, Aux = serve error code.
	EvQuotaReject
	// EvBackpressure: tenant admission pushed back (too many attached
	// sessions). Aux = attached session count at rejection.
	EvBackpressure
	// EvBreakerTrip: a per-image circuit breaker opened. Src = source id of
	// the session whose failure tripped it, Aux = image generation.
	EvBreakerTrip
	// EvPanicRecovered: a connection handler recovered a panic.
	// Src = source id of the attached session (0 if none).
	EvPanicRecovered
	// EvClientRetry: the client retried a transient failure.
	// Src = session source id, Aux = attempt number (1-based).
	EvClientRetry
	// EvChunkPublished: the pipeline producer published a sequenced chunk.
	// Edge = chunk base edge index, Aux = chunk sequence number.
	EvChunkPublished
	// EvChunkDrained: the pipeline drain retired a sequenced chunk.
	// Edge = chunk base edge index, Aux = chunk sequence number,
	// Src = scan worker that processed it.
	EvChunkDrained
)

// String returns the decoder's stable name for the kind.
func (k EventKind) String() string {
	switch k {
	case EvTraceEnter:
		return "TraceEnter"
	case EvTraceExit:
		return "TraceExit"
	case EvDesync:
		return "Desync"
	case EvResync:
		return "Resync"
	case EvCacheMissProbe:
		return "CacheMissProbe"
	case EvEntryTableHit:
		return "EntryTableHit"
	case EvSync:
		return "Sync"
	case EvSessionOpen:
		return "SessionOpen"
	case EvSessionResume:
		return "SessionResume"
	case EvSessionClose:
		return "SessionClose"
	case EvSessionFail:
		return "SessionFail"
	case EvQuotaReject:
		return "QuotaReject"
	case EvBackpressure:
		return "Backpressure"
	case EvBreakerTrip:
		return "BreakerTrip"
	case EvPanicRecovered:
		return "PanicRecovered"
	case EvClientRetry:
		return "ClientRetry"
	case EvChunkPublished:
		return "ChunkPublished"
	case EvChunkDrained:
		return "ChunkDrained"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one structured observation with a logical timestamp: Edge is the
// number of stream edges consumed before the event fired (the replay
// clock), so event logs are deterministic across runs and comparable
// between sequential and parallel replays of the same stream. Src is the
// trace-context source id — which session, shard or worker emitted the
// event — so spliced multi-source logs stay attributable; kernel-emitted
// replay/record events leave it 0.
type Event struct {
	Edge  uint64    // logical edge index
	Aux   uint64    // kind-specific payload (label, probe depth, ...)
	Src   uint32    // source id (session/shard/worker), 0 = unattributed
	State int32     // automaton state involved (int32(NTE) = -1 for none)
	Kind  EventKind // what happened
}

// Tracer is a bounded ring buffer of events. When full it overwrites the
// oldest entries (keeping the most recent window, which is what a
// post-mortem wants) and counts the overwritten events in Dropped. Emit is
// mutex-protected: the hot paths batch their events and ingest them in one
// goroutine, so the lock is uncontended there, while the HTTP serving mode
// may drain concurrently.
type Tracer struct {
	mu      sync.Mutex
	buf     []Event
	head    uint64 // total events ever emitted
	dropped uint64
}

// DefaultTracerCap is the default ring capacity.
const DefaultTracerCap = 4096

// NewTracer creates a ring holding the most recent capacity events
// (rounded up to a power of two; non-positive means DefaultTracerCap).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTracerCap
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Tracer{buf: make([]Event, n)}
}

// Emit appends one event, overwriting the oldest when the ring is full.
func (t *Tracer) Emit(e Event) {
	t.mu.Lock()
	if t.head >= uint64(len(t.buf)) {
		t.dropped++
	}
	t.buf[t.head&uint64(len(t.buf)-1)] = e
	t.head++
	t.mu.Unlock()
}

// EmitBatch appends a whole event list under one lock acquisition, with the
// same final ring contents, head position and dropped count as emitting the
// events one by one: when the batch is larger than the ring only its tail
// survives, and that tail is copied in at most two contiguous runs.
//
//tea:hotpath
func (t *Tracer) EmitBatch(events []Event) {
	k := uint64(len(events))
	if k == 0 {
		return
	}
	t.mu.Lock()
	c := uint64(len(t.buf))
	if room := c - t.head; t.head >= c {
		t.dropped += k
	} else if k > room {
		t.dropped += k - room
	}
	src := events
	if k > c {
		src = events[k-c:]
	}
	start := (t.head + k - uint64(len(src))) & (c - 1)
	n := c - start
	if n > uint64(len(src)) {
		n = uint64(len(src))
	}
	copy(t.buf[start:], src[:n])
	copy(t.buf, src[n:])
	t.head += k
	t.mu.Unlock()
}

// Snapshot returns the buffered events oldest-first without clearing them,
// plus the count of events the ring has overwritten.
func (t *Tracer) Snapshot() (events []Event, dropped uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.buffered(), t.dropped
}

// Drain returns the buffered events oldest-first and empties the ring.
func (t *Tracer) Drain() (events []Event, dropped uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	events, dropped = t.buffered(), t.dropped
	t.head, t.dropped = 0, 0
	return events, dropped
}

// buffered copies the ring's events oldest-first (t.mu held).
func (t *Tracer) buffered() []Event {
	n := t.head
	if n > uint64(len(t.buf)) {
		n = uint64(len(t.buf))
	}
	events := make([]Event, 0, n)
	for i := t.head - n; i < t.head; i++ {
		events = append(events, t.buf[i&uint64(len(t.buf)-1)])
	}
	return events
}

// eventMagicV1 headed the original binary event log (no source ids);
// eventMagic heads logs written today, which append a uvarint source id to
// every event. DecodeEvents accepts both, so logs captured before trace
// contexts existed still decode (with Src = 0 throughout).
const (
	eventMagicV1 = "TEAEVT1\n"
	eventMagic   = "TEAEVT2\n"
)

// EncodeEvents serializes events into the compact binary log format:
// the 8-byte magic, a uvarint event count, then per event a zigzag-varint
// edge delta against the previous event (timestamps are near-sorted, so
// deltas are small), the kind byte, a zigzag-varint state, a uvarint aux,
// and a uvarint source id (0 for kernel events, so the common case costs
// one byte). Encoding is a pure function of the event list, so identical
// replays produce identical logs.
func EncodeEvents(events []Event) []byte {
	out := make([]byte, 0, len(eventMagic)+10+len(events)*7)
	out = append(out, eventMagic...)
	out = binary.AppendUvarint(out, uint64(len(events)))
	prev := uint64(0)
	for i := range events {
		e := &events[i]
		out = binary.AppendVarint(out, int64(e.Edge-prev))
		prev = e.Edge
		out = append(out, byte(e.Kind))
		out = binary.AppendVarint(out, int64(e.State))
		out = binary.AppendUvarint(out, e.Aux)
		out = binary.AppendUvarint(out, uint64(e.Src))
	}
	return out
}

// EventDecodeError is the structured failure DecodeEvents returns for a
// truncated or corrupt log: where decoding stopped (byte offset into the
// log), which event was being decoded (-1 while still in the header), and
// why. A hostile log yields exactly one of these — never a panic, an
// allocation bomb, or an unbounded loop — which is what the wire-fault
// fuzz suite (FuzzDecodeEvents) asserts.
type EventDecodeError struct {
	Offset int    // byte offset into the log where decoding failed
	Event  int    // index of the event being decoded, -1 in the header
	Msg    string // what was wrong
}

// Error implements the error interface.
func (e *EventDecodeError) Error() string {
	if e.Event < 0 {
		return fmt.Sprintf("obs: event log header at offset %d: %s", e.Offset, e.Msg)
	}
	return fmt.Sprintf("obs: event %d at offset %d: %s", e.Event, e.Offset, e.Msg)
}

// decodeErrf builds an *EventDecodeError.
func decodeErrf(off, event int, format string, args ...any) *EventDecodeError {
	return &EventDecodeError{Offset: off, Event: event, Msg: fmt.Sprintf(format, args...)}
}

// DecodeEvents parses a binary event log produced by EncodeEvents. It
// validates the magic, the declared count against the available bytes, and
// every varint, so truncated or corrupt logs return a structured
// *EventDecodeError rather than garbage.
func DecodeEvents(data []byte) ([]Event, error) {
	if len(data) < len(eventMagic) {
		return nil, decodeErrf(0, -1, "not an event log (bad magic)")
	}
	var hasSrc bool
	switch string(data[:len(eventMagic)]) {
	case eventMagic:
		hasSrc = true
	case eventMagicV1:
		hasSrc = false
	default:
		return nil, decodeErrf(0, -1, "not an event log (bad magic)")
	}
	off := len(eventMagic)
	count, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return nil, decodeErrf(off, -1, "truncated event count")
	}
	off += n
	// Each event occupies at least 3 bytes (delta, kind, state/aux), so a
	// count larger than the remaining bytes allow is corrupt; reject it
	// before allocating.
	if count > uint64(len(data)-off)/3+1 {
		return nil, decodeErrf(off, -1, "event count %d exceeds log size", count)
	}
	events := make([]Event, 0, count)
	prev := uint64(0)
	for i := uint64(0); i < count; i++ {
		delta, n := binary.Varint(data[off:])
		if n <= 0 {
			return nil, decodeErrf(off, int(i), "truncated edge delta")
		}
		off += n
		if off >= len(data) {
			return nil, decodeErrf(off, int(i), "truncated kind")
		}
		kind := EventKind(data[off])
		off++
		state, n := binary.Varint(data[off:])
		if n <= 0 {
			return nil, decodeErrf(off, int(i), "truncated state")
		}
		off += n
		aux, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return nil, decodeErrf(off, int(i), "truncated aux")
		}
		off += n
		var src uint64
		if hasSrc {
			src, n = binary.Uvarint(data[off:])
			if n <= 0 {
				return nil, decodeErrf(off, int(i), "truncated source id")
			}
			if src > 1<<32-1 {
				return nil, decodeErrf(off, int(i), "source id %d out of range", src)
			}
			off += n
		}
		prev += uint64(delta)
		if state < -(1<<31) || state >= 1<<31 {
			return nil, decodeErrf(off, int(i), "state %d out of range", state)
		}
		events = append(events, Event{Edge: prev, Aux: aux, Src: uint32(src), State: int32(state), Kind: kind})
	}
	if off != len(data) {
		return nil, decodeErrf(off, int(count), "%d trailing bytes after %d events", len(data)-off, count)
	}
	return events, nil
}
