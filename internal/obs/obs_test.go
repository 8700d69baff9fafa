package obs

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

// emitScenario ingests one synthetic replay: an 8-edge trace visit
// containing a probe-and-link, then a desync healed 4 edges later.
func emitScenario(o *Obs) {
	o.IngestReplay([]Event{
		{Edge: 10, Aux: 0x4000, State: 3, Kind: EvTraceEnter},
		{Edge: 14, Aux: 2, State: 3, Kind: EvCacheMissProbe},
		{Edge: 14, Aux: 0x4100, State: 5, Kind: EvEntryTableHit},
		{Edge: 18, Aux: 0x4200, State: 5, Kind: EvTraceExit},
		{Edge: 20, Aux: 0x4300, State: 5, Kind: EvDesync},
		{Edge: 21, Aux: 0x4310, State: 5, Kind: EvDesync}, // nested: must not reopen the gap window
	})
	// A later batch closes the window the first one opened.
	o.IngestReplay([]Event{{Edge: 24, Aux: 0x4400, State: 2, Kind: EvResync}})
}

func TestEmittersDeriveHistograms(t *testing.T) {
	o := New()
	emitScenario(o)

	if _, count, sum := o.Replay.VisitEdges.Buckets(); count != 1 || sum != 8 {
		t.Fatalf("visit histogram: count=%d sum=%d, want 1/8", count, sum)
	}
	if _, count, sum := o.Replay.ResyncGap.Buckets(); count != 1 || sum != 4 {
		t.Fatalf("gap histogram: count=%d sum=%d, want 1/4 (first desync opens the window)", count, sum)
	}
	if _, count, sum := o.Replay.ProbeDepth.Buckets(); count != 1 || sum != 2 {
		t.Fatalf("probe histogram: count=%d sum=%d, want 1/2", count, sum)
	}
	events, dropped := o.Tracer.Snapshot()
	if dropped != 0 || len(events) != 7 {
		t.Fatalf("ring: %d events, %d dropped", len(events), dropped)
	}
}

func TestEdgeClock(t *testing.T) {
	o := New()
	o.AdvanceEdges(2)
	if o.EdgeBase() != 2 {
		t.Fatalf("EdgeBase after 2 edges = %d", o.EdgeBase())
	}
	o.AdvanceEdges(10)
	if o.EdgeBase() != 12 {
		t.Fatalf("EdgeBase after batch = %d", o.EdgeBase())
	}
}

func TestSpanNilSafe(t *testing.T) {
	sp := NewSpanTimer(nil, "whatever").Start()
	sp.End() // must not panic

	o := New()
	sp = NewSpanTimer(o, "record_sync").Start()
	sp.End()
	calls := o.Reg.Counter("tea_span_record_sync_calls_total", "")
	if calls.Value() != 1 {
		t.Fatalf("span calls = %d, want 1", calls.Value())
	}
}

func TestHTTPHandlerEndpoints(t *testing.T) {
	o := New()
	o.Replay.Blocks.Add(42)
	o.IngestReplay([]Event{{Edge: 5, Aux: 0x4000, State: 1, Kind: EvTraceEnter}})
	srv := httptest.NewServer(Handler(o))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "tea_replay_blocks_total 42") {
		t.Fatalf("/metrics: code=%d body=%q", code, body)
	}
	if code, body := get("/metrics.json"); code != 200 || !strings.Contains(body, "tea_replay_blocks_total") {
		t.Fatalf("/metrics.json: code=%d", code)
	} else {
		var v []map[string]any
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatalf("/metrics.json invalid: %v", err)
		}
	}
	code, body := get("/debug/events")
	if code != 200 {
		t.Fatalf("/debug/events: code=%d", code)
	}
	var ev struct {
		Dropped uint64
		Events  []struct {
			Edge  uint64
			Kind  string
			State int32
			Aux   uint64
		}
	}
	if err := json.Unmarshal([]byte(body), &ev); err != nil {
		t.Fatalf("/debug/events invalid: %v", err)
	}
	if len(ev.Events) != 1 || ev.Events[0].Kind != "TraceEnter" || ev.Events[0].Edge != 5 {
		t.Fatalf("/debug/events content: %+v", ev)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "profile") {
		t.Fatalf("/debug/pprof/: code=%d", code)
	}
}
