package obs

import (
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
)

// Handler builds the observability HTTP mux for one context:
//
//	/metrics          Prometheus text exposition
//	/metrics.json     the same registry as deterministic JSON
//	/debug/events     JSON snapshot of the event ring (non-destructive)
//	/debug/flight     JSON index of retained flight-recorder artifacts
//	/debug/flight/N   one binary artifact (N = seq or "last"), for teadump -flight
//	/debug/pprof/*    the standard net/http/pprof profiles
//
// teaprof -serve mounts this on a loopback listener; nothing here touches
// the replay hot path beyond the registry's aggregate-on-read sums.
func Handler(o *Obs) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = o.Reg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = o.Reg.WriteJSON(w)
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		events, dropped := o.Tracer.Snapshot()
		type jsonEvent struct {
			Edge  uint64 `json:"edge"`
			Kind  string `json:"kind"`
			Src   uint32 `json:"src,omitempty"`
			State int32  `json:"state"`
			Aux   uint64 `json:"aux"`
		}
		out := struct {
			Dropped uint64      `json:"dropped"`
			Events  []jsonEvent `json:"events"`
		}{Dropped: dropped, Events: make([]jsonEvent, 0, len(events))}
		for _, e := range events {
			out.Events = append(out.Events, jsonEvent{
				Edge: e.Edge, Kind: e.Kind.String(), Src: e.Src, State: e.State, Aux: e.Aux,
			})
		}
		w.Header().Set("Content-Type", "application/json")
		_ = writeJSON(w, out)
	})
	// /debug/flight is the post-mortem index: one JSON row per retained
	// artifact. /debug/flight/<seq> (or /debug/flight/last) serves the
	// binary artifact itself, decodable offline by teadump -flight.
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		type jsonRec struct {
			Seq     uint64 `json:"seq"`
			Reason  string `json:"reason"`
			Src     uint32 `json:"src,omitempty"`
			Err     string `json:"err,omitempty"`
			Events  int    `json:"events"`
			Dropped uint64 `json:"dropped,omitempty"`
		}
		recs := o.Flight.Records()
		out := struct {
			Trips   uint64    `json:"trips"`
			Records []jsonRec `json:"records"`
		}{Trips: o.Flight.Trips(), Records: make([]jsonRec, 0, len(recs))}
		for _, rec := range recs {
			out.Records = append(out.Records, jsonRec{
				Seq: rec.Seq, Reason: rec.Reason, Src: rec.Src, Err: rec.Err,
				Events: len(rec.Events), Dropped: rec.Dropped,
			})
		}
		w.Header().Set("Content-Type", "application/json")
		_ = writeJSON(w, out)
	})
	mux.HandleFunc("/debug/flight/", func(w http.ResponseWriter, r *http.Request) {
		want := strings.TrimPrefix(r.URL.Path, "/debug/flight/")
		var rec FlightRecord
		var ok bool
		if want == "last" {
			rec, ok = o.Flight.Last()
		} else if seq, err := strconv.ParseUint(want, 10, 64); err == nil {
			for _, cand := range o.Flight.Records() {
				if cand.Seq == seq {
					rec, ok = cand, true
					break
				}
			}
		}
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(EncodeFlight(rec))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
