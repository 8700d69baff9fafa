package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	tea "github.com/lsc-tea/tea"
	"github.com/lsc-tea/tea/internal/obs"
)

// captureStdout runs fn with os.Stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	fn()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestDumpEventsSourceColumn: the -events listing round-trips a log through
// the facade codec and renders the source-id column — a numeric id for
// attributed events, "-" for kernel events.
func TestDumpEventsSourceColumn(t *testing.T) {
	events := []tea.ObsEvent{
		{Edge: 4, Aux: 0x400, Src: 0, State: 2, Kind: 1}, // EvTraceEnter, unattributed
		{Edge: 9, Aux: 3, Src: 77, State: -1, Kind: 12},  // EvQuotaReject from session 77
	}
	path := filepath.Join(t.TempDir(), "trace.evlog")
	if err := os.WriteFile(path, tea.EncodeEvents(events), 0o644); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() { dumpEvents(path) })
	if !strings.Contains(out, "2 events") {
		t.Fatalf("header missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 3:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "src        -") || !strings.Contains(lines[1], "TraceEnter") {
		t.Fatalf("kernel event line wrong: %q", lines[1])
	}
	if !strings.Contains(lines[2], "src       77") || !strings.Contains(lines[2], "QuotaReject") {
		t.Fatalf("attributed event line wrong: %q", lines[2])
	}
}

// TestDumpFlightRoundTrip: an encoded flight artifact decodes and renders its trip metadata plus the embedded event suffix.
func TestDumpFlightRoundTrip(t *testing.T) {
	rec := tea.FlightRecord{
		Seq: 3, Reason: "session-fail", Src: 9, Err: "quota exhausted",
		Events: []tea.ObsEvent{
			{Edge: 100, Aux: 5, Src: 9, State: -1, Kind: 12}, // EvQuotaReject
			{Edge: 100, Aux: 5, Src: 9, State: -1, Kind: 11}, // EvSessionFail
		},
		Metrics: []byte(`[{"name":"tea_flight_trips_total","kind":"counter","value":1}]`),
	}
	path := filepath.Join(t.TempDir(), "flight.bin")
	if err := os.WriteFile(path, obs.EncodeFlight(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() { dumpFlight(path) })
	for _, want := range []string{
		"flight artifact #3",
		"reason:  session-fail",
		"source:  9",
		"error:   quota exhausted",
		"events:  2",
		"SessionFail",
		"QuotaReject",
		"metrics: ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("flight dump missing %q:\n%s", want, out)
		}
	}
	// A corrupt artifact must be rejected by the decoder, not rendered.
	data := obs.EncodeFlight(rec)
	if _, err := tea.DecodeFlight(data[:len(data)-2]); err == nil {
		t.Fatal("truncated artifact decoded")
	}
}
