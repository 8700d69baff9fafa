package obs

import (
	"net/http/httptest"
	"testing"
)

func TestHealthFlags(t *testing.T) {
	h := NewHealth()
	if !h.Live() {
		t.Fatal("fresh Health must be live")
	}
	if h.Ready() {
		t.Fatal("fresh Health must not be ready before the first image")
	}
	h.SetReady(true)
	h.SetLive(false)
	if h.Ready() != true || h.Live() != false {
		t.Fatalf("flags did not track sets: live=%v ready=%v", h.Live(), h.Ready())
	}
}

func TestHealthHandlerProbes(t *testing.T) {
	h := NewHealth()
	handler := HealthHandler(h)
	probe := func(path string) int {
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w.Code
	}
	if got := probe("/healthz"); got != 200 {
		t.Fatalf("live process: healthz = %d, want 200", got)
	}
	if got := probe("/readyz"); got != 503 {
		t.Fatalf("not-ready process: readyz = %d, want 503", got)
	}
	h.SetReady(true)
	if got := probe("/readyz"); got != 200 {
		t.Fatalf("ready process: readyz = %d, want 200", got)
	}
	h.SetLive(false)
	if got := probe("/healthz"); got != 503 {
		t.Fatalf("dead process: healthz = %d, want 503", got)
	}
}
