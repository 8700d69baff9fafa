package obs

import (
	"net/http"
	"strings"
	"sync/atomic"
)

// Health is the process liveness/readiness state the serving layer
// publishes: Live means the process is not wedged (set false only on
// terminal shutdown), Ready means it is willing to admit new work (false
// while draining or before the first image is hosted). Both flags are
// plain atomics so health checks never contend with serving traffic.
type Health struct {
	live  atomic.Bool
	ready atomic.Bool
}

// NewHealth creates a Health that is live and not yet ready.
func NewHealth() *Health {
	h := &Health{}
	h.live.Store(true)
	return h
}

// SetLive records process liveness.
func (h *Health) SetLive(v bool) { h.live.Store(v) }

// SetReady records admission readiness.
func (h *Health) SetReady(v bool) { h.ready.Store(v) }

// Live reports process liveness.
func (h *Health) Live() bool { return h.live.Load() }

// Ready reports admission readiness.
func (h *Health) Ready() bool { return h.ready.Load() }

// HealthHandler serves the conventional probe endpoints over h: a request
// path ending in "readyz" checks readiness, anything else liveness;
// failing probes answer 503 so orchestrators stop routing to the replica.
func HealthHandler(h *Health) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ok := h.Live()
		if strings.HasSuffix(r.URL.Path, "readyz") {
			ok = h.Ready()
		}
		if !ok {
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
}
