package serve

import "time"

// Quota bounds what one tenant — and each of its sessions — may consume.
// Every limit fails loudly with a structured error instead of degrading
// the process: admission beyond MaxConcurrent is rejected with an explicit
// retry-after (bounded ingress, no unbounded buffering), and a session
// crossing its step/byte quota or deadline is terminated with the matching
// code while every other session keeps running.
type Quota struct {
	// MaxConcurrent caps a tenant's attached (actively served) sessions.
	// An Open beyond the cap is rejected with CodeBackpressure and a
	// RetryAfter hint. 0 selects DefaultMaxConcurrent.
	MaxConcurrent int
	// MaxParked caps a tenant's parked (resumable) sessions; beyond it the
	// oldest parked session is evicted (its resume token dies, a later
	// resume gets CodeUnknownSession). 0 selects DefaultMaxParked.
	MaxParked int
	// MaxSessionEdges caps stream edges per session (the step quota,
	// extending the PR 1 maxSteps guards to the service). 0 = unbounded.
	MaxSessionEdges uint64
	// MaxSessionBytes caps the Edges body bytes per session: 3.06 per
	// edge on e2ebench's sessions in the packed layout, 2.44 in the
	// legacy one. 0 = unbounded.
	MaxSessionBytes uint64
	// MaxSessionDesyncs classifies a completed session as failed — feeding
	// the image's circuit breaker — when its Desyncs exceed it. The session
	// itself still completes with correct degraded stats (desync is
	// graceful per-session degradation, not an error). 0 = never classify.
	MaxSessionDesyncs uint64
	// SessionTimeout is the per-session context deadline. 0 selects
	// DefaultSessionTimeout.
	SessionTimeout time.Duration
	// RetryAfter is the hint attached to backpressure rejections. 0
	// selects DefaultRetryAfter.
	RetryAfter time.Duration
}

// Quota defaults.
const (
	DefaultMaxConcurrent  = 8
	DefaultMaxParked      = 16
	DefaultSessionTimeout = time.Minute
	DefaultRetryAfter     = 50 * time.Millisecond
)

// withDefaults fills zero fields.
func (q Quota) withDefaults() Quota {
	if q.MaxConcurrent == 0 {
		q.MaxConcurrent = DefaultMaxConcurrent
	}
	if q.MaxParked == 0 {
		q.MaxParked = DefaultMaxParked
	}
	if q.SessionTimeout == 0 {
		q.SessionTimeout = DefaultSessionTimeout
	}
	if q.RetryAfter == 0 {
		q.RetryAfter = DefaultRetryAfter
	}
	return q
}

// tenant is the server-side record of one tenant: attached-session count
// for backpressure, the parked-session order for bounded resume state, and
// the tenant's pre-resolved metric cells. Guarded by Server.mu.
type tenant struct {
	name     string
	attached int
	conns    int        // live connections holding this tenant record
	parked   []*session // attach order; evicted oldest-first beyond MaxParked

	m tenantMetrics
}

// unpark removes s from the parked list (it is being resumed or evicted).
func (t *tenant) unpark(s *session) {
	for i, p := range t.parked {
		if p == s {
			t.parked = append(t.parked[:i], t.parked[i+1:]...)
			return
		}
	}
}
