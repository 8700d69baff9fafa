package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/verify"
)

// Image is one immutable generation of a hosted automaton. Sessions pin
// the *Image they opened against, so a generation swap never mutates
// anything a live session can observe — the PR 4 invalidation discipline
// lifted to the service: swap pointers, never edit in place.
type Image struct {
	Name      string
	Gen       uint64
	Automaton *core.Automaton
	Compiled  *core.Compiled
}

// imageEntry is the mutable slot behind one image name: the current
// generation (atomically swapped on publish), the program images decode
// against, and the entry's circuit breaker.
type imageEntry struct {
	cur     atomic.Pointer[Image]
	program *isa.Program
	brk     *breaker
}

// Store hosts the fleet of named images. All methods are safe for
// concurrent use; Get is a lock-free pointer load on the hot path.
type Store struct {
	mu      sync.RWMutex
	images  map[string]*imageEntry
	lookup  core.LookupConfig
	brkThr  int
	brkCool time.Duration
	now     func() time.Time
}

// NewStore creates an empty store. Sessions replay with lookup's Local
// configuration; breakerThreshold consecutive failed sessions quarantine
// an image for breakerCooldown before a verify-gated readmission
// (threshold <= 0 disables the breaker).
func NewStore(lookup core.LookupConfig, breakerThreshold int, breakerCooldown time.Duration) *Store {
	return &Store{
		images: make(map[string]*imageEntry),
		lookup: lookup,
		brkThr: breakerThreshold, brkCool: breakerCooldown,
		now: time.Now,
	}
}

// Add hosts an automaton under name with generation 1. The automaton is
// statically verified before admission — the store never serves an image
// it cannot prove; the same gate guards Publish and breaker readmission.
func (s *Store) Add(name string, p *isa.Program, a *core.Automaton) error {
	c, serr := s.admitVerify(a, p)
	if serr != nil {
		return serr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.images[name]; ok {
		return errf(CodeBadImage, "image %q already hosted", name)
	}
	e := &imageEntry{program: p, brk: newBreaker(s.brkThr, s.brkCool, s.now)}
	e.cur.Store(&Image{Name: name, Gen: 1, Automaton: a, Compiled: c})
	s.images[name] = e
	return nil
}

// admitVerify is the static admission gate: automaton rules against the
// program image plus the full compiled-form audit. It returns the compiled
// form the audit proved, so admission never compiles twice.
func (s *Store) admitVerify(a *core.Automaton, p *isa.Program) (*core.Compiled, *Error) {
	var cache *cfg.Cache
	if p != nil {
		cache = cfg.NewCache(p, cfg.StarDBT)
	}
	c, r := verify.AdmitAutomaton(a, cache, s.lookup)
	if err := r.Err(); err != nil {
		return nil, errf(CodeBadImage, "verification failed: %v", err)
	}
	return c, nil
}

// lookupEntry returns the entry for name.
func (s *Store) lookupEntry(name string) (*imageEntry, *Error) {
	s.mu.RLock()
	e, ok := s.images[name]
	s.mu.RUnlock()
	if !ok {
		return nil, errf(CodeUnknownImage, "image %q not hosted", name)
	}
	return e, nil
}

// Get returns the current generation of name for a new session, enforcing
// the circuit breaker: a quarantined image is rejected with
// CodeQuarantined (retry-after = remaining cooldown), except that once the
// cooldown has elapsed the open attempt triggers a static re-verification
// of the current generation — pass readmits the image, findings re-arm the
// quarantine. The re-verify runs on the opener's goroutine: admission cost
// lands on the tenant asking, never on sessions already running.
func (s *Store) Get(name string) (*Image, *Error) {
	e, serr := s.lookupEntry(name)
	if serr != nil {
		return nil, serr
	}
	ok, verifyDue := e.brk.admit()
	if !ok {
		if verifyDue {
			img := e.cur.Load()
			_, verr := s.admitVerify(img.Automaton, e.program)
			clean := verr == nil
			e.brk.verdict(clean)
			if clean {
				return img, nil
			}
		}
		retry := e.brk.remaining()
		if retry <= 0 {
			retry = time.Millisecond
		}
		return nil, errRetry(CodeQuarantined, retry, "image %q quarantined", name)
	}
	return e.cur.Load(), nil
}

// Peek returns the current generation of name without consulting the
// breaker (metrics, resumed sessions that already hold a pin).
func (s *Store) Peek(name string) (*Image, *Error) {
	e, serr := s.lookupEntry(name)
	if serr != nil {
		return nil, serr
	}
	return e.cur.Load(), nil
}

// Publish admits a serialized TEA as the image's next generation: decode
// against the hosted program, statically verify end-to-end, compile, and
// atomically swap. A successful publish resets the circuit breaker — the
// failure evidence that tripped it described the previous generation.
func (s *Store) Publish(name string, data []byte) (uint64, *Error) {
	e, serr := s.lookupEntry(name)
	if serr != nil {
		return 0, serr
	}
	// The generation swapped in is exactly the automaton and compiled form
	// the verifier proved: one decode, one compile.
	a, c, r := verify.AdmitImage(data, cfg.NewCache(e.program, cfg.StarDBT), s.lookup)
	if err := r.Err(); err != nil {
		return 0, errf(CodeBadImage, "publish rejected: %v", err)
	}

	s.mu.Lock()
	old := e.cur.Load()
	next := &Image{Name: name, Gen: old.Gen + 1, Automaton: a, Compiled: c}
	e.cur.Store(next)
	s.mu.Unlock()
	e.brk.reset()
	return next.Gen, nil
}

// Result records a finished session against the image, feeding the
// breaker. It returns true when this failure tripped the quarantine.
func (s *Store) Result(name string, failed bool) bool {
	e, serr := s.lookupEntry(name)
	if serr != nil {
		return false
	}
	return e.brk.result(failed)
}
