package pipeline

import (
	"runtime"
	"sync/atomic"
)

// spinChecks is how many times a waiting side re-checks its condition,
// giving up the processor between checks, before it parks. A busy pipeline
// mostly waits less than a chunk's scan, inside the spin; parking is for
// longer waits and for the idle pipeline.
const spinChecks = 64

// parker is the pipeline's one wake-up primitive, shared by every waiting
// side: scan workers wait for published chunks, the drain for the next
// sequence number's result, and the producer for a recycled buffer
// (getChunk) or a drained count (quiesce). A waiter spins briefly on its
// condition, then registers, re-checks, and blocks on the token channel.
// The side that makes a condition true calls wake, which sends a token only
// when a waiter has registered, so a signal costs one atomic load while
// nobody waits. Nothing sleeps on a timer, and a parked goroutine costs no
// CPU.
//
// A wait is a loop the caller writes around its own condition, so a check
// may claim what it finds (pop a ring slot):
//
//	n := 0
//	for !cond() {
//		n = k.pause(n)
//	}
//	k.done(n)
//
// No wake-up is lost. The registration and the condition are both
// sequentially consistent atomics, and the waiter registers before its
// re-check while the signaler makes the condition true before its load of
// the registration: either the re-check sees the condition, or the load
// sees the waiter and a token is sent. A waiter stays registered from then
// until done, re-checking after every token. The channel holds one token
// per possible waiter, so a send that finds it full is redundant: every
// parked waiter already has a token to take. A token can outlive its
// waiter (the re-check won first); a later wait then wakes once for
// nothing, re-checks, and parks again.
type parker struct {
	waiters atomic.Int32
	tok     chan struct{}
	// registering, when set, runs on the registration step just before the
	// waiter registers — never while spinning. It is nil in production;
	// tests set it to signal inside the window between a waiter's last
	// failed check and its registration, the window the re-check closes.
	registering func()
}

// init sizes the token channel for at most n concurrent waiters.
func (k *parker) init(n int) { k.tok = make(chan struct{}, n) }

// pause is one step of a wait after a failed check of the condition: a
// yield while spinning, then registration as a waiter (the caller re-checks
// before the next pause), then a block until a token arrives. n is the
// previous pause's result, 0 for the first.
func (k *parker) pause(n int) int {
	switch {
	case n < spinChecks:
		runtime.Gosched()
	case n == spinChecks:
		if k.registering != nil {
			k.registering()
		}
		k.waiters.Add(1)
	default:
		<-k.tok
		return n
	}
	return n + 1
}

// done ends a wait whose condition now holds; n is the last pause's result.
func (k *parker) done(n int) {
	if n > spinChecks {
		k.waiters.Add(-1)
	}
}

// wake signals one waiter, if any has registered. Call it after making a
// waiter's condition true.
func (k *parker) wake() {
	if k.waiters.Load() != 0 {
		select {
		case k.tok <- struct{}{}:
		default:
		}
	}
}

// wakeAll fills the token channel, so every parked waiter wakes and
// re-checks its condition.
func (k *parker) wakeAll() {
	for i := cap(k.tok); i > 0; i-- {
		select {
		case k.tok <- struct{}{}:
		default:
			return
		}
	}
}
