package server

import (
	"context"
	"math"
	"sync/atomic"
	"time"
)

// DefaultQueueWait bounds how long an over-limit search request may sit
// in the admission queue before it is shed.
const DefaultQueueWait = 50 * time.Millisecond

// sheddingWindow is how long after the last shed /readyz keeps
// reporting the instance as shedding — long enough for a load balancer
// polling every few seconds to notice a burst it would otherwise miss.
const sheddingWindow = 5 * time.Second

// shedReason labels why a request was refused admission.
type shedReason int

const (
	shedNone shedReason = iota
	// shedQueueFull: the in-flight limit and the wait queue were both
	// full — the instant, sub-millisecond shed path.
	shedQueueFull
	// shedWaitTimeout: the request queued but no slot freed within the
	// wait bound.
	shedWaitTimeout
	// shedClientGone: the client disconnected (or its deadline expired)
	// while queued.
	shedClientGone
)

func (r shedReason) String() string {
	switch r {
	case shedQueueFull:
		return "queue_full"
	case shedWaitTimeout:
		return "wait_timeout"
	case shedClientGone:
		return "client_gone"
	}
	return "none"
}

// admission is the bounded-concurrency gate in front of the search
// endpoints: at most max requests execute at once, at most depth more
// wait (FIFO — blocked channel sends are released in arrival order by
// the runtime) for up to wait, and everything past that is shed
// immediately with 429. Shedding does no search work, so a saturated
// server answers excess load in microseconds instead of convoying it.
type admission struct {
	max   int
	depth int
	wait  time.Duration

	slots  chan struct{}
	queued atomic.Int64

	// tel counts the gate's outcomes (admitted, waited, shed by reason);
	// everything below is state the gate itself reads.
	tel          *telemetry
	peakInFlight atomic.Int64
	lastShedNs   atomic.Int64 // UnixNano of the most recent shed
	// Queue-full shed decision time (entry to refusal), server-side: the
	// proof that shedding does no work. Client-observed shed latency also
	// includes the network and both sides' scheduling.
	shedFullSumNs atomic.Int64
	shedFullMaxNs atomic.Int64
	// serviceNs is an EWMA of admitted requests' slot-hold time — the
	// observed drain rate the Retry-After derivation feeds on.
	serviceNs atomic.Int64
}

// newAdmission builds the gate. max <= 0 disables admission control
// (returns nil; all methods on a nil *admission are inert and admit).
// depth 0 defaults to 2*max; negative depth means no wait queue.
func newAdmission(max, depth int, wait time.Duration, tel *telemetry) *admission {
	if max <= 0 {
		return nil
	}
	if depth == 0 {
		depth = 2 * max
	}
	if depth < 0 {
		depth = 0
	}
	if wait <= 0 {
		wait = DefaultQueueWait
	}
	return &admission{
		max:   max,
		depth: depth,
		wait:  wait,
		slots: make(chan struct{}, max),
		tel:   tel,
	}
}

// acquire admits the request (returning a release func) or sheds it
// (returning a reason). The fast paths — free slot, or full queue — do
// not touch the clock beyond a timer allocation avoided entirely.
func (a *admission) acquire(ctx context.Context) (release func(), reason shedReason) {
	if a == nil {
		return func() {}, shedNone
	}
	t0 := time.Now()
	select {
	case a.slots <- struct{}{}:
		return a.admit(false), shedNone
	default:
	}
	// No free slot: take a queue position or shed on the spot.
	if a.queued.Add(1) > int64(a.depth) {
		a.queued.Add(-1)
		a.shed(shedQueueFull)
		d := time.Since(t0).Nanoseconds()
		a.shedFullSumNs.Add(d)
		for {
			cur := a.shedFullMaxNs.Load()
			if d <= cur || a.shedFullMaxNs.CompareAndSwap(cur, d) {
				break
			}
		}
		return nil, shedQueueFull
	}
	timer := time.NewTimer(a.wait)
	defer timer.Stop()
	select {
	case a.slots <- struct{}{}:
		a.queued.Add(-1)
		return a.admit(true), shedNone
	case <-timer.C:
		a.queued.Add(-1)
		a.shed(shedWaitTimeout)
		return nil, shedWaitTimeout
	case <-ctx.Done():
		a.queued.Add(-1)
		a.shed(shedClientGone)
		return nil, shedClientGone
	}
}

func (a *admission) admit(queuedFirst bool) func() {
	a.tel.admitted.Inc()
	if queuedFirst {
		a.tel.waited.Inc()
	}
	// len on a buffered channel is approximate under concurrency, but
	// the watermark only needs to be monotone and close.
	if n := int64(len(a.slots)); n > a.peakInFlight.Load() {
		a.peakInFlight.Store(n)
	}
	t0 := time.Now()
	return func() {
		a.observeService(time.Since(t0).Nanoseconds())
		<-a.slots
	}
}

// observeService folds one admitted request's slot-hold time into the
// service-time EWMA (α = 1/8). A lost CAS race just drops one sample.
func (a *admission) observeService(ns int64) {
	for range 4 {
		old := a.serviceNs.Load()
		next := old + (ns-old)/8
		if old == 0 {
			next = ns
		}
		if a.serviceNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// maxRetryAfterSeconds caps the derived Retry-After: past it the
// backlog estimate says more about a stall than a drain rate, and
// clients should not be told to go away for minutes.
const maxRetryAfterSeconds = 30

// retryAfterSeconds derives the Retry-After hint for a shed response
// from the observed queue drain rate: the backlog ahead of a returning
// client (requests holding slots plus requests queued) drains at max
// slots per mean service time, so the expected wait is
// backlog × mean / max. Before any request has completed (no mean yet)
// it falls back to 1.
func (a *admission) retryAfterSeconds() int {
	if a == nil {
		return 1
	}
	mean := a.serviceNs.Load()
	if mean <= 0 {
		return 1
	}
	backlog := max(a.inFlight()+a.queued.Load(), 1)
	return clampRetryAfter(float64(backlog) * float64(mean) / float64(a.max) / float64(time.Second))
}

// clampRetryAfter turns an expected wait in seconds into a Retry-After
// value: whole seconds, rounded up (a client returning too early would
// only be refused again), within [1, maxRetryAfterSeconds].
func clampRetryAfter(seconds float64) int {
	return max(int(math.Ceil(min(seconds, maxRetryAfterSeconds))), 1)
}

func (a *admission) shed(reason shedReason) {
	a.tel.shed[reason].Inc()
	a.lastShedNs.Store(time.Now().UnixNano())
}

// inFlight reports the slots currently held.
func (a *admission) inFlight() int64 {
	if a == nil {
		return 0
	}
	return int64(len(a.slots))
}

// queueLen reports the requests waiting for a slot.
func (a *admission) queueLen() int64 {
	if a == nil {
		return 0
	}
	return a.queued.Load()
}

// limit reports the configured slot count; 0 means no gate.
func (a *admission) limit() int {
	if a == nil {
		return 0
	}
	return a.max
}

// shedding reports whether the gate is refusing (or was recently
// refusing) work: the wait queue is at capacity right now, or a shed
// happened within sheddingWindow. This is the /readyz drain signal — a
// balancer that stops routing here sheds nothing a user sees.
func (a *admission) shedding() bool {
	if a == nil {
		return false
	}
	if a.depth > 0 && a.queued.Load() >= int64(a.depth) {
		return true
	}
	last := a.lastShedNs.Load()
	return last > 0 && time.Since(time.Unix(0, last)) < sheddingWindow
}
