package server

import (
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Per-client token-bucket rate limiting, evaluated before the admission
// gate: admission protects the server from aggregate overload, while
// the limiter protects every other client from one hot one — a client
// past its budget is refused before it can take a queue position, so it
// cannot monopolize the admission queue and starve the rest.

// maxRateLimitClients bounds the bucket map; past it, full (idle)
// buckets are evicted, and if none are full the newcomer is charged
// against a fresh bucket that replaces the stalest one.
const maxRateLimitClients = 8192

type bucket struct {
	tokens float64
	last   time.Time
}

// rateLimiter is a per-client token bucket: each client accrues rate
// tokens per second up to burst, and each search spends one. All
// methods on a nil *rateLimiter are inert (limiting disabled).
type rateLimiter struct {
	rate  float64
	burst float64

	mu      sync.Mutex
	buckets map[string]*bucket
}

// newRateLimiter builds a limiter allowing rate requests/second with
// the given burst (0 = 2×rate, minimum 1). rate <= 0 disables limiting
// (returns nil).
func newRateLimiter(rate float64, burst int) *rateLimiter {
	if rate <= 0 {
		return nil
	}
	b := float64(burst)
	if burst <= 0 {
		b = math.Max(1, 2*rate)
	}
	return &rateLimiter{
		rate:    rate,
		burst:   b,
		buckets: make(map[string]*bucket),
	}
}

// take spends one token for key. When the bucket is empty it reports
// limited=true and how long until the next token accrues — the accurate
// Retry-After for the 429.
func (l *rateLimiter) take(key string, now time.Time) (wait time.Duration, limited bool) {
	if l == nil {
		return 0, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buckets[key]
	if b == nil {
		if len(l.buckets) >= maxRateLimitClients {
			l.evictLocked(now)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	} else {
		b.tokens = math.Min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return 0, false
	}
	need := (1 - b.tokens) / l.rate
	return time.Duration(need * float64(time.Second)), true
}

// evictLocked drops every bucket that has been idle long enough to
// refill completely (it holds no state a fresh bucket wouldn't), and
// failing that the single stalest bucket, so the map stays bounded even
// against an address-spinning client.
func (l *rateLimiter) evictLocked(now time.Time) {
	fillTime := time.Duration(l.burst / l.rate * float64(time.Second))
	var (
		stalest     string
		stalestLast time.Time
	)
	for key, b := range l.buckets {
		if now.Sub(b.last) >= fillTime {
			delete(l.buckets, key)
			continue
		}
		if stalest == "" || b.last.Before(stalestLast) {
			stalest, stalestLast = key, b.last
		}
	}
	if len(l.buckets) >= maxRateLimitClients && stalest != "" {
		delete(l.buckets, stalest)
	}
}

// clients reports the resident bucket count (monitoring).
func (l *rateLimiter) clients() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buckets)
}

// maxClientKeyBytes clamps a client-supplied rate-limit key: the bucket
// map bounds its entries (maxRateLimitClients), this bounds their bytes.
const maxClientKeyBytes = 128

// clientKey identifies the requester for rate limiting: the
// X-Client-Id header when present (multi-tenant callers behind one
// gateway), else the connection's client IP.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-Id"); id != "" {
		if len(id) > maxClientKeyBytes {
			id = id[:maxClientKeyBytes]
		}
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// retryAfterHeader renders a wait as a Retry-After header value.
func retryAfterHeader(wait time.Duration) string {
	return strconv.Itoa(clampRetryAfter(wait.Seconds()))
}
