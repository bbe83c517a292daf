package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestRateLimiterTokenBucket(t *testing.T) {
	l := newRateLimiter(2, 3) // 2 tokens/s, burst 3
	now := time.Now()

	// The burst admits immediately; the next take is refused with an
	// accurate wait: 1 token at 2/s = 500ms.
	for i := 0; i < 3; i++ {
		if wait, limited := l.take("a", now); limited {
			t.Fatalf("take %d limited after %v", i, wait)
		}
	}
	wait, limited := l.take("a", now)
	if !limited {
		t.Fatal("4th take within the burst window admitted")
	}
	if wait < 450*time.Millisecond || wait > 550*time.Millisecond {
		t.Errorf("refusal wait %v, want ~500ms (1 token at 2/s)", wait)
	}

	// Other clients are untouched — limits are per key.
	if _, limited := l.take("b", now); limited {
		t.Error("fresh client limited by another client's spend")
	}

	// Tokens accrue over time, capped at the burst.
	if _, limited := l.take("a", now.Add(600*time.Millisecond)); limited {
		t.Error("refilled token not granted after 600ms")
	}
	for i := 0; i < 3; i++ {
		l.take("a", now.Add(time.Hour)) // refill to burst, spend it all
	}
	if _, limited := l.take("a", now.Add(time.Hour)); !limited {
		t.Error("burst cap not enforced after a long idle")
	}

	// Nil limiter is inert.
	var nilL *rateLimiter
	if _, limited := nilL.take("x", now); limited {
		t.Error("nil limiter limited a request")
	}
	if newRateLimiter(0, 5) != nil {
		t.Error("rate 0 should disable limiting")
	}
}

func TestRateLimiterEviction(t *testing.T) {
	l := newRateLimiter(100, 1)
	now := time.Now()
	for i := 0; i < maxRateLimitClients; i++ {
		l.take("client-"+strconv.Itoa(i), now)
	}
	if got := l.clients(); got != maxRateLimitClients {
		t.Fatalf("resident clients %d, want %d", got, maxRateLimitClients)
	}
	// The next new client must not grow the map past the bound: every
	// earlier bucket has fully refilled (burst/rate = 10ms) by +1s.
	l.take("overflow", now.Add(time.Second))
	if got := l.clients(); got > maxRateLimitClients {
		t.Errorf("bucket map grew past the bound: %d", got)
	}
}

func TestRetryAfterHeaderClamps(t *testing.T) {
	cases := []struct {
		wait time.Duration
		want string
	}{
		{0, "1"},
		{200 * time.Millisecond, "1"},
		{1001 * time.Millisecond, "2"},
		{5 * time.Minute, strconv.Itoa(maxRetryAfterSeconds)},
	}
	for _, c := range cases {
		if got := retryAfterHeader(c.wait); got != c.want {
			t.Errorf("retryAfterHeader(%v) = %s, want %s", c.wait, got, c.want)
		}
	}
}

func TestClientKey(t *testing.T) {
	r := httptest.NewRequest(http.MethodPost, "/search", nil)
	r.RemoteAddr = "10.1.2.3:54321"
	if got := clientKey(r); got != "10.1.2.3" {
		t.Errorf("clientKey by IP = %q", got)
	}
	r.Header.Set("X-Client-Id", "tenant-7")
	if got := clientKey(r); got != "tenant-7" {
		t.Errorf("clientKey with X-Client-Id = %q", got)
	}
}

// TestRetryAfterDerivation pins the shed Retry-After math: backlog ×
// mean service time / slots, ceil'd to seconds and clamped to
// [1, maxRetryAfterSeconds] — no more hardcoded "1".
func TestRetryAfterDerivation(t *testing.T) {
	a := newAdmission(2, 6, time.Second, newTelemetry())

	// No observed service time yet: the safe floor.
	if got := a.retryAfterSeconds(); got != 1 {
		t.Errorf("cold gate Retry-After = %d, want 1", got)
	}

	// Mean 500ms, 2 in flight + 6 queued = backlog 8, 2 slots:
	// 8 × 0.5s / 2 = 2s.
	a.serviceNs.Store((500 * time.Millisecond).Nanoseconds())
	a.slots <- struct{}{}
	a.slots <- struct{}{}
	a.queued.Store(6)
	if got := a.retryAfterSeconds(); got != 2 {
		t.Errorf("Retry-After = %d, want 2 (8 x 500ms / 2 slots)", got)
	}

	// Fractional waits round up: backlog 1 at 200ms mean is still 1s.
	a.queued.Store(0)
	<-a.slots
	<-a.slots
	a.serviceNs.Store((200 * time.Millisecond).Nanoseconds())
	if got := a.retryAfterSeconds(); got != 1 {
		t.Errorf("sub-second Retry-After = %d, want 1", got)
	}

	// A stalled drain clamps at the cap.
	a.serviceNs.Store((10 * time.Minute).Nanoseconds())
	a.queued.Store(6)
	if got := a.retryAfterSeconds(); got != maxRetryAfterSeconds {
		t.Errorf("stalled Retry-After = %d, want %d", got, maxRetryAfterSeconds)
	}

	// Disabled admission keeps the legacy floor.
	var nilA *admission
	if got := nilA.retryAfterSeconds(); got != 1 {
		t.Errorf("nil gate Retry-After = %d, want 1", got)
	}
}

// TestObserveServiceEWMA pins the drain-rate estimator: first sample
// adopted directly, later samples folded at alpha = 1/8.
func TestObserveServiceEWMA(t *testing.T) {
	a := newAdmission(1, 1, time.Second, newTelemetry())
	a.observeService(800)
	if got := a.serviceNs.Load(); got != 800 {
		t.Fatalf("first sample = %d, want 800", got)
	}
	a.observeService(1600)
	// 800 + (1600-800)/8 = 900.
	if got := a.serviceNs.Load(); got != 900 {
		t.Fatalf("EWMA after second sample = %d, want 900", got)
	}
}

// TestRateLimitBeforeAdmission drives the server end to end: a client
// past its budget gets 429 with the limiter's accurate Retry-After and
// the dedicated counter — and never consumes an admission queue
// position; an unrelated client keeps being served.
func TestRateLimitBeforeAdmission(t *testing.T) {
	sys, _, _ := newTestSystem(t, 12, 13)
	srv, err := New(Config{Sys: sys, RateLimit: 0.5, RateBurst: 2, MaxInFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	q, _ := json.Marshal(SearchRequest{Variables: []Variable{{Name: "temperature"}}, K: 3})

	do := func(clientID string) (int, http.Header) {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/search", bytes.NewReader(q))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Client-Id", clientID)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode, resp.Header
	}

	for i := 0; i < 2; i++ {
		if status, _ := do("hot"); status != http.StatusOK {
			t.Fatalf("within-burst request %d: %d", i, status)
		}
	}
	status, h := do("hot")
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-budget request: %d, want 429", status)
	}
	// 1 token at 0.5/s = 2s away.
	if ra := h.Get("Retry-After"); ra != "2" {
		t.Errorf("rate-limit Retry-After = %q, want 2 (1 token at 0.5/s)", ra)
	}
	if status, _ := do("cold"); status != http.StatusOK {
		t.Errorf("unrelated client limited: %d", status)
	}

	// The refusal is the limiter's, not the admission gate's: the shed
	// counter stays untouched and the dedicated one moved.
	var stats StatsResponse
	_, _, body := get(t, ts.URL+"/stats")
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Overload.RateLimited != 1 {
		t.Errorf("rateLimited = %d, want 1", stats.Overload.RateLimited)
	}
	if stats.Overload.Shed != 0 {
		t.Errorf("admission shed = %d, want 0 (rate limit runs first)", stats.Overload.Shed)
	}
	if stats.Overload.RateLimitClients < 2 {
		t.Errorf("rateLimitClients = %d, want >= 2", stats.Overload.RateLimitClients)
	}
	_, _, metrics := get(t, ts.URL+"/metrics")
	if !bytes.Contains(metrics, []byte("dnh_ratelimit_shed_total 1")) {
		t.Error("/metrics does not carry dnh_ratelimit_shed_total 1")
	}
}

// TestRequestBounds pins the two client-controlled sizes on the search
// path: a body past maxSearchBodyBytes is refused with 413 (and counted
// like any other 4xx), and an X-Client-Id past maxClientKeyBytes is
// clamped, so ids sharing the clamped prefix share one bucket and no
// bucket key is longer than the bound.
func TestRequestBounds(t *testing.T) {
	sys, _, _ := newTestSystem(t, 12, 13)
	srv, err := New(Config{Sys: sys, RateLimit: 0.001, RateBurst: 1})
	if err != nil {
		t.Fatal(err)
	}
	handler := srv.Handler()
	const query = `{"variables":[{"name":"temperature"}],"k":3}`
	// Leading whitespace the decoder must read through to reach the query.
	padded := func(n int) string { return strings.Repeat(" ", n-len(query)) + query }
	longID := strings.Repeat("t", maxClientKeyBytes)

	cases := []struct {
		name, clientID, body string
		want                 int
	}{
		{"body at the cap", "at-cap", padded(maxSearchBodyBytes), http.StatusOK},
		{"body past the cap", "past-cap", padded(maxSearchBodyBytes + 1), http.StatusRequestEntityTooLarge},
		{"client id past the bound", longID + "-first", query, http.StatusOK},
		{"same clamped prefix, same bucket", longID + "-second", query, http.StatusTooManyRequests},
	}
	for _, c := range cases {
		r := httptest.NewRequest(http.MethodPost, "/search", strings.NewReader(c.body))
		r.Header.Set("X-Client-Id", c.clientID)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, r)
		if rec.Code != c.want {
			t.Errorf("%s: status %d body %.200s, want %d", c.name, rec.Code, rec.Body, c.want)
		}
	}
	if got := srv.tel.endpoints[epSearch].errors.Value(); got != 2 {
		t.Errorf("/search error count = %d, want 2 (the 413 and the 429)", got)
	}
	srv.limiter.mu.Lock()
	defer srv.limiter.mu.Unlock()
	if len(srv.limiter.buckets) != 3 {
		t.Errorf("resident buckets = %d, want 3 (two long ids share one)", len(srv.limiter.buckets))
	}
	for key := range srv.limiter.buckets {
		if len(key) > maxClientKeyBytes {
			t.Errorf("bucket key of %d bytes, want <= %d", len(key), maxClientKeyBytes)
		}
	}
}
