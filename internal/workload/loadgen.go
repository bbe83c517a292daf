package workload

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"
)

// This file is the serving-side load generator: it replays query
// workloads against a running dnhd server over HTTP and reports
// throughput, latency percentiles, and per-status/per-cache-state
// accounting — what cmd/dnhload prints. The offline side of the
// package judges ranking quality; this side measures the serving layer
// itself. It speaks raw HTTPRequests (no dependency on
// the server package, which the experiment harness must be able to
// import this package without).
//
// Two replay modes:
//
//   - closed loop (default): Concurrency workers, each issuing the next
//     request when its previous one finishes. Offered load adapts to the
//     server — good for measuring capacity, useless for overloading it.
//   - open loop (Arrivals set): request i is launched at start +
//     Arrivals[i] regardless of completions, so offered load is fixed by
//     the schedule. This is what creates real overload: a slow server
//     faces a growing backlog instead of a politely waiting client.

// LoadOptions tunes a replay run.
type LoadOptions struct {
	// Concurrency is the number of in-flight requests (default 1).
	// Ignored in open-loop mode.
	Concurrency int
	// Timeout bounds each request (default 30s).
	Timeout time.Duration
	// Arrivals, when non-empty, switches Replay to an open-loop
	// schedule: request i is issued at start+Arrivals[i] (offsets must
	// be non-decreasing; len must equal len(reqs)).
	Arrivals []time.Duration
	// MaxOutstanding caps the requests the open-loop generator holds in
	// flight at once (default 512); the dispatcher stalls at the cap, so
	// a collapsed server throttles the generator instead of exhausting
	// its file descriptors.
	MaxOutstanding int
	// TolerateClientErrors stops 4xx responses (other than 429, which is
	// never an error) from counting as replay errors — for hostile-mix
	// runs where rejections are the expected outcome.
	TolerateClientErrors bool
}

// StatusCounts classifies responses for the overload report. Shed429 is
// broken out of the 4xx class: sheds are the admission gate working as
// designed, not client mistakes.
type StatusCounts struct {
	OK2xx     int `json:"ok2xx"`
	Shed429   int `json:"shed429"`
	Client4xx int `json:"client4xx"`
	Server5xx int `json:"server5xx"`
	// Transport counts requests with no HTTP status at all (dial/read
	// failures, client-side timeouts).
	Transport int `json:"transport"`
}

// LoadStats summarizes one replay run. Latencies are client-observed,
// percentiles computed exactly from every recorded request.
type LoadStats struct {
	Requests    int     `json:"requests"`
	Errors      int     `json:"errors"`
	DurationSec float64 `json:"durationSec"`
	QPS         float64 `json:"qps"`
	P50Ms       float64 `json:"p50Ms"`
	P90Ms       float64 `json:"p90Ms"`
	P99Ms       float64 `json:"p99Ms"`
	MaxMs       float64 `json:"maxMs"`
	// Status classifies every response; CacheStates counts the server's
	// X-Dnhd-Cache headers (hit/miss/stale/collapsed/bypass/timeout).
	Status      StatusCounts   `json:"status"`
	CacheStates map[string]int `json:"cacheStates,omitempty"`
	// Partials counts responses flagged X-Dnhd-Partial (deadline expired
	// mid-search; HTTP 200 with partial:true).
	Partials int `json:"partials"`
	// ShedRate is Shed429 / Requests.
	ShedRate float64 `json:"shedRate"`
}

// HTTPRequest is one replayable request.
type HTTPRequest struct {
	Method string
	URL    string
	Body   []byte
	// Header holds extra request headers (e.g. X-Deadline-Ms).
	Header map[string]string
}

// outcome is one issued request's record; slots are written disjointly
// by index, so no lock is needed.
type outcome struct {
	latency time.Duration
	status  int
	cache   string
	partial bool
	ok      bool
}

// Replay issues the requests — closed-loop over Concurrency workers, or
// open-loop when opts.Arrivals is set — and gathers LoadStats. A
// response counts as an error when the transport fails, the status is
// 5xx, a 2xx body is empty, or (unless TolerateClientErrors) the status
// is 4xx other than 429; replay continues regardless. 429 sheds are
// never errors: they are measured, not failed.
func Replay(ctx context.Context, reqs []HTTPRequest, opts LoadOptions) (LoadStats, error) {
	if len(reqs) == 0 {
		return LoadStats{}, fmt.Errorf("workload: no requests to replay")
	}
	if len(opts.Arrivals) > 0 && len(opts.Arrivals) != len(reqs) {
		return LoadStats{}, fmt.Errorf("workload: %d arrivals for %d requests", len(opts.Arrivals), len(reqs))
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	// A dedicated transport with an idle pool sized to the replay's
	// concurrency: the default transport keeps only two idle conns per
	// host, so a high-concurrency replay would redial per request and
	// the measured backlog would form in connection setup instead of at
	// the server's admission gate.
	conns := opts.Concurrency
	if len(opts.Arrivals) > 0 {
		conns = opts.MaxOutstanding
		if conns <= 0 {
			conns = 512
		}
	}
	if conns < 2 {
		conns = 2
	}
	transport := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     90 * time.Second,
	}
	defer transport.CloseIdleConnections()
	client := &http.Client{Timeout: timeout, Transport: transport}

	outcomes := make([]outcome, len(reqs))
	var elapsed time.Duration
	if len(opts.Arrivals) > 0 {
		elapsed = replayOpen(ctx, client, reqs, opts, outcomes)
	} else {
		elapsed = replayClosed(ctx, client, reqs, opts, outcomes)
	}
	if err := ctx.Err(); err != nil {
		return LoadStats{}, err
	}
	return aggregate(outcomes, opts, elapsed), nil
}

// replayClosed is the fixed-concurrency worker pool: each request index
// is dispatched exactly once, so workers write disjoint outcome slots.
func replayClosed(ctx context.Context, client *http.Client, reqs []HTTPRequest, opts LoadOptions, outcomes []outcome) time.Duration {
	conc := opts.Concurrency
	if conc <= 0 {
		conc = 1
	}
	if conc > len(reqs) {
		conc = len(reqs)
	}
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				outcomes[i] = issue(ctx, client, reqs[i])
			}
		}()
	}
	for i := range reqs {
		select {
		case work <- i:
		case <-ctx.Done():
			close(work)
			wg.Wait()
			return time.Since(start)
		}
	}
	close(work)
	wg.Wait()
	return time.Since(start)
}

// replayOpen launches request i at start+Arrivals[i] on its own
// goroutine. The dispatcher sleeps between offsets and blocks at
// MaxOutstanding; schedule slip (dispatch later than the offset) is
// load-generator backpressure, visible as a QPS below the schedule's.
func replayOpen(ctx context.Context, client *http.Client, reqs []HTTPRequest, opts LoadOptions, outcomes []outcome) time.Duration {
	maxOut := opts.MaxOutstanding
	if maxOut <= 0 {
		maxOut = 512
	}
	sem := make(chan struct{}, maxOut)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		if d := opts.Arrivals[i] - time.Since(start); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			outcomes[i] = issue(ctx, client, reqs[i])
		}(i)
	}
	wg.Wait()
	return time.Since(start)
}

func aggregate(outcomes []outcome, opts LoadOptions, elapsed time.Duration) LoadStats {
	stats := LoadStats{
		Requests:    len(outcomes),
		DurationSec: elapsed.Seconds(),
		CacheStates: make(map[string]int),
	}
	all := make([]time.Duration, len(outcomes))
	for i, o := range outcomes {
		all[i] = o.latency
		if o.cache != "" {
			stats.CacheStates[o.cache]++
		}
		if o.partial {
			stats.Partials++
		}
		switch {
		case o.status == 0:
			stats.Status.Transport++
			stats.Errors++
		case o.status == http.StatusTooManyRequests:
			stats.Status.Shed429++
		case o.status >= 500:
			stats.Status.Server5xx++
			stats.Errors++
		case o.status >= 400:
			stats.Status.Client4xx++
			if !opts.TolerateClientErrors {
				stats.Errors++
			}
		default:
			stats.Status.OK2xx++
			if !o.ok {
				stats.Errors++ // 2xx with an empty body
			}
		}
	}
	if stats.Requests > 0 {
		stats.ShedRate = float64(stats.Status.Shed429) / float64(stats.Requests)
	}
	if elapsed > 0 {
		stats.QPS = float64(stats.Requests) / elapsed.Seconds()
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	stats.P50Ms = ms(percentile(all, 0.50))
	stats.P90Ms = ms(percentile(all, 0.90))
	stats.P99Ms = ms(percentile(all, 0.99))
	stats.MaxMs = ms(all[len(all)-1])
	return stats
}

// issue sends one request and classifies the response. ok means 2xx
// with a non-empty body; cache echoes the X-Dnhd-Cache header ("" when
// absent); partial reflects X-Dnhd-Partial.
func issue(ctx context.Context, client *http.Client, r HTTPRequest) outcome {
	t0 := time.Now()
	done := func(o outcome) outcome {
		o.latency = time.Since(t0)
		return o
	}
	var body io.Reader
	if r.Body != nil {
		body = bytes.NewReader(r.Body)
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, r.URL, body)
	if err != nil {
		return done(outcome{})
	}
	if r.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range r.Header {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		return done(outcome{})
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	return done(outcome{
		status:  resp.StatusCode,
		cache:   resp.Header.Get("X-Dnhd-Cache"),
		partial: resp.Header.Get("X-Dnhd-Partial") == "1",
		ok:      resp.StatusCode >= 200 && resp.StatusCode < 300 && err == nil && n > 0,
	})
}

// percentile returns the q-th percentile of sorted latencies (nearest
// rank: the ceil(q·n)-th smallest).
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
