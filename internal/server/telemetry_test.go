package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"metamess"
	"metamess/internal/archive"
	"metamess/internal/catalog"
	"metamess/internal/obs"
)

// parseSeries reads a Prometheus text exposition into series → value,
// a series being the sample name with its label set exactly as printed.
func parseSeries(t testing.TB, text []byte) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimSpace(string(text)), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if cut < 0 || err != nil {
			t.Fatalf("malformed sample line %q", line)
		}
		if _, dup := out[line[:cut]]; dup {
			t.Errorf("series %q rendered twice", line[:cut])
		}
		out[line[:cut]] = v
	}
	return out
}

// TestStatsAndMetricsAgree drives one server through every counted
// serving event, then scrapes /metrics and /stats once each: every
// quantity both views carry must be equal (they are two renderings of
// one registry), and /metrics must still emit every series it emitted
// before the registry became the only store
// (testdata/metrics_series.golden).
func TestStatsAndMetricsAgree(t *testing.T) {
	root := t.TempDir()
	if _, err := archive.Generate(root, archive.DefaultGenConfig(24, 7)); err != nil {
		t.Fatal(err)
	}
	sys, err := metamess.OpenDurable(metamess.Config{ArchiveRoot: root, DataDir: t.TempDir(), SnapshotShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Sys: sys, CacheSize: 16, MaxInFlight: 1, QueueDepth: -1,
		RateLimit: 0.5, RateBurst: 1, StaleWindow: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Every request is its own rate-limit client unless a step names one.
	clients := 0
	do := func(method, path string, body []byte, hdr ...string) (int, http.Header, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		clients++
		req.Header.Set("X-Client-Id", fmt.Sprint("client-", clients))
		for i := 0; i+1 < len(hdr); i += 2 {
			req.Header.Set(hdr[i], hdr[i+1])
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header, out
	}
	expect := func(step string, wantStatus int, wantCache string, status int, h http.Header) {
		t.Helper()
		if status != wantStatus || h.Get("X-Dnhd-Cache") != wantCache {
			t.Fatalf("%s: status %d cache %q, want %d %q", step, status, h.Get("X-Dnhd-Cache"), wantStatus, wantCache)
		}
	}

	const warm = "/search/text?q=with+temperature+top+5"
	status, h, _ := do("GET", warm, nil)
	expect("miss", 200, "miss", status, h)
	status, h, _ = do("GET", warm, nil)
	expect("hit", 200, "hit", status, h)
	status, h, _ = do("GET", warm+"&debug=trace", nil)
	expect("forced trace", 200, "bypass", status, h)
	status, h, _ = do("GET", "/search/text?q=with+salinity+top+3", nil, "X-Deadline-Ms", "0")
	expect("partial", 200, "miss", status, h)
	if h.Get("X-Dnhd-Partial") != "1" {
		t.Fatal("expired deadline did not yield a partial response")
	}

	// Collapsed: lead a flight by hand, let one request join it, then
	// run the search and release the follower with its bytes.
	held := SearchRequest{Variables: []Variable{{Name: "salinity"}}, K: 4}
	heldBody, err := json.Marshal(held)
	if err != nil {
		t.Fatal(err)
	}
	fk := queryKey{generation: sys.SnapshotGeneration(), query: string(heldBody)}
	f, leader := srv.flights.join(fk)
	if !leader {
		t.Fatal("test did not become flight leader")
	}
	follower := make(chan string, 1)
	go func() {
		_, h, _ := do("POST", "/search", heldBody)
		follower <- h.Get("X-Dnhd-Cache")
	}()
	time.Sleep(100 * time.Millisecond)
	srv.flights.finish(fk, f, srv.executeSearch(context.Background(), held, fk.query, nil))
	if state := <-follower; state != "collapsed" {
		t.Fatalf("follower of a held flight served %q, want collapsed", state)
	}

	// Admission shed: hold the only slot.
	release, reason := srv.adm.acquire(context.Background())
	if reason != shedNone {
		t.Fatalf("direct acquire shed: %v", reason)
	}
	if status, _, _ = do("GET", warm, nil); status != http.StatusTooManyRequests {
		t.Fatalf("saturated gate: %d, want 429", status)
	}
	release()

	// Rate-limit shed: one client, burst 1, twice.
	if status, _, _ = do("GET", warm, nil, "X-Client-Id", "hot"); status != 200 {
		t.Fatalf("first request of the hot client: %d", status)
	}
	if status, _, _ = do("GET", warm, nil, "X-Client-Id", "hot"); status != http.StatusTooManyRequests {
		t.Fatalf("second request of the hot client: %d, want 429", status)
	}

	// A generation that never arrives: wait, then 412.
	future := fmt.Sprint(sys.SnapshotGeneration() + 100)
	if status, _, _ = do("GET", warm, nil, "X-Min-Generation", future, "X-Deadline-Ms", "20"); status != http.StatusPreconditionFailed {
		t.Fatalf("unreachable X-Min-Generation: %d, want 412", status)
	}

	// Publishes: accepted, replayed (stable), rejected.
	batch := publishBody(t, []*catalog.Feature{pushFeature("push/a.csv", 45.5), pushFeature("push/b.csv", 45.6)}, nil)
	if status, _, body := do("POST", "/publish", batch); status != 200 {
		t.Fatalf("publish: %d %s", status, body)
	}
	if status, _, body := do("POST", "/publish", batch); status != 200 || !bytes.Contains(body, []byte(`"stable":true`)) {
		t.Fatalf("replayed publish: %d %s, want a stable receipt", status, body)
	}
	if status, _, _ = do("POST", "/publish", []byte("not json")); status != http.StatusUnprocessableEntity {
		t.Fatalf("malformed publish: %d, want 422", status)
	}

	// Stale: the publish bumped the generation under the warm entry. Then
	// wait for the background revalidation so no counter is in motion.
	status, h, _ = do("GET", warm, nil)
	expect("stale", 200, "stale", status, h)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if _, h, _ = do("GET", warm, nil); h.Get("X-Dnhd-Cache") == "hit" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("revalidation never promoted the query to a fresh hit")
		}
	}

	if status, _, _ = do("GET", "/journal/tail?from=0", nil); status != 200 {
		t.Fatalf("journal tail: %d", status)
	}

	_, _, metricsText := do("GET", "/metrics", nil)
	_, _, statsBody := do("GET", "/stats", nil)
	m := parseSeries(t, metricsText)
	var st StatsResponse
	if err := json.Unmarshal(statsBody, &st); err != nil {
		t.Fatal(err)
	}

	// The drive reached every event.
	for series, min := range map[string]float64{
		`dnh_cache_hits_total`:                          2,
		`dnh_cache_misses_total`:                        2,
		`dnh_cache_stale_total`:                         1,
		`dnh_cache_revalidations_total`:                 1,
		`dnh_flights_collapsed_total`:                   1,
		`dnh_search_partial_total`:                      1,
		`dnh_admission_shed_total{reason="queue_full"}`: 1,
		`dnh_ratelimit_shed_total`:                      1,
		`dnh_min_generation_waits_total`:                1,
		`dnh_min_generation_stale_total`:                1,
		`dnh_publishes_total`:                           2,
		`dnh_publishes_stable_total`:                    1,
		`dnh_publish_rejected_total`:                    1,
		`dnh_publish_features_total`:                    2,
		`dnh_journal_tail_total`:                        1,
		`dnh_traces_total{mode="forced"}`:               1,
	} {
		if m[series] < min {
			t.Errorf("%s = %v, want >= %v", series, m[series], min)
		}
	}

	// Every quantity present in both views is equal.
	if st.Durability == nil {
		t.Fatal("/stats carries no durability section on a durable node")
	}
	degraded := 0.0
	if st.Durability.Degraded {
		degraded = 1
	}
	ov := st.Overload
	both := map[string]float64{
		`dnh_http_in_flight`:                              float64(st.InFlight),
		`dnh_cache_hits_total`:                            float64(st.Cache.Hits),
		`dnh_cache_misses_total`:                          float64(st.Cache.Misses),
		`dnh_cache_entries`:                               float64(st.Cache.Entries),
		`dnh_cache_stale_total`:                           float64(st.Cache.Stale),
		`dnh_searches_total`:                              float64(st.Search.SearchesRun),
		`dnh_search_pool_hits_total`:                      float64(st.Search.PoolHits),
		`dnh_search_pool_misses_total`:                    float64(st.Search.PoolMisses),
		`dnh_admission_limit`:                             float64(ov.MaxInFlight),
		`dnh_admission_in_flight`:                         float64(ov.InFlight),
		`dnh_admission_queued`:                            float64(ov.Queued),
		`dnh_admission_admitted_total`:                    float64(ov.Admitted),
		`dnh_admission_waited_total`:                      float64(ov.Waited),
		`dnh_admission_shed_total{reason="queue_full"}`:   float64(ov.ShedQueueFull),
		`dnh_admission_shed_total{reason="wait_timeout"}`: float64(ov.ShedTimeout),
		`dnh_admission_shed_total{reason="client_gone"}`:  float64(ov.ShedClientGone),
		`dnh_flights_collapsed_total`:                     float64(ov.Collapsed),
		`dnh_cache_revalidations_total`:                   float64(ov.Revalidations),
		`dnh_search_partial_total`:                        float64(ov.PartialResults),
		`dnh_ratelimit_shed_total`:                        float64(ov.RateLimited),
		`dnh_ratelimit_clients`:                           float64(ov.RateLimitClients),
		`dnh_min_generation_waits_total`:                  float64(ov.MinGenWaits),
		`dnh_min_generation_stale_total`:                  float64(ov.MinGenStale),
		`dnh_publishes_total`:                             float64(st.Ingest.Publishes),
		`dnh_publishes_stable_total`:                      float64(st.Ingest.Stable),
		`dnh_publish_rejected_total`:                      float64(st.Ingest.Rejected),
		`dnh_publish_features_total`:                      float64(st.Ingest.Features),
		`dnh_snapshot_generation`:                         float64(st.Generation),
		`dnh_datasets`:                                    float64(st.Datasets),
		`dnh_journal_lag_bytes`:                           float64(st.Durability.JournalBytes),
		`dnh_checkpoint_size_bytes`:                       float64(st.Durability.CheckpointBytes),
		`dnh_store_degraded`:                              degraded,
	}
	for i, n := range st.Shards.Sizes {
		both[fmt.Sprintf(`dnh_snapshot_shard_features{shard="%d"}`, i)] = float64(n)
	}
	for _, row := range st.Endpoints {
		// /metrics had not finished when it rendered itself; /stats sees
		// it complete.
		if row.Endpoint == epMetrics {
			continue
		}
		label := `{endpoint="` + row.Endpoint + `"}`
		both["dnh_http_requests_total"+label] = float64(row.Requests)
		both["dnh_http_request_errors_total"+label] = float64(row.Errors)
		both["dnh_http_request_duration_seconds_count"+label] = float64(row.Buckets[len(row.Buckets)-1])
		for i, le := range obs.DurationBuckets {
			both[fmt.Sprintf(`dnh_http_request_duration_seconds_bucket{endpoint="%s",le="%v"}`, row.Endpoint, le)] = float64(row.Buckets[i])
		}
		if row.Requests > 0 {
			both["dnh_http_request_duration_seconds_sum"+label] = row.MeanMs / 1000 * float64(row.Requests)
		}
	}
	for series, fromStats := range both {
		fromMetrics, ok := m[series]
		if !ok {
			t.Errorf("/metrics has no series %s", series)
		} else if diff := fromMetrics - fromStats; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: /metrics says %v, /stats says %v", series, fromMetrics, fromStats)
		}
	}
	if up := m["dnh_uptime_seconds"]; up <= 0 || st.UptimeSec < up {
		t.Errorf("uptime: /metrics %v then /stats %v, want positive and non-decreasing", up, st.UptimeSec)
	}
	if ov.Shed != ov.ShedQueueFull+ov.ShedTimeout+ov.ShedClientGone {
		t.Errorf("/stats shed %d is not the sum of its reasons", ov.Shed)
	}

	golden, err := os.ReadFile("testdata/metrics_series.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		if _, ok := m[series]; !ok {
			t.Errorf("/metrics lost series %s", series)
		}
	}
}
