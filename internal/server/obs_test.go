package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"
)

// metricLine matches one Prometheus text-format sample:
// name{labels} value — labels optional, value a Go float.
var metricLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? ` +
		`(-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|\+Inf|-Inf|NaN)$`)

func TestMetricsExposition(t *testing.T) {
	sys, _, _ := newTestSystem(t, 24, 11)
	_, ts := newTestServer(t, sys, 8)

	// Exercise the read path so the stage histograms have observations.
	q := "near+46.2,-123.8+in+mid-2010+with+temperature"
	for i := 0; i < 3; i++ {
		status, _, body := get(t, ts.URL+"/search/text?q="+q)
		if status != http.StatusOK {
			t.Fatalf("search/text: %d %s", status, body)
		}
	}

	status, hdr, body := get(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: %d", status)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}

	text := string(body)
	// Families the acceptance gate cares about: search stages, journal,
	// cache, pool, snapshot, slowlog. The journal/wrangle families are
	// package-registered so they exist at zero even on a non-durable
	// system.
	for _, want := range []string{
		`dnh_search_stage_duration_seconds_bucket{stage="parse",le="`,
		`dnh_search_stage_duration_seconds_bucket{stage="scatter",le="`,
		`dnh_search_stage_duration_seconds_bucket{stage="merge",le="`,
		`dnh_search_stage_duration_seconds_bucket{stage="hits",le="`,
		"dnh_search_stage_duration_seconds_count",
		"dnh_journal_appends_total",
		"dnh_journal_fsyncs_total",
		"dnh_wrangle_runs_total",
		"dnh_cache_hits_total",
		"dnh_cache_misses_total",
		"dnh_search_pool_hits_total",
		"dnh_searches_total",
		"dnh_snapshot_generation",
		"dnh_http_requests_total",
		"dnh_http_request_duration_seconds_bucket",
		"dnh_slowlog_entries",
		"dnh_slow_queries_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Every non-comment line must be a well-formed sample.
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !metricLine.MatchString(line) {
			t.Errorf("malformed sample line: %q", line)
		}
	}

	// The repeated query parses every time (parse happens before the
	// cache lookup), so the parse histogram must have observations.
	if !regexp.MustCompile(`dnh_search_stage_duration_seconds_count\{stage="parse"\} [1-9]`).MatchString(text) {
		t.Errorf("parse stage histogram has no observations:\n%s", text)
	}
}

// collectStages sums the direct children's durations and returns the
// set of names seen.
func collectStages(tree *spanTreeJSON) (sum int64, names map[string]bool) {
	names = make(map[string]bool)
	for _, c := range tree.Children {
		sum += c.DurUs
		names[c.Name] = true
	}
	return sum, names
}

// spanTreeJSON mirrors obs.SpanTree for decoding responses.
type spanTreeJSON struct {
	Name     string           `json:"name"`
	StartUs  int64            `json:"startUs"`
	DurUs    int64            `json:"durUs"`
	Attrs    map[string]int64 `json:"attrs"`
	Children []*spanTreeJSON  `json:"children"`
}

func TestForcedTraceResponse(t *testing.T) {
	sys, _, _ := newTestSystem(t, 24, 13)
	_, ts := newTestServer(t, sys, 8)

	q := "near+46.2,-123.8+in+mid-2010+with+temperature"
	// Prime the cache so the traced request would hit it if it didn't
	// bypass.
	status, _, plain := get(t, ts.URL+"/search/text?q="+q)
	if status != http.StatusOK {
		t.Fatalf("untraced: %d", status)
	}

	status, hdr, body := get(t, ts.URL+"/search/text?q="+q+"&debug=trace")
	if status != http.StatusOK {
		t.Fatalf("traced: %d %s", status, body)
	}
	if c := hdr.Get("X-Dnhd-Cache"); c != "bypass" {
		t.Errorf("X-Dnhd-Cache = %q, want bypass (forced traces must not serve from cache)", c)
	}
	var resp struct {
		Generation uint64          `json:"generation"`
		Hits       json.RawMessage `json:"hits"`
		Trace      *spanTreeJSON   `json:"trace"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil {
		t.Fatal("no trace in forced-trace response")
	}
	if resp.Trace.Name != "search" {
		t.Errorf("root span %q, want search", resp.Trace.Name)
	}
	if g, ok := resp.Trace.Attrs["generation"]; !ok || uint64(g) != resp.Generation {
		t.Errorf("root generation attr %d (present %v), response generation %d", g, ok, resp.Generation)
	}
	// Stage durations nest inside the request: the direct children are
	// sequential, so their sum can't exceed the root's duration (1µs
	// slack for rounding — each span truncates to whole microseconds).
	sum, names := collectStages(resp.Trace)
	if sum > resp.Trace.DurUs+int64(len(resp.Trace.Children)) {
		t.Errorf("child durations sum %dus > root %dus", sum, resp.Trace.DurUs)
	}
	for _, want := range []string{"parse", "scatter", "merge", "hits"} {
		if !names[want] {
			t.Errorf("trace missing %q stage (got %v)", want, names)
		}
	}
	// The hits span counts the hits the response carries.
	var hitList []json.RawMessage
	if err := json.Unmarshal(resp.Hits, &hitList); err != nil {
		t.Fatal(err)
	}
	for _, c := range resp.Trace.Children {
		if c.Name == "hits" && c.Attrs["hits"] != int64(len(hitList)) {
			t.Errorf("hits span attr %d, response carries %d hits", c.Attrs["hits"], len(hitList))
		}
	}

	// Tracing must not change what the client gets: same generation,
	// same hits as the untraced (cached) response.
	var plainResp struct {
		Generation uint64          `json:"generation"`
		Hits       json.RawMessage `json:"hits"`
	}
	if err := json.Unmarshal(plain, &plainResp); err != nil {
		t.Fatal(err)
	}
	if plainResp.Generation == resp.Generation && !bytes.Equal(plainResp.Hits, resp.Hits) {
		t.Errorf("traced hits differ from untraced at the same generation:\n%s\nvs\n%s", resp.Hits, plainResp.Hits)
	}

	// X-Trace: 1 is the header spelling of the same switch.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/search/text?q="+q, nil)
	req.Header.Set("X-Trace", "1")
	hresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var hbody struct {
		Trace *spanTreeJSON `json:"trace"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&hbody); err != nil {
		t.Fatal(err)
	}
	if hbody.Trace == nil {
		t.Error("X-Trace: 1 request returned no trace")
	}
}

func TestSlowlogEndpoint(t *testing.T) {
	sys, _, _ := newTestSystem(t, 24, 17)
	srv, err := New(Config{Sys: sys, CacheSize: 8, SlowThreshold: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	q := "near+46.2,-123.8+in+mid-2010+with+temperature"
	for i := 0; i < 3; i++ {
		if status, _, _ := get(t, ts.URL+"/search/text?q="+q); status != http.StatusOK {
			t.Fatalf("search: %d", status)
		}
	}

	status, _, body := get(t, ts.URL+"/debug/slowlog")
	if status != http.StatusOK {
		t.Fatalf("/debug/slowlog: %d", status)
	}
	var slow SlowlogResponse
	if err := json.Unmarshal(body, &slow); err != nil {
		t.Fatal(err)
	}
	// Every request beat a 1ns threshold.
	if slow.Count < 1 || slow.Total < 3 {
		t.Fatalf("slowlog count %d total %d, want every search logged: %s", slow.Count, slow.Total, body)
	}
	if slow.ThresholdMs <= 0 {
		t.Errorf("thresholdMs = %v, want > 0", slow.ThresholdMs)
	}
	for _, e := range slow.Slowest {
		if e.Query == "" {
			t.Errorf("slowlog entry with empty query: %+v", e)
		}
		if e.WallMs < 0 {
			t.Errorf("negative wallMs: %+v", e)
		}
	}
	// An executed (uncached) search reports the hit rendering stage.
	rendered := false
	for _, e := range slow.Slowest {
		for _, st := range e.Stages {
			rendered = rendered || (!e.CacheHit && st.Stage == "hits")
		}
	}
	if !rendered {
		t.Errorf("no executed search in the slowlog carries a hits stage: %s", body)
	}
	// Slowest-first ordering.
	for i := 1; i < len(slow.Slowest); i++ {
		if slow.Slowest[i].WallMs > slow.Slowest[i-1].WallMs {
			t.Errorf("slowlog not sorted slowest-first at %d", i)
		}
	}

	// Disabled by negative threshold: endpoint still answers, zero
	// threshold reported.
	srv2, err := New(Config{Sys: sys, CacheSize: 8, SlowThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(ts2.Close)
	if status, _, _ := get(t, ts2.URL+"/search/text?q="+q); status != http.StatusOK {
		t.Fatalf("search: %d", status)
	}
	status, _, body = get(t, ts2.URL+"/debug/slowlog")
	if status != http.StatusOK {
		t.Fatalf("/debug/slowlog: %d", status)
	}
	if err := json.Unmarshal(body, &slow); err != nil {
		t.Fatal(err)
	}
	if slow.Count != 0 || slow.Total != 0 {
		t.Errorf("disabled slowlog recorded entries: %s", body)
	}
}
