// Load-generator tests live in an external test package so they can
// replay against the real serving handler (internal/server depends on
// the metamess facade, which the workload package itself must stay
// importable from).
package workload_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"metamess"
	"metamess/internal/archive"
	"metamess/internal/server"
	"metamess/internal/workload"
)

func newHandler(t *testing.T, n int, seed int64) (*httptest.Server, *archive.Manifest) {
	t.Helper()
	root := t.TempDir()
	m, err := archive.Generate(root, archive.DefaultGenConfig(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := metamess.New(metamess.Config{ArchiveRoot: root})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Sys: sys})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, m
}

func TestReplayAgainstServer(t *testing.T) {
	ts, m := newHandler(t, 20, 21)
	judged, err := workload.Queries(m, 10, 23, workload.DefaultRelevance(), false)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []workload.HTTPRequest
	for _, j := range judged {
		body, err := json.Marshal(server.RequestFromQuery(j.Query))
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, workload.HTTPRequest{Method: http.MethodPost, URL: ts.URL + "/search", Body: body})
	}
	// Repeat the whole set so the second pass hits the cache.
	reqs = append(reqs, reqs...)

	stats, err := workload.Replay(context.Background(), reqs, workload.LoadOptions{Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests != len(reqs) {
		t.Errorf("requests = %d, want %d", stats.Requests, len(reqs))
	}
	if stats.Errors != 0 {
		t.Errorf("errors = %d", stats.Errors)
	}
	if stats.QPS <= 0 || stats.DurationSec <= 0 {
		t.Errorf("throughput malformed: %+v", stats)
	}
	if stats.P50Ms <= 0 || stats.P50Ms > stats.P99Ms || stats.P99Ms > stats.MaxMs {
		t.Errorf("percentiles malformed: %+v", stats)
	}
	if stats.CacheStates["hit"] == 0 {
		t.Errorf("no cache hits across a repeated workload: %+v", stats)
	}
	// Every response carries a cache state; with concurrent workers a
	// repeat can join the first pass's in-flight search ("collapsed"),
	// so hits and misses alone need not cover the requests.
	states := 0
	for _, n := range stats.CacheStates {
		states += n
	}
	if states != stats.Requests {
		t.Errorf("cache states %v do not cover %d requests", stats.CacheStates, stats.Requests)
	}
}

func TestReplayCountsErrors(t *testing.T) {
	ts, _ := newHandler(t, 10, 25)
	reqs := []workload.HTTPRequest{
		{Method: http.MethodGet, URL: ts.URL + "/search/text?q=with+temperature"},
		{Method: http.MethodPost, URL: ts.URL + "/search", Body: []byte("{not json")},
		{Method: http.MethodGet, URL: ts.URL + "/no/such/endpoint"},
	}
	stats, err := workload.Replay(context.Background(), reqs, workload.LoadOptions{Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests != 3 || stats.Errors != 2 {
		t.Errorf("requests/errors = %d/%d, want 3/2", stats.Requests, stats.Errors)
	}
}

func TestReplayHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := make([]workload.HTTPRequest, 50)
	for i := range reqs {
		reqs[i] = workload.HTTPRequest{Method: http.MethodGet, URL: "http://127.0.0.1:0/"}
	}
	if _, err := workload.Replay(ctx, reqs, workload.LoadOptions{Concurrency: 2, Timeout: time.Second}); err == nil {
		t.Error("canceled replay returned nil error")
	}
}

func TestReplayRejectsEmpty(t *testing.T) {
	if _, err := workload.Replay(context.Background(), nil, workload.LoadOptions{}); err == nil {
		t.Error("empty replay returned nil error")
	}
}
