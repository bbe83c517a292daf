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
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"metamess"
	"metamess/internal/archive"
	"metamess/internal/workload"
)

func newTestSystem(t testing.TB, n int, seed int64) (*metamess.System, *archive.Manifest, string) {
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
	return sys, m, root
}

func newTestServer(t testing.TB, sys *metamess.System, cacheSize int) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{Sys: sys, CacheSize: cacheSize})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func get(t testing.TB, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

func postJSON(t testing.TB, url string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
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

// postDeadline is postJSON with an X-Deadline-Ms budget.
func postDeadline(t testing.TB, url string, body []byte, ms string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Deadline-Ms", ms)
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

func TestEndpointsSmoke(t *testing.T) {
	sys, m, _ := newTestSystem(t, 24, 7)
	_, ts := newTestServer(t, sys, 0)

	status, _, body := get(t, ts.URL+"/healthz")
	if status != http.StatusOK || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Errorf("healthz: %d %s", status, body)
	}

	status, _, body = get(t, ts.URL+"/stats")
	if status != http.StatusOK {
		t.Errorf("stats: %d %s", status, body)
	}
	var stats StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("stats body: %v", err)
	}
	if stats.Datasets != len(m.Datasets) {
		t.Errorf("stats datasets = %d, want %d", stats.Datasets, len(m.Datasets))
	}
	if stats.Shards.Count < 1 || len(stats.Shards.Sizes) != stats.Shards.Count {
		t.Errorf("stats shards = %+v, want count ≥ 1 with matching sizes", stats.Shards)
	}
	sum := 0
	for _, n := range stats.Shards.Sizes {
		sum += n
	}
	if sum != stats.Datasets {
		t.Errorf("shard sizes sum to %d, want %d", sum, stats.Datasets)
	}

	status, _, body = get(t, ts.URL+"/curator/queue")
	if status != http.StatusOK || !bytes.Contains(body, []byte(`"queue"`)) {
		t.Errorf("curator/queue: %d %s", status, body)
	}

	status, _, body = get(t, ts.URL+"/dataset/"+m.Datasets[0].Path)
	if status != http.StatusOK || !bytes.Contains(body, []byte("Dataset:")) {
		t.Errorf("dataset: %d %s", status, body)
	}
	status, _, _ = get(t, ts.URL+"/dataset/no/such/file.csv")
	if status != http.StatusNotFound {
		t.Errorf("unknown dataset: %d, want 404", status)
	}

	req, _ := json.Marshal(SearchRequest{Variables: []Variable{{Name: "temperature"}}, K: 5})
	status, _, body = postJSON(t, ts.URL+"/search", req)
	if status != http.StatusOK {
		t.Errorf("search: %d %s", status, body)
	}
	var sr SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil || sr.Count == 0 {
		t.Errorf("search response: %v, count %d", err, sr.Count)
	}

	status, _, body = get(t, ts.URL+"/search/text?q="+
		"near+46.2,-123.8+in+mid-2010+with+temperature")
	if status != http.StatusOK {
		t.Errorf("search/text: %d %s", status, body)
	}

	// Error shapes.
	status, _, _ = postJSON(t, ts.URL+"/search", []byte("{not json"))
	if status != http.StatusBadRequest {
		t.Errorf("bad body: %d, want 400", status)
	}
	status, _, _ = postJSON(t, ts.URL+"/search", []byte("{}"))
	if status != http.StatusBadRequest {
		t.Errorf("empty query: %d, want 400", status)
	}
	status, _, _ = get(t, ts.URL+"/search/text")
	if status != http.StatusBadRequest {
		t.Errorf("missing q: %d, want 400", status)
	}
	status, _, _ = get(t, ts.URL+"/search/text?q=wibble+wobble")
	if status != http.StatusBadRequest {
		t.Errorf("unparsable q: %d, want 400", status)
	}
}

// TestCacheByteIdentity is the cache-correctness property test: for a
// workload of derived queries, the cached (second) response must be
// byte-identical to the uncached (first) one, and both must be
// byte-identical to what a cache-disabled server over the same system
// returns.
func TestCacheByteIdentity(t *testing.T) {
	sys, m, _ := newTestSystem(t, 30, 11)
	_, cached := newTestServer(t, sys, 0)
	_, uncached := newTestServer(t, sys, -1)

	judged, err := workload.Queries(m, 12, 13, workload.DefaultRelevance(), false)
	if err != nil {
		t.Fatal(err)
	}
	// The generator anchors queries on random datasets with replacement;
	// dedupe so every body below really is a first request.
	var bodies [][]byte
	seen := make(map[string]bool)
	for _, j := range judged {
		body, err := json.Marshal(RequestFromQuery(j.Query))
		if err != nil {
			t.Fatal(err)
		}
		if !seen[string(body)] {
			seen[string(body)] = true
			bodies = append(bodies, body)
		}
	}
	for i, body := range bodies {
		status1, h1, b1 := postJSON(t, cached.URL+"/search", body)
		status2, h2, b2 := postJSON(t, cached.URL+"/search", body)
		status3, h3, b3 := postJSON(t, uncached.URL+"/search", body)
		if status1 != 200 || status2 != 200 || status3 != 200 {
			t.Fatalf("query %d: statuses %d/%d/%d", i, status1, status2, status3)
		}
		if got := h1.Get("X-Dnhd-Cache"); got != "miss" {
			t.Errorf("query %d: first request cache=%q, want miss", i, got)
		}
		if got := h2.Get("X-Dnhd-Cache"); got != "hit" {
			t.Errorf("query %d: second request cache=%q, want hit", i, got)
		}
		if got := h3.Get("X-Dnhd-Cache"); got != "miss" {
			t.Errorf("query %d: uncached server cache=%q, want miss", i, got)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("query %d: cached response differs from uncached", i)
		}
		if !bytes.Equal(b1, b3) {
			t.Errorf("query %d: cache-disabled server response differs", i)
		}
	}
}

// TestTextNormalizationSharesCacheEntry checks that textual variants of
// one query (whitespace, clause order) normalize to the same cache key.
func TestTextNormalizationSharesCacheEntry(t *testing.T) {
	sys, _, _ := newTestSystem(t, 20, 3)
	_, ts := newTestServer(t, sys, 0)

	q1 := "near+46.2,-123.8+with+temperature+top+10"
	q2 := "with++temperature++near+46.2,-123.8+top+10" // reordered, extra spaces
	status, h, b1 := get(t, ts.URL+"/search/text?q="+q1)
	if status != 200 || h.Get("X-Dnhd-Cache") != "miss" {
		t.Fatalf("first: %d cache=%q", status, h.Get("X-Dnhd-Cache"))
	}
	status, h, b2 := get(t, ts.URL+"/search/text?q="+q2)
	if status != 200 {
		t.Fatalf("second: %d", status)
	}
	if h.Get("X-Dnhd-Cache") != "hit" {
		t.Errorf("normalized variant missed the cache (%q)", h.Get("X-Dnhd-Cache"))
	}
	if !bytes.Equal(b1, b2) {
		t.Error("variant responses differ")
	}

	// The structured equivalent normalizes to the same key and shares
	// the entry across endpoints.
	body := []byte(`{"near":{"lat":46.2,"lon":-123.8},"variables":[{"name":"temperature"}],"k":10}`)
	status, h, b3 := postJSON(t, ts.URL+"/search", body)
	if status != 200 {
		t.Fatalf("structured: %d", status)
	}
	if h.Get("X-Dnhd-Cache") != "hit" {
		t.Errorf("structured equivalent missed the text query's entry (%q)", h.Get("X-Dnhd-Cache"))
	}
	if !bytes.Equal(b1, b3) {
		t.Error("structured response differs from text response")
	}
}

// TestCacheInvalidationOnPublish checks the generation-keying story end
// to end: a publish bumps the snapshot generation, the next identical
// query misses the cache, and its response reflects the new catalog.
func TestCacheInvalidationOnPublish(t *testing.T) {
	sys, m, root := newTestSystem(t, 25, 5)
	_, ts := newTestServer(t, sys, 0)

	const q = "/search/text?q=with+temperature+top+200"
	status, h, b1 := get(t, ts.URL+q)
	if status != 200 || h.Get("X-Dnhd-Cache") != "miss" {
		t.Fatalf("first: %d cache=%q", status, h.Get("X-Dnhd-Cache"))
	}
	if _, h, b := get(t, ts.URL+q); h.Get("X-Dnhd-Cache") != "hit" || !bytes.Equal(b, b1) {
		t.Fatalf("second request should hit with identical bytes")
	}
	var r1 SearchResponse
	if err := json.Unmarshal(b1, &r1); err != nil {
		t.Fatal(err)
	}
	gen1 := sys.SnapshotGeneration()
	if r1.Generation != gen1 {
		t.Errorf("response generation %d, snapshot %d", r1.Generation, gen1)
	}

	// Grow the archive in place and re-wrangle: the incremental scan
	// picks up the new files and Publish swaps in a new snapshot.
	if _, err := archive.Generate(filepath.Join(root, "extra"), archive.DefaultGenConfig(10, 99)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	gen2 := sys.SnapshotGeneration()
	if gen2 <= gen1 {
		t.Fatalf("publish did not bump generation: %d -> %d", gen1, gen2)
	}
	if got, want := sys.DatasetCount(), len(m.Datasets)+10; got != want {
		t.Fatalf("dataset count = %d, want %d", got, want)
	}

	status, h, b3 := get(t, ts.URL+q)
	if status != 200 {
		t.Fatalf("post-publish: %d", status)
	}
	if h.Get("X-Dnhd-Cache") != "miss" {
		t.Errorf("post-publish request hit a stale entry (cache=%q)", h.Get("X-Dnhd-Cache"))
	}
	var r3 SearchResponse
	if err := json.Unmarshal(b3, &r3); err != nil {
		t.Fatal(err)
	}
	if r3.Generation != gen2 {
		t.Errorf("post-publish generation = %d, want %d", r3.Generation, gen2)
	}
	if r3.Count < r1.Count {
		t.Errorf("post-publish count = %d, was %d — new datasets missing", r3.Count, r1.Count)
	}
	if bytes.Equal(b1, b3) {
		t.Error("post-publish response identical to pre-publish")
	}
}

// TestCacheSurvivesNoopRewrangle is the serving-layer half of the
// generation-stability argument: a re-wrangle over an unchanged archive
// publishes an empty delta, the snapshot generation holds, and every
// cached response stays valid — where the pre-delta write path evicted
// the whole cache on each publish.
func TestCacheSurvivesNoopRewrangle(t *testing.T) {
	sys, _, _ := newTestSystem(t, 15, 23)
	srv, ts := newTestServer(t, sys, 0)

	const q = "/search/text?q=with+temperature+top+50"
	status, h, b1 := get(t, ts.URL+q)
	if status != 200 || h.Get("X-Dnhd-Cache") != "miss" {
		t.Fatalf("first: %d cache=%q", status, h.Get("X-Dnhd-Cache"))
	}
	gen := sys.SnapshotGeneration()

	rep, err := sys.Wrangle() // what the SIGHUP kick runs in the background
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Delta.GenerationStable {
		t.Fatalf("expected a no-op re-wrangle, got delta %+v", rep.Delta)
	}
	if got := sys.SnapshotGeneration(); got != gen {
		t.Fatalf("no-op re-wrangle moved the generation: %d -> %d", gen, got)
	}

	hitsBefore := srv.tel.cacheHits.Value()
	status, h, b2 := get(t, ts.URL+q)
	if status != 200 || h.Get("X-Dnhd-Cache") != "hit" {
		t.Fatalf("post-rewrangle: %d cache=%q — the no-op publish evicted the cache", status, h.Get("X-Dnhd-Cache"))
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("cached response changed across a no-op re-wrangle")
	}
	if srv.tel.cacheHits.Value() != hitsBefore+1 {
		t.Fatal("hit counter did not advance")
	}
}

// TestConcurrentRewrangleUnderLoad hammers the search endpoints while
// the background scheduler re-wrangles on a tight interval, checking
// (under -race in CI) that every response is well-formed and that any
// two responses for the same query at the same generation are
// byte-identical — the cache-correctness property with publishes racing
// the reads.
func TestConcurrentRewrangleUnderLoad(t *testing.T) {
	sys, m, root := newTestSystem(t, 20, 17)
	srv, err := New(Config{Sys: sys, RewrangleEvery: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()
	srv.Rewrangle() // a SIGHUP-style kick on top of the ticker

	// Churn the archive while the load runs: with the delta-aware write
	// path an unchanged archive publishes nothing (and keeps the
	// generation stable), so real mutations are what make the
	// re-wrangles race the readers with actual snapshot swaps.
	churnDone := make(chan struct{})
	churnStop := make(chan struct{})
	// Append to an OBS file: its parser skips blank lines, so the churn
	// changes size and content hash without ever failing a parse.
	target := filepath.Join(root, m.Datasets[0].Path)
	for _, d := range m.Datasets {
		if string(d.Format) == "obs" {
			target = filepath.Join(root, d.Path)
			break
		}
	}
	go func() {
		defer close(churnDone)
		for i := 0; ; i++ {
			select {
			case <-churnStop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			f, err := os.OpenFile(target, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Errorf("churn: %v", err)
				return
			}
			// Appending a blank line changes size (and hash) without
			// perturbing the parsed summary's validity.
			f.WriteString("\n")
			f.Close()
		}
	}()
	defer func() {
		close(churnStop)
		<-churnDone
	}()

	queries := []string{
		"/search/text?q=with+temperature+top+50",
		"/search/text?q=with+salinity+top+50",
		"/search/text?q=near+46.2,-123.8+in+2010+with+temperature",
		"/search/text?q=in+mid-2010+with+%22turbidity%22",
	}
	const workers, perWorker = 4, 25
	var mu sync.Mutex
	seen := make(map[string][]byte) // query|generation -> body
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q := queries[(w+i)%len(queries)]
				resp, err := http.Get(base + q)
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("%s: status %d: %s", q, resp.StatusCode, body)
					return
				}
				var sr SearchResponse
				if err := json.Unmarshal(body, &sr); err != nil {
					errs <- fmt.Errorf("%s: %v", q, err)
					return
				}
				key := fmt.Sprintf("%s|%d", q, sr.Generation)
				mu.Lock()
				if prev, ok := seen[key]; ok {
					if !bytes.Equal(prev, body) {
						errs <- fmt.Errorf("%s: two different bodies at generation %d", q, sr.Generation)
					}
				} else {
					seen[key] = body
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// With delta-aware publishing only a churn-observing run moves the
	// generation, and the load may finish before one does — the mutator
	// and the 25ms ticker are still going, so wait for a publish that
	// saw the churn rather than asserting on whatever ran first.
	var stats StatsResponse
	deadline := time.Now().Add(15 * time.Second)
	for {
		status, _, body := get(t, base+"/stats")
		if status != 200 {
			t.Fatalf("stats: %d", status)
		}
		if err := json.Unmarshal(body, &stats); err != nil {
			t.Fatal(err)
		}
		if stats.Generation > 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if stats.Rewrangle.Runs == 0 {
		t.Error("rewrangler never ran")
	}
	if stats.Rewrangle.Failures != 0 {
		t.Errorf("rewrangle failures: %d (%s)", stats.Rewrangle.Failures, stats.Rewrangle.LastError)
	}
	if stats.Generation <= 1 {
		t.Errorf("generation = %d, want a churn-observing publish", stats.Generation)
	}

	// A connection the client dialed and never sent a request on stays
	// new on the server, and Shutdown counts a new connection as idle
	// only after five seconds: close the client's idle ones first.
	http.DefaultClient.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// TestGracefulShutdown checks that Shutdown drains in-flight requests
// (no 5xx or truncated responses) and then refuses new connections.
func TestGracefulShutdown(t *testing.T) {
	sys, _, _ := newTestSystem(t, 15, 29)
	srv, err := New(Config{Sys: sys})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(base + "/search/text?q=with+temperature")
				if err != nil {
					return // transport error after close is the expected end
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 || rerr != nil || len(body) == 0 {
					errs <- fmt.Errorf("in-flight request failed: %d %v", resp.StatusCode, rerr)
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the load get going
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("server still accepting connections after Shutdown")
	}
}

// TestStatsMetrics checks the /stats accounting: request counts,
// latency rows, cache hit/miss tallies, and the in-flight gauge.
func TestStatsMetrics(t *testing.T) {
	sys, _, _ := newTestSystem(t, 15, 31)
	_, ts := newTestServer(t, sys, 0)

	const q = "/search/text?q=with+temperature"
	get(t, ts.URL+q)
	get(t, ts.URL+q)
	get(t, ts.URL+q)
	get(t, ts.URL+"/healthz")
	get(t, ts.URL+"/nope")

	status, _, body := get(t, ts.URL+"/stats")
	if status != 200 {
		t.Fatalf("stats: %d", status)
	}
	var stats StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]EndpointStats)
	for _, row := range stats.Endpoints {
		rows[row.Endpoint] = row
	}
	if got := rows["/search/text"].Requests; got != 3 {
		t.Errorf("/search/text requests = %d, want 3", got)
	}
	if rows["/search/text"].P50Ms <= 0 || rows["/search/text"].P99Ms < rows["/search/text"].P50Ms {
		t.Errorf("latency percentiles malformed: %+v", rows["/search/text"])
	}
	if got := rows["/healthz"].Requests; got != 1 {
		t.Errorf("/healthz requests = %d, want 1", got)
	}
	if got := rows["other"]; got.Requests != 1 || got.Errors != 1 {
		t.Errorf("other row = %+v, want 1 request 1 error", got)
	}
	if stats.Cache.Hits != 2 || stats.Cache.Misses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 2/1", stats.Cache.Hits, stats.Cache.Misses)
	}
	if stats.Cache.Entries != 1 {
		t.Errorf("cache entries = %d, want 1", stats.Cache.Entries)
	}
	// The gauge counts the /stats request reading it.
	if stats.InFlight != 1 {
		t.Errorf("inFlight = %d, want 1", stats.InFlight)
	}
	if stats.UptimeSec <= 0 {
		t.Errorf("uptime = %v", stats.UptimeSec)
	}
	// Three identical queries: one executed search, two cache hits.
	if stats.Search.SearchesRun != 1 {
		t.Errorf("searchesRun = %d, want 1", stats.Search.SearchesRun)
	}
	if stats.Search.PoolHits+stats.Search.PoolMisses == 0 {
		t.Error("pool counters both zero after an executed search")
	}
	// A distinct query executes again.
	get(t, ts.URL+"/search/text?q=with+salinity")
	_, _, body = get(t, ts.URL+"/stats")
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Search.SearchesRun != 2 {
		t.Errorf("searchesRun = %d, want 2", stats.Search.SearchesRun)
	}
}

// TestSearchStructuredNormalization checks that JSON field order and
// unknown fields do not defeat the cache key.
func TestSearchStructuredNormalization(t *testing.T) {
	sys, _, _ := newTestSystem(t, 15, 37)
	_, ts := newTestServer(t, sys, 0)

	b1 := []byte(`{"variables":[{"name":"temperature"}],"k":5}`)
	b2 := []byte(`{"k":5,  "variables":[{"name":"temperature"}], "ignoredExtra":true}`)
	status, h, r1 := postJSON(t, ts.URL+"/search", b1)
	if status != 200 || h.Get("X-Dnhd-Cache") != "miss" {
		t.Fatalf("first: %d %q", status, h.Get("X-Dnhd-Cache"))
	}
	status, h, r2 := postJSON(t, ts.URL+"/search", b2)
	if status != 200 {
		t.Fatalf("second: %d", status)
	}
	if h.Get("X-Dnhd-Cache") != "hit" {
		t.Errorf("reordered body missed the cache (%q)", h.Get("X-Dnhd-Cache"))
	}
	if !bytes.Equal(r1, r2) {
		t.Error("responses differ")
	}
}

func TestNewRequiresSystem(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil Sys accepted")
	}
}

func TestEndpointLabel(t *testing.T) {
	cases := map[string]string{
		"/search":            epSearch,
		"/search/text":       epSearchText,
		"/dataset/a/b.csv":   epDataset,
		"/curator/queue":     epCurator,
		"/healthz":           epHealthz,
		"/stats":             epStats,
		"/":                  endpointOther,
		"/dataset":           endpointOther,
		"/search/textextras": endpointOther,
	}
	for path, want := range cases {
		if got := endpointLabel(path); got != want {
			t.Errorf("endpointLabel(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestStatsDurabilityAndRewranglerCompaction drives a durable system
// through the server: /stats must carry the durability section with
// the journaled generation, a non-durable server must omit it, and the
// rewrangler's post-run compaction hook must fold the journal into a
// checkpoint (the store was configured with a tiny compaction floor).
func TestStatsDurabilityAndRewranglerCompaction(t *testing.T) {
	root := t.TempDir()
	if _, err := archive.Generate(root, archive.DefaultGenConfig(15, 33)); err != nil {
		t.Fatal(err)
	}
	sys, err := metamess.OpenDurable(metamess.Config{
		ArchiveRoot:     root,
		DataDir:         t.TempDir(),
		CompactMinBytes: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Sys: sys})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	status, _, body := get(t, base+"/stats")
	if status != 200 {
		t.Fatalf("stats: %d", status)
	}
	var stats StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Durability == nil {
		t.Fatal("durable server reported no durability section")
	}
	if stats.Durability.Generation != sys.SnapshotGeneration() {
		t.Errorf("durable generation %d, want %d", stats.Durability.Generation, sys.SnapshotGeneration())
	}
	if stats.Durability.Appends == 0 {
		t.Error("no journal appends after a publish")
	}

	// A rewrangle (no archive change) completes and its compaction hook
	// fires: the initial wrangle's journal exceeds the floor, so the
	// post-run check must fold it into a checkpoint.
	srv.Rewrangle()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, _, body := get(t, base+"/stats")
		if err := json.Unmarshal(body, &stats); err != nil {
			t.Fatal(err)
		}
		if stats.Rewrangle.Runs >= 1 && stats.Durability != nil && stats.Durability.Compactions >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rewrangler never compacted: %+v %+v", stats.Rewrangle, stats.Durability)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if stats.Rewrangle.Failures != 0 {
		t.Errorf("rewrangle failures: %+v", stats.Rewrangle)
	}
	if stats.Durability.JournalBytes != 0 {
		t.Errorf("journal not emptied by compaction: %d bytes", stats.Durability.JournalBytes)
	}
	if stats.Durability.CheckpointBytes == 0 {
		t.Error("no checkpoint after compaction")
	}

	// Control: a non-durable system has no durability section.
	plain, _, _ := newTestSystem(t, 10, 34)
	_, ts := newTestServer(t, plain, 0)
	_, _, body = get(t, ts.URL+"/stats")
	var plainStats StatsResponse
	if err := json.Unmarshal(body, &plainStats); err != nil {
		t.Fatal(err)
	}
	if plainStats.Durability != nil {
		t.Error("non-durable server reported a durability section")
	}
}

// TestSearchBodyIsOneJSONValue: a POST /search body is exactly one JSON
// value, as a POST /publish body is. Trailing bytes after the query —
// garbage, a second copy of it, a stray bracket — are a 400, not a
// ranking of the first value; trailing whitespace and unknown fields
// are accepted.
func TestSearchBodyIsOneJSONValue(t *testing.T) {
	sys, _, _ := newTestSystem(t, 12, 7)
	handler := func() http.Handler {
		srv, err := New(Config{Sys: sys})
		if err != nil {
			t.Fatal(err)
		}
		return srv.Handler()
	}()
	const query = `{"variables":[{"name":"salinity"}]}`
	for _, c := range []struct {
		body string
		want int
	}{
		{query, http.StatusOK},
		{query + " \n\t", http.StatusOK},
		{`{"variables":[{"name":"salinity"}],"unknown":1}`, http.StatusOK},
		{query + " xyz", http.StatusBadRequest},
		{query + query, http.StatusBadRequest},
		{query + "]", http.StatusBadRequest},
	} {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", strings.NewReader(c.body)))
		if rec.Code != c.want {
			t.Errorf("body %q: status %d %.200s, want %d", c.body, rec.Code, rec.Body, c.want)
		}
	}
}

// TestSearchHandlerAllocs is the read path's allocation budget outside
// the search core: a cold POST /search through the whole handler
// (decode, key, executor, hits, render, write) over a 300-dataset
// catalog with the cache off, cycling 40 workload queries. The search
// core's own share is pinned by TestSearchSteadyStateAllocs.
func TestSearchHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	sys, m, _ := newTestSystem(t, 300, 7)
	srv, err := New(Config{Sys: sys, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	judged, err := workload.Queries(m, 40, 31, workload.DefaultRelevance(), false)
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([][]byte, len(judged))
	for i, j := range judged {
		if bodies[i], err = json.Marshal(RequestFromQuery(j.Query)); err != nil {
			t.Fatal(err)
		}
	}
	handler := srv.Handler()
	next := 0
	serve := func() {
		body := bodies[next%len(bodies)]
		next++
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %.200s", rec.Code, rec.Body)
		}
	}
	for range bodies { // warm the pools and the lazy snapshot state
		serve()
	}
	const budget = 250
	if avg := testing.AllocsPerRun(2*len(bodies), serve); avg > budget {
		t.Fatalf("a cold search request allocates %.0f times, budget %d", avg, budget)
	} else {
		t.Logf("a cold search request allocates %.0f times (budget %d)", avg, budget)
	}
}
