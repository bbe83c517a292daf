package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"metamess"
	"metamess/internal/archive"
	"metamess/internal/workload"
)

// Overload battery: admission shedding, singleflight byte-identity,
// stale-while-revalidate byte-identity across a publish, the
// partial-results deadline contract, and the fuzz-corpus no-5xx
// invariant.

func newOverloadServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func searchBody(t testing.TB, m *archive.Manifest, n int, seed int64) [][]byte {
	t.Helper()
	judged, err := workload.Queries(m, n, seed, workload.DefaultRelevance(), false)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(judged))
	for i, j := range judged {
		body, err := json.Marshal(RequestFromQuery(j.Query))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = body
	}
	return out
}

// TestAdmissionShedding holds the server's only slot and verifies the
// next request is shed instantly with 429 + Retry-After, that /readyz
// flips to 503 shedding while /healthz (liveness) stays 200, and that
// releasing the slot restores service.
func TestAdmissionShedding(t *testing.T) {
	sys, m, _ := newTestSystem(t, 24, 7)
	srv, ts := newOverloadServer(t, Config{Sys: sys, MaxInFlight: 1, QueueDepth: -1})
	body := searchBody(t, m, 1, 13)[0]

	release, reason := srv.adm.acquire(context.Background())
	if reason != shedNone {
		t.Fatalf("direct acquire shed: %v", reason)
	}

	start := time.Now()
	status, hdr, respBody := postJSON(t, ts.URL+"/search", body)
	shedLatency := time.Since(start)
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated search: status %d body %s, want 429", status, respBody)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	if !bytes.Contains(respBody, []byte("overloaded")) {
		t.Errorf("shed body = %s, want an overloaded error", respBody)
	}
	// The shed path does no search work; even on a loaded runner the
	// loopback round trip should be far under the wait bound.
	if shedLatency > DefaultQueueWait {
		t.Errorf("shed took %v, want < %v (instant path)", shedLatency, DefaultQueueWait)
	}

	if status, _, body := get(t, ts.URL+"/readyz"); status != http.StatusServiceUnavailable ||
		!bytes.Contains(body, []byte(`"shedding": true`)) && !bytes.Contains(body, []byte(`"shedding":true`)) {
		t.Errorf("readyz while shedding: %d %s, want 503 shedding", status, body)
	}
	if status, _, _ := get(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Errorf("healthz while shedding: %d, want 200 (liveness is not readiness)", status)
	}
	if n := srv.tel.shed[shedQueueFull].Value(); n != 1 {
		t.Errorf("queue_full sheds = %d, want 1", n)
	}

	release()
	if status, _, respBody := postJSON(t, ts.URL+"/search", body); status != http.StatusOK {
		t.Fatalf("post-release search: %d %s", status, respBody)
	}

	var stats StatsResponse
	_, _, raw := get(t, ts.URL+"/stats")
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Overload.MaxInFlight != 1 || stats.Overload.Shed == 0 || stats.Overload.Admitted == 0 {
		t.Errorf("overload stats = %+v, want maxInFlight 1, shed > 0, admitted > 0", stats.Overload)
	}
}

// TestReadyzHealthy verifies the readiness probe on an ungated,
// unloaded server.
func TestReadyzHealthy(t *testing.T) {
	sys, _, _ := newTestSystem(t, 12, 7)
	_, ts := newOverloadServer(t, Config{Sys: sys})
	status, _, body := get(t, ts.URL+"/readyz")
	if status != http.StatusOK || !bytes.Contains(body, []byte(`"ready"`)) {
		t.Errorf("readyz: %d %s, want 200 ready", status, body)
	}
}

// TestSingleflightByteIdentity proves followers receive the leader's
// bytes verbatim. A generated archive searches in microseconds, so
// concurrent requests rarely overlap a real flight on a small machine;
// instead the test itself becomes the flight leader (same key
// derivation as serveSearch), lets HTTP followers pile up on the held
// flight, then publishes a genuine executor outcome — every follower
// must answer 200 with that exact body, and at least one must be marked
// collapsed. Run under -race this is also the data-race check on the
// flight group.
func TestSingleflightByteIdentity(t *testing.T) {
	sys, m, _ := newTestSystem(t, 48, 7)
	srv, ts := newOverloadServer(t, Config{Sys: sys, CacheSize: -1})
	body := searchBody(t, m, 1, 17)[0]

	// serveSearch keys flights on the re-marshaled decoded request; a
	// marshal round-trip of the same struct reproduces it exactly.
	var req SearchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	keyBytes, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	key := string(keyBytes)
	gen := sys.SnapshotGeneration()
	fk := flightKey{generation: gen, query: key}

	f, leader := srv.flights.join(fk)
	if !leader {
		t.Fatal("test did not become flight leader")
	}

	const width = 8
	bodies := make([][]byte, width)
	states := make([]string, width)
	var wg sync.WaitGroup
	for i := 0; i < width; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/search", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("follower %d: status %d body %s", i, resp.StatusCode, buf.Bytes())
				return
			}
			bodies[i] = buf.Bytes()
			states[i] = resp.Header.Get("X-Dnhd-Cache")
		}(i)
	}

	// Let the followers reach the flight, then run the search for real
	// and release them with its outcome.
	time.Sleep(100 * time.Millisecond)
	out := srv.executeSearch(context.Background(), req.toQuery(), key, nil)
	if out.status != http.StatusOK {
		t.Fatalf("leader execution: status %d body %s", out.status, out.body)
	}
	srv.flights.finish(fk, f, out)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	collapsed := 0
	for i := range bodies {
		if states[i] == "collapsed" {
			collapsed++
			if !bytes.Equal(bodies[i], out.body) {
				t.Fatalf("follower %d: collapsed body diverged from leader's:\n%s\nvs\n%s", i, bodies[i], out.body)
			}
		} else if !bytes.Equal(bodies[i], out.body) {
			// A straggler that missed the flight re-executed; same
			// generation + deterministic ranking = same bytes.
			t.Fatalf("follower %d (%s): body diverged:\n%s\nvs\n%s", i, states[i], bodies[i], out.body)
		}
	}
	if collapsed == 0 {
		t.Fatal("no follower was collapsed onto the held flight")
	}
	if n := srv.tel.collapsed.Value(); n != uint64(collapsed) {
		t.Errorf("collapsed metric = %d, want %d", n, collapsed)
	}
}

// TestStaleWhileRevalidate publishes a new generation under a warm
// cache and verifies the property: every post-publish response is
// either byte-identical to the previously valid generation's response
// (marked stale, labeled with the old generation) or a fresh
// new-generation response — never a torn mix — and the background
// revalidation eventually promotes the query to a fresh hit.
func TestStaleWhileRevalidate(t *testing.T) {
	sys, m, root := newTestSystem(t, 36, 7)
	_, ts := newOverloadServer(t, Config{Sys: sys, StaleWindow: time.Minute})
	body := searchBody(t, m, 1, 19)[0]

	// Warm the cache at the first generation.
	status, hdr, oldBody := postJSON(t, ts.URL+"/search", body)
	if status != http.StatusOK {
		t.Fatalf("warm: %d %s", status, oldBody)
	}
	oldGen := hdr.Get("X-Dnhd-Generation")
	if status, hdr, cached := postJSON(t, ts.URL+"/search", body); status != http.StatusOK ||
		hdr.Get("X-Dnhd-Cache") != "hit" || !bytes.Equal(cached, oldBody) {
		t.Fatalf("warm replay: %d %s (%s)", status, hdr.Get("X-Dnhd-Cache"), cached)
	}

	// Publish: grow the archive and re-wrangle, bumping the generation.
	if _, err := archive.Generate(filepath.Join(root, "extra"), archive.DefaultGenConfig(10, 99)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	newGen := fmt.Sprint(sys.SnapshotGeneration())
	if newGen == oldGen {
		t.Fatal("generation did not bump")
	}

	// The first post-publish request must be answered from the previous
	// generation — the cliff the stale window exists to remove.
	status, hdr, staleBody := postJSON(t, ts.URL+"/search", body)
	if status != http.StatusOK || hdr.Get("X-Dnhd-Cache") != "stale" {
		t.Fatalf("first post-publish response: %d cache=%s, want 200 stale", status, hdr.Get("X-Dnhd-Cache"))
	}
	if hdr.Get("X-Dnhd-Generation") != oldGen {
		t.Errorf("stale generation = %s, want %s", hdr.Get("X-Dnhd-Generation"), oldGen)
	}
	if !bytes.Equal(staleBody, oldBody) {
		t.Fatalf("stale response not byte-identical to the prior generation's:\n%s\nvs\n%s", staleBody, oldBody)
	}

	// Poll until revalidation lands; every interim response must be
	// old-generation bytes verbatim or a fresh new-generation response.
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, hdr, resp := postJSON(t, ts.URL+"/search", body)
		if status != http.StatusOK {
			t.Fatalf("post-publish poll: %d %s", status, resp)
		}
		state, gen := hdr.Get("X-Dnhd-Cache"), hdr.Get("X-Dnhd-Generation")
		switch state {
		case "stale":
			if gen != oldGen || !bytes.Equal(resp, oldBody) {
				t.Fatalf("stale response torn: gen=%s (want %s), identical=%v", gen, oldGen, bytes.Equal(resp, oldBody))
			}
		case "hit", "miss", "collapsed":
			if gen != newGen {
				t.Fatalf("%s response labeled generation %s, want %s", state, gen, newGen)
			}
			if state == "hit" {
				return // revalidated and promoted
			}
		default:
			t.Fatalf("unexpected cache state %q", state)
		}
		if time.Now().After(deadline) {
			t.Fatal("revalidation never promoted the query to a fresh hit")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDeadlinePartial sends an already-expired client budget
// (X-Deadline-Ms: 0): the response must be a 200 with partial:true and
// the partial header, and must never enter the cache — the identical
// follow-up is partial again, and an undeadlined run still pays (then
// caches) the full search.
func TestDeadlinePartial(t *testing.T) {
	sys, m, _ := newTestSystem(t, 24, 7)
	srv, ts := newOverloadServer(t, Config{Sys: sys})
	body := searchBody(t, m, 1, 23)[0]

	expired := func() (http.Header, SearchResponse) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/search", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Deadline-Ms", "0")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("expired-deadline search: status %d, want 200", resp.StatusCode)
		}
		var sr SearchResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return resp.Header, sr
	}

	for round := 0; round < 2; round++ {
		hdr, sr := expired()
		if !sr.Partial {
			t.Fatalf("round %d: partial = false, want true", round)
		}
		if hdr.Get("X-Dnhd-Partial") != "1" {
			t.Errorf("round %d: missing X-Dnhd-Partial header", round)
		}
		if state := hdr.Get("X-Dnhd-Cache"); state == "hit" || state == "stale" {
			t.Fatalf("round %d: partial served from cache (%s) — partials must never be cached", round, state)
		}
	}
	if n := srv.tel.partials.Value(); n < 2 {
		t.Errorf("partials metric = %d, want >= 2", n)
	}

	// Without a deadline the same query is a full miss (proving the
	// partial rounds cached nothing), then a hit.
	status, hdr, resp := postJSON(t, ts.URL+"/search", body)
	if status != http.StatusOK || hdr.Get("X-Dnhd-Cache") != "miss" {
		t.Fatalf("undeadlined run: %d cache=%s body=%s, want 200 miss", status, hdr.Get("X-Dnhd-Cache"), resp)
	}
	var sr SearchResponse
	if err := json.Unmarshal(resp, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Partial {
		t.Error("undeadlined run returned partial")
	}
	if status, hdr, _ := postJSON(t, ts.URL+"/search", body); status != http.StatusOK || hdr.Get("X-Dnhd-Cache") != "hit" {
		t.Errorf("undeadlined replay: %d cache=%s, want 200 hit", status, hdr.Get("X-Dnhd-Cache"))
	}
}

// TestSearchPartialContextCanceled checks the library-level contract:
// an expired context yields partial results and no error.
func TestSearchPartialContextCanceled(t *testing.T) {
	sys, _, _ := newTestSystem(t, 24, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hits, partial, err := sys.SearchPartialContext(ctx,
		metamess.Query{Variables: []metamess.VariableTerm{{Name: "temperature"}}, K: 5})
	if err != nil {
		t.Fatalf("SearchPartialContext: %v", err)
	}
	if !partial {
		t.Error("canceled context: partial = false, want true")
	}
	_ = hits // whatever was gathered before the cancel is valid
}

// TestHostileMixNo5xx replays fuzz-corpus garbage as text queries:
// rejections are expected, 5xx never.
func TestHostileMixNo5xx(t *testing.T) {
	sys, _, _ := newTestSystem(t, 24, 7)
	_, ts := newOverloadServer(t, Config{Sys: sys, MaxInFlight: 2, QueueDepth: 2, QueueWait: time.Millisecond})

	var corpus []string
	for _, dir := range []string{
		"../expr/testdata/fuzz/FuzzExprParse",
		"../scan/testdata/fuzz/FuzzScanParsers",
	} {
		ss, err := workload.CorpusStrings(dir)
		if err != nil {
			t.Fatalf("corpus %s: %v", dir, err)
		}
		corpus = append(corpus, ss...)
	}
	if len(corpus) == 0 {
		t.Fatal("no corpus strings")
	}
	reqs := workload.HostileTextRequests(ts.URL, corpus, 120, 5)
	stats, err := workload.Replay(context.Background(), reqs, workload.LoadOptions{Concurrency: 8, TolerateClientErrors: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Status.Server5xx != 0 || stats.Status.Transport != 0 {
		t.Fatalf("hostile mix: %d server errors, %d transport errors, want 0 (status %+v)",
			stats.Status.Server5xx, stats.Status.Transport, stats.Status)
	}
}
