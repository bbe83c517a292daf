package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metamess"
	"metamess/internal/archive"
	"metamess/internal/obs"
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

// retryAfterAudit counts 429 responses that leave without Retry-After.
type retryAfterAudit struct {
	http.ResponseWriter
	missing *atomic.Int64
}

func (a retryAfterAudit) WriteHeader(status int) {
	if status == http.StatusTooManyRequests && a.Header().Get("Retry-After") == "" {
		a.missing.Add(1)
	}
	a.ResponseWriter.WriteHeader(status)
}

// TestAdmissionShedding holds the gate's only slot, so overload is
// deterministic, and verifies for each gate shape that the next request
// is shed with 429 + Retry-After for the expected reason, that an
// open-loop burst is shed whole — every response a 429 carrying
// Retry-After, never a 5xx or a dropped connection — that /readyz flips
// to 503 shedding while /healthz (liveness) stays 200, and that
// releasing the slot restores service to the same burst and, once the
// last shed is older than the window, readiness.
func TestAdmissionShedding(t *testing.T) {
	sys, m, _ := newTestSystem(t, 24, 7)
	bodies := searchBody(t, m, 16, 13)
	const burstN = 240
	burst := make([]workload.HTTPRequest, burstN)
	arrivals := workload.BurstArrivals(burstN, 16, 2000)

	for _, c := range []struct {
		name      string
		cfg       Config
		firstShed shedReason
	}{
		{"no queue", Config{MaxInFlight: 1, QueueDepth: -1}, shedQueueFull},
		// The one queue position times out (the slot is never freed) while
		// everything behind it is refused on arrival.
		{"one-deep queue", Config{MaxInFlight: 1, QueueDepth: 1, QueueWait: 10 * time.Millisecond}, shedWaitTimeout},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.cfg.Sys = sys
			srv, err := New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var missingRetryAfter atomic.Int64
			h := srv.Handler()
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				h.ServeHTTP(retryAfterAudit{w, &missingRetryAfter}, r)
			}))
			defer ts.Close()
			for i := range burst {
				burst[i] = workload.HTTPRequest{Method: http.MethodPost, URL: ts.URL + "/search", Body: bodies[i%len(bodies)]}
			}
			stats := func() OverloadStats {
				var st StatsResponse
				_, _, raw := get(t, ts.URL+"/stats")
				if err := json.Unmarshal(raw, &st); err != nil {
					t.Fatal(err)
				}
				return st.Overload
			}

			release, reason := srv.adm.acquire(context.Background())
			if reason != shedNone {
				t.Fatalf("direct acquire shed: %v", reason)
			}

			start := time.Now()
			status, hdr, respBody := postJSON(t, ts.URL+"/search", bodies[0])
			shedLatency := time.Since(start)
			if status != http.StatusTooManyRequests {
				t.Fatalf("saturated search: status %d body %s, want 429", status, respBody)
			}
			if hdr.Get("Retry-After") == "" {
				t.Error("shed response missing Retry-After")
			}
			if !bytes.Contains(respBody, []byte("overloaded ("+c.firstShed.String()+")")) {
				t.Errorf("shed body = %s, want an overloaded (%s) error", respBody, c.firstShed)
			}
			// The shed path does no search work; even on a loaded runner the
			// loopback round trip should be far under the wait bound.
			if shedLatency > DefaultQueueWait {
				t.Errorf("shed took %v, want < %v", shedLatency, DefaultQueueWait)
			}
			if n := srv.tel.shed[c.firstShed].Value(); n != 1 {
				t.Errorf("%s sheds = %d, want 1", c.firstShed, n)
			}

			// The storm: 240 requests in bursts of 16, up to 32 in flight at
			// the client, against a gate that cannot admit any of them.
			held, err := workload.Replay(context.Background(), burst, workload.LoadOptions{Arrivals: arrivals, MaxOutstanding: 32})
			if err != nil {
				t.Fatal(err)
			}
			if held.Status.Shed429 != burstN || held.Status.Server5xx != 0 || held.Status.Transport != 0 {
				t.Errorf("burst against a held slot: %+v, want all %d shed, no 5xx, no transport errors", held.Status, burstN)
			}
			if n := missingRetryAfter.Load(); n != 0 {
				t.Errorf("%d sheds carried no Retry-After", n)
			}
			st := stats()
			if st.MaxInFlight != 1 || st.PeakInFlight > 1 {
				t.Errorf("overload stats = %+v, want maxInFlight 1 and peakInFlight <= 1", st)
			}
			if st.Shed != burstN+1 || st.ShedQueueFull == 0 {
				t.Errorf("overload stats = %+v, want %d sheds, some queue_full", st, burstN+1)
			}
			// A queue-full refusal is decided without search work: far under
			// a millisecond inside the gate, whatever the client observed.
			if st.ShedDecisionMeanUs >= 1000 {
				t.Errorf("queue-full shed decision mean %.1fµs, want < 1000", st.ShedDecisionMeanUs)
			}

			if status, _, body := get(t, ts.URL+"/readyz"); status != http.StatusServiceUnavailable ||
				!bytes.Contains(body, []byte(`"shedding":true`)) {
				t.Errorf("readyz while shedding: %d %s, want 503 shedding", status, body)
			}
			if status, _, _ := get(t, ts.URL+"/healthz"); status != http.StatusOK {
				t.Errorf("healthz while shedding: %d, want 200 (liveness is not readiness)", status)
			}

			release()
			if status, _, respBody := postJSON(t, ts.URL+"/search", bodies[0]); status != http.StatusOK {
				t.Fatalf("post-release search: %d %s", status, respBody)
			}
			// The same burst, one request outstanding: a client reads a whole
			// response only after the handler has returned its slot, so the
			// one-slot gate is never contended and admits every request.
			freed, err := workload.Replay(context.Background(), burst, workload.LoadOptions{Arrivals: arrivals, MaxOutstanding: 1})
			if err != nil {
				t.Fatal(err)
			}
			if freed.Status.OK2xx != burstN || freed.Errors != 0 {
				t.Errorf("burst after release: %+v (errors %d), want all %d admitted", freed.Status, freed.Errors, burstN)
			}
			// Admitted: the held slot, the post-release search and the burst.
			if st := stats(); st.Admitted != burstN+2 || st.PeakInFlight > 1 {
				t.Errorf("overload stats after release = %+v, want %d admitted, peakInFlight <= 1", st, burstN+2)
			}

			// Readiness returns once the last shed is older than the window.
			srv.adm.lastShedNs.Store(time.Now().Add(-sheddingWindow - time.Second).UnixNano())
			if status, _, body := get(t, ts.URL+"/readyz"); status != http.StatusOK || !bytes.Contains(body, []byte(`"ready"`)) {
				t.Errorf("readyz after the shedding window: %d %s, want 200 ready", status, body)
			}
		})
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
	fk := queryKey{generation: gen, query: key}

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

	// Timeout leg: a follower whose own deadline expires while the flight
	// is still held answers an empty partial — hits an array like every
	// other response, never null.
	status, hdr, timedOut := postDeadline(t, ts.URL+"/search", body, "20")
	if want := fmt.Sprintf(`{"generation":%d,"count":0,"hits":[],"partial":true}`, gen); status != http.StatusOK ||
		hdr.Get("X-Dnhd-Cache") != "timeout" || hdr.Get("X-Dnhd-Partial") != "1" || string(timedOut) != want {
		t.Fatalf("deadline-expired follower: %d cache=%q partial=%q body %s, want 200 timeout 1 %s", status,
			hdr.Get("X-Dnhd-Cache"), hdr.Get("X-Dnhd-Partial"), timedOut, want)
	}

	// Let the followers reach the flight, then run the search for real
	// and release them with its outcome.
	time.Sleep(100 * time.Millisecond)
	out := srv.executeSearch(context.Background(), req, key, nil)
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
		status, hdr, raw := postDeadline(t, ts.URL+"/search", body, "0")
		if status != http.StatusOK {
			t.Fatalf("expired-deadline search: status %d, want 200", status)
		}
		var sr SearchResponse
		if err := json.Unmarshal(raw, &sr); err != nil {
			t.Fatal(err)
		}
		return hdr, sr
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
	// Bodies past the /search cap, valid JSON or not: refused (413) before
	// they are buffered, never a 5xx or a dropped connection.
	for i, filler := range []string{" ", "x"} {
		oversized := workload.HTTPRequest{Method: "POST", URL: ts.URL + "/search",
			Body: []byte(strings.Repeat(filler, maxSearchBodyBytes+1) + `{"k":1}`)}
		reqs = append(reqs[:40*(i+1)], append([]workload.HTTPRequest{oversized}, reqs[40*(i+1):]...)...)
	}
	stats, err := workload.Replay(context.Background(), reqs, workload.LoadOptions{Concurrency: 8, TolerateClientErrors: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Status.Server5xx != 0 || stats.Status.Transport != 0 {
		t.Fatalf("hostile mix: %d server errors, %d transport errors, want 0 (status %+v)",
			stats.Status.Server5xx, stats.Status.Transport, stats.Status)
	}
}

// TestFlightLeadReleasesFollowers drives the flight runner without a
// server: followers of a flight are served the leader's outcome, and a
// leader whose executor panics still releases them — with the 500
// outcome — before the panic continues, leaving the key free for the
// next flight.
func TestFlightLeadReleasesFollowers(t *testing.T) {
	ok := searchOutcome{status: http.StatusOK, body: []byte(`{"count":0}`), cacheState: "miss", generation: 7}
	cases := []struct {
		name       string
		run        func() searchOutcome
		wantStatus int
		wantBody   string
	}{
		{"executor returns", func() searchOutcome { return ok }, http.StatusOK, `{"count":0}`},
		{"executor panics", func() searchOutcome { panic("boom") }, http.StatusInternalServerError, `{"error":"search failed"}`},
	}
	for _, c := range cases {
		var g flightGroup
		key := queryKey{generation: 7, query: c.name}
		f, leader := g.join(key)
		if !leader {
			t.Fatalf("%s: first join is not the leader", c.name)
		}
		follower, leader := g.join(key)
		if leader || follower != f {
			t.Fatalf("%s: second join did not follow the first flight", c.name)
		}
		panicked := func() (p any) {
			defer func() { p = recover() }()
			g.lead(key, f, c.run)
			return nil
		}()
		if (panicked != nil) != (c.wantStatus == http.StatusInternalServerError) {
			t.Errorf("%s: panic = %v", c.name, panicked)
		}
		select {
		case <-follower.done:
		default:
			t.Fatalf("%s: follower still waiting after lead returned", c.name)
		}
		if follower.out.status != c.wantStatus || string(follower.out.body) != c.wantBody {
			t.Errorf("%s: follower got %d %s, want %d %s", c.name, follower.out.status, follower.out.body, c.wantStatus, c.wantBody)
		}
		if _, leader := g.join(key); !leader {
			t.Errorf("%s: key still held after the flight finished", c.name)
		}
	}
}

// TestRender pins the one renderer: hits is always an array, a partial
// is flagged in the body and the outcome, and an inline trace marks the
// outcome "bypass" so it can never be cached or shared.
func TestRender(t *testing.T) {
	hit := metamess.Hit{Path: "a.csv", Score: 0.5, Summary: "s"}
	cases := []struct {
		name      string
		hits      []metamess.Hit
		partial   bool
		trace     *obs.SpanTree
		wantBody  string
		wantState string
	}{
		{"nil hits", nil, false, nil, `{"generation":3,"count":0,"hits":[]}`, "miss"},
		{"empty hits", []metamess.Hit{}, false, nil, `{"generation":3,"count":0,"hits":[]}`, "miss"},
		{"hits", []metamess.Hit{hit}, false, nil, `{"generation":3,"count":1,"hits":[{"path":"a.csv","score":0.5,"summary":"s"}]}`, "miss"},
		{"empty partial", nil, true, nil, `{"generation":3,"count":0,"hits":[],"partial":true}`, "miss"},
		{"forced trace", nil, false, &obs.SpanTree{Name: "search"}, `{"generation":3,"count":0,"hits":[],"trace":{"name":"search","startUs":0,"durUs":0}}`, "bypass"},
		{"forced partial", []metamess.Hit{hit}, true, &obs.SpanTree{Name: "search"}, `{"generation":3,"count":1,"hits":[{"path":"a.csv","score":0.5,"summary":"s"}],"partial":true,"trace":{"name":"search","startUs":0,"durUs":0}}`, "bypass"},
	}
	for _, c := range cases {
		out := render(3, c.hits, c.partial, c.trace)
		if out.status != http.StatusOK || out.generation != 3 || out.partial != c.partial || out.cacheState != c.wantState {
			t.Errorf("%s: outcome %d gen %d partial %v state %q, want 200 gen 3 partial %v state %q",
				c.name, out.status, out.generation, out.partial, out.cacheState, c.partial, c.wantState)
		}
		if string(out.body) != c.wantBody {
			t.Errorf("%s: body %s, want %s", c.name, out.body, c.wantBody)
		}
	}
	// A score JSON cannot carry is the one way the marshal fails.
	if out := render(3, []metamess.Hit{{Score: math.NaN()}}, false, nil); out.status != http.StatusInternalServerError ||
		string(out.body) != `{"error":"marshal failed"}` {
		t.Errorf("unmarshalable hits: %d %s, want 500 marshal failed", out.status, out.body)
	}
}

// TestGateRefusalOrder holds every refusal condition at once and peels
// them off one by one: the shared gate answers rate limit, then (search
// only) min-generation, then admission — each with its headers, all
// before the body is looked at — for /search and /publish alike.
func TestGateRefusalOrder(t *testing.T) {
	sys, _, _ := newTestSystem(t, 12, 7)
	srv, err := New(Config{Sys: sys, RateLimit: 0.001, RateBurst: 1, MaxInFlight: 1, QueueDepth: -1})
	if err != nil {
		t.Fatal(err)
	}
	handler := srv.Handler()
	future := fmt.Sprint(sys.SnapshotGeneration() + 100)
	release, reason := srv.adm.acquire(context.Background())
	if reason != shedNone {
		t.Fatalf("direct acquire shed: %v", reason)
	}

	type want struct {
		status     int
		bodyHas    string
		retryAfter bool
		generation bool
	}
	rateLimited := want{http.StatusTooManyRequests, "client rate limit exceeded", true, false}
	overloaded := want{http.StatusTooManyRequests, "server overloaded (queue_full)", true, false}
	steps := []struct {
		name            string
		spent, slotHeld bool
		search, publish want
	}{
		{"rate limit first", true, true, rateLimited, rateLimited},
		{"then min-generation, searches only", false, true,
			want{http.StatusPreconditionFailed, "not yet available", false, true}, overloaded},
		{"body last", false, false,
			want{http.StatusPreconditionFailed, "not yet available", false, true},
			want{http.StatusUnprocessableEntity, "", false, false}},
	}
	for si, st := range steps {
		if !st.slotHeld {
			release()
		}
		for _, ep := range []struct {
			path string
			want want
		}{{"/search", st.search}, {"/publish", st.publish}} {
			client := fmt.Sprintf("client-%d-%s", si, ep.path)
			if st.spent {
				srv.limiter.take(client, time.Now())
			}
			// Every request is malformed and demands an unreachable
			// generation: only the gates ahead of those decide the answer.
			r := httptest.NewRequest(http.MethodPost, ep.path, strings.NewReader("{not json"))
			r.Header.Set("X-Client-Id", client)
			r.Header.Set("X-Min-Generation", future)
			r.Header.Set("X-Deadline-Ms", "5")
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, r)
			if rec.Code != ep.want.status || !strings.Contains(rec.Body.String(), ep.want.bodyHas) {
				t.Errorf("%s %s: %d %s, want %d %q", st.name, ep.path, rec.Code, rec.Body, ep.want.status, ep.want.bodyHas)
			}
			if got := rec.Header().Get("Retry-After") != ""; got != ep.want.retryAfter {
				t.Errorf("%s %s: Retry-After present = %v, want %v", st.name, ep.path, got, ep.want.retryAfter)
			}
			if got := rec.Header().Get("X-Dnhd-Generation") != ""; got != ep.want.generation {
				t.Errorf("%s %s: X-Dnhd-Generation present = %v, want %v", st.name, ep.path, got, ep.want.generation)
			}
		}
	}
	// With no gate refusing, the malformed search body is finally read.
	r := httptest.NewRequest(http.MethodPost, "/search", strings.NewReader("{not json"))
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, r)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "bad request body") {
		t.Errorf("ungated malformed search: %d %s, want 400 bad request body", rec.Code, rec.Body)
	}
}
