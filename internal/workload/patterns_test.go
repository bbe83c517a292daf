package workload

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestZipfIndicesSkewAndDeterminism(t *testing.T) {
	const total, n = 5000, 100
	a := ZipfIndices(total, n, 1.2, 7)
	b := ZipfIndices(total, n, 1.2, 7)
	if len(a) != total {
		t.Fatalf("len = %d, want %d", len(a), total)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= n {
			t.Fatalf("index %d out of [0,%d)", a[i], n)
		}
	}
	counts := make([]int, n)
	for _, idx := range a {
		counts[idx]++
	}
	// Zipfian skew: the most popular key dominates any tail key, and the
	// head outweighs a uniform share many times over.
	if counts[0] < 5*total/n {
		t.Errorf("head count %d, want well above the uniform share %d", counts[0], total/n)
	}
	tail := 0
	for _, c := range counts[n/2:] {
		tail += c
	}
	if tail >= counts[0] {
		t.Errorf("tail half (%d draws) outweighs the head key (%d)", tail, counts[0])
	}

	if got := ZipfIndices(0, 10, 1.2, 1); got != nil {
		t.Errorf("total 0: got %v", got)
	}
	if got := ZipfIndices(10, 0, 1.2, 1); got != nil {
		t.Errorf("n 0: got %v", got)
	}
}

func TestArrivalSchedules(t *testing.T) {
	steady := SteadyArrivals(4, 100)
	want := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i := range want {
		if steady[i] != want[i] {
			t.Errorf("steady[%d] = %v, want %v", i, steady[i], want[i])
		}
	}

	burst := BurstArrivals(8, 4, 100)
	// Bursts of 4 at 100 qps: offsets 0,0,0,0 then 40ms x4 — same span,
	// same average rate, released in slabs.
	for i, wantOff := range []time.Duration{0, 0, 0, 0, 40 * time.Millisecond, 40 * time.Millisecond, 40 * time.Millisecond, 40 * time.Millisecond} {
		if burst[i] != wantOff {
			t.Errorf("burst[%d] = %v, want %v", i, burst[i], wantOff)
		}
	}
}

// TestPercentileNearestRank pins the nearest-rank definition: the q-th
// percentile of n samples is the ceil(q·n)-th smallest. Rounding q·n to
// the nearest integer instead reads one rank low whenever its
// fractional part is below one half.
func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want int // 1-based rank
	}{
		{1, 0.50, 1},
		{1, 0.99, 1},
		{10, 0.50, 5},
		{16, 0.90, 15},
		{64, 0.99, 64},
		{100, 0.99, 99},
		{160, 0.99, 159},
		{160, 0.50, 80},
		{1000, 0.999, 999},
	}
	for _, c := range cases {
		sorted := make([]time.Duration, c.n)
		for i := range sorted {
			sorted[i] = time.Duration(i + 1)
		}
		if got := percentile(sorted, c.q); got != time.Duration(c.want) {
			t.Errorf("p%v of %d samples = rank %d, want %d", c.q*100, c.n, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty: %v, want 0", got)
	}
}

func TestCorpusStringsReadsFuzzCorpora(t *testing.T) {
	got, err := CorpusStrings("../scan/testdata/fuzz/FuzzScanParsers")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no strings extracted from the scan fuzz corpus")
	}
	found := false
	for _, s := range got {
		if s == "csv" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected the csv format tag among corpus strings, got %d strings", len(got))
	}
	if _, err := CorpusStrings("no/such/dir"); err == nil {
		t.Error("missing dir: want error")
	}
}

func TestHostileTextRequestsShape(t *testing.T) {
	reqs := HostileTextRequests("http://x", []string{"a b", `"; DROP`}, 10, 3)
	if len(reqs) != 10 {
		t.Fatalf("len = %d, want 10", len(reqs))
	}
	for _, r := range reqs {
		if r.Method != http.MethodGet {
			t.Errorf("method %q", r.Method)
		}
		const prefix = "http://x/search/text?q="
		if len(r.URL) <= len(prefix) || r.URL[:len(prefix)] != prefix {
			t.Errorf("url %q", r.URL)
		}
	}
	if HostileTextRequests("http://x", nil, 10, 3) != nil {
		t.Error("empty corpus: want nil")
	}
}

// TestReplayOpenLoop drives the open-loop path: arrivals dispatch on
// schedule regardless of completion, per-status and per-cache-state
// counts land in the stats, and 429s are sheds, not errors.
func TestReplayOpenLoop(t *testing.T) {
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := n.Add(1)
		switch {
		case i%3 == 0:
			w.Header().Set("Retry-After", "1")
			http.Error(w, "overloaded", http.StatusTooManyRequests)
		case i%3 == 1:
			w.Header().Set("X-Dnhd-Cache", "hit")
			w.Write([]byte(`{"ok":true}`))
		default:
			w.Header().Set("X-Dnhd-Cache", "collapsed")
			w.Header().Set("X-Dnhd-Partial", "1")
			w.Write([]byte(`{"ok":true,"partial":true}`))
		}
	}))
	defer ts.Close()

	const total = 30
	reqs := make([]HTTPRequest, total)
	for i := range reqs {
		reqs[i] = HTTPRequest{Method: http.MethodGet, URL: ts.URL, Header: map[string]string{"X-Test": "1"}}
	}
	stats, err := Replay(context.Background(), reqs, LoadOptions{Arrivals: BurstArrivals(total, 5, 2000)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests != total {
		t.Errorf("requests = %d, want %d", stats.Requests, total)
	}
	if stats.Errors != 0 {
		t.Errorf("errors = %d, want 0 (429 is a shed, not an error)", stats.Errors)
	}
	if stats.Status.Shed429 != total/3 {
		t.Errorf("shed = %d, want %d", stats.Status.Shed429, total/3)
	}
	if stats.Status.OK2xx != total-total/3 {
		t.Errorf("2xx = %d, want %d", stats.Status.OK2xx, total-total/3)
	}
	if stats.ShedRate <= 0 || stats.ShedRate >= 1 {
		t.Errorf("shedRate = %v, want in (0,1)", stats.ShedRate)
	}
	if stats.CacheStates["hit"] == 0 || stats.CacheStates["collapsed"] == 0 {
		t.Errorf("cache states = %v, want hit and collapsed counted", stats.CacheStates)
	}
	if stats.Partials == 0 {
		t.Errorf("partials = %d, want > 0", stats.Partials)
	}
}

func TestReplayArrivalsLengthMismatch(t *testing.T) {
	reqs := []HTTPRequest{{Method: http.MethodGet, URL: "http://127.0.0.1:1"}}
	if _, err := Replay(context.Background(), reqs, LoadOptions{Arrivals: make([]time.Duration, 2)}); err == nil {
		t.Fatal("mismatched arrivals: want error")
	}
}
