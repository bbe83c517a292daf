package search

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"metamess/internal/catalog"
	"metamess/internal/geo"
)

func res(id string, score float64) Result {
	return Result{Feature: &catalog.Feature{ID: id}, Score: score}
}

func date(y, m, d int) time.Time {
	return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC)
}

// benchishFeature fabricates a deterministic coastal-transect feature
// for allocation tests: spread positions, a seasonal window, and a
// couple of variables drawn from the name pool.
func benchishFeature(i int, names []string) *catalog.Feature {
	path := fmt.Sprintf("alloc/ds%04d.obs", i)
	lat := 42 + float64(i%50)*0.1
	lon := -125 + float64((i/50)%40)*0.1
	start := date(2010, 1, 1).AddDate(0, 0, (i*3)%700)
	f := &catalog.Feature{
		ID:     catalog.IDForPath(path),
		Path:   path,
		Source: "alloc",
		Format: "obs",
		BBox: geo.BBox{
			MinLat: lat, MinLon: lon,
			MaxLat: lat + 0.05, MaxLon: lon + 0.05,
		},
		Time:        geo.NewTimeRange(start, start.AddDate(0, 0, 14)),
		RowCount:    1000,
		Bytes:       4096,
		ModTime:     start,
		ScannedAt:   start,
		ContentHash: fmt.Sprintf("alloc%d", i),
		Variables: []catalog.VarFeature{
			{RawName: names[i%len(names)], Name: names[i%len(names)],
				Range: geo.NewValueRange(float64(i%20), float64(i%20+15)), Count: 900},
			{RawName: names[(i+1)%len(names)], Name: names[(i+1)%len(names)],
				Range: geo.NewValueRange(0, 30), Count: 800, Parent: "fluorescence"},
		},
	}
	return f
}

// rankedIDs drains a heap's contents through the final ranking order.
func rankedIDs(h *topK) []string {
	out := append([]Result(nil), h.items...)
	rank(out)
	ids := make([]string, len(out))
	for i, r := range out {
		ids[i] = r.Feature.ID
	}
	return ids
}

func requireIDs(t *testing.T, ctx string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %v, want %v", ctx, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: got %v, want %v", ctx, got, want)
		}
	}
}

// TestTopKDegenerateBounds pins the edge bounds: K=0 keeps nothing (and
// must not panic), K=1 keeps exactly the best under the ranking order.
func TestTopKDegenerateBounds(t *testing.T) {
	h := newTopK(0)
	for i := 0; i < 5; i++ {
		h.consider(res(fmt.Sprintf("d%d", i), float64(i)))
	}
	if len(h.items) != 0 {
		t.Fatalf("K=0 heap kept %d items", len(h.items))
	}

	h = newTopK(1)
	h.consider(res("mid", 0.5))
	h.consider(res("best", 0.9))
	h.consider(res("low", 0.1))
	requireIDs(t, "K=1", rankedIDs(h), []string{"best"})
}

// TestTopKTieBreaking pins the total order on equal scores: the lower
// ID ranks higher, so with K=2 and three equal-scored candidates the
// two lowest IDs survive regardless of arrival order.
func TestTopKTieBreaking(t *testing.T) {
	arrivals := [][]string{
		{"a", "b", "c"},
		{"c", "b", "a"},
		{"b", "a", "c"},
		{"c", "a", "b"},
	}
	for _, order := range arrivals {
		h := newTopK(2)
		for _, id := range order {
			h.consider(res(id, 0.7))
		}
		requireIDs(t, fmt.Sprintf("arrival %v", order), rankedIDs(h), []string{"a", "b"})
	}
}

// TestTopKEvictionOrder feeds scores in several orders and checks the
// root always holds the worst kept result and evictions happen strictly
// worst-first: the survivors are the true top-K with the K-th at the
// root.
func TestTopKEvictionOrder(t *testing.T) {
	feeds := [][]float64{
		{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7},
		{0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1},
		{0.4, 0.7, 0.1, 0.6, 0.3, 0.5, 0.2},
	}
	for fi, feed := range feeds {
		h := newTopK(3)
		for i, s := range feed {
			h.consider(res(fmt.Sprintf("d%d", i), s))
			if len(h.items) == 0 {
				continue
			}
			// Root invariant after every insert: no kept item ranks below it.
			for _, r := range h.items[1:] {
				if outranked(r, h.items[0]) {
					t.Fatalf("feed %d: root %.2f not the worst kept (saw %.2f)",
						fi, h.items[0].Score, r.Score)
				}
			}
		}
		got := append([]Result(nil), h.items...)
		rank(got)
		if len(got) != 3 || got[0].Score != 0.7 || got[1].Score != 0.6 || got[2].Score != 0.5 {
			t.Fatalf("feed %d: survivors %v, want scores 0.7/0.6/0.5", fi, got)
		}
		if h.items[0].Score != 0.5 {
			t.Fatalf("feed %d: root score %.2f, want the K-th (0.5)", fi, h.items[0].Score)
		}
	}
}

// TestTopKPooledReset guards the pooling change: a heap reused through
// reset must behave exactly like a fresh one — stale items gone, a new
// (smaller or larger) K honored, and a scatter-gather merge of several
// reused heaps identical to one built from scratch.
func TestTopKPooledReset(t *testing.T) {
	h := &topK{}
	h.reset(3)
	for i := 0; i < 6; i++ {
		h.consider(res(fmt.Sprintf("old%d", i), 0.9))
	}
	h.reset(2) // shrink across reuse
	h.consider(res("x", 0.3))
	h.consider(res("y", 0.8))
	h.consider(res("z", 0.5))
	requireIDs(t, "after reset", rankedIDs(h), []string{"y", "z"})

	// Merge pooled-then-reset per-shard heaps into a fresh gather heap,
	// as the scatter path does each tier round.
	shard1, shard2 := &topK{}, &topK{}
	for round := 0; round < 3; round++ {
		shard1.reset(2)
		shard2.reset(2)
	}
	for i, s := range []float64{0.2, 0.9, 0.4} {
		shard1.consider(res(fmt.Sprintf("s1-%d", i), s))
	}
	for i, s := range []float64{0.6, 0.1, 0.8} {
		shard2.consider(res(fmt.Sprintf("s2-%d", i), s))
	}
	merge := newTopK(3)
	for _, sh := range []*topK{shard1, shard2} {
		for _, r := range sh.items {
			merge.consider(r)
		}
	}
	requireIDs(t, "merged", rankedIDs(merge), []string{"s1-1", "s2-2", "s2-0"})
}

// TestClampFanOutProcsCeiling pins the scatter width: by default the
// machine's parallelism, min(GOMAXPROCS, NumCPU), so on a 1-core host
// every search runs serially instead of paying goroutine overhead for
// no concurrency; the test seam replaces it outright.
func TestClampFanOutProcsCeiling(t *testing.T) {
	defer func(old int) { maxFanOutProcs = old }(maxFanOutProcs)

	maxFanOutProcs = 0 // default: machine parallelism
	limit := runtime.GOMAXPROCS(0)
	if n := runtime.NumCPU(); n < limit {
		limit = n
	}
	if got := fanOutWidth(); got != limit {
		t.Errorf("fanOutWidth() = %d, want min(GOMAXPROCS, NumCPU) = %d", got, limit)
	}

	for _, width := range []int{1, 4, 8} {
		maxFanOutProcs = width
		if got := fanOutWidth(); got != width {
			t.Errorf("maxFanOutProcs=%d: fanOutWidth() = %d", width, got)
		}
	}
}

// TestSearchSteadyStateAllocs pins the pooling payoff: once the scratch
// pool is warm, an indexed query allocates only its response and the
// scatter's per-query bookkeeping — bounded by a small constant
// independent of catalog size, checked at 400 features and at the
// 5 000 the serving benchmark uses, over 1, 2 and 4 shards, each as
// built and again after a 25-feature publish has stacked a delta
// segment over masked base positions.
func TestSearchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	names := []string{"water_temperature", "salinity", "turbidity", "nitrate"}
	q := Query{
		Location: &geo.Point{Lat: 44.6, Lon: -124.0},
		Time:     &geo.TimeRange{Start: date(2010, 6, 1), End: date(2010, 8, 1)},
		Terms:    []Term{{Name: "salinity", Range: &geo.ValueRange{Min: 25, Max: 35}}},
		K:        10,
	}
	const budget = 48 // response slice + K explanations + query bookkeeping
	for _, n := range []int{400, 5000} {
		for _, shards := range []int{1, 2, 4} {
			feats := make([]*catalog.Feature, n)
			for i := range feats {
				feats[i] = benchishFeature(i, names)
			}
			c := served(t, shards, feats...)
			s := New(c, DefaultOptions())
			measure := func(shape string) {
				for i := 0; i < 4; i++ { // warm the pool and the lazy snapshot state
					if _, err := s.Search(q); err != nil {
						t.Fatal(err)
					}
				}
				avg := testing.AllocsPerRun(50, func() {
					if _, err := s.Search(q); err != nil {
						t.Fatal(err)
					}
				})
				t.Logf("%d features, %d shards, %s: %.1f allocs/op", n, shards, shape, avg)
				if avg > budget {
					t.Fatalf("%d features, %d shards, %s: steady-state Search allocates %.1f/op, budget %d",
						n, shards, shape, avg, budget)
				}
			}
			measure("as built")

			// Replace 25 features: each dirty shard pushes a delta
			// segment and masks the replaced base positions.
			changed := make([]*catalog.Feature, 25)
			for i := range changed {
				f := benchishFeature(i*(n/25), names)
				f.ContentHash += "-v2"
				f.RowCount++
				changed[i] = f
			}
			if _, err := c.ApplyDelta(changed, nil); err != nil {
				t.Fatal(err)
			}
			if segs := len(c.Snapshot().Segments()); segs <= shards {
				t.Fatalf("%d shards: %d segments after a delta, want a stacked one", shards, segs)
			}
			measure("after a delta")
		}
	}
}
