package catalog

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"metamess/internal/geo"
)

// TestDictionaryBoundedByMerges pins that term dictionaries track the
// live catalog, not its publish history: 500 one-feature deltas that
// each rename one variable to a fresh name leave each shard's
// dictionaries holding at most its live terms plus the masked bound. A
// retracted name survives only in masked versions — one name each here
// — and the merges the bound forces drop them.
func TestDictionaryBoundedByMerges(t *testing.T) {
	const shards, n = 2, 100
	start := time.Date(2010, 6, 1, 0, 0, 0, 0, time.UTC)
	path := func(i int) string { return fmt.Sprintf("d%03d.obs", i) }
	var feats []*Feature
	for i := 0; i < n; i++ {
		feats = append(feats, snapFeat(path(i), 45, -124, start, 5, "salinity", "turbidity"))
	}
	c := served(t, shards, feats...)
	rng := rand.New(rand.NewSource(3))
	for d := 0; d < 500; d++ {
		live, _ := c.Snapshot().ByID(IDForPath(path(rng.Intn(n))))
		f := live.Clone()
		f.Variables[0].Name = fmt.Sprintf("renamed-%d", d)
		if _, err := c.ApplyDelta([]*Feature{f}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for si, sh := range c.Snapshot().shards {
		live, dict := make(map[string]bool), make(map[string]bool)
		for _, sg := range sh.segs {
			for p, f := range sg.All() {
				if !sg.Masked(int32(p)) {
					for _, name := range f.SearchableNames() {
						live[name] = true
					}
				}
			}
			for _, key := range sg.names.keys {
				dict[key] = true
			}
		}
		// The stated bound, maskBound, spelled out so the test pins it.
		if limit := len(live) + sh.live/16; len(dict) > limit {
			t.Errorf("shard %d: dictionaries hold %d names, %d live + bound %d = %d",
				si, len(dict), len(live), sh.live/16, limit)
		}
	}
}

// TestApplyAllocationsTrackChurn pins that a publish costs what it
// changes, not what the catalog holds: consecutive 25-feature deltas
// allocate, amortized over a window that includes base merges, no more
// than four times as much per apply on a 200 000-feature catalog as on
// a 5 000-feature one. Allocated bytes are deterministic where wall
// time is not.
func TestApplyAllocationsTrackChurn(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts and a 200k catalog under the race detector's shadow memory")
	}
	small := applyBytesPerDelta(t, 5_000)
	large := applyBytesPerDelta(t, 200_000)
	t.Logf("bytes per 25-feature apply: %.0f at 5k, %.0f at 200k (%.2fx)", small, large, large/small)
	if large > 4*small {
		t.Fatalf("a 25-feature apply allocates %.0f B at 200k features against %.0f B at 5k (%.1fx > 4x)",
			large, small, large/small)
	}
}

// applyBytesPerDelta loads an n-feature, 2-shard catalog and returns the
// bytes one 25-feature replacement delta allocates, amortized over a
// window sized to two base-merge periods: each shard masks about half
// the delta per apply and merges its base past maskBound(n/2).
func applyBytesPerDelta(t *testing.T, n int) float64 {
	t.Helper()
	const shards, churn = 2, 25
	feats := make([]*Feature, n)
	for i := range feats {
		feats[i] = leanFeature(i, 0)
	}
	c := NewSharded(shards)
	if _, err := c.ApplyDelta(feats, nil); err != nil {
		t.Fatal(err)
	}
	period := maskBound(n/shards)/(churn/shards) + 1
	window := max(2*period+1, 200)
	rng := rand.New(rand.NewSource(int64(n)))
	version := 0
	apply := func() bool {
		version++
		seen := make(map[int]bool, churn)
		changed := make([]*Feature, 0, churn)
		for len(changed) < churn {
			if i := rng.Intn(n); !seen[i] {
				seen[i] = true
				changed = append(changed, leanFeature(i, version))
			}
		}
		if _, err := c.ApplyDelta(changed, nil); err != nil {
			t.Fatal(err)
		}
		return c.LastMerge().Base
	}
	for i := 0; i < period; i++ {
		apply()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	baseMerges := 0
	for i := 0; i < window; i++ {
		if apply() {
			baseMerges++
		}
	}
	runtime.ReadMemStats(&after)
	if baseMerges < shards {
		t.Fatalf("%d features: %d base merges in a %d-apply window, want at least %d", n, baseMerges, window, shards)
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(window)
}

// leanFeature is a small valid feature for large-catalog tests; version
// changes its content, not its identity.
func leanFeature(i, version int) *Feature {
	path := fmt.Sprintf("lean/%06d.obs", i)
	names := [...]string{"salinity", "water_temperature", "turbidity", "nitrate"}
	lat, lon := float64(i%170)-85, float64(i%350)-175
	start := time.Date(2000+i%20, time.Month(1+i%12), 1, 0, 0, 0, 0, time.UTC)
	name := names[(i+version)%len(names)]
	return &Feature{
		ID:     IDForPath(path),
		Path:   path,
		Source: "lean",
		Format: "obs",
		BBox:   geo.BBox{MinLat: lat, MinLon: lon, MaxLat: lat + 0.5, MaxLon: lon + 0.5},
		Time:   geo.NewTimeRange(start, start.AddDate(0, 0, 30)),
		Variables: []VarFeature{{
			RawName: name, Name: name, Range: geo.NewValueRange(0, float64(version)), Count: 1,
		}},
	}
}

// TestTemporalOrderMatchesStableSort holds the temporal index's sort to
// the order a stable sort by instant alone gives — ties, zero times and
// sub-second instants included.
func TestTemporalOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		features := make([]*Feature, rng.Intn(200))
		for i := range features {
			var tr geo.TimeRange
			if rng.Intn(5) > 0 {
				s := time.Date(2009+rng.Intn(3), 1, 1+rng.Intn(3), 0, 0, 0, rng.Intn(3)*int(time.Millisecond), time.UTC)
				tr = geo.NewTimeRange(s, s.AddDate(0, 0, rng.Intn(3)))
			}
			features[i] = &Feature{Time: tr}
		}
		got := buildTemporalIndex(features)
		byStart := make([]int32, len(features))
		byEnd := make([]int32, len(features))
		for i := range features {
			byStart[i], byEnd[i] = int32(i), int32(i)
		}
		sort.SliceStable(byStart, func(a, b int) bool {
			return features[byStart[a]].Time.Start.Before(features[byStart[b]].Time.Start)
		})
		sort.SliceStable(byEnd, func(a, b int) bool {
			return features[byEnd[a]].Time.End.After(features[byEnd[b]].Time.End)
		})
		if !slices.Equal(got.byStart, byStart) || !slices.Equal(got.byEnd, byEnd) {
			t.Fatalf("trial %d: orders %v / %v, stable sort gives %v / %v", trial, got.byStart, got.byEnd, byStart, byEnd)
		}
		checkTemporalWellFormed(t, trial, got, len(features))
	}
}

// builtSink keeps BenchmarkBuildShard's result alive.
var builtSink *segment

// BenchmarkBuildShard builds one 3 500-feature segment: the cost of a
// base merge on a 7 000-feature, 2-shard catalog, and of a cold build.
func BenchmarkBuildShard(b *testing.B) {
	features := make([]*Feature, 3500)
	for i := range features {
		features[i] = deltaFeature(i, 0)
	}
	slices.SortFunc(features, byID)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builtSink = buildShard(features)
	}
}
