package catalog

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"metamess/internal/geo"
)

func snapFeat(path string, lat, lon float64, start time.Time, days int, vars ...string) *Feature {
	f := &Feature{
		ID:     IDForPath(path),
		Path:   path,
		Source: "stations",
		Format: "obs",
		BBox: geo.BBox{
			MinLat: lat - 0.01, MinLon: lon - 0.01,
			MaxLat: lat + 0.01, MaxLon: lon + 0.01,
		},
		Time: geo.NewTimeRange(start, start.AddDate(0, 0, days)),
	}
	for _, v := range vars {
		f.Variables = append(f.Variables, VarFeature{
			RawName: v, Name: v, Range: geo.NewValueRange(0, 10), Count: 5,
		})
	}
	return f
}

func TestSnapshotCachedUntilMutation(t *testing.T) {
	c := New()
	base := time.Date(2010, 6, 1, 0, 0, 0, 0, time.UTC)
	if err := c.Upsert(snapFeat("a.obs", 45, -124, base, 10, "salinity")); err != nil {
		t.Fatal(err)
	}
	s1 := c.Snapshot()
	if s2 := c.Snapshot(); s2 != s1 {
		t.Error("snapshot rebuilt without a mutation")
	}
	if err := c.Upsert(snapFeat("b.obs", 45, -124, base, 10, "turbidity")); err != nil {
		t.Fatal(err)
	}
	s3 := c.Snapshot()
	if s3 == s1 {
		t.Fatal("snapshot not invalidated by Upsert")
	}
	if s1.Len() != 1 || s3.Len() != 2 {
		t.Errorf("lens = %d, %d", s1.Len(), s3.Len())
	}
	// A publish stores its snapshot eagerly: the atomic fast path serves
	// it without a rebuild.
	if _, err := c.ApplyDelta([]*Feature{snapFeat("c.obs", 45, -124, base, 10, "salinity")}, nil); err != nil {
		t.Fatal(err)
	}
	if s := c.snap.Load(); s == nil || s.Len() != 3 {
		t.Fatalf("ApplyDelta left snapshot %v, want a ready 3-feature snapshot", s)
	}
}

func TestSnapshotByID(t *testing.T) {
	c := New()
	base := time.Date(2010, 6, 1, 0, 0, 0, 0, time.UTC)
	if err := c.Upsert(snapFeat("a.obs", 45, -124, base, 10, "salinity")); err != nil {
		t.Fatal(err)
	}
	s := c.Snapshot()
	f, ok := s.ByID(IDForPath("a.obs"))
	if !ok || f.Path != "a.obs" {
		t.Fatalf("ByID = %v, %v", f, ok)
	}
	if _, ok := s.ByID(IDForPath("missing.obs")); ok {
		t.Error("ByID found a missing ID")
	}
	// ByID shares the snapshot's feature (no per-call clone).
	if s.All()[0] != f {
		t.Error("ByID does not share the snapshot feature")
	}
}

func TestSnapshotIsolatedFromMutation(t *testing.T) {
	c := New()
	base := time.Date(2010, 6, 1, 0, 0, 0, 0, time.UTC)
	if err := c.Upsert(snapFeat("a.obs", 45, -124, base, 10, "salinity")); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	c.MutateVariables(func(f *Feature) bool {
		f.Variables[0].Name = "renamed"
		return true
	})
	if got := snap.All()[0].Variables[0].Name; got != "salinity" {
		t.Errorf("snapshot mutated: variable name = %q", got)
	}
	if got := c.Snapshot().All()[0].Variables[0].Name; got != "renamed" {
		t.Errorf("fresh snapshot stale: variable name = %q", got)
	}
}

func TestSnapshotNameAndParentIndexes(t *testing.T) {
	c := New()
	base := time.Date(2010, 6, 1, 0, 0, 0, 0, time.UTC)
	f := snapFeat("a.obs", 45, -124, base, 10, "fluores375", "qa")
	f.Variables[0].Parent = "fluorescence"
	f.Variables[1].Excluded = true
	if err := c.Upsert(f); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	if n := countWithVariable(snap, "fluores375"); n != 1 {
		t.Errorf("WithVariable(fluores375) count = %d", n)
	}
	if n := countWithVariable(snap, "qa"); n != 0 {
		t.Errorf("excluded variable indexed %d times", n)
	}
	if n := countWithParent(snap, "fluorescence"); n != 1 {
		t.Errorf("WithParent(fluorescence) count = %d", n)
	}
	if got, ok := snap.ByID(f.ID); !ok || got.Path != "a.obs" {
		t.Errorf("ByID = %v, %v", got, ok)
	}
}

// TestSpatialCandidatesSuperset brute-checks the grid's core guarantee:
// every feature whose scoring distance is within maxKm appears in the
// candidate set, for random geometries including near the antimeridian
// and high latitudes.
func TestSpatialCandidatesSuperset(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := time.Date(2010, 6, 1, 0, 0, 0, 0, time.UTC)
	c := NewSharded(3)
	for i := 0; i < 300; i++ {
		lat := -84 + rng.Float64()*168
		lon := -179 + rng.Float64()*358
		if err := c.Upsert(snapFeat(fmt.Sprintf("s%03d.obs", i), lat, lon, base, 5, "v")); err != nil {
			t.Fatal(err)
		}
	}
	snap := c.Snapshot()
	for qi := 0; qi < 200; qi++ {
		p := geo.Point{Lat: -84 + rng.Float64()*168, Lon: -179 + rng.Float64()*358}
		maxKm := []float64{10, 100, 500, 2000}[rng.Intn(4)]
		qb := geo.BBox{MinLat: p.Lat, MinLon: p.Lon, MaxLat: p.Lat, MaxLon: p.Lon}
		for si, sh := range snap.Segments() {
			pos, ok := sh.SpatialCandidatesAppend(qb, maxKm, nil)
			if !ok {
				continue
			}
			inSet := make(map[int32]bool, len(pos))
			for _, i := range pos {
				inSet[i] = true
			}
			for i, f := range sh.All() {
				if f.BBox.DistanceKm(p) <= maxKm && !inSet[int32(i)] {
					t.Fatalf("query %v r=%.0fkm shard %d: feature %s at %.1fkm missing from candidates",
						p, maxKm, si, f.Path, f.BBox.DistanceKm(p))
				}
			}
		}
	}
}

// TestTimeCandidatesSuperset brute-checks the interval index: every
// feature within maxGap of the query range is a candidate.
func TestTimeCandidatesSuperset(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c := NewSharded(3)
	for i := 0; i < 300; i++ {
		start := time.Date(2000+rng.Intn(15), time.Month(1+rng.Intn(12)), 1+rng.Intn(28),
			0, 0, 0, 0, time.UTC)
		if err := c.Upsert(snapFeat(fmt.Sprintf("t%03d.obs", i), 45, -124, start, rng.Intn(300), "v")); err != nil {
			t.Fatal(err)
		}
	}
	snap := c.Snapshot()
	for qi := 0; qi < 200; qi++ {
		start := time.Date(2000+rng.Intn(15), time.Month(1+rng.Intn(12)), 1+rng.Intn(28),
			0, 0, 0, 0, time.UTC)
		q := geo.NewTimeRange(start, start.AddDate(0, 0, rng.Intn(90)))
		maxGap := time.Duration(rng.Intn(1000)) * 24 * time.Hour
		for si, sh := range snap.Segments() {
			pos, ok := sh.TimeCandidatesAppend(q, maxGap, nil)
			if !ok {
				t.Fatalf("TimeCandidates declined maxGap %v", maxGap)
			}
			inSet := make(map[int32]bool, len(pos))
			for _, i := range pos {
				inSet[i] = true
			}
			for i, f := range sh.All() {
				if f.Time.Distance(q) <= maxGap && !inSet[int32(i)] {
					t.Fatalf("query %v gap=%v shard %d: feature %s at gap %v missing",
						q, maxGap, si, f.Path, f.Time.Distance(q))
				}
			}
		}
	}
}

// TestConcurrentSnapshotAndPublish hammers the lock-free read path
// against publishes (run under -race).
func TestConcurrentSnapshotAndPublish(t *testing.T) {
	published := New()
	base := time.Date(2010, 6, 1, 0, 0, 0, 0, time.UTC)
	_ = published.Upsert(snapFeat("init.obs", 45, -124, base, 5, "salinity"))
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			working := New()
			for j := 0; j <= i%4; j++ {
				_ = working.Upsert(snapFeat(fmt.Sprintf("g%d-%d.obs", i, j), 45, -124, base, 5, "salinity"))
			}
			changed, removed := published.DiffTo(working)
			if _, err := published.ApplyDelta(changed, removed); err != nil {
				t.Error(err)
			}
		}
		close(stop)
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := published.Snapshot()
				for _, sh := range snap.Segments() {
					for _, p := range sh.WithVariable("salinity") {
						if f := sh.At(p); len(f.Variables) == 0 {
							t.Error("corrupted snapshot feature")
							return
						}
					}
				}
				if snap.Len() == 0 {
					t.Error("empty snapshot during publish")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// countWithVariable sums WithVariable's live hits across every segment.
func countWithVariable(s *Snapshot, name string) int {
	return countLive(s, func(sg *Segment) []int32 { return sg.WithVariable(name) })
}

// countWithParent sums WithParent's live hits across every segment.
func countWithParent(s *Snapshot, name string) int {
	return countLive(s, func(sg *Segment) []int32 { return sg.WithParent(name) })
}

func countLive(s *Snapshot, hits func(sg *Segment) []int32) int {
	n := 0
	for _, sg := range s.Segments() {
		for _, p := range hits(sg) {
			if !sg.Masked(p) {
				n++
			}
		}
	}
	return n
}
