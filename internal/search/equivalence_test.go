package search

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"metamess/internal/catalog"
	"metamess/internal/geo"
)

// The equivalence property: indexed parallel search over the snapshot
// returns byte-identical rankings to the linear-scan ablation
// (UseIndex=false) for every catalog, query, and K — including K larger
// than the catalog. Scores are compared with exact float equality;
// any drift in the planner's widening bounds, the candidate indexes,
// or the heap merge shows up here.

func randomFeature(rng *rand.Rand, trial, i int, names []string) *catalog.Feature {
	path := fmt.Sprintf("t%d/d%03d.obs", trial, i)
	f := &catalog.Feature{
		ID:     catalog.IDForPath(path),
		Path:   path,
		Source: "stations",
		Format: "obs",
	}
	// 10% of features have no spatial extent at all.
	if rng.Float64() >= 0.1 {
		lat := -75 + rng.Float64()*150
		lon := -179 + rng.Float64()*358
		dLat := rng.Float64() * 0.5
		dLon := rng.Float64() * 0.5
		f.BBox = geo.BBox{
			MinLat: lat, MinLon: lon,
			MaxLat: clampLat(lat + dLat), MaxLon: clampLon(lon + dLon),
		}
	}
	// 10% have no temporal extent.
	if rng.Float64() >= 0.1 {
		start := time.Date(2000+rng.Intn(15), time.Month(1+rng.Intn(12)), 1+rng.Intn(28),
			0, 0, 0, 0, time.UTC)
		f.Time = geo.NewTimeRange(start, start.AddDate(0, 0, rng.Intn(400)))
	}
	// 1-4 distinct variables; some excluded, some with hierarchy parents.
	perm := rng.Perm(len(names))
	nVars := 1 + rng.Intn(4)
	for _, vi := range perm[:nVars] {
		lo := -5 + rng.Float64()*40
		v := catalog.VarFeature{
			RawName:  names[vi],
			Name:     names[vi],
			Range:    geo.NewValueRange(lo, lo+rng.Float64()*20),
			Count:    rng.Intn(200),
			Excluded: rng.Float64() < 0.1,
		}
		switch names[vi] {
		case "fluores375", "fluores410":
			v.Parent = "fluorescence"
		}
		f.Variables = append(f.Variables, v)
	}
	return f
}

func clampLat(v float64) float64 {
	if v > 90 {
		return 90
	}
	return v
}

func clampLon(v float64) float64 {
	if v > 180 {
		return 180
	}
	return v
}

func randomQuery(rng *rand.Rand, names []string, n int) Query {
	var q Query
	for empty := true; empty; {
		q = Query{}
		if rng.Float64() < 0.6 {
			q.Location = &geo.Point{Lat: -75 + rng.Float64()*150, Lon: -179 + rng.Float64()*358}
			empty = false
		} else if rng.Float64() < 0.3 {
			lat := -75 + rng.Float64()*150
			lon := -170 + rng.Float64()*340
			b := geo.NewBBox(geo.Point{Lat: lat, Lon: lon},
				geo.Point{Lat: clampLat(lat + 2), Lon: clampLon(lon + 2)})
			q.Region = &b
			empty = false
		}
		if rng.Float64() < 0.6 {
			start := time.Date(2000+rng.Intn(15), time.Month(1+rng.Intn(12)), 1+rng.Intn(28),
				0, 0, 0, 0, time.UTC)
			tr := geo.NewTimeRange(start, start.AddDate(0, 0, rng.Intn(120)))
			q.Time = &tr
			empty = false
		}
		for t := rng.Intn(4); t > 0; t-- {
			term := Term{Name: names[rng.Intn(len(names))]}
			if rng.Float64() < 0.5 {
				lo := rng.Float64() * 30
				r := geo.NewValueRange(lo, lo+rng.Float64()*15)
				term.Range = &r
			}
			q.Terms = append(q.Terms, term)
			empty = false
		}
	}
	switch rng.Intn(4) {
	case 0:
		q.K = 1
	case 1:
		q.K = 3
	case 2:
		q.K = 10
	default:
		q.K = n + 7 // deliberately larger than the catalog
	}
	return q
}

func TestSnapshotParallelMatchesLinearScan(t *testing.T) {
	// Force the parallel executor even on tiny catalogs and single-CPU
	// hosts.
	oldMin, oldCap := parallelMinWork, maxFanOutProcs
	parallelMinWork, maxFanOutProcs = 1, 64
	defer func() { parallelMinWork, maxFanOutProcs = oldMin, oldCap }()

	names := []string{
		"water_temperature", "salinity", "turbidity", "dissolved_oxygen",
		"fluores375", "fluores410", "nitrate", "fluorescence",
	}
	rng := rand.New(rand.NewSource(20130408))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(140)
		c := catalog.New()
		for i := 0; i < n; i++ {
			if err := c.Upsert(randomFeature(rng, trial, i, names)); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		idxOpts := DefaultOptions()
		idxOpts.Workers = 1 + rng.Intn(8)
		idxOpts.PruneScore = []float64{0.05, 0.2, 0.01}[rng.Intn(3)]
		linOpts := DefaultOptions()
		linOpts.UseIndex = false
		linOpts.Workers = 1 + rng.Intn(8)
		indexed := New(c, idxOpts)
		linear := New(c, linOpts)

		for qi := 0; qi < 8; qi++ {
			q := randomQuery(rng, names, n)
			a, err := indexed.Search(q)
			if err != nil {
				t.Fatalf("trial %d query %d: indexed: %v", trial, qi, err)
			}
			b, err := linear.Search(q)
			if err != nil {
				t.Fatalf("trial %d query %d: linear: %v", trial, qi, err)
			}
			requireSameResults(t, fmt.Sprintf("trial %d query %d (%+v): indexed vs linear", trial, qi, q), a, b)
		}
	}
}

// requireSameResults fails unless the two rankings are identical in
// every observable way: order, IDs, all four score components, and
// per-term explanations — exact float equality, no tolerance. Both the
// indexed-vs-linear ablation and the shard-count equivalence property
// compare through it.
func requireSameResults(t *testing.T, label string, a, b []Result) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d results vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Feature.ID != b[i].Feature.ID {
			t.Fatalf("%s: rank %d: %s vs %s", label, i, a[i].Feature.Path, b[i].Feature.Path)
		}
		if a[i].Score != b[i].Score || a[i].Space != b[i].Space ||
			a[i].Time != b[i].Time || a[i].Vars != b[i].Vars {
			t.Fatalf("%s: rank %d (%s): scores differ: %+v vs %+v",
				label, i, a[i].Feature.Path, a[i], b[i])
		}
		if len(a[i].TermScores) != len(b[i].TermScores) {
			t.Fatalf("%s: rank %d: term score counts differ", label, i)
		}
		for j := range a[i].TermScores {
			if a[i].TermScores[j] != b[i].TermScores[j] {
				t.Fatalf("%s: rank %d term %d: %+v vs %+v",
					label, i, j, a[i].TermScores[j], b[i].TermScores[j])
			}
		}
	}
}

// TestSearchSnapshotStableAcrossPublish verifies a search started
// before a publish keeps its consistent view while new searches see the
// replacement catalog.
func TestSearchSnapshotStableAcrossPublish(t *testing.T) {
	c := catalog.New()
	if err := c.Upsert(mkFeature("old.obs", astoria, june2010, v("salinity", 0, 30))); err != nil {
		t.Fatal(err)
	}
	s := New(c, DefaultOptions())
	if res, err := s.Search(Query{Terms: []Term{{Name: "salinity"}}}); err != nil || len(res) != 1 || res[0].Feature.Path != "old.obs" {
		t.Fatalf("pre-publish search: %v %v", res, err)
	}
	next := catalog.New()
	if err := next.Upsert(mkFeature("new.obs", astoria, june2010, v("salinity", 0, 30))); err != nil {
		t.Fatal(err)
	}
	changed, removed := c.DiffTo(next)
	if _, err := c.ApplyDelta(changed, removed); err != nil {
		t.Fatal(err)
	}
	res, err := s.Search(Query{Terms: []Term{{Name: "salinity"}}})
	if err != nil || len(res) != 1 || res[0].Feature.Path != "new.obs" {
		t.Fatalf("post-publish search: %v %v", res, err)
	}
}
