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
// (UseIndex=false) for every catalog, query, expander, and K —
// including K larger than the catalog. Scores are compared with exact
// float equality; any drift in the planner's widening bounds, the
// candidate indexes, the scorer's prune against the running top-K, or
// the heap merge shows up here. The generator makes the cases those
// bounds are most fragile on: exact score ties (content cloned under a
// new path) and repeated variable names whose first copy is excluded
// or far out of range.

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
	// 15% carry two raw variables wrangled to one name, the first copy
	// hidden or out of range: only the first occurrence may score.
	if rng.Float64() < 0.15 {
		j := rng.Intn(len(f.Variables))
		first := f.Variables[j]
		first.RawName = "raw_" + first.Name
		if rng.Float64() < 0.5 {
			first.Excluded = true
		} else {
			first.Range = geo.NewValueRange(1000, 1000+rng.Float64()*20)
			first.Count = 1 + rng.Intn(200)
			first.Excluded = false
		}
		f.Variables = append(f.Variables[:j], append([]catalog.VarFeature{first}, f.Variables[j:]...)...)
	}
	return f
}

// randomFeatures draws a trial's n features. About one in five repeats
// an earlier feature's content under its own path: an exact score tie
// on every query, broken only by ID, so ties straddle the K cut.
func randomFeatures(rng *rand.Rand, trial, n int, names []string) []*catalog.Feature {
	fs := make([]*catalog.Feature, n)
	for i := range fs {
		if i == 0 || rng.Float64() >= 0.2 {
			fs[i] = randomFeature(rng, trial, i, names)
			continue
		}
		f := fs[rng.Intn(i)].Clone()
		f.Path = fmt.Sprintf("t%d/d%03d.obs", trial, i)
		f.ID = catalog.IDForPath(f.Path)
		fs[i] = f
	}
	return fs
}

// stubExpander rewrites each term to a fixed list of expansions.
type stubExpander map[string][]Expansion

func (e stubExpander) Expand(term string) []Expansion { return e[term] }

// randomExpander rewrites every name to itself at weight self() and to
// up to two other names at weight other() each.
func randomExpander(rng *rand.Rand, names []string, self, other func() float64) stubExpander {
	e := stubExpander{}
	for _, n := range names {
		exps := []Expansion{{Name: n, Weight: self()}}
		for j := rng.Intn(3); j > 0; j-- {
			exps = append(exps, Expansion{Name: names[rng.Intn(len(names))], Weight: other()})
		}
		e[n] = exps
	}
	return e
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
	// A third of the trials match names exactly; the rest rewrite terms
	// through a stub expander with weights in [−1, 1].
	requireIndexedMatchesLinear(t, 20130408, 30, func(rng *rand.Rand, names []string) (Expander, float64) {
		parentWeight := 0.05 + rng.Float64()*1.5
		if rng.Intn(3) == 0 {
			return nil, parentWeight
		}
		w := func() float64 { return -1 + 2*rng.Float64() }
		return randomExpander(rng, names, w, w), parentWeight
	})
}

// TestExpansionWeightsCappedAtOne pins the contract the planner's tier
// bounds and the scorer's prune rest on: no dimension score exceeds 1.
// An expander that over-weights the literal term, or a ParentWeight
// above 1, would otherwise let a dataset outside a tier outscore the
// tier's bound, and indexed search would drop it.
func TestExpansionWeightsCappedAtOne(t *testing.T) {
	if got := New(catalog.New(), Options{ParentWeight: 3}).opts.ParentWeight; got != 1 {
		t.Fatalf("ParentWeight 3 kept as %v, want 1", got)
	}
	requireIndexedMatchesLinear(t, 7, 60, func(rng *rand.Rand, names []string) (Expander, float64) {
		self := func() float64 { return 1.7 }
		other := func() float64 { return []float64{0.3, 1}[rng.Intn(2)] }
		return randomExpander(rng, names, self, other), []float64{0.8, 1.6}[rng.Intn(2)]
	})
}

// requireIndexedMatchesLinear runs trials of random catalogs, each
// searched by an indexed and a linear searcher that share the expander
// and ParentWeight opts draws, and requires identical rankings.
func requireIndexedMatchesLinear(t *testing.T, seed int64, trials int, opts func(*rand.Rand, []string) (Expander, float64)) {
	t.Helper()
	// Force the parallel executor even on tiny catalogs and single-CPU
	// hosts.
	oldMin, oldCap := parallelMinWork, maxFanOutProcs
	parallelMinWork, maxFanOutProcs = 1, 64
	defer func() { parallelMinWork, maxFanOutProcs = oldMin, oldCap }()

	names := []string{
		"water_temperature", "salinity", "turbidity", "dissolved_oxygen",
		"fluores375", "fluores410", "nitrate", "fluorescence",
	}
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		n := rng.Intn(140)
		c := catalog.New()
		for _, f := range randomFeatures(rng, trial, n, names) {
			if err := c.Upsert(f); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		idxOpts := DefaultOptions()
		idxOpts.Expander, idxOpts.ParentWeight = opts(rng, names)
		idxOpts.Workers = 1 + rng.Intn(8)
		idxOpts.PruneScore = []float64{0.05, 0.2, 0.01}[rng.Intn(3)]
		linOpts := DefaultOptions()
		linOpts.Expander, linOpts.ParentWeight = idxOpts.Expander, idxOpts.ParentWeight
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
