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
// and ParentWeight opts draws, and requires identical rankings — first
// over the freshly built catalog, then over snapshots that random
// deltas reach from it.
func requireIndexedMatchesLinear(t *testing.T, seed int64, trials int, opts func(*rand.Rand, []string) (Expander, float64)) {
	t.Helper()
	// Each trial draws its scatter width, so widths 1–8 all run, in
	// parallel even on single-CPU hosts.
	defer func(old int) { maxFanOutProcs = old }(maxFanOutProcs)

	names := []string{
		"water_temperature", "salinity", "turbidity", "dissolved_oxygen",
		"fluores375", "fluores410", "nitrate", "fluorescence",
	}
	rng := rand.New(rand.NewSource(seed))
	stacked := false
	for trial := 0; trial < trials; trial++ {
		n := rng.Intn(140)
		shards := 0
		if trial%3 == 0 {
			shards = 1 // one segment until a publish, over masks too
		}
		c := served(t, shards, randomFeatures(rng, trial, n, names)...)
		idxOpts := DefaultOptions()
		idxOpts.Expander, idxOpts.ParentWeight = opts(rng, names)
		maxFanOutProcs = 1 + rng.Intn(8)
		idxOpts.PruneScore = []float64{0.05, 0.2, 0.01}[rng.Intn(3)]
		linOpts := DefaultOptions()
		linOpts.Expander, linOpts.ParentWeight = idxOpts.Expander, idxOpts.ParentWeight
		linOpts.UseIndex = false
		indexed := New(c, idxOpts)
		linear := New(c, linOpts)
		check := func(stage string, queries int, fresh *Searcher) {
			for qi := 0; qi < queries; qi++ {
				q := randomQuery(rng, names, n)
				a, err := indexed.Search(q)
				if err != nil {
					t.Fatalf("trial %d %s query %d: indexed: %v", trial, stage, qi, err)
				}
				b, err := linear.Search(q)
				if err != nil {
					t.Fatalf("trial %d %s query %d: linear: %v", trial, stage, qi, err)
				}
				requireSameResults(t, fmt.Sprintf("trial %d %s query %d (%+v): indexed vs linear", trial, stage, qi, q), a, b)
				if fresh == nil {
					continue
				}
				f, err := fresh.Search(q)
				if err != nil {
					t.Fatalf("trial %d %s query %d: fresh: %v", trial, stage, qi, err)
				}
				requireSameResults(t, fmt.Sprintf("trial %d %s query %d (%+v): segmented vs fresh", trial, stage, qi, q), a, f)
			}
		}
		check("fresh", 8, nil)

		// The same searchers over snapshots reached by publishes: each
		// delta's segment holds replacements, removals' masks and exact
		// ties with features in older segments, and the rankings must
		// also match a linear scan of a catalog built from scratch.
		for round := 0; round < 6; round++ {
			changed, removed := randomDelta(rng, c, trial, round, names)
			if round == 0 && n > 0 {
				// A lone removal only masks: one segment per shard, one
				// of them masked.
				changed, removed = nil, []string{c.Snapshot().All()[rng.Intn(n)].ID}
			}
			if _, err := c.ApplyDelta(changed, removed); err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
			snap := c.Snapshot()
			stacked = stacked || len(snap.Segments()) > snap.NumShards()
			if round != 0 && round%2 == 0 {
				continue
			}
			check(fmt.Sprintf("delta %d", round), 4, New(served(t, 0, snap.All()...), linOpts))
		}
	}
	if !stacked {
		t.Fatal("no trial stacked a delta segment: the delta rounds test nothing")
	}
}

// randomDelta draws one publish over c's live features: new features, a
// third of them cloning a live feature's content under a fresh path;
// replacements, half of them taking another live feature's content; and
// removals. Clones tie exactly on every query with their source, which
// usually sits in an older segment.
func randomDelta(rng *rand.Rand, c *catalog.Catalog, trial, round int, names []string) (changed []*catalog.Feature, removed []string) {
	live := c.Snapshot().All()
	pick := func() *catalog.Feature { return live[rng.Intn(len(live))] }
	for k := rng.Intn(6); k > 0; k-- {
		var f *catalog.Feature
		if len(live) > 0 && rng.Intn(3) == 0 {
			f = pick().Clone()
		} else {
			f = randomFeature(rng, trial, 0, names)
		}
		f.Path = fmt.Sprintf("t%d/r%d-%d.obs", trial, round, k)
		f.ID = catalog.IDForPath(f.Path)
		changed = append(changed, f)
	}
	touched := make(map[string]bool)
	for k := rng.Intn(8); k > 0 && len(live) > 0; k-- {
		old := pick()
		if touched[old.ID] {
			continue
		}
		touched[old.ID] = true
		var f *catalog.Feature
		switch rng.Intn(3) {
		case 0:
			removed = append(removed, old.ID)
			continue
		case 1:
			f = pick().Clone()
		default:
			f = randomFeature(rng, trial, 0, names)
		}
		f.Path, f.ID = old.Path, old.ID
		changed = append(changed, f)
	}
	return changed, removed
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
	c := served(t, 0, mkFeature("old.obs", astoria, june2010, v("salinity", 0, 30)))
	s := New(c, DefaultOptions())
	if res, err := s.Search(Query{Terms: []Term{{Name: "salinity"}}}); err != nil || len(res) != 1 || res[0].Feature.Path != "old.obs" {
		t.Fatalf("pre-publish search: %v %v", res, err)
	}
	next := catalog.NewWorking()
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
