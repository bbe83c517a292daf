package catalog

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"metamess/internal/geo"
)

// deltaFeature fabricates a deterministic feature for the delta tests.
// version changes the content (variables, extents) without changing the
// identity, modelling an edited file.
func deltaFeature(i, version int) *Feature {
	path := fmt.Sprintf("src%d/ds%04d.obs", i%3, i)
	names := []string{"water_temperature", "salinity", "turbidity", "dissolved_oxygen"}
	lat := 25 + float64((i*13+version*7)%400)*0.1
	lon := -130 + float64((i*31+version*3)%600)*0.1
	base := time.Date(2009, 1, 1, 0, 0, 0, 0, time.UTC)
	f := &Feature{
		ID:     IDForPath(path),
		Path:   path,
		Source: fmt.Sprintf("src%d", i%3),
		Format: "obs",
		BBox: geo.BBox{
			MinLat: lat - 0.05, MinLon: lon - 0.05,
			MaxLat: lat + 0.05, MaxLon: lon + 0.05,
		},
		Time: geo.NewTimeRange(
			base.AddDate(0, 0, (i*11+version)%800),
			base.AddDate(0, 0, (i*11+version)%800+10)),
		RowCount:    100 + version,
		Bytes:       int64(1000 + i),
		ModTime:     base.AddDate(1, 0, version),
		ScannedAt:   base.AddDate(2, 0, 0),
		ContentHash: fmt.Sprintf("h%d-%d", i, version),
		Variables: []VarFeature{
			{RawName: names[i%len(names)], Name: names[i%len(names)],
				Range: geo.NewValueRange(float64(version), float64(version+20)), Count: 50},
			{RawName: names[(i+1+version%3)%len(names)], Name: names[(i+1+version%3)%len(names)],
				Range: geo.NewValueRange(0, 30), Count: 70,
				Parent: "fluorescence"},
		},
	}
	if i%4 == 0 {
		f.Variables[1].Excluded = true
	}

	if i%5 == 0 {
		// No spatial extent: exercises the empty-bbox grid path.
		f.BBox = geo.EmptyBBox()
	}
	return f
}

// requireSnapshotsEquivalent compares a snapshot reached by deltas
// against a from-scratch build over the same features. Their segments
// differ by design, so the comparison is by what they serve: every
// index answer in live feature IDs (names, parents, spatial and
// temporal candidates), All and ByID bytes, Len and the per-shard live
// counts. got must also be well formed (see requireSegmentsWellFormed).
func requireSnapshotsEquivalent(t *testing.T, got, want *Snapshot) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), want.Len())
	}
	if !reflect.DeepEqual(got.ShardSizes(), want.ShardSizes()) {
		t.Fatalf("shard sizes = %v, want %v", got.ShardSizes(), want.ShardSizes())
	}
	// Both snapshots share the catalog's features, so identity is the
	// byte comparison, made strict.
	if !slices.Equal(got.All(), want.All()) {
		t.Fatalf("All differs:\n got %s\nwant %s", featureBytes(got.All()), featureBytes(want.All()))
	}
	for _, f := range want.All() {
		if gf, ok := got.ByID(f.ID); !ok || gf != f {
			t.Fatalf("ByID(%s) = %v, %v", f.ID, gf, ok)
		}
	}
	requireSegmentsWellFormed(t, got)
	var probes []*Feature
	for i, f := range want.All() {
		if i%8 == 0 {
			probes = append(probes, f)
		}
	}
	if ga, wa := indexAnswers(got, probes), indexAnswers(want, probes); ga != wa {
		t.Fatalf("index answers differ:\n got %s\nwant %s", ga, wa)
	}
}

func featureBytes(fs []*Feature) string {
	b, _ := json.Marshal(fs)
	return string(b)
}

// indexAnswers renders, in live feature IDs, what a snapshot's indexes
// answer: the features under every name and parent its probes carry,
// and the spatial and temporal candidates around every probe's extents
// at several radii. Masked positions are skipped, as search skips them.
func indexAnswers(s *Snapshot, probes []*Feature) string {
	live := func(collect func(sg *Segment) ([]int32, bool)) string {
		var ids []string
		for _, sg := range s.Segments() {
			pos, ok := collect(sg)
			if !ok {
				return "declined"
			}
			for _, p := range pos {
				if !sg.Masked(p) {
					ids = append(ids, sg.At(p).ID)
				}
			}
		}
		slices.Sort(ids)
		return fmt.Sprint(slices.Compact(ids))
	}
	var terms []string
	for _, f := range probes {
		for _, v := range f.Variables {
			terms = append(terms, v.Name, v.Parent)
		}
	}
	slices.Sort(terms)
	var b strings.Builder
	for _, term := range slices.Compact(terms) {
		fmt.Fprintf(&b, "name %s %s\n", term, live(func(sg *Segment) ([]int32, bool) { return sg.WithVariable(term), true }))
		fmt.Fprintf(&b, "parent %s %s\n", term, live(func(sg *Segment) ([]int32, bool) { return sg.WithParent(term), true }))
	}
	for _, f := range probes {
		for _, km := range []float64{0, 60, 600} {
			fmt.Fprintf(&b, "near %s %v %s\n", f.ID, km, live(func(sg *Segment) ([]int32, bool) { return sg.SpatialCandidatesAppend(f.BBox, km, nil) }))
		}
		for _, days := range []int{0, 20, 300} {
			gap := time.Duration(days) * 24 * time.Hour
			fmt.Fprintf(&b, "during %s %d %s\n", f.ID, days, live(func(sg *Segment) ([]int32, bool) { return sg.TimeCandidatesAppend(f.Time, gap, nil) }))
		}
	}
	return b.String()
}

// requireSegmentsWellFormed checks a snapshot's structure: every live ID
// is unmasked at exactly one position, in the newest segment holding
// it, in its hash shard; the mask counts add up; each shard's stack
// keeps the size tiers (every segment at most half the one below it)
// and the masked bound; and every segment's stores and temporal orders
// are well formed over its positions.
func requireSegmentsWellFormed(t *testing.T, s *Snapshot) {
	t.Helper()
	seen := make(map[string]bool)
	for si, sh := range s.shards {
		live, masked := 0, 0
		for k, sg := range sh.segs {
			if sg.Shard() != si {
				t.Fatalf("shard %d segment %d claims shard %d", si, k, sg.Shard())
			}
			if k > 0 && 2*sg.Len() > sh.segs[k-1].Len() {
				t.Fatalf("shard %d: segment %d holds %d positions over %d below: tiers broken",
					si, k, sg.Len(), sh.segs[k-1].Len())
			}
			segMasked := 0
			for p, f := range sg.All() {
				if shardIndex(f.ID, len(s.shards)) != si {
					t.Fatalf("feature %s in shard %d", f.ID, si)
				}
				if p > 0 && sg.All()[p-1].ID >= f.ID {
					t.Fatalf("shard %d segment %d not ID-sorted at %d", si, k, p)
				}
				if sg.Masked(int32(p)) {
					segMasked++
					continue
				}
				if seen[f.ID] {
					t.Fatalf("feature %s live twice", f.ID)
				}
				seen[f.ID] = true
				for _, newer := range sh.segs[k+1:] {
					if _, ok := newer.posOf(f.ID); ok {
						t.Fatalf("feature %s live below a newer segment holding it", f.ID)
					}
				}
				live++
			}
			if segMasked != sg.masked {
				t.Fatalf("shard %d segment %d: %d masked positions, counted %d", si, k, segMasked, sg.masked)
			}
			masked += segMasked
			checkStoreWellFormed(t, si, "names", sg.names, sg.Len())
			checkStoreWellFormed(t, si, "parents", sg.parents, sg.Len())
			checkStoreWellFormed(t, si, "cells", sg.spatial.store, sg.Len())
			checkTemporalWellFormed(t, si, sg.temporal, sg.Len())
		}
		if live != sh.live || masked != sh.masked {
			t.Fatalf("shard %d: %d live and %d masked, counted %d and %d", si, live, masked, sh.live, sh.masked)
		}
		if masked > live/16 {
			t.Fatalf("shard %d: %d masked positions past the bound %d", si, masked, live/16)
		}
	}
}

// checkTemporalWellFormed asserts both temporal orders are permutations
// of the positions, sorted by instant (starts ascending, ends
// descending) with ties in ascending position, and that the key arrays
// follow them.
func checkTemporalWellFormed(t *testing.T, si int, tx temporalIndex, n int) {
	t.Helper()
	for _, o := range []struct {
		label string
		order []int32
		keys  []time.Time
		at    []time.Time
		sign  int
	}{{"start", tx.byStart, tx.starts, tx.startAt, 1}, {"end", tx.byEnd, tx.ends, tx.endAt, -1}} {
		if len(o.order) != n || len(o.keys) != n || len(o.at) != n {
			t.Fatalf("shard %d: %s order covers %d of %d positions", si, o.label, len(o.order), n)
		}
		for i, p := range o.order {
			if !o.keys[i].Equal(o.at[p]) {
				t.Fatalf("shard %d: %s key %d does not follow its position", si, o.label, i)
			}
			if i == 0 {
				continue
			}
			q := o.order[i-1]
			c := o.sign * o.at[q].Compare(o.at[p])
			if c > 0 || (c == 0 && q >= p) {
				t.Fatalf("shard %d: %s order broken at %d", si, o.label, i)
			}
		}
	}
}

// checkStoreWellFormed asserts the structural invariants of an interned
// store: a consistent dictionary (keys[ids[k]] == k, no dangling
// lists), every container non-empty, sorted, duplicate-free, in-bounds,
// with an accurate length, and a representation matching the size
// heuristic.
func checkStoreWellFormed[K comparable](t *testing.T, si int, label string, st postingStore[K], shardLen int) {
	t.Helper()
	if len(st.keys) != len(st.lists) || len(st.ids) != len(st.keys) {
		t.Fatalf("shard %d: %s store: %d ids, %d keys, %d lists", si, label, len(st.ids), len(st.keys), len(st.lists))
	}
	for key, id := range st.ids {
		if int(id) >= len(st.keys) || st.keys[id] != key {
			t.Fatalf("shard %d: %s store: dictionary entry %v -> %d dangles", si, label, key, id)
		}
	}
	for id, list := range st.lists {
		got := list.AppendTo(nil)
		if len(got) != list.Len() || len(got) == 0 {
			t.Fatalf("shard %d: %s store: term %d Len()=%d but %d positions",
				si, label, id, list.Len(), len(got))
		}
		for i, p := range got {
			if p < 0 || int(p) >= shardLen {
				t.Fatalf("shard %d: %s store: term %d position %d out of bounds", si, label, id, p)
			}
			if i > 0 && got[i-1] >= p {
				t.Fatalf("shard %d: %s store: term %d not strictly ascending at %d", si, label, id, i)
			}
		}
		words := (shardLen + 63) / 64
		if wantDense := 8*words < 4*list.Len(); list.dense() != wantDense {
			t.Fatalf("shard %d: %s store: term %d dense=%v, heuristic says %v (n=%d, shardLen=%d)",
				si, label, id, list.dense(), wantDense, list.Len(), shardLen)
		}
	}
}

// equivFeature is deltaFeature, plus, for every sixth feature, a second
// raw variable wrangled to the first's name under the second's parent:
// a name and a parent the feature carries twice, which must post once.
func equivFeature(i, version int) *Feature {
	f := deltaFeature(i, version)
	if i%6 == 1 {
		v := f.Variables[0]
		v.RawName, v.Parent = "raw_"+v.Name, "fluorescence"
		f.Variables = append(f.Variables, v)
	}
	return f
}

// TestSnapshotApplyDeltaEquivalence drives randomized add/modify/delete
// deltas through ApplyDelta and checks after every round that the
// segmented snapshot serves exactly what a snapshot rebuilt from
// scratch over the same features serves (requireSnapshotsEquivalent).
// Every run must have stacked delta segments and merged some.
func TestSnapshotApplyDeltaEquivalence(t *testing.T) {
	for _, shards := range []int{1, 3, 8} {
		for _, seed := range []int64{1, 7, 42} {
			t.Run(fmt.Sprintf("shards%d/seed%d", shards, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				c := NewSharded(shards)
				version := make(map[int]int) // live index → content version
				next := 0
				for i := 0; i < 120; i++ {
					version[next] = 0
					if err := c.Upsert(equivFeature(next, 0)); err != nil {
						t.Fatal(err)
					}
					next++
				}
				c.Snapshot() // materialize so later deltas push segments, not rebuild

				stacked, merged := false, false
				for round := 0; round < 30; round++ {
					var changed []*Feature
					var removed []string
					// Modifies and deletes draw from the features live before
					// this round's adds, each feature at most once per round.
					live := make([]int, 0, len(version))
					for i := range version {
						live = append(live, i)
					}
					sort.Ints(live)
					// Adds.
					for k := 0; k < rng.Intn(4); k++ {
						version[next] = 0
						changed = append(changed, equivFeature(next, 0))
						next++
					}
					touched := make(map[int]bool)
					for k := 0; k < rng.Intn(7); k++ {
						if len(live) == 0 {
							break
						}
						i := live[rng.Intn(len(live))]
						if touched[i] {
							continue
						}
						touched[i] = true
						if rng.Intn(3) == 0 {
							removed = append(removed, equivFeature(i, 0).ID)
							delete(version, i)
						} else {
							version[i]++
							changed = append(changed, equivFeature(i, version[i]))
						}
					}
					sortFeaturesByID(changed)
					bumped, err := c.ApplyDelta(changed, removed)
					if err != nil {
						t.Fatal(err)
					}
					if want := len(changed)+len(removed) > 0; bumped != want {
						t.Fatalf("round %d: bumped = %v with %d changed, %d removed",
							round, bumped, len(changed), len(removed))
					}
					got := c.Snapshot()
					c.mu.RLock()
					want := newSnapshot(c.features, c.generation, c.shards)
					c.mu.RUnlock()
					requireSnapshotsEquivalent(t, got, want)
					for _, id := range removed {
						if f, ok := got.ByID(id); ok {
							t.Fatalf("round %d: removed %s still served: %v", round, id, f)
						}
					}
					if got.Generation() != want.Generation() {
						t.Fatalf("round %d: generation %d, want %d", round, got.Generation(), want.Generation())
					}
					stacked = stacked || len(got.Segments()) > shards
					merged = merged || c.LastMerge().Shards > 0
				}
				if !stacked || !merged {
					t.Fatalf("no coverage: stacked=%v merged=%v", stacked, merged)
				}
			})
		}
	}
}

// TestApplyDeltaEmptyIsNoOp locks in the generation-stability argument:
// an empty delta must leave the generation and the served snapshot
// untouched, so a no-op re-wrangle cannot evict generation-keyed caches.
func TestApplyDeltaEmptyIsNoOp(t *testing.T) {
	c := New()
	for i := 0; i < 10; i++ {
		if err := c.Upsert(deltaFeature(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Snapshot()
	gen := c.Generation()
	bumped, err := c.ApplyDelta(nil, nil)
	if err != nil || bumped {
		t.Fatalf("empty delta: bumped=%v err=%v", bumped, err)
	}
	// Removing an absent ID is also a no-op.
	bumped, err = c.ApplyDelta(nil, []string{"not-present"})
	if err != nil || bumped {
		t.Fatalf("absent removal: bumped=%v err=%v", bumped, err)
	}
	if c.Generation() != gen {
		t.Fatalf("generation moved: %d -> %d", gen, c.Generation())
	}
	if c.Snapshot() != before {
		t.Fatal("snapshot pointer changed on empty delta")
	}
}

// TestApplyDeltaLargeMergesBase covers the base merge: a delta
// touching most of the catalog masks past the bound, so every shard
// merges into one segment, and the snapshot still serves what a
// from-scratch build does.
func TestApplyDeltaLargeMergesBase(t *testing.T) {
	c := New()
	for i := 0; i < 12; i++ {
		if err := c.Upsert(deltaFeature(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	c.Snapshot()
	var changed []*Feature
	for i := 0; i < 12; i++ {
		changed = append(changed, deltaFeature(i, 9))
	}
	sortFeaturesByID(changed)
	if _, err := c.ApplyDelta(changed, nil); err != nil {
		t.Fatal(err)
	}
	got := c.Snapshot()
	c.mu.RLock()
	want := newSnapshot(c.features, c.generation, c.shards)
	c.mu.RUnlock()
	requireSnapshotsEquivalent(t, got, want)
	if m := c.LastMerge(); !m.Base || m.Shards != c.shards || len(got.Segments()) != c.shards {
		t.Fatalf("merge %+v left %d segments over %d shards, want one base merge per shard", m, len(got.Segments()), c.shards)
	}
}

// TestApplyDeltaRejectsInvalid ensures validation still gates the write
// path: a malformed feature fails the whole delta before any mutation.
func TestApplyDeltaRejectsInvalid(t *testing.T) {
	c := New()
	if err := c.Upsert(deltaFeature(0, 0)); err != nil {
		t.Fatal(err)
	}
	gen := c.Generation()
	bad := deltaFeature(1, 0)
	bad.ID = "mismatched"
	if _, err := c.ApplyDelta([]*Feature{bad}, nil); err == nil {
		t.Fatal("invalid feature accepted")
	}
	if c.Generation() != gen || c.Len() != 1 {
		t.Fatal("failed delta mutated the catalog")
	}
}

func sortFeaturesByID(fs []*Feature) {
	sort.Slice(fs, func(i, j int) bool { return fs[i].ID < fs[j].ID })
}

// TestContentEqualsCoversEveryField is the tripwire that keeps
// ContentEquals honest as the structs grow: it pins the field counts of
// Feature and VarFeature (grow one → this fails → extend ContentEquals
// and the mutation table below), and checks per-field that a lone
// mutation flips equality — except ScannedAt, the one field publish
// deliberately ignores.
func TestContentEqualsCoversEveryField(t *testing.T) {
	if n := reflect.TypeOf(Feature{}).NumField(); n != 12 {
		t.Fatalf("Feature has %d fields (expected 12): extend ContentEquals and this test's mutation table", n)
	}
	if n := reflect.TypeOf(VarFeature{}).NumField(); n != 9 {
		t.Fatalf("VarFeature has %d fields (expected 9): extend ContentEquals and this test's mutation table", n)
	}

	base := func() *Feature { return deltaFeature(1, 0) }
	if !base().ContentEquals(base()) {
		t.Fatal("identical features compare unequal")
	}

	mutations := map[string]func(*Feature){
		"ID":                      func(f *Feature) { f.ID = "other" },
		"Path":                    func(f *Feature) { f.Path = "other/path.obs" },
		"Source":                  func(f *Feature) { f.Source = "other" },
		"Format":                  func(f *Feature) { f.Format = "csv" },
		"BBox":                    func(f *Feature) { f.BBox.MaxLat += 0.5 },
		"Time":                    func(f *Feature) { f.Time.End = f.Time.End.AddDate(0, 1, 0) },
		"RowCount":                func(f *Feature) { f.RowCount++ },
		"Bytes":                   func(f *Feature) { f.Bytes++ },
		"ModTime":                 func(f *Feature) { f.ModTime = f.ModTime.Add(time.Second) },
		"ContentHash":             func(f *Feature) { f.ContentHash = "deadbeef" },
		"Variables/len":           func(f *Feature) { f.Variables = f.Variables[:1] },
		"Variables/RawName":       func(f *Feature) { f.Variables[0].RawName = "x" },
		"Variables/Name":          func(f *Feature) { f.Variables[0].Name = "x" },
		"Variables/Unit":          func(f *Feature) { f.Variables[0].Unit = "x" },
		"Variables/CanonicalUnit": func(f *Feature) { f.Variables[0].CanonicalUnit = "x" },
		"Variables/Range":         func(f *Feature) { f.Variables[0].Range.Max += 1 },
		"Variables/Count":         func(f *Feature) { f.Variables[0].Count++ },
		"Variables/Excluded":      func(f *Feature) { f.Variables[0].Excluded = !f.Variables[0].Excluded },
		"Variables/Contexts":      func(f *Feature) { f.Variables[0].Contexts = []string{"air"} },
		"Variables/Parent":        func(f *Feature) { f.Variables[1].Parent = "other_parent" },
	}
	for name, mutate := range mutations {
		f := base()
		mutate(f)
		if base().ContentEquals(f) {
			t.Errorf("mutation of %s not detected by ContentEquals", name)
		}
	}

	// ScannedAt is bookkeeping: publish must not see it as churn.
	f := base()
	f.ScannedAt = f.ScannedAt.Add(48 * time.Hour)
	if !base().ContentEquals(f) {
		t.Error("ScannedAt change treated as content churn")
	}
}

// TestApplyDeltaSharesCleanShards pins the dirty-shard-only publish
// cost the sharded snapshot exists for: after ApplyDelta, every shard
// the delta's IDs do not hash into keeps the predecessor's segments —
// pointer identity, not merely equal content — and every dirty shard
// keeps its base segment's indexes by pointer too, with the delta on
// top. Inside a dirty shard, features outside the delta still share
// their Feature pointers with the predecessor.
func TestApplyDeltaSharesCleanShards(t *testing.T) {
	const shards = 8
	c := NewSharded(shards)
	// 64 features a shard: the three masked versions stay under the
	// masked bound, so no shard merges its base.
	for i := 0; i < 64*shards; i++ {
		if err := c.Upsert(deltaFeature(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Snapshot()

	changed := []*Feature{deltaFeature(3, 1), deltaFeature(17, 1), deltaFeature(600, 0)}
	sortFeaturesByID(changed)
	removed := []string{deltaFeature(9, 0).ID}
	dirty := make(map[int]bool)
	for _, f := range changed {
		dirty[shardIndex(f.ID, shards)] = true
	}
	for _, id := range removed {
		dirty[shardIndex(id, shards)] = true
	}

	if bumped, err := c.ApplyDelta(changed, removed); err != nil || !bumped {
		t.Fatalf("ApplyDelta: bumped=%v err=%v", bumped, err)
	}
	if m := c.LastMerge(); m.Shards != 0 {
		t.Fatalf("a three-feature delta merged: %+v", m)
	}
	after := c.Snapshot()
	if after == before {
		t.Fatal("snapshot did not advance")
	}
	sharedN, dirtyN := 0, 0
	for si := range after.shards {
		b, a := before.shards[si].segs, after.shards[si].segs
		if !dirty[si] {
			sharedN++
			if !slices.Equal(a, b) {
				t.Errorf("clean shard %d does not keep the predecessor's segments", si)
			}
			continue
		}
		dirtyN++
		if a[0].segment != b[0].segment {
			t.Errorf("dirty shard %d rebuilt its base segment", si)
		}
		var want []*Feature
		for _, f := range changed {
			if shardIndex(f.ID, shards) == si {
				want = append(want, f)
			}
		}
		if top := a[len(a)-1]; len(want) > 0 && !slices.Equal(top.All(), want) {
			t.Errorf("dirty shard %d: top segment holds %d features, want the delta's %d", si, top.Len(), len(want))
		}
	}
	if dirtyN == 0 || sharedN == 0 {
		t.Fatalf("degenerate partition: %d dirty, %d shared (want both > 0)", dirtyN, sharedN)
	}

	// Unchanged features inside a dirty shard are shared, not re-cloned.
	inDelta := map[string]bool{removed[0]: true}
	for _, f := range changed {
		inDelta[f.ID] = true
	}
	checked := 0
	for _, f := range after.All() {
		if inDelta[f.ID] || !dirty[shardIndex(f.ID, shards)] {
			continue
		}
		was, ok := before.ByID(f.ID)
		if !ok {
			t.Fatalf("feature %s missing from predecessor", f.ID)
		}
		if was != f {
			t.Errorf("untouched feature %s re-cloned inside a dirty shard", f.ID)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no untouched features found in dirty shards; weaken the partition assumptions")
	}
	// The predecessor still serves what the delta replaced and removed.
	if f, ok := before.ByID(changed[0].ID); !ok || f == changed[0] {
		t.Error("held snapshot serves the replacement")
	}
	if _, ok := before.ByID(removed[0]); !ok {
		t.Error("held snapshot lost a removed feature")
	}
}

// TestSnapshotShardingInvariants checks the partition itself: shard
// routing is by the fixed ID hash, sizes sum to Len, every feature is
// findable through ByID, and All() is globally ID-sorted regardless of
// the shard count.
func TestSnapshotShardingInvariants(t *testing.T) {
	for _, shards := range []int{1, 2, 5, 16} {
		c := NewSharded(shards)
		for i := 0; i < 50; i++ {
			if err := c.Upsert(deltaFeature(i, 0)); err != nil {
				t.Fatal(err)
			}
		}
		s := c.Snapshot()
		if s.NumShards() != shards {
			t.Fatalf("NumShards = %d, want %d", s.NumShards(), shards)
		}
		total := 0
		for _, size := range s.ShardSizes() {
			total += size
		}
		for _, sg := range s.Segments() {
			for _, f := range sg.All() {
				if want := shardIndex(f.ID, shards); want != sg.Shard() {
					t.Fatalf("feature %s in shard %d, hash says %d", f.ID, sg.Shard(), want)
				}
			}
		}
		if total != s.Len() || s.Len() != 50 {
			t.Fatalf("shard sizes sum to %d, Len = %d", total, s.Len())
		}
		all := s.All()
		if len(all) != 50 {
			t.Fatalf("All() has %d features", len(all))
		}
		for i := 1; i < len(all); i++ {
			if all[i-1].ID >= all[i].ID {
				t.Fatalf("All() not ID-sorted at %d", i)
			}
		}
		for _, f := range all {
			got, ok := s.ByID(f.ID)
			if !ok || got != f {
				t.Fatalf("ByID(%s) = %v, %v", f.ID, got, ok)
			}
		}
	}
}
