package search

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"metamess/internal/catalog"
)

// The shard-count equivalence property: scatter-gather search over an
// N-shard snapshot returns byte-identical ranked results to the same
// search over a 1-shard build — same order, same IDs, same scores to
// the last bit, same per-term explanations — for randomized shard
// counts (1–16), catalogs, queries, fan-out widths, and publish deltas.
// The same feature set is maintained in one catalog per shard count;
// deltas go through ApplyDelta so the sharded incremental patch path
// (clean shards pointer-shared, dirty shards spliced) is what the
// queries actually read, not a fresh build. A linear-scan searcher over
// the 1-shard catalog rides along as the ablation oracle, closing the
// triangle: sharded ≡ single-shard ≡ full scan.
func TestShardedSearchMatchesSingleShard(t *testing.T) {
	// Each trial draws its scatter width, so widths 1–8 all run, in
	// parallel even on single-CPU hosts.
	defer func(old int) { maxFanOutProcs = old }(maxFanOutProcs)

	names := []string{
		"water_temperature", "salinity", "turbidity", "dissolved_oxygen",
		"fluores375", "fluores410", "nitrate", "fluorescence",
	}
	rng := rand.New(rand.NewSource(987654321))

	for trial := 0; trial < 12; trial++ {
		// Always include the 1-shard baseline; add two random counts in
		// [2,16] so most trials cross-check three partitionings.
		shardCounts := []int{1, 2 + rng.Intn(15), 2 + rng.Intn(15)}
		n := 20 + rng.Intn(120)
		live := make(map[int]bool)
		features := make(map[int]*catalog.Feature)
		initial := randomFeatures(rng, trial, n, names)
		for i, f := range initial {
			features[i] = f
			live[i] = true
		}
		cats := make([]*catalog.Catalog, len(shardCounts))
		for ci, sc := range shardCounts {
			cats[ci] = served(t, sc, initial...)
		}

		maxFanOutProcs = 1 + rng.Intn(8)
		searchers := make([]*Searcher, len(cats))
		for ci, c := range cats {
			opts := DefaultOptions()
			opts.PruneScore = []float64{0.05, 0.2, 0.01}[rng.Intn(3)]
			searchers[ci] = New(c, opts)
		}
		linOpts := DefaultOptions()
		linOpts.UseIndex = false
		linear := New(cats[0], linOpts)

		nextID := n
		for round := 0; round < 3; round++ {
			// Materialize every snapshot, then query: all searchers must
			// agree exactly, and the 1-shard indexed path must agree with
			// the linear ablation.
			for qi := 0; qi < 6; qi++ {
				q := randomQuery(rng, names, n)
				base, err := searchers[0].Search(q)
				if err != nil {
					t.Fatalf("trial %d round %d query %d: %v", trial, round, qi, err)
				}
				for ci := 1; ci < len(searchers); ci++ {
					got, err := searchers[ci].Search(q)
					if err != nil {
						t.Fatalf("trial %d round %d query %d (shards=%d): %v",
							trial, round, qi, shardCounts[ci], err)
					}
					requireSameResults(t,
						fmt.Sprintf("trial %d round %d query %d: shards=%d vs shards=1",
							trial, round, qi, shardCounts[ci]), got, base)
				}
				lin, err := linear.Search(q)
				if err != nil {
					t.Fatalf("trial %d round %d query %d: linear: %v", trial, round, qi, err)
				}
				requireSameResults(t,
					fmt.Sprintf("trial %d round %d query %d: shards=1 vs linear", trial, round, qi),
					base, lin)
			}

			// Random publish delta: adds, content modifications (same ID,
			// new extents/variables), and removals — identical for every
			// catalog, applied through ApplyDelta so subsequent rounds
			// search patched snapshots.
			var changed []*catalog.Feature
			var removed []string
			// Mutations draw from the pre-add live set so no ID appears
			// twice in changed (ApplyDelta's contract), in sorted order
			// for deterministic rng consumption.
			liveSorted := make([]int, 0, len(live))
			for i := range live {
				liveSorted = append(liveSorted, i)
			}
			sort.Ints(liveSorted)
			for k := 0; k < 1+rng.Intn(4); k++ {
				f := randomFeature(rng, trial, nextID, names)
				features[nextID] = f
				live[nextID] = true
				nextID++
				changed = append(changed, f)
			}
			for _, i := range liveSorted {
				if rng.Float64() < 0.08 {
					removed = append(removed, features[i].ID)
					delete(live, i)
					delete(features, i)
				} else if rng.Float64() < 0.1 {
					f := randomFeature(rng, trial, i, names) // same path → same ID, new content
					features[i] = f
					changed = append(changed, f)
				}
			}
			sortFeaturesByID(changed)
			for ci, c := range cats {
				// ApplyDelta takes ownership: each catalog gets private clones.
				private := make([]*catalog.Feature, len(changed))
				for i, f := range changed {
					private[i] = f.Clone()
				}
				if _, err := c.ApplyDelta(private, append([]string(nil), removed...)); err != nil {
					t.Fatalf("trial %d round %d (shards=%d): ApplyDelta: %v",
						trial, round, shardCounts[ci], err)
				}
			}
		}
	}
}

func sortFeaturesByID(fs []*catalog.Feature) {
	sort.Slice(fs, func(i, j int) bool { return fs[i].ID < fs[j].ID })
}
