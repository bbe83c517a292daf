package search

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"metamess/internal/catalog"
	"metamess/internal/obs"
)

// The tracing properties: attaching a QueryObs (with a forced trace)
// must be purely observational. Rankings are byte-identical with and
// without it; the per-shard candidate counts it records are the real
// examined sets, per hash shard however many segments a shard stacks —
// a traced linear scan examines every live feature exactly once and
// prunes none, and the indexed executor's counters
// agree with the "candidates" and "pruned" attributes on its own tier
// spans, each tier's batch split exactly into scored and pruned. Runs
// under -race in CI, so the scatter workers' concurrent span recording
// is checked too.

// tracedSearch runs one search with a forced trace attached and returns
// the results plus the footprint's counters and rendered span tree.
func tracedSearch(t *testing.T, s *Searcher, q Query) ([]Result, *obs.QueryObs, *obs.SpanTree) {
	t.Helper()
	qo := obs.GetQueryObs()
	qo.Forced = true
	qo.Trace = obs.NewTrace()
	qo.Root = qo.Trace.Start(-1, "search")
	res, err := s.SearchContext(obs.WithQuery(context.Background(), qo), q)
	if err != nil {
		t.Fatalf("traced search: %v", err)
	}
	qo.Trace.End(qo.Root)
	return res, qo, qo.Trace.Tree()
}

// releaseTraced recycles what tracedSearch handed out.
func releaseTraced(qo *obs.QueryObs) {
	obs.ReleaseTrace(qo.Trace)
	obs.PutQueryObs(qo)
}

// sumTiers walks the span tree adding up the "candidates" and "pruned"
// attributes of every "tier" span, and fails unless each tier's batch
// is exactly its scored plus its pruned candidates.
func sumTiers(t *testing.T, label string, n *obs.SpanTree) (candidates, pruned int64) {
	t.Helper()
	if n == nil {
		return 0, 0
	}
	if n.Name == "tier" {
		a := n.Attrs
		if a["scored"]+a["pruned"] != a["candidates"] {
			t.Fatalf("%s: tier %d shard %d: scored %d + pruned %d != candidates %d",
				label, a["tier"], a["shard"], a["scored"], a["pruned"], a["candidates"])
		}
		candidates, pruned = a["candidates"], a["pruned"]
	}
	for _, c := range n.Children {
		cc, cp := sumTiers(t, label, c)
		candidates += cc
		pruned += cp
	}
	return candidates, pruned
}

func TestTracedSearchObservational(t *testing.T) {
	// Force the scatter/parallel machinery even on tiny catalogs and
	// single-CPU hosts.
	oldMin, oldCap := parallelMinWork, maxFanOutProcs
	parallelMinWork, maxFanOutProcs = 1, 64
	defer func() { parallelMinWork, maxFanOutProcs = oldMin, oldCap }()

	names := []string{
		"water_temperature", "salinity", "turbidity", "dissolved_oxygen",
		"fluores375", "fluores410", "nitrate", "fluorescence",
	}
	rng := rand.New(rand.NewSource(20260807))
	var totalPruned int64
	stacked := false
	for trial := 0; trial < 10; trial++ {
		// The 1-shard baseline plus a random scatter partitioning.
		for _, sc := range []int{1, 2 + rng.Intn(15)} {
			n := 20 + rng.Intn(100)
			c := catalog.NewSharded(sc)
			for _, f := range randomFeatures(rng, trial, n, names) {
				if err := c.Upsert(f); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
			}
			idxOpts := DefaultOptions()
			idxOpts.Workers = 1 + rng.Intn(8)
			indexed := New(c, idxOpts)
			linOpts := DefaultOptions()
			linOpts.UseIndex = false
			linOpts.Workers = 1 + rng.Intn(8)
			linear := New(c, linOpts)

			for qi := 0; qi < 9; qi++ {
				if qi >= 6 {
					// The last queries run over snapshots publishes reached:
					// stacked segments, masks and ties across segments.
					changed, removed := randomDelta(rng, c, trial, qi, names)
					if _, err := c.ApplyDelta(changed, removed); err != nil {
						t.Fatal(err)
					}
					n = c.Len()
					stacked = stacked || len(c.Snapshot().Segments()) > sc
				}
				q := randomQuery(rng, names, n)
				label := fmt.Sprintf("trial %d shards %d query %d (%+v)", trial, sc, qi, q)

				// Tracing on vs. off: byte-identical rankings.
				plain, err := indexed.Search(q)
				if err != nil {
					t.Fatalf("%s: untraced: %v", label, err)
				}
				traced, qo, tree := tracedSearch(t, indexed, q)
				requireSameResults(t, label+": traced vs untraced", plain, traced)

				// The executor's counters agree with its own spans: the
				// tier spans' candidates and pruned attributes sum to the
				// footprint's per-shard totals.
				candidates, pruned := sumTiers(t, label, tree)
				if want := qo.TotalCandidates(); candidates != want {
					t.Fatalf("%s: tier span candidates %d != footprint total %d", label, candidates, want)
				}
				if want := qo.TotalPruned(); pruned != want {
					t.Fatalf("%s: tier span pruned %d != footprint total %d", label, pruned, want)
				}
				totalPruned += pruned
				if qo.TiersRun < 1 {
					t.Fatalf("%s: TiersRun = %d, want >= 1", label, qo.TiersRun)
				}
				if len(qo.ShardCandidates) != sc || len(qo.ShardPruned) != sc {
					t.Fatalf("%s: %d shard counters and %d pruned counters, want %d",
						label, len(qo.ShardCandidates), len(qo.ShardPruned), sc)
				}
				releaseTraced(qo)

				// The linear-scan oracle scores every live feature in full
				// exactly once, however it is sharded: its traced per-shard
				// candidate counts must sum to the catalog size, with
				// nothing pruned.
				linTraced, lqo, ltree := tracedSearch(t, linear, q)
				if got := lqo.TotalCandidates(); got != int64(n) {
					t.Fatalf("%s: linear scan examined %d candidates, want %d", label, got, n)
				}
				if _, pruned := sumTiers(t, label+": linear", ltree); pruned != 0 || lqo.TotalPruned() != 0 {
					t.Fatalf("%s: linear scan pruned %d (footprint %d), want 0", label, pruned, lqo.TotalPruned())
				}
				linPlain, err := linear.Search(q)
				if err != nil {
					t.Fatalf("%s: linear untraced: %v", label, err)
				}
				requireSameResults(t, label+": linear traced vs untraced", linPlain, linTraced)
				releaseTraced(lqo)
			}
		}
	}
	if totalPruned == 0 {
		t.Fatal("the indexed executor pruned nothing in any trial")
	}
	if !stacked {
		t.Fatal("no trial stacked a delta segment")
	}
}
