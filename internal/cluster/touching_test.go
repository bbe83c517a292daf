package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"metamess/internal/strdist"
	"metamess/internal/table"
)

// randomNames builds a distinct-valued name tally the way an archive
// produces one: a few stems, typo'd, re-separated, re-cased and
// numerically suffixed, with random occurrence counts.
func randomNames(rng *rand.Rand) []table.ValueCount {
	stems := []string{"water_temperature", "salinity", "turbidity", "fluores", "dissolved_oxygen",
		"chlorophyll", "wind_speed", "air_pressure", "ph", "conductivity"}
	seen := map[string]bool{}
	var vals []table.ValueCount
	for n := 3 + rng.Intn(60); len(vals) < n; {
		name := stems[rng.Intn(len(stems))]
		for typos := rng.Intn(3); typos > 0 && len(name) > 2; typos-- {
			i := 1 + rng.Intn(len(name)-1)
			switch rng.Intn(3) {
			case 0: // deletion
				name = name[:i] + name[i+1:]
			case 1: // insertion
				name = name[:i] + string(rune('a'+rng.Intn(26))) + name[i:]
			default: // transposition
				b := []byte(name)
				b[i-1], b[i] = b[i], b[i-1]
				name = string(b)
			}
		}
		switch rng.Intn(5) {
		case 0:
			name = strings.ToUpper(name)
		case 1:
			name = strings.ReplaceAll(name, "_", " ")
		case 2:
			name = fmt.Sprintf("%s%d", name, 300+rng.Intn(4)*25)
		}
		if seen[name] {
			continue
		}
		seen[name] = true
		vals = append(vals, table.ValueCount{Value: name, Count: 1 + rng.Intn(20)})
	}
	if rng.Intn(4) == 0 {
		vals = append(vals, table.ValueCount{Value: "", Count: 2}) // a blank cell
	}
	return vals
}

// touching filters a full clustering down to the clusters containing a
// seed: the definition ClusterTouching must reproduce.
func touching(all []Cluster, seeds []string) []Cluster {
	seed := map[string]bool{}
	for _, s := range seeds {
		seed[s] = true
	}
	var out []Cluster
	for _, c := range all {
		for _, v := range c.Values {
			if seed[v.Value] {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

// TestClusterTouchingEqualsFilteredCluster is the seeded form's oracle:
// for every method, over random name sets and seed choices, the seeded
// clusters are the full run's clusters that contain a seed — same keys,
// members, recommendation and order.
func TestClusterTouchingEqualsFilteredCluster(t *testing.T) {
	methods := []Method{Fingerprint(), NGramFingerprint(1), Phonetic(), Levenshtein(0.84), JaroWinkler(0.9)}
	rng := rand.New(rand.NewSource(17))
	nonEmpty := 0
	for round := 0; round < 300; round++ {
		vals := randomNames(rng)
		var seeds []string
		for n := rng.Intn(6); n > 0; n-- {
			seeds = append(seeds, vals[rng.Intn(len(vals))].Value)
		}
		if rng.Intn(5) == 0 {
			seeds = append(seeds, "not_in_the_catalog")
		}
		for _, m := range methods {
			want := touching(m.Cluster(vals), seeds)
			got := m.ClusterTouching(vals, seeds)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d, %s, seeds %q:\n got %+v\nwant %+v", round, m.Name(), seeds, got, want)
			}
			nonEmpty += len(want)
		}
	}
	if nonEmpty < 300 {
		t.Fatalf("only %d seeded clusters across the whole run: the generator no longer exercises the comparison", nonEmpty)
	}
}

// TestClusterTouchingComparesOnlyTheClosure pins the seeded nearest
// neighbour's cost: at most one similarity call per (closure vertex,
// value) pair — not the all-pairs n²/2 of Cluster.
func TestClusterTouchingComparesOnlyTheClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var vals []table.ValueCount
	seen := map[string]bool{}
	for len(vals) < 400 {
		b := make([]byte, 12)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		if !seen[string(b)] {
			seen[string(b)] = true
			vals = append(vals, table.ValueCount{Value: string(b), Count: 1})
		}
	}
	// Two seeds, each with one near neighbour; everything else is random
	// twelve-letter noise, far from both.
	vals = append(vals,
		table.ValueCount{Value: "salinity_psu", Count: 9}, table.ValueCount{Value: "salinty_psu", Count: 1},
		table.ValueCount{Value: "turbidity_ntu", Count: 7}, table.ValueCount{Value: "turbidty_ntu", Count: 2})
	seeds := []string{"salinty_psu", "turbidty_ntu"}

	calls := 0
	counting := nearestNeighbor{name: "counting", threshold: 0.84, lengthPrune: true,
		sim: func(a, b string) float64 {
			calls++
			return strdist.LevenshteinSimilarity(a, b)
		}}
	got := counting.ClusterTouching(vals, seeds)
	if len(got) != 2 {
		t.Fatalf("seeded clusters = %+v, want the two typo pairs", got)
	}
	closure := 0
	for _, c := range got {
		closure += c.Size()
	}
	n := len(vals)
	if limit := (len(seeds) + closure) * n; calls > limit {
		t.Errorf("seeded run made %d similarity calls, want <= (seeds+closure) x n = %d", calls, limit)
	}
	seeded := calls
	calls = 0
	if want := touching(counting.Cluster(vals), seeds); !reflect.DeepEqual(got, want) {
		t.Errorf("seeded clusters differ from the filtered full run:\n got %+v\nwant %+v", got, want)
	}
	if calls < 10*seeded {
		t.Errorf("full run made %d calls against the seeded run's %d: the workload no longer separates them", calls, seeded)
	}
}
