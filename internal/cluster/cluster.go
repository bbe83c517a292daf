// Package cluster implements the "discover transformations" step of the
// metadata wrangling process: grouping the distinct values of a column
// that likely denote the same thing, exactly as Google Refine's
// clustering feature does, then emitting mass-edit rules that fold each
// cluster onto a recommended canonical value.
//
// Two families of methods are provided, following Refine:
//
//   - Key collision: values that normalize to the same key (fingerprint,
//     n-gram fingerprint, phonetic code) form a cluster. Fast and precise.
//   - Nearest neighbour: values whose pairwise string similarity exceeds a
//     threshold are connected; connected components form clusters.
//     Catches typos key collision misses, at higher cost and lower
//     precision.
package cluster

import (
	"fmt"
	"sort"

	"metamess/internal/fingerprint"
	"metamess/internal/refine"
	"metamess/internal/strdist"
	"metamess/internal/table"
)

// Cluster is a group of distinct column values judged to denote the same
// thing, plus the value the method recommends folding onto.
type Cluster struct {
	// Key is the collision key (key-collision methods) or a synthetic
	// component id (nearest-neighbour methods).
	Key string
	// Values lists the member values with their row frequencies, ordered
	// by descending count then ascending value.
	Values []table.ValueCount
	// Recommended is the member the cluster folds onto: the most frequent
	// value, ties broken by ascending value for determinism.
	Recommended string
}

// Size returns the number of distinct values in the cluster.
func (c Cluster) Size() int { return len(c.Values) }

// RowCount returns the total number of rows covered by the cluster.
func (c Cluster) RowCount() int {
	n := 0
	for _, v := range c.Values {
		n += v.Count
	}
	return n
}

// Method is one clustering algorithm.
type Method interface {
	// Name identifies the method in reports ("fingerprint", "levenshtein", ...).
	Name() string
	// Cluster groups the distinct values; only clusters with at least two
	// distinct members are returned, ordered by descending row count.
	Cluster(values []table.ValueCount) []Cluster
	// ClusterTouching returns exactly the clusters of Cluster(values) that
	// contain at least one of the seed values — same Key, Values,
	// Recommended and order — without computing the others. Discovery
	// seeds it with the residual names, so its cost tracks the residual
	// rather than the square of the catalog's distinct names.
	ClusterTouching(values []table.ValueCount, seeds []string) []Cluster
}

// keyCollision clusters values sharing a normalization key.
type keyCollision struct {
	name  string
	keyer func(string) string
}

// Fingerprint returns the key-collision method over fingerprint.Key —
// Refine's default and the poster's primary discovery tool.
func Fingerprint() Method {
	return keyCollision{name: "fingerprint", keyer: fingerprint.Key}
}

// NGramFingerprint returns the key-collision method over n-gram
// fingerprints, which tolerates small in-word typos.
func NGramFingerprint(n int) Method {
	return keyCollision{
		name:  fmt.Sprintf("ngram-fingerprint-%d", n),
		keyer: func(s string) string { return fingerprint.NGram(s, n) },
	}
}

// Phonetic returns the key-collision method over the simplified phonetic
// code, which catches sound-alike misspellings.
func Phonetic() Method {
	return keyCollision{name: "phonetic", keyer: fingerprint.Phonetic}
}

// Name implements Method.
func (k keyCollision) Name() string { return k.name }

// Cluster implements Method.
func (k keyCollision) Cluster(values []table.ValueCount) []Cluster {
	return k.cluster(values, nil)
}

// ClusterTouching implements Method: a cluster contains a seed exactly
// when a seed present in values produced its key.
func (k keyCollision) ClusterTouching(values []table.ValueCount, seeds []string) []Cluster {
	return k.cluster(values, seedSet(seeds))
}

// cluster groups values by key; a non-nil seeds set keeps only the
// groups whose key one of its members produced.
func (k keyCollision) cluster(values []table.ValueCount, seeds map[string]bool) []Cluster {
	keys := make([]string, len(values))
	wanted := make(map[string]bool)
	for i, v := range values {
		if v.Value == "" {
			continue // blanks are handled by fromBlank edits, not clustering
		}
		keys[i] = k.keyer(v.Value)
		if seeds[v.Value] {
			wanted[keys[i]] = true
		}
	}
	groups := make(map[string][]table.ValueCount)
	for i, v := range values {
		if key := keys[i]; key != "" && (seeds == nil || wanted[key]) {
			groups[key] = append(groups[key], v)
		}
	}
	var out []Cluster
	for key, members := range groups {
		if len(members) < 2 {
			continue
		}
		out = append(out, finalize(key, members))
	}
	orderClusters(out)
	return out
}

// nearestNeighbor clusters values by pairwise similarity >= threshold.
type nearestNeighbor struct {
	name      string
	sim       func(a, b string) float64
	threshold float64
	// lengthPrune enables the length-difference prune, which is only a
	// sound bound for normalized Levenshtein similarity.
	lengthPrune bool
}

// Levenshtein returns the nearest-neighbour method over normalized
// Levenshtein similarity with the given threshold in (0,1].
func Levenshtein(threshold float64) Method {
	return nearestNeighbor{
		name:        "levenshtein",
		sim:         strdist.LevenshteinSimilarity,
		threshold:   threshold,
		lengthPrune: true,
	}
}

// JaroWinkler returns the nearest-neighbour method over Jaro-Winkler
// similarity with the given threshold in (0,1].
func JaroWinkler(threshold float64) Method {
	return nearestNeighbor{
		name:      "jaro-winkler",
		sim:       strdist.JaroWinkler,
		threshold: threshold,
	}
}

// Name implements Method.
func (nn nearestNeighbor) Name() string { return nn.name }

// Cluster implements Method.
func (nn nearestNeighbor) Cluster(values []table.ValueCount) []Cluster {
	// All pairs over the non-blank distinct values, lower index first. For
	// catalog-scale distinct counts (thousands) the plain O(n^2) is
	// acceptable for a one-off run; we keep it exact. The write path's
	// discovery goes through ClusterTouching instead.
	vals := nonBlank(values)
	uf := newUnionFind(len(vals))
	for i := range vals {
		for j := i + 1; j < len(vals); j++ {
			if nn.linked(vals, i, j) {
				uf.union(i, j)
			}
		}
	}
	return uf.clusters(vals)
}

// ClusterTouching implements Method. It walks the seeds' closure under
// the similarity relation — every popped vertex is compared with every
// vertex not popped before it, so each pair is scored at most once and
// the whole walk costs |closure| x n comparisons — and then replays the
// closure's edges in the (i, j) order of Cluster's loop. No edge leaves a
// closure, so the unions that touch it are the same unions in the same
// order as in the full run: the component roots, hence the "nn-<root>"
// keys and the tie-break order, come out identical.
func (nn nearestNeighbor) ClusterTouching(values []table.ValueCount, seeds []string) []Cluster {
	vals := nonBlank(values)
	seed := seedSet(seeds)
	const (
		unseen = iota
		queued
		popped
	)
	state := make([]uint8, len(vals))
	var queue []int
	for i, v := range vals {
		if seed[v.Value] {
			state[i] = queued
			queue = append(queue, i)
		}
	}
	var edges [][2]int
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		state[u] = popped
		for v := range vals {
			if v == u || state[v] == popped {
				continue
			}
			i, j := u, v
			if j < i {
				i, j = j, i
			}
			if !nn.linked(vals, i, j) {
				continue
			}
			edges = append(edges, [2]int{i, j})
			if state[v] == unseen {
				state[v] = queued
				queue = append(queue, v)
			}
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a][0] != edges[b][0] {
			return edges[a][0] < edges[b][0]
		}
		return edges[a][1] < edges[b][1]
	})
	uf := newUnionFind(len(vals))
	for _, e := range edges {
		uf.union(e[0], e[1])
	}
	return uf.clusters(vals)
}

// linked reports whether vals[i] and vals[j] are similar enough to share
// a cluster. Callers pass i < j, so an asymmetric similarity is always
// asked the same way round.
func (nn nearestNeighbor) linked(vals []table.ValueCount, i, j int) bool {
	if nn.lengthPrune && !lengthCompatible(vals[i].Value, vals[j].Value, nn.threshold) {
		return false
	}
	return nn.sim(vals[i].Value, vals[j].Value) >= nn.threshold
}

// nonBlank drops blank values, which clustering never groups.
func nonBlank(values []table.ValueCount) []table.ValueCount {
	var vals []table.ValueCount
	for _, v := range values {
		if v.Value != "" {
			vals = append(vals, v)
		}
	}
	return vals
}

// seedSet indexes seed values; never nil, so callers can tell "no seeds"
// from "unseeded".
func seedSet(seeds []string) map[string]bool {
	set := make(map[string]bool, len(seeds))
	for _, s := range seeds {
		set[s] = true
	}
	return set
}

// unionFind tracks connected components over value indices.
type unionFind struct{ parent []int }

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra != rb {
		uf.parent[rb] = ra
	}
}

// clusters renders every component of two or more values, keyed by its
// root index.
func (uf *unionFind) clusters(vals []table.ValueCount) []Cluster {
	groups := make(map[int][]table.ValueCount)
	for i, v := range vals {
		root := uf.find(i)
		groups[root] = append(groups[root], v)
	}
	var out []Cluster
	for root, members := range groups {
		if len(members) < 2 {
			continue
		}
		out = append(out, finalize(fmt.Sprintf("nn-%d", root), members))
	}
	orderClusters(out)
	return out
}

// lengthCompatible prunes pairs whose length difference alone already
// caps similarity below the threshold (valid for normalized Levenshtein;
// conservative for Jaro-Winkler).
func lengthCompatible(a, b string, threshold float64) bool {
	la, lb := len(a), len(b)
	longest, diff := la, la-lb
	if lb > la {
		longest, diff = lb, lb-la
	}
	if longest == 0 {
		return true
	}
	return 1-float64(diff)/float64(longest) >= threshold
}

// finalize orders members and picks the recommended value.
func finalize(key string, members []table.ValueCount) Cluster {
	sort.Slice(members, func(i, j int) bool {
		if members[i].Count != members[j].Count {
			return members[i].Count > members[j].Count
		}
		return members[i].Value < members[j].Value
	})
	return Cluster{Key: key, Values: members, Recommended: members[0].Value}
}

// orderClusters sorts clusters by descending row count, then by key, so
// reports and generated rules are deterministic.
func orderClusters(cs []Cluster) {
	sort.Slice(cs, func(i, j int) bool {
		ri, rj := cs[i].RowCount(), cs[j].RowCount()
		if ri != rj {
			return ri > rj
		}
		return cs[i].Key < cs[j].Key
	})
}

// Discover runs a method over a table column and returns the clusters.
func Discover(t *table.Table, column string, m Method) ([]Cluster, error) {
	counts, err := t.ValueCounts(column)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return m.Cluster(counts), nil
}

// ToMassEdit converts clusters into a replayable mass-edit rule on the
// given column: every non-recommended member maps to the recommended
// value. Returns nil when there is nothing to edit.
func ToMassEdit(column string, clusters []Cluster, description string) *refine.MassEdit {
	var edits []refine.Edit
	for _, c := range clusters {
		var from []string
		for _, v := range c.Values {
			if v.Value != c.Recommended {
				from = append(from, v.Value)
			}
		}
		if len(from) == 0 {
			continue
		}
		edits = append(edits, refine.Edit{From: from, To: c.Recommended})
	}
	if len(edits) == 0 {
		return nil
	}
	if description == "" {
		description = fmt.Sprintf("Mass edit cells in column %s (%d clusters)", column, len(edits))
	}
	return &refine.MassEdit{
		Desc:       description,
		Engine:     refine.EngineConfig{Mode: "row-based"},
		ColumnName: column,
		Expression: "value",
		Edits:      edits,
	}
}
