package catalog

import "math/bits"

// This file implements the interned-postings layer under every segment
// index: a term dictionary mapping each key (variable name, hierarchy
// parent, spatial grid cell) to a dense uint32 term ID, and one
// compressed posting container per ID holding the sorted set of segment
// positions carrying that term. Search resolves a query term to its ID
// once per (query, segment) — a single map probe — and every later step
// (candidate-tier intersection and union, batch building) runs over
// integer containers with no string hashing and no per-term slice
// headers in a map.
//
// Containers pick their representation per list: a sparse list stays a
// sorted int32 array (4 bytes per posting); a dense one packs into a
// bitmap over the segment's positions (shardLen/8 bytes total) whenever
// that is strictly smaller. Both iterate in ascending position order,
// so the planner's mark sweep and the executor's batches behave exactly
// as they did over raw []int32 lists — the representations are an
// encoding choice, never a semantics choice.

// Postings is one compressed posting list: the set of segment positions
// holding a term, iterated in ascending order. The zero value is an
// empty list. Read-only, like everything a Snapshot hands out.
type Postings struct {
	arr []int32  // sorted ascending; nil when bm is used
	bm  []uint64 // position bitmap; nil when arr is used
	n   int
}

// newPostings freezes a sorted, duplicate-free position list into the
// smaller of the two representations for a segment of shardLen features.
// It takes ownership of sorted.
func newPostings(sorted []int32, shardLen int) Postings {
	n := len(sorted)
	if n == 0 {
		return Postings{}
	}
	words := (shardLen + 63) / 64
	if 8*words < 4*n {
		bm := make([]uint64, words)
		for _, p := range sorted {
			bm[p>>6] |= 1 << (uint(p) & 63)
		}
		return Postings{bm: bm, n: n}
	}
	return Postings{arr: sorted, n: n}
}

// Len returns the number of positions in the list.
func (p Postings) Len() int { return p.n }

// dense reports whether the list is bitmap-packed (exposed for tests
// and the /stats index summary).
func (p Postings) dense() bool { return p.bm != nil }

// Mark sets bit in marks[pos] for every position in the list — the
// planner's union/intersection sweep, container-aware.
func (p Postings) Mark(marks []uint8, bit uint8) {
	if p.arr != nil {
		for _, q := range p.arr {
			marks[q] |= bit
		}
		return
	}
	for wi, w := range p.bm {
		base := wi << 6
		for w != 0 {
			marks[base+bits.TrailingZeros64(w)] |= bit
			w &= w - 1
		}
	}
}

// AppendTo appends the positions in ascending order to dst and returns
// the extended slice.
func (p Postings) AppendTo(dst []int32) []int32 {
	if p.arr != nil {
		return append(dst, p.arr...)
	}
	for wi, w := range p.bm {
		base := int32(wi << 6)
		for w != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// --- term dictionary -------------------------------------------------

// postingStore interns one key space (variable names, parents, or grid
// cells) into dense term IDs with a posting container per ID. IDs are
// assigned in first-appearance order during the segment's build, and a
// store is never patched afterwards: it holds exactly the terms of its
// segment's features, masked ones included. A term whose last live
// posting is retracted therefore keeps its ID only until a merge
// rebuilds the segments that carry it, and the masked bound
// (maskBound) caps how many masked features, and so how many such
// terms, a shard holds between merges.
type postingStore[K comparable] struct {
	ids   map[K]uint32
	keys  []K
	lists []Postings
}

// id resolves a key to its dense term ID.
func (st postingStore[K]) id(key K) (uint32, bool) {
	i, ok := st.ids[key]
	return i, ok
}

// at returns the posting container for a term ID.
func (st postingStore[K]) at(id uint32) Postings { return st.lists[id] }

// lookup resolves and fetches in one step.
func (st postingStore[K]) lookup(key K) (Postings, bool) {
	i, ok := st.ids[key]
	if !ok {
		return Postings{}, false
	}
	return st.lists[i], true
}

// materialize expands the store back into the map-of-slices shape the
// pre-interning indexes used — tests compare stores through it, so
// representation choices stay invisible.
func (st postingStore[K]) materialize() map[K][]int32 {
	out := make(map[K][]int32, len(st.keys))
	for i, key := range st.keys {
		if l := st.lists[i]; l.n > 0 {
			out[key] = l.AppendTo(make([]int32, 0, l.n))
		}
	}
	return out
}

// storeBuilder accumulates raw posting lists during a segment build.
// Positions must arrive in ascending order (buildShard walks features
// by position), so the frozen lists need no sort, and a repeat of the
// position a term just recorded is dropped, so a feature naming a term
// twice posts it once.
type storeBuilder[K comparable] struct {
	ids  map[K]uint32
	keys []K
	raw  [][]int32
}

func newStoreBuilder[K comparable]() *storeBuilder[K] {
	return &storeBuilder[K]{ids: make(map[K]uint32)}
}

func (b *storeBuilder[K]) add(key K, pos int32) {
	id, ok := b.ids[key]
	if !ok {
		id = uint32(len(b.keys))
		b.ids[key] = id
		b.keys = append(b.keys, key)
		b.raw = append(b.raw, nil)
	} else if raw := b.raw[id]; raw[len(raw)-1] == pos {
		return
	}
	b.raw[id] = append(b.raw[id], pos)
}

func (b *storeBuilder[K]) build(shardLen int) postingStore[K] {
	st := postingStore[K]{
		ids:   b.ids,
		keys:  b.keys,
		lists: make([]Postings, len(b.keys)),
	}
	for id, raw := range b.raw {
		st.lists[id] = newPostings(raw, shardLen)
	}
	return st
}
