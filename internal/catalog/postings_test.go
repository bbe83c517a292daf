package catalog

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestPostingsRepresentationChoice pins the container heuristic: bitmap
// when its fixed cost (one word per 64 positions) undercuts 4 bytes per
// posting, sorted array otherwise, empty list always the zero value.
func TestPostingsRepresentationChoice(t *testing.T) {
	const shardLen = 1024 // 16 words → bitmap costs 128 bytes
	if p := newPostings(nil, shardLen); p.dense() || p.Len() != 0 {
		t.Fatalf("empty list: dense=%v len=%d", p.dense(), p.Len())
	}
	sparse := []int32{3, 77, 500}
	if p := newPostings(sparse, shardLen); p.dense() {
		t.Fatal("3 postings over 1024 positions packed as bitmap")
	}
	// 33 postings → 132 array bytes > 128 bitmap bytes.
	var dense []int32
	for i := int32(0); i < 33; i++ {
		dense = append(dense, i*31)
	}
	if p := newPostings(dense, shardLen); !p.dense() {
		t.Fatal("33 postings over 1024 positions kept as array")
	}
	// 32 postings → exactly 128 array bytes: strict inequality keeps the array.
	if p := newPostings(dense[:32], shardLen); p.dense() {
		t.Fatal("tie broken toward bitmap; heuristic must be strict")
	}
}

// TestPostingsRoundTrip checks that both representations agree with the
// raw position list through every accessor, over randomized densities.
func TestPostingsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		shardLen := 1 + rng.Intn(500)
		member := make(map[int32]bool)
		for i := 0; i < rng.Intn(shardLen+1); i++ {
			member[int32(rng.Intn(shardLen))] = true
		}
		var raw []int32
		for p := int32(0); p < int32(shardLen); p++ {
			if member[p] {
				raw = append(raw, p)
			}
		}
		l := newPostings(append([]int32(nil), raw...), shardLen)
		if l.Len() != len(raw) {
			t.Fatalf("trial %d: Len=%d want %d", trial, l.Len(), len(raw))
		}
		got := l.AppendTo([]int32{-9})
		if got[0] != -9 || !reflect.DeepEqual(got[1:], append([]int32{}, raw...)) {
			t.Fatalf("trial %d: AppendTo=%v want prefix -9 then %v", trial, got, raw)
		}
		marks := make([]uint8, shardLen)
		l.Mark(marks, 0b10)
		for p := int32(0); p < int32(shardLen); p++ {
			want := uint8(0)
			if member[p] {
				want = 0b10
			}
			if marks[p] != want {
				t.Fatalf("trial %d: mark[%d]=%b want %b", trial, p, marks[p], want)
			}
		}
	}
}

// TestStoreBuilderAssignsFirstSeenIDs pins deterministic interning:
// term IDs follow first appearance, lookups agree with the builder's
// inputs, a repeated (term, position) posts once, and materialize
// reproduces the raw lists.
func TestStoreBuilderAssignsFirstSeenIDs(t *testing.T) {
	b := newStoreBuilder[string]()
	b.add("salinity", 0)
	b.add("temp", 1)
	b.add("salinity", 2)
	b.add("nitrate", 2)
	b.add("salinity", 2) // a feature naming a term twice posts it once
	st := b.build(3)
	for i, want := range []string{"salinity", "temp", "nitrate"} {
		id, ok := st.id(want)
		if !ok || id != uint32(i) {
			t.Fatalf("id(%s) = %d, %v (want %d)", want, id, ok, i)
		}
	}
	if _, ok := st.id("absent"); ok {
		t.Fatal("absent term resolved")
	}
	want := map[string][]int32{"salinity": {0, 2}, "temp": {1}, "nitrate": {2}}
	if got := st.materialize(); !reflect.DeepEqual(got, want) {
		t.Fatalf("materialize = %v, want %v", got, want)
	}
}
