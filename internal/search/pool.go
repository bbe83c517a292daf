package search

import (
	"runtime"
	"sync"
	"sync/atomic"

	"metamess/internal/catalog"
)

// Query-scratch pooling: everything a steady-state query needs beyond
// its response — candidate position buffers, the planner's mark array,
// the executor's scored set and batch, the bounded top-K heap — lives
// in one scratch struct recycled through a sync.Pool. A query takes one
// scratch per segment it plans over, and the only per-query allocations
// left are the response slice, its ≤K explanations and the scatter's
// bookkeeping. Results are copied out of pooled memory before the
// scratch is released, and released scratches drop their Feature
// pointers so a pooled buffer never pins a retired snapshot.
type scratch struct {
	marks  []uint8 // planner mark sweep, one byte per shard position
	scored []bool  // executor already-scored set
	batch  []int32 // executor per-tier unscored batch
	spat   []int32 // spatial candidate buffer
	temp   []int32 // temporal candidate buffer
	inter  []int32 // tier-1 (intersection) positions
	union  []int32 // tier-2 (union) positions
	lists  []catalog.Postings
	dims   []dimSet
	tiers  []tier
	heap   topK
}

var scratchPool sync.Pool

var (
	poolHits   atomic.Uint64
	poolMisses atomic.Uint64
)

// PoolStats reports how often query scratch was recycled versus
// freshly allocated since process start — the /stats counters that make
// pool effectiveness observable.
func PoolStats() (hits, misses uint64) {
	return poolHits.Load(), poolMisses.Load()
}

func getScratch() *scratch {
	if v := scratchPool.Get(); v != nil {
		poolHits.Add(1)
		return v.(*scratch)
	}
	poolMisses.Add(1)
	return &scratch{}
}

// putScratch clears what could pin memory and recycles the scratch.
// Buffers keep their capacity; Feature pointers are dropped so a pooled
// scratch never holds a retired snapshot alive.
func putScratch(sc *scratch) {
	sc.batch = sc.batch[:0]
	sc.spat = sc.spat[:0]
	sc.temp = sc.temp[:0]
	sc.inter = sc.inter[:0]
	sc.union = sc.union[:0]
	sc.lists = sc.lists[:0]
	sc.dims = sc.dims[:0]
	sc.tiers = sc.tiers[:0]
	items := sc.heap.items[:cap(sc.heap.items)]
	for i := range items {
		items[i] = Result{}
	}
	sc.heap.items = items[:0]
	scratchPool.Put(sc)
}

// marksFor returns the mark array sized and zeroed for a shard of n
// positions, reusing the pooled buffer's capacity.
func (sc *scratch) marksFor(n int) []uint8 {
	if cap(sc.marks) < n {
		sc.marks = make([]uint8, n)
	} else {
		sc.marks = sc.marks[:n]
		clear(sc.marks)
	}
	return sc.marks
}

// scoredFor returns the scored set sized and zeroed for n positions.
func (sc *scratch) scoredFor(n int) []bool {
	if cap(sc.scored) < n {
		sc.scored = make([]bool, n)
	} else {
		sc.scored = sc.scored[:n]
		clear(sc.scored)
	}
	return sc.scored
}

// maxFanOutProcs overrides the width fanOutWidth returns (0 = the
// machine's parallelism at query time). A package variable so
// equivalence and race tests can vary the fan-out, and drive the
// parallel scatter on single-CPU machines.
var maxFanOutProcs = 0

// fanOutWidth is how many goroutines a query's scatter rounds use:
// min(GOMAXPROCS, NumCPU). Workers beyond GOMAXPROCS cannot be
// scheduled concurrently, and scoring is CPU-bound, so threads beyond
// the physical cores only time-slice one another. A round never uses
// more workers than it has segments, so the shard count (default
// GOMAXPROCS) is the parallelism grain: a one-segment snapshot is
// scored serially on the request goroutine.
func fanOutWidth() int {
	if maxFanOutProcs > 0 {
		return maxFanOutProcs
	}
	return min(runtime.GOMAXPROCS(0), runtime.NumCPU())
}
