package search

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"metamess/internal/catalog"
	"metamess/internal/obs"
)

// parallelMinWork is the candidate count each scoring worker must be
// able to claim before fan-out engages: effectiveWorkers clamps the
// worker count to work/parallelMinWork, so batches below the threshold
// stay on the calling goroutine. A package variable so tests can force
// the parallel path on tiny catalogs.
var parallelMinWork = 256

// cancelCheckEvery is how many candidates a scoring loop processes
// between context checks; a Background context makes the check a nil
// select, so the uncancellable path pays almost nothing.
const cancelCheckEvery = 512

func canceled(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// searchSnapshot runs the query over every shard of the snapshot and
// returns the exact global top-K, ranked, in freshly allocated memory
// (all scratch is pooled and released before returning).
//
// Single-shard snapshots keep the monolithic path: one plan, with the
// worker pool splitting candidate batches inside the shard. Multi-shard
// snapshots scatter-gather in tier-synchronized rounds. Every shard
// carries the full index set over its own features, so each builds its
// own plan — and because the tier structure and outside-score bounds
// are derived from the query and the options alone (never from shard
// content), all plans share the same tiers. Round ti scatters tier ti
// of every shard across the workers (one shard per worker at a time,
// scored serially into a bounded local top-K), gathers each shard's
// results into a single merge heap, and then — at the barrier — applies
// the monolithic widening argument globally: if the heap holds K
// results and the K-th score strictly exceeds the tier's outside bound,
// everything unscored in every shard is provably outranked, and the
// search stops without touching the wider tiers.
//
// Exactness composes: the merge heap keeps the best K under the total
// ranking order (score desc, ID asc — IDs are unique), and the stopping
// rule is the same proof the single-shard executor uses. The result is
// byte-identical for every shard count — the property
// TestShardedSearchMatchesSingleShard pins.
//
// qo is the query's observability footprint (nil when unobserved — the
// benchmark and library paths): stage timings, per-shard candidate
// counts, and — when a trace is attached — plan/scatter/merge phase
// spans with per-shard and per-tier children. Every hook is
// nil-guarded, so the qo == nil path never reads the clock and never
// allocates; the ranking itself is identical either way.
func (s *Searcher) searchSnapshot(ctx context.Context, snap *catalog.Snapshot, q Query, expanded []expandedTerm, k int, qo *obs.QueryObs) []Result {
	shards := snap.Shards()
	workers := s.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = clampFanOut(workers)
	qo.SizeShards(len(shards))
	tr, root := qo.Tracer()

	if len(shards) == 1 {
		sc := getScratch()
		var results []Result
		var t0 time.Time
		if s.opts.UseIndex {
			if qo != nil {
				t0 = time.Now()
			}
			pid := tr.Start(root, "plan")
			spid := tr.Start(pid, "shard-plan")
			pln := s.buildPlan(shards[0], q, expanded, sc)
			tr.Attr(spid, "shard", 0)
			tr.Attr(spid, "tiers", int64(len(pln.tiers)))
			tr.End(spid)
			tr.End(pid)
			if qo != nil {
				qo.PlanNs += time.Since(t0).Nanoseconds()
				t0 = time.Now()
			}
			sid := tr.Start(root, "scatter")
			results = s.executePlan(ctx, shards[0], pln, q, expanded, k, workers, sc, qo, 0, sid)
			tr.End(sid)
			if qo != nil {
				qo.ScatterNs += time.Since(t0).Nanoseconds()
			}
		} else {
			if qo != nil {
				t0 = time.Now()
			}
			sid := tr.Start(root, "scatter")
			results = s.linearShard(ctx, shards[0], q, expanded, k, workers, sc, qo, 0, sid)
			tr.End(sid)
			if qo != nil {
				qo.ScatterNs += time.Since(t0).Nanoseconds()
				qo.NoteTier(0)
			}
		}
		if qo != nil {
			t0 = time.Now()
		}
		mid := tr.Start(root, "merge")
		rank(results)
		if len(results) > k {
			results = results[:k]
		}
		out := append([]Result(nil), results...) // detach from pooled scratch
		tr.Attr(mid, "results", int64(len(out)))
		tr.End(mid)
		if qo != nil {
			qo.MergeNs += time.Since(t0).Nanoseconds()
		}
		putScratch(sc)
		return out
	}

	// One scratch per shard: each is owned by exactly one worker at a
	// time (parallelDo hands every shard index to a single claimant per
	// round, and rounds are separated by barriers).
	scs := make([]*scratch, len(shards))
	for si := range scs {
		scs[si] = getScratch()
	}
	defer func() {
		for _, sc := range scs {
			putScratch(sc)
		}
	}()

	merge := newTopK(k)
	var mu sync.Mutex
	gather := func(local []Result) {
		mu.Lock()
		for _, r := range local {
			merge.consider(r)
		}
		mu.Unlock()
	}

	// Trace spans inside parallelDo callbacks are safe (the Trace is
	// mutex-guarded) and candidate counts go to disjoint per-shard
	// slots; the stage-duration fields are only touched here on the
	// request goroutine, between barriers.
	var t0 time.Time

	if !s.opts.UseIndex {
		// Linear ablation: one full-scan round over every shard.
		if qo != nil {
			t0 = time.Now()
		}
		sid := tr.Start(root, "scatter")
		parallelDo(workers, len(shards), func(si int) {
			if canceled(ctx) {
				return
			}
			gather(s.linearShard(ctx, shards[si], q, expanded, k, 1, scs[si], qo, si, sid))
		})
		tr.End(sid)
		if qo != nil {
			qo.ScatterNs += time.Since(t0).Nanoseconds()
			qo.NoteTier(0)
			t0 = time.Now()
		}
		mid := tr.Start(root, "merge")
		out := append([]Result(nil), merge.items...)
		rank(out)
		tr.Attr(mid, "results", int64(len(out)))
		tr.End(mid)
		if qo != nil {
			qo.MergeNs += time.Since(t0).Nanoseconds()
		}
		return out
	}

	if qo != nil {
		t0 = time.Now()
	}
	pid := tr.Start(root, "plan")
	plans := make([]plan, len(shards))
	parallelDo(workers, len(shards), func(si int) {
		spid := tr.Start(pid, "shard-plan")
		plans[si] = s.buildPlan(shards[si], q, expanded, scs[si])
		scs[si].scoredFor(shards[si].Len())
		tr.Attr(spid, "shard", int64(si))
		tr.Attr(spid, "tiers", int64(len(plans[si].tiers)))
		tr.End(spid)
	})
	tr.End(pid)
	maxTiers := 0
	for _, p := range plans {
		if len(p.tiers) > maxTiers {
			maxTiers = len(p.tiers)
		}
	}
	if qo != nil {
		qo.PlanNs += time.Since(t0).Nanoseconds()
		t0 = time.Now()
	}

	sid := tr.Start(root, "scatter")
	completedTiers := 0
	for ti := 0; ti < maxTiers; ti++ {
		if canceled(ctx) {
			break
		}
		parallelDo(workers, len(shards), func(si int) {
			if ti >= len(plans[si].tiers) || canceled(ctx) {
				return
			}
			sc := scs[si]
			t := plans[si].tiers[ti]
			sh := shards[si]
			was := sc.scored
			batch := sc.batch[:0]
			if t.all {
				for i := 0; i < sh.Len(); i++ {
					if !was[i] {
						batch = append(batch, int32(i))
					}
				}
			} else {
				for _, p := range t.pos {
					if !was[p] {
						batch = append(batch, p)
					}
				}
			}
			for _, p := range batch {
				was[p] = true
			}
			sc.batch = batch
			tid := tr.Start(sid, "tier")
			top, scored, pruned := s.scorePositions(ctx, sh, batch, q, expanded, k, 1, true, sc)
			gather(top)
			endTier(qo, tid, si, ti, len(batch), scored, pruned)
		})
		qo.NoteTier(ti)
		if !canceled(ctx) {
			completedTiers++
		}
		// Barrier: all workers joined, so the heap is quiescent. Stop
		// when K gathered results strictly clear every shard's outside
		// bound for this tier (bounds are query-derived and identical
		// across shards; the max is taken defensively).
		if k <= 0 || len(merge.items) < k {
			continue
		}
		bound := -1.0
		for _, p := range plans {
			if ti < len(p.tiers) && p.tiers[ti].bound > bound {
				bound = p.tiers[ti].bound
			}
		}
		if merge.items[0].Score > bound {
			break
		}
	}
	// A deadline that cut the scatter short is visible in the trace:
	// how many tier rounds ran to completion, and that the cut happened
	// — the per-tier child spans carry the candidate counts.
	tr.Attr(sid, "completedTiers", int64(completedTiers))
	if canceled(ctx) {
		tr.Attr(sid, "deadlined", 1)
	}
	tr.End(sid)
	if qo != nil {
		qo.ScatterNs += time.Since(t0).Nanoseconds()
		t0 = time.Now()
	}
	mid := tr.Start(root, "merge")
	out := append([]Result(nil), merge.items...)
	rank(out)
	tr.Attr(mid, "results", int64(len(out)))
	tr.End(mid)
	if qo != nil {
		qo.MergeNs += time.Since(t0).Nanoseconds()
	}
	return out
}

// parallelDo runs fn(0..n-1) across up to workers goroutines, claiming
// indices off a shared counter; with one worker it stays on the calling
// goroutine. It returns when every call has finished.
func parallelDo(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// linearShard computes one shard's exact top-K by full scan — the
// linear ablation. The returned slice is unsorted, has at most k
// elements, and aliases the scratch: callers copy out before releasing
// sc. The whole scan is one "tier" span under parent, and every
// position counts as an examined candidate for shard si. It scores
// every candidate in full, never pruning, so it stays an oracle for
// the pruned executor. Safe to call from scatter workers: it only
// touches the (mutex-guarded) trace and shard si's own counter slots.
func (s *Searcher) linearShard(ctx context.Context, sh *catalog.Shard, q Query, expanded []expandedTerm, k, workers int, sc *scratch, qo *obs.QueryObs, si int, parent int32) []Result {
	tr, _ := qo.Tracer()
	tid := tr.Start(parent, "tier")
	all := sc.batch[:0]
	for i := 0; i < sh.Len(); i++ {
		all = append(all, int32(i))
	}
	sc.batch = all
	res, scored, pruned := s.scorePositions(ctx, sh, all, q, expanded, k, workers, false, sc)
	endTier(qo, tid, si, 0, len(all), scored, pruned)
	return res
}

// executePlan runs the tiers of a plan over one shard: score each
// tier's not-yet-scored candidates, merge into the accumulated top-K,
// and stop as soon as the K-th score strictly exceeds the tier's
// outside bound — anything unscored in this shard is then provably
// below every returned result. (The multi-shard scatter path runs the
// same tier loop inline, with the bound check against the global merge
// heap at each tier barrier.) Only the single-shard path calls it, so
// it runs on the request goroutine and may touch qo's tier counter
// directly; each executed tier becomes a "tier" span under parent.
func (s *Searcher) executePlan(ctx context.Context, sh *catalog.Shard, pln plan, q Query, expanded []expandedTerm, k, workers int, sc *scratch, qo *obs.QueryObs, si int, parent int32) []Result {
	tr, _ := qo.Tracer()
	n := sh.Len()
	scored := sc.scoredFor(n)
	acc := sc.acc[:0]
	completedTiers := 0
	for ti, t := range pln.tiers {
		if canceled(ctx) {
			break
		}
		batch := sc.batch[:0]
		if t.all {
			for i := 0; i < n; i++ {
				if !scored[i] {
					batch = append(batch, int32(i))
				}
			}
		} else {
			for _, p := range t.pos {
				if !scored[p] {
					batch = append(batch, p)
				}
			}
		}
		for _, p := range batch {
			scored[p] = true
		}
		sc.batch = batch
		tid := tr.Start(parent, "tier")
		top, scored, pruned := s.scorePositions(ctx, sh, batch, q, expanded, k, workers, true, sc)
		if len(top) > 0 {
			acc = append(acc, top...)
			rank(acc)
			if len(acc) > k {
				acc = acc[:k]
			}
		}
		endTier(qo, tid, si, ti, len(batch), scored, pruned)
		qo.NoteTier(ti)
		if !canceled(ctx) {
			completedTiers++
		}
		if len(acc) >= k && acc[k-1].Score > t.bound {
			break
		}
	}
	tr.Attr(parent, "completedTiers", int64(completedTiers))
	if canceled(ctx) {
		tr.Attr(parent, "deadlined", 1)
	}
	sc.acc = acc
	return acc
}

// endTier credits shard si with a tier's batch and the part of it
// that was pruned, and closes the tier's span with the same counts.
// scored+pruned falls short of batch only when the context ended
// mid-batch.
func endTier(qo *obs.QueryObs, tid int32, si, ti, batch, scored, pruned int) {
	qo.AddShardCandidates(si, batch)
	qo.AddShardPruned(si, pruned)
	tr, _ := qo.Tracer()
	tr.Attr(tid, "shard", int64(si))
	tr.Attr(tid, "tier", int64(ti))
	tr.Attr(tid, "candidates", int64(batch))
	tr.Attr(tid, "scored", int64(scored))
	tr.Attr(tid, "pruned", int64(pruned))
	tr.End(tid)
}

// scorePositions scores a candidate batch from one shard and returns
// its top-K (by the ranking order), unsorted, aliasing scratch or
// worker-local memory, with how many candidates were scored in full
// and how many were pruned (prune=false scores every one). The fan-out
// is adaptive: effectiveWorkers grants one worker per parallelMinWork
// candidates (never more than asked), so small batches are scored
// serially on the calling goroutine into the scratch's pooled heap.
// Parallel batches give each worker a bounded top-K min-heap so memory
// stays O(K·workers) regardless of catalog size, and the merged heaps
// contain a superset of the batch's true top-K.
func (s *Searcher) scorePositions(ctx context.Context, sh *catalog.Shard, pos []int32, q Query, expanded []expandedTerm, k, workers int, prune bool, sc *scratch) (top []Result, scored, pruned int) {
	workers = effectiveWorkers(workers, len(pos))
	if workers <= 1 {
		h := &sc.heap
		h.reset(k)
		scored, pruned = s.scoreInto(ctx, h, sh, pos, q, expanded, prune)
		return h.items, scored, pruned
	}
	type part struct {
		h              *topK
		scored, pruned int
	}
	parts := make([]part, workers)
	var wg sync.WaitGroup
	chunk := (len(pos) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(pos) {
			hi = len(pos)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			h := newTopK(k)
			scored, pruned := s.scoreInto(ctx, h, sh, pos[lo:hi], q, expanded, prune)
			parts[w] = part{h, scored, pruned}
		}(w, lo, hi)
	}
	wg.Wait()
	// Fresh slice, not scratch: the caller may be accumulating into
	// sc.acc across tiers, and a parallel batch is large enough that one
	// merge allocation is noise.
	out := make([]Result, 0, workers*k)
	for _, p := range parts {
		if p.h != nil {
			out = append(out, p.h.items...)
		}
		scored += p.scored
		pruned += p.pruned
	}
	return out, scored, pruned
}

// scoreInto scores pos into h on the calling goroutine. With prune set,
// each candidate is scored against h's floor, which only rises, so a
// candidate score gives up on is one h would have rejected: the heap
// comes out exactly as without pruning.
func (s *Searcher) scoreInto(ctx context.Context, h *topK, sh *catalog.Shard, pos []int32, q Query, expanded []expandedTerm, prune bool) (scored, pruned int) {
	floor := math.Inf(-1)
	for i, p := range pos {
		if i%cancelCheckEvery == 0 && canceled(ctx) {
			break
		}
		r, ok := s.score(sh.At(p), q, expanded, floor)
		if !ok {
			pruned++
			continue
		}
		scored++
		if r.Score > 0 {
			h.consider(r)
			if prune {
				floor = h.floor()
			}
		}
	}
	return scored, pruned
}

// topK is a bounded min-heap ordered by the ranking comparator (score
// ascending, then ID descending), so the root is the worst kept result
// and a better candidate evicts it in O(log K).
type topK struct {
	k     int
	items []Result
}

func newTopK(k int) *topK { return &topK{k: k} }

// reset empties the heap for reuse at a (possibly different) bound,
// keeping the item buffer's capacity.
func (h *topK) reset(k int) {
	h.k = k
	h.items = h.items[:0]
}

// outranked reports whether a ranks strictly below b in the final
// ordering (score descending, ID ascending on ties).
func outranked(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Feature.ID > b.Feature.ID
}

// floor is the score a candidate must reach to enter: the root's once
// the heap is full, −∞ before.
func (h *topK) floor() float64 {
	if h.k <= 0 || len(h.items) < h.k {
		return math.Inf(-1)
	}
	return h.items[0].Score
}

func (h *topK) consider(r Result) {
	if h.k <= 0 {
		return
	}
	if len(h.items) < h.k {
		h.items = append(h.items, r)
		h.up(len(h.items) - 1)
		return
	}
	if outranked(h.items[0], r) {
		h.items[0] = r
		h.down(0)
	}
}

func (h *topK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !outranked(h.items[i], h.items[parent]) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *topK) down(i int) {
	n := len(h.items)
	for {
		worst := i
		if l := 2*i + 1; l < n && outranked(h.items[l], h.items[worst]) {
			worst = l
		}
		if r := 2*i + 2; r < n && outranked(h.items[r], h.items[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		h.items[i], h.items[worst] = h.items[worst], h.items[i]
		i = worst
	}
}
