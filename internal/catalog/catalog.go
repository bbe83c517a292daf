package catalog

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Catalog is the served catalog: a generation and the immutable
// Snapshot that search reads, swapped in atomically by each publish, so
// the read path takes no locks at all. Its one write is ApplyDelta (or
// ApplyDeltaAt); the features a wrangle edits live in a Working catalog.
//
// One ownership rule keeps the copies apart: a *Feature stored in a
// Working catalog or a Snapshot is never edited in place. A mutator
// stores an edited copy in place of the pointer (copyOnWriteLocked);
// every other path — diffs, deltas, snapshot applies, Clone and SeedFrom
// — shares the pointer. So the working catalog and the served snapshots
// hold one copy of each unchanged feature between them, and a held
// snapshot never changes. Working.Upsert and Working.Get still copy at
// the boundary, so their callers may keep editing their own features.
type Catalog struct {
	// snap is the served snapshot, never nil: at construction, one
	// empty base segment per shard at generation 0. Readers load it with
	// a single atomic pointer load — the lock-free search fast path.
	snap atomic.Pointer[Snapshot]
	// mu serializes writers: applies, and reads of lastMerge.
	mu sync.Mutex
	// lastMerge records the merges of the latest ApplyDelta.
	lastMerge MergeStat
}

// New returns an empty catalog with the default snapshot shard count
// (one per schedulable CPU).
func New() *Catalog { return NewSharded(0) }

// NewSharded returns an empty catalog whose snapshots are partitioned
// into the given number of shards (0 or negative = DefaultShardCount).
// The count is fixed for the catalog's lifetime, so every snapshot of
// it shards identically and an apply shares clean shards and segments
// with its predecessor.
func NewSharded(shards int) *Catalog {
	if shards <= 0 {
		shards = DefaultShardCount()
	}
	empty := make([]shard, shards)
	for si := range empty {
		empty[si].segs = []*Segment{{segment: buildShard(nil), shard: si}}
	}
	c := &Catalog{}
	c.snap.Store(assemble(empty, 0))
	return c
}

// Len returns the number of features served.
func (c *Catalog) Len() int { return c.Snapshot().Len() }

// Generation returns the served generation.
func (c *Catalog) Generation() uint64 { return c.Snapshot().Generation() }

// Snapshot returns the served snapshot: a single atomic load.
func (c *Catalog) Snapshot() *Snapshot { return c.snap.Load() }

// ForEach calls fn for every served feature in ID order, without
// copying. fn must treat the feature as read-only.
func (c *Catalog) ForEach(fn func(f *Feature)) {
	for _, f := range c.Snapshot().All() {
		fn(f)
	}
}

// DiffTo compares the served catalog against next (the working state)
// and returns the exact publish delta: every feature of next that is new
// or content-changed relative to the served snapshot, shared with next,
// and the IDs served but absent from next. ScannedAt is ignored (see
// Feature.ContentEquals), so a re-scan that merely re-verified files
// yields an empty delta. Both result slices are sorted by ID.
func (c *Catalog) DiffTo(next *Working) (changed []*Feature, removed []string) {
	return c.diff(next, nil, true)
}

// DiffOf is DiffTo restricted to the given distinct IDs: the exact
// delta when next differs from the served catalog at most at those IDs,
// at a cost in proportion to them instead of to the catalogs.
func (c *Catalog) DiffOf(next *Working, ids []string) (changed []*Feature, removed []string) {
	return c.diff(next, ids, false)
}

// diff is the one body behind DiffTo (all) and DiffOf (the ids only). It
// reads the served snapshot, which is immutable, so only next's lock is
// taken; callers serialize it against applies to c.
func (c *Catalog) diff(next *Working, ids []string, all bool) (changed []*Feature, removed []string) {
	snap := c.Snapshot()
	next.mu.RLock()
	defer next.mu.RUnlock()
	visit := func(id string) {
		f, inNext := next.features[id]
		old, inC := snap.ByID(id)
		switch {
		case inNext && !(inC && old.ContentEquals(f)):
			changed = append(changed, f)
		case !inNext && inC:
			removed = append(removed, id)
		}
	}
	if all {
		for id := range next.features {
			visit(id)
		}
		snap.forEachLive(func(f *Feature) {
			if _, ok := next.features[f.ID]; !ok {
				removed = append(removed, f.ID)
			}
		})
	} else {
		for _, id := range ids {
			visit(id)
		}
	}
	slices.SortFunc(changed, byID)
	sort.Strings(removed)
	return changed, removed
}

// ApplyDelta upserts the changed features and deletes the removed IDs
// as one atomic publish: the generation moves exactly once, and the new
// snapshot is the previous one plus a delta segment per dirty shard
// (features outside the delta are shared; no index is rebuilt beyond
// the merges the segment stacks schedule, see shard.apply). An empty
// delta is a strict no-op — the generation and the served snapshot
// stay unchanged, so a re-wrangle that found nothing to do invalidates
// no caches.
//
// The snapshot stores the passed features, so callers must not edit
// them afterwards; a feature a Working catalog stores (DiffTo's result)
// already obeys that rule. A delta whose changed features name one ID
// twice is refused whole. It reports whether the catalog changed.
func (c *Catalog) ApplyDelta(changed []*Feature, removed []string) (bool, error) {
	return c.applyDelta(changed, removed, 0, false)
}

// ApplyDeltaAt is ApplyDelta for the replication apply path: instead of
// advancing the generation by one it pins the catalog to gen — the
// stamp the leader journaled for this delta — so a follower serves the
// exact generation numbers its leader published and generation-keyed
// caches agree across the fleet. gen must be ahead of the catalog's
// current generation. Unlike ApplyDelta, a delta that resolves to
// nothing still advances the generation: the follower must reach the
// leader's stamp even when (idempotent re-delivery, deletes of absent
// IDs) there is no content to change. Takes ownership of the passed
// features, like ApplyDelta.
func (c *Catalog) ApplyDeltaAt(gen uint64, changed []*Feature, removed []string) error {
	_, err := c.applyDelta(changed, removed, gen, true)
	return err
}

// applyDelta is the one body behind ApplyDelta and ApplyDeltaAt; they
// differ only in the generation rule. Unpinned, the generation moves by
// one and a delta that resolves to nothing is a no-op; pinned, it moves
// to gen, which must be ahead, whatever the delta resolves to.
func (c *Catalog) applyDelta(changed []*Feature, removed []string, gen uint64, pinned bool) (bool, error) {
	if !pinned && len(changed) == 0 && len(removed) == 0 {
		return false, nil
	}
	for _, f := range changed {
		if err := f.Validate(); err != nil {
			return false, err
		}
	}
	// Segments are built over ID-sorted features and binary-searched,
	// so the delta must be in ID order; enforce it here rather than
	// trusting every caller (a replicated frame carries the delta as its
	// leader journaled it). Sorted, a repeated ID is adjacent.
	slices.SortFunc(changed, byID)
	for i := 1; i < len(changed); i++ {
		if changed[i].ID == changed[i-1].ID {
			return false, fmt.Errorf("catalog: delta changes feature %s twice", changed[i].ID)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastMerge = MergeStat{}
	prev := c.Snapshot()
	if pinned && gen <= prev.generation {
		return false, fmt.Errorf("catalog: replicated generation %d not ahead of catalog generation %d", gen, prev.generation)
	}
	removedSet := make(map[string]bool, len(removed))
	for _, id := range removed {
		if _, live := prev.ByID(id); !live {
			continue // deleting an absent ID is a no-op
		}
		if _, ok := slices.BinarySearchFunc(changed, id, func(f *Feature, id string) int { return strings.Compare(f.ID, id) }); ok {
			continue // an ID both removed and upserted resolves to upsert
		}
		removedSet[id] = true
	}
	if !pinned {
		if len(changed) == 0 && len(removedSet) == 0 {
			return false, nil
		}
		gen = prev.generation + 1
	}
	var next *Snapshot
	next, c.lastMerge = prev.applyDelta(changed, removedSet, gen)
	c.snap.Store(next)
	return true, nil
}

// load is recovery's one apply: it serves the folded features, already
// validated, at generation gen. The catalog must be empty.
func (c *Catalog) load(folded map[string]*Feature, gen uint64) {
	feats := make([]*Feature, 0, len(folded))
	for _, f := range folded {
		feats = append(feats, f)
	}
	slices.SortFunc(feats, byID)
	c.mu.Lock()
	defer c.mu.Unlock()
	next, _ := c.Snapshot().applyDelta(feats, nil, gen)
	c.snap.Store(next)
}

// LastMerge describes the segment merges the catalog's latest
// ApplyDelta or ApplyDeltaAt ran; the zero value when it ran none. The
// publish path reads it to attribute merge time.
func (c *Catalog) LastMerge() MergeStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastMerge
}
