package catalog

import (
	"fmt"
	"maps"
	"path"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"metamess/internal/table"
)

// Catalog is an in-memory feature store. It is safe for concurrent use;
// wrangling writes take the exclusive lock, while search reads go
// through an immutable published Snapshot swapped in atomically, so the
// read path takes no locks at all. The snapshot's shards carry the
// search indexes; the catalog itself keeps only tallies (names,
// directories, units).
//
// One ownership rule keeps the copies apart: a *Feature stored in a
// Catalog or a Snapshot is never edited in place. A mutator stores an
// edited copy in place of the pointer (copyOnWriteLocked); every other
// path — diffs, deltas, snapshot builds, Clone and SeedFrom — shares
// the pointer. So the working catalog, the published catalog and its
// snapshots hold one copy of each unchanged feature between them, and a
// held snapshot never changes. Upsert and Get still copy at the
// boundary, so their callers may keep editing their own features.
type Catalog struct {
	mu       sync.RWMutex
	features map[string]*Feature
	// names tallies every current variable name (excluded ones included),
	// maintained on every feature mutation, so the wrangling chain's
	// name-level questions (VariableNameCounts, the mess metric) read
	// O(distinct names) instead of walking every feature.
	names map[string]nameTally
	// dirs counts features per directory and format, and units counts
	// variable occurrences per non-empty unit string: maintained by the
	// same hook, they let validation's catalog-wide checks read
	// O(directories) and O(distinct units).
	dirs  map[string]map[string]int
	units map[string]int
	// generation counts mutations, letting long-running searchers detect
	// that a published catalog replaced this one.
	generation uint64
	// snap caches the current immutable snapshot. Mutations clear it;
	// ApplyDelta (publish) patches it eagerly; Snapshot() rebuilds it
	// lazily otherwise. Readers load it with a single atomic pointer
	// load — the lock-free search fast path.
	snap atomic.Pointer[Snapshot]
	// shards is the snapshot partition count, fixed at construction so
	// every snapshot of this catalog shards identically (ApplyDelta can
	// then share clean shards between successive snapshots).
	shards int
}

// New returns an empty catalog with the default snapshot shard count
// (one per schedulable CPU).
func New() *Catalog { return NewSharded(0) }

// NewSharded returns an empty catalog whose snapshots are partitioned
// into the given number of shards (0 or negative = DefaultShardCount).
// The count is fixed for the catalog's lifetime.
func NewSharded(shards int) *Catalog {
	if shards <= 0 {
		shards = DefaultShardCount()
	}
	return &Catalog{
		features: make(map[string]*Feature),
		names:    make(map[string]nameTally),
		dirs:     make(map[string]map[string]int),
		units:    make(map[string]int),
		shards:   shards,
	}
}

// nameTally counts one variable name's occurrences across the catalog,
// and how many of them are excluded or carry a hierarchy parent.
type nameTally struct{ occurrences, excluded, parented int }

// Len returns the number of features.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.features)
}

// Generation returns the mutation counter.
func (c *Catalog) Generation() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.generation
}

// Upsert validates and stores a feature, replacing any previous feature
// with the same ID. The catalog stores a private clone, so callers may
// keep mutating their copy.
func (c *Catalog) Upsert(f *Feature) error { return c.upsertOwned(f.Clone()) }

// upsertOwned is Upsert for callers that hand over ownership of a
// freshly built feature (checkpoint and journal recovery): the feature
// is validated and tallied but not cloned, so a 2000-feature replay
// does not pay a second copy of every feature it just decoded.
func (c *Catalog) upsertOwned(f *Feature) error {
	if err := f.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.features[f.ID]; ok {
		c.tallyLocked(old, -1)
	}
	c.features[f.ID] = f
	c.tallyLocked(f, 1)
	c.generation++
	c.snap.Store(nil)
	return nil
}

// Snapshot returns the catalog's current immutable snapshot, building
// it (once) if a mutation invalidated the cached one. The fast path is
// a single atomic load; concurrent callers after a mutation serialize
// on the write lock and share the rebuilt snapshot.
func (c *Catalog) Snapshot() *Snapshot {
	if s := c.snap.Load(); s != nil {
		return s
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.snap.Load(); s != nil {
		return s
	}
	s := newSnapshot(c.features, c.generation, c.shards)
	c.snap.Store(s)
	return s
}

// Get returns a copy of the feature with the given ID.
func (c *Catalog) Get(id string) (*Feature, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	f, ok := c.features[id]
	if !ok {
		return nil, false
	}
	return f.Clone(), true
}

// Delete removes a feature; it reports whether the ID was present.
func (c *Catalog) Delete(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.features[id]
	if !ok {
		return false
	}
	c.tallyLocked(f, -1)
	delete(c.features, id)
	c.generation++
	c.snap.Store(nil)
	return true
}

// VariableNameCounts tallies every *current* variable name (including
// excluded ones) across the catalog — the facet the wrangling chain and
// discovery cluster over — ordered by descending count, then name.
func (c *Catalog) VariableNameCounts() []table.ValueCount {
	c.mu.RLock()
	out := make([]table.ValueCount, 0, len(c.names))
	for v, t := range c.names {
		out = append(out, table.ValueCount{Value: v, Count: t.occurrences})
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// ForEachVariableName calls fn once per distinct current variable name,
// in ascending name order, with the number of occurrences of the name
// and how many of those are excluded or have a hierarchy parent. It
// reads the maintained tally, not the features.
func (c *Catalog) ForEachVariableName(fn func(name string, occurrences, excluded, parented int)) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, n := range c.sortedNamesLocked() {
		t := c.names[n]
		fn(n, t.occurrences, t.excluded, t.parented)
	}
}

// DistinctVariableNames returns the sorted distinct current names.
func (c *Catalog) DistinctVariableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.sortedNamesLocked()
}

// sortedNamesLocked lists the tally's names in ascending order.
func (c *Catalog) sortedNamesLocked() []string {
	out := make([]string, 0, len(c.names))
	for n := range c.names {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// featureDir is the directory a feature is filed under: the
// slash-separated parent of its archive path.
func featureDir(f *Feature) string { return path.Dir(filepath.ToSlash(f.Path)) }

// ForEachDirectory calls fn once per directory holding features (the
// slash-separated parent of their paths), in ascending order, with the
// sorted distinct formats of the features filed there. It reads the
// maintained tally, not the features.
func (c *Catalog) ForEachDirectory(fn func(dir string, formats []string)) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	dirs := make([]string, 0, len(c.dirs))
	for d := range c.dirs {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	for _, d := range dirs {
		formats := make([]string, 0, len(c.dirs[d]))
		for f := range c.dirs[d] {
			formats = append(formats, f)
		}
		sort.Strings(formats)
		fn(d, formats)
	}
}

// DistinctUnits returns the sorted distinct non-empty unit strings the
// catalog's variables carry, from the maintained tally.
func (c *Catalog) DistinctUnits() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.units))
	for u := range c.units {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// MutateVariables applies fn to a private copy of every feature under
// the write lock; fn returns true if it changed the copy's variables,
// and must not change anything else. A copy fn reports changed replaces
// the stored feature and is re-tallied; any other copy is dropped, edits
// and all. The method returns how many features changed. This is the
// hook the wrangling chain uses to write transformation results back
// from the working grid into the catalog.
func (c *Catalog) MutateVariables(fn func(f *Feature) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	changed := 0
	for _, f := range c.features {
		if c.copyOnWriteLocked(f, fn) {
			changed++
		}
	}
	c.bumpLocked(changed)
	return changed
}

// MutateVariablesOf is MutateVariables restricted to the given feature
// IDs (absent IDs are ignored): the delta write path, which copies and
// re-tallies only the features a re-wrangle actually changed instead of
// walking the whole catalog.
func (c *Catalog) MutateVariablesOf(ids []string, fn func(f *Feature) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	changed := 0
	for _, id := range ids {
		if f, ok := c.features[id]; ok && c.copyOnWriteLocked(f, fn) {
			changed++
		}
	}
	c.bumpLocked(changed)
	return changed
}

// copyOnWriteLocked is the one place a stored feature changes: fn edits
// a copy of f, and when it reports a change the copy replaces f in the
// map and in the variable tallies. f itself, which a snapshot or another
// catalog may share, is never written. Callers hold the write lock.
func (c *Catalog) copyOnWriteLocked(f *Feature, fn func(f *Feature) bool) bool {
	cp := f.Clone()
	if !fn(cp) {
		return false
	}
	c.tallyVariablesLocked(f, -1)
	c.tallyVariablesLocked(cp, 1)
	c.features[f.ID] = cp
	return true
}

// bumpLocked records that changed features were replaced: the
// generation moves once and the cached snapshot is dropped. Nothing
// changed is a no-op.
func (c *Catalog) bumpLocked(changed int) {
	if changed > 0 {
		c.generation++
		c.snap.Store(nil)
	}
}

// StatView returns the stored stat fingerprint of a feature — size,
// modification time, scan time, and content hash — without cloning the
// feature. The incremental scanner consults it for every candidate
// file, so the unchanged fast path allocates nothing.
func (c *Catalog) StatView(id string) (bytes int64, modTime, scannedAt time.Time, hash string, ok bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	f, found := c.features[id]
	if !found {
		return 0, time.Time{}, time.Time{}, "", false
	}
	return f.Bytes, f.ModTime, f.ScannedAt, f.ContentHash, true
}

// SetScanStamp replaces a feature's ScannedAt bookkeeping (no re-tally,
// no generation bump — ScannedAt is not dataset content). The scanner
// calls it after verifying an unchanged file by content hash, so the
// file's stat fingerprint is trusted on the next run instead of being
// re-hashed forever.
func (c *Catalog) SetScanStamp(id string, scannedAt time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.features[id]
	if ok && c.copyOnWriteLocked(f, func(f *Feature) bool {
		changed := !f.ScannedAt.Equal(scannedAt)
		f.ScannedAt = scannedAt
		return changed
	}) {
		// The cached snapshot holds the old stamp; drop it so readers
		// never observe a stale ScannedAt.
		c.snap.Store(nil)
	}
}

// restoreGeneration pins the catalog's mutation counter to a recovered
// publish generation (store recovery), so generation-keyed caches and
// logs stay continuous across a restart. Any cached snapshot is dropped
// so the next Snapshot() carries the restored stamp.
func (c *Catalog) restoreGeneration(gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.generation = gen
	c.snap.Store(nil)
}

// Clone returns an independent catalog with the same contents, tallies,
// generation and shard count. The features themselves are shared: no
// catalog edits a stored feature, so mutating either catalog never
// reaches the other.
func (c *Catalog) Clone() *Catalog {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := NewSharded(c.shards)
	maps.Copy(n.features, c.features)
	maps.Copy(n.names, c.names)
	for d, formats := range c.dirs {
		n.dirs[d] = maps.Clone(formats)
	}
	maps.Copy(n.units, c.units)
	n.generation = c.generation
	return n
}

// DiffTo compares this catalog (the published state) against next (the
// working state) and returns the exact publish delta: every feature of
// next that is new or content-changed relative to c, shared with next,
// and the IDs present in c but absent from next. ScannedAt is ignored
// (see Feature.ContentEquals), so a re-scan that merely re-verified
// files yields an empty delta. Both result slices are sorted by ID.
func (c *Catalog) DiffTo(next *Catalog) (changed []*Feature, removed []string) {
	return c.diff(next, nil, true)
}

// DiffOf is DiffTo restricted to the given distinct IDs: the exact
// delta when next differs from c at most at those IDs, at a cost in
// proportion to them instead of to the catalogs.
func (c *Catalog) DiffOf(next *Catalog, ids []string) (changed []*Feature, removed []string) {
	return c.diff(next, ids, false)
}

// diff is the one body behind DiffTo (all) and DiffOf (the ids only).
func (c *Catalog) diff(next *Catalog, ids []string, all bool) (changed []*Feature, removed []string) {
	// Lock ordering: the published catalog first, then the working one.
	// Callers own both: the chain's Publish step, and catalog loads
	// diffing against a private scratch catalog.
	c.mu.RLock()
	defer c.mu.RUnlock()
	next.mu.RLock()
	defer next.mu.RUnlock()
	visit := func(id string) {
		f, inNext := next.features[id]
		old, inC := c.features[id]
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
		for id := range c.features {
			if _, ok := next.features[id]; !ok {
				visit(id)
			}
		}
	} else {
		for _, id := range ids {
			visit(id)
		}
	}
	sort.Slice(changed, func(i, j int) bool { return changed[i].ID < changed[j].ID })
	sort.Strings(removed)
	return changed, removed
}

// ApplyDelta upserts the changed features and deletes the removed IDs
// as one atomic publish: the generation moves exactly once, and the new
// snapshot is patched incrementally from the previous one (features
// outside the delta are shared; the indexes are updated in place of a
// rebuild). An empty delta is a strict no-op — the generation and the
// served snapshot stay unchanged, so a re-wrangle that found nothing to
// do invalidates no caches.
//
// The catalog's map and its snapshot both store the passed features, so
// callers must not edit them afterwards; a feature another catalog
// stores (DiffTo's result) already obeys that rule. It reports whether
// the catalog changed.
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
	// The incremental snapshot patch splices ID-sorted feature slices
	// and binary-searches them, so the delta must be in ID order;
	// enforce it here rather than trusting every caller (journal replay
	// hands in publish-order deltas).
	sort.Slice(changed, func(i, j int) bool { return changed[i].ID < changed[j].ID })
	c.mu.Lock()
	defer c.mu.Unlock()
	if pinned && gen <= c.generation {
		return false, fmt.Errorf("catalog: replicated generation %d not ahead of catalog generation %d", gen, c.generation)
	}
	prev := c.snap.Load()
	changedIDs := make(map[string]bool, len(changed))
	for _, f := range changed {
		changedIDs[f.ID] = true
	}
	removedSet := make(map[string]bool, len(removed))
	for _, id := range removed {
		if _, ok := c.features[id]; !ok {
			continue // deleting an absent ID is a no-op
		}
		if changedIDs[id] {
			continue // an ID both removed and upserted resolves to upsert
		}
		removedSet[id] = true
	}
	if !pinned && len(changed) == 0 && len(removedSet) == 0 {
		return false, nil
	}
	for id := range removedSet {
		c.tallyLocked(c.features[id], -1)
		delete(c.features, id)
	}
	for _, f := range changed {
		if old, ok := c.features[f.ID]; ok {
			c.tallyLocked(old, -1)
		}
		c.features[f.ID] = f
		c.tallyLocked(f, 1)
	}
	if pinned {
		c.generation = gen
	} else {
		c.generation++
	}
	// Patch the previous snapshot when the delta is small relative to
	// the catalog; fall back to a full rebuild when there is no live
	// snapshot or the delta dominates (a patch would do more merge work
	// than building afresh).
	if prev != nil && len(changed)+len(removedSet) <= len(c.features)/2+1 {
		c.snap.Store(prev.applyDelta(changed, removedSet, c.generation))
	} else {
		c.snap.Store(newSnapshot(c.features, c.generation, c.shards))
	}
	return true, nil
}

// SeedFrom replaces this catalog's contents with other's (see Clone: the
// features are shared) — the warm-restart seed of the *working*
// catalog. No snapshot is built: the wrangling chain reads the working
// catalog through ForEach and its first transform step would drop one.
func (c *Catalog) SeedFrom(other *Catalog) {
	clone := other.Clone()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.features = clone.features
	c.names = clone.names
	c.dirs = clone.dirs
	c.units = clone.units
	c.generation++
	c.snap.Store(nil)
}

// ForEach calls fn for every feature in ID order under the read lock,
// without copying. fn must treat the feature as read-only — this is the
// cheap full-catalog read the wrangling chain's full passes (grid
// extraction, validation) use instead of forcing a snapshot rebuild
// after every mutation step.
func (c *Catalog) ForEach(fn func(f *Feature)) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ids := make([]string, 0, len(c.features))
	for id := range c.features {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fn(c.features[id])
	}
}

// ForEachOf is ForEach restricted to the given IDs, visited in the
// given order; absent IDs are skipped.
func (c *Catalog) ForEachOf(ids []string, fn func(f *Feature)) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, id := range ids {
		if f, ok := c.features[id]; ok {
			fn(f)
		}
	}
}

// ToTable extracts the catalog's variable occurrences into a refine grid
// with columns (dataset, source, field, unit): the "extract catalog
// entries to Google Refine" arrow in the poster's discovery figure.
// Rows are ordered by dataset ID then variable position.
func (c *Catalog) ToTable() *table.Table {
	t := table.MustNew("dataset", "source", "field", "unit")
	c.ForEach(func(f *Feature) {
		for _, v := range f.Variables {
			// ForEach iterates in ID order; AppendRow only fails on
			// width mismatch, which is impossible here.
			_ = t.AppendRow(f.ID, f.Source, v.Name, v.Unit)
		}
	})
	return t
}

// ToTableOf is ToTable restricted to the given feature IDs (absent IDs
// are ignored) — the delta-sized grid an incremental re-wrangle feeds
// through the transformation rules instead of re-extracting the whole
// catalog. Rows are ordered by dataset ID then variable position.
func (c *Catalog) ToTableOf(ids []string) *table.Table {
	t := table.MustNew("dataset", "source", "field", "unit")
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, id := range sorted {
		f, ok := c.features[id]
		if !ok {
			continue
		}
		for _, v := range f.Variables {
			_ = t.AppendRow(f.ID, f.Source, v.Name, v.Unit)
		}
	}
	return t
}

// ApplyTable writes a wrangled grid produced by ToTable back into the
// catalog: for each (dataset, field) row the variable's current name is
// replaced by the grid's field cell. The grid must have the ToTable
// schema and row order (one row per variable occurrence).
func (c *Catalog) ApplyTable(t *table.Table) (int, error) {
	for _, col := range []string{"dataset", "field"} {
		if _, ok := t.ColumnIndex(col); !ok {
			return 0, fmt.Errorf("catalog: grid missing column %q", col)
		}
	}
	// Collect new names per dataset in row order.
	type rename struct{ names []string }
	byDataset := make(map[string]*rename)
	for i := 0; i < t.NumRows(); i++ {
		id, err := t.Cell(i, "dataset")
		if err != nil {
			return 0, err
		}
		name, err := t.Cell(i, "field")
		if err != nil {
			return 0, err
		}
		r := byDataset[id]
		if r == nil {
			r = &rename{}
			byDataset[id] = r
		}
		r.names = append(r.names, name)
	}
	ids := make([]string, 0, len(byDataset))
	for id := range byDataset {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	missing := ""
	// Only the datasets present in the grid are touched and re-tallied —
	// a delta grid from ToTableOf writes back in time proportional to
	// its own size.
	changed := c.MutateVariablesOf(ids, func(f *Feature) bool {
		r, ok := byDataset[f.ID]
		if !ok {
			return false
		}
		if len(r.names) != len(f.Variables) {
			missing = fmt.Sprintf("catalog: grid has %d rows for dataset %s, want %d",
				len(r.names), f.ID, len(f.Variables))
			return false
		}
		dirty := false
		for i := range f.Variables {
			if f.Variables[i].Name != r.names[i] {
				f.Variables[i].Name = r.names[i]
				dirty = true
			}
		}
		return dirty
	})
	if missing != "" {
		return changed, fmt.Errorf("%s", missing)
	}
	return changed, nil
}

// tallyLocked adds (sign +1) or removes (sign -1) f to or from the
// catalog's tallies — its directory and format, then its variables —
// dropping any key whose count reaches zero; callers hold the lock.
func (c *Catalog) tallyLocked(f *Feature, sign int) {
	dir := featureDir(f)
	formats := c.dirs[dir]
	if formats == nil {
		formats = make(map[string]int)
		c.dirs[dir] = formats
	}
	if formats[f.Format] += sign; formats[f.Format] == 0 {
		delete(formats, f.Format)
		if len(formats) == 0 {
			delete(c.dirs, dir)
		}
	}
	c.tallyVariablesLocked(f, sign)
}

// tallyVariablesLocked is the variable half of tallyLocked: the name
// tally and the unit counts. The MutateVariables paths, which change
// variables only, re-tally through it alone.
func (c *Catalog) tallyVariablesLocked(f *Feature, sign int) {
	for i := range f.Variables {
		v := &f.Variables[i]
		if v.Unit != "" {
			if c.units[v.Unit] += sign; c.units[v.Unit] == 0 {
				delete(c.units, v.Unit)
			}
		}
		t := c.names[v.Name]
		t.occurrences += sign
		if v.Excluded {
			t.excluded += sign
		}
		if v.Parent != "" {
			t.parented += sign
		}
		if t.occurrences == 0 {
			delete(c.names, v.Name)
			continue
		}
		c.names[v.Name] = t
	}
}
