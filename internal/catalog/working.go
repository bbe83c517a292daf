package catalog

import (
	"fmt"
	"maps"
	"path"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"metamess/internal/table"
)

// Working is the catalog a wrangle edits: an ID-keyed feature map plus
// tallies (names, directories, units) kept on every mutation. It is safe
// for concurrent use. It serves no search — a publish diffs it against
// the served Catalog (DiffTo/DiffOf) and applies the delta there — and
// it obeys the same ownership rule: a stored feature is never edited in
// place (see Catalog).
type Working struct {
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
	// generation counts mutations, so memos over the catalog (validation,
	// the mess metric) can tell that it changed.
	generation uint64
	// statGeneration counts the mutations a filesystem scan can observe
	// (see StatGeneration).
	statGeneration uint64
}

// NewWorking returns an empty working catalog.
func NewWorking() *Working {
	return &Working{
		features: make(map[string]*Feature),
		names:    make(map[string]nameTally),
		dirs:     make(map[string]map[string]int),
		units:    make(map[string]int),
	}
}

// nameTally counts one variable name's occurrences across the catalog,
// and how many of them are excluded or carry a hierarchy parent.
type nameTally struct{ occurrences, excluded, parented int }

// Len returns the number of features.
func (w *Working) Len() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return len(w.features)
}

// Generation returns the mutation counter.
func (w *Working) Generation() uint64 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.generation
}

// StatGeneration counts the mutations a filesystem scan compares
// against: a feature stored, replaced or deleted, a scan stamp reset,
// the contents reseeded. Variable edits do not move it. A scanner that
// follows a change feed walks when it moved behind its back.
func (w *Working) StatGeneration() uint64 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.statGeneration
}

// Upsert validates and stores a feature, replacing any previous feature
// with the same ID. The catalog stores a private clone, so callers may
// keep mutating their copy.
func (w *Working) Upsert(f *Feature) error {
	if err := f.Validate(); err != nil {
		return err
	}
	f = f.Clone()
	w.mu.Lock()
	defer w.mu.Unlock()
	if old, ok := w.features[f.ID]; ok {
		w.tallyLocked(old, -1)
	}
	w.features[f.ID] = f
	w.tallyLocked(f, 1)
	w.generation++
	w.statGeneration++
	return nil
}

// Get returns a copy of the feature with the given ID.
func (w *Working) Get(id string) (*Feature, bool) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	f, ok := w.features[id]
	if !ok {
		return nil, false
	}
	return f.Clone(), true
}

// Delete removes a feature; it reports whether the ID was present.
func (w *Working) Delete(id string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	f, ok := w.features[id]
	if !ok {
		return false
	}
	w.tallyLocked(f, -1)
	delete(w.features, id)
	w.generation++
	w.statGeneration++
	return true
}

// VariableNameCounts tallies every *current* variable name (including
// excluded ones) across the catalog — the facet the wrangling chain and
// discovery cluster over — ordered by descending count, then name.
func (w *Working) VariableNameCounts() []table.ValueCount {
	w.mu.RLock()
	out := make([]table.ValueCount, 0, len(w.names))
	for v, t := range w.names {
		out = append(out, table.ValueCount{Value: v, Count: t.occurrences})
	}
	w.mu.RUnlock()
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
func (w *Working) ForEachVariableName(fn func(name string, occurrences, excluded, parented int)) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	for _, n := range w.sortedNamesLocked() {
		t := w.names[n]
		fn(n, t.occurrences, t.excluded, t.parented)
	}
}

// DistinctVariableNames returns the sorted distinct current names.
func (w *Working) DistinctVariableNames() []string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.sortedNamesLocked()
}

// sortedNamesLocked lists the tally's names in ascending order.
func (w *Working) sortedNamesLocked() []string {
	out := make([]string, 0, len(w.names))
	for n := range w.names {
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
func (w *Working) ForEachDirectory(fn func(dir string, formats []string)) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	dirs := make([]string, 0, len(w.dirs))
	for d := range w.dirs {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	for _, d := range dirs {
		formats := make([]string, 0, len(w.dirs[d]))
		for f := range w.dirs[d] {
			formats = append(formats, f)
		}
		sort.Strings(formats)
		fn(d, formats)
	}
}

// DistinctUnits returns the sorted distinct non-empty unit strings the
// catalog's variables carry, from the maintained tally.
func (w *Working) DistinctUnits() []string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	out := make([]string, 0, len(w.units))
	for u := range w.units {
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
func (w *Working) MutateVariables(fn func(f *Feature) bool) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	changed := 0
	for _, f := range w.features {
		if w.copyOnWriteLocked(f, fn) {
			changed++
		}
	}
	if changed > 0 {
		w.generation++
	}
	return changed
}

// MutateVariablesOf is MutateVariables restricted to the given feature
// IDs (absent IDs are ignored): the delta write path, which copies and
// re-tallies only the features a re-wrangle actually changed instead of
// walking the whole catalog.
func (w *Working) MutateVariablesOf(ids []string, fn func(f *Feature) bool) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	changed := 0
	for _, id := range ids {
		if f, ok := w.features[id]; ok && w.copyOnWriteLocked(f, fn) {
			changed++
		}
	}
	if changed > 0 {
		w.generation++
	}
	return changed
}

// copyOnWriteLocked is the one place a stored feature changes: fn edits
// a copy of f, and when it reports a change the copy replaces f in the
// map and in the variable tallies. f itself, which a snapshot or another
// catalog may share, is never written. Callers hold the write lock.
func (w *Working) copyOnWriteLocked(f *Feature, fn func(f *Feature) bool) bool {
	cp := f.Clone()
	if !fn(cp) {
		return false
	}
	w.tallyVariablesLocked(f, -1)
	w.tallyVariablesLocked(cp, 1)
	w.features[f.ID] = cp
	return true
}

// StatView returns the stored stat fingerprint of a feature — size,
// modification time, scan time, and content hash — without cloning the
// feature. The incremental scanner consults it for every candidate
// file, so the unchanged fast path allocates nothing.
func (w *Working) StatView(id string) (bytes int64, modTime, scannedAt time.Time, hash string, ok bool) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	f, found := w.features[id]
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
func (w *Working) SetScanStamp(id string, scannedAt time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if f, ok := w.features[id]; ok {
		w.statGeneration++
		w.copyOnWriteLocked(f, func(f *Feature) bool {
			changed := !f.ScannedAt.Equal(scannedAt)
			f.ScannedAt = scannedAt
			return changed
		})
	}
}

// Clone returns an independent catalog with the same contents, tallies
// and generation. The features themselves are shared: no catalog edits
// a stored feature, so mutating either catalog never reaches the other.
func (w *Working) Clone() *Working {
	w.mu.RLock()
	defer w.mu.RUnlock()
	n := NewWorking()
	maps.Copy(n.features, w.features)
	maps.Copy(n.names, w.names)
	for d, formats := range w.dirs {
		n.dirs[d] = maps.Clone(formats)
	}
	maps.Copy(n.units, w.units)
	n.generation, n.statGeneration = w.generation, w.statGeneration
	return n
}

// SeedFrom replaces this catalog's contents with the snapshot's live
// features (shared, see Clone) — the warm-restart seed of the working
// catalog from the recovered served one.
func (w *Working) SeedFrom(s *Snapshot) {
	n := NewWorking()
	s.forEachLive(func(f *Feature) {
		n.features[f.ID] = f
		n.tallyLocked(f, 1)
	})
	w.mu.Lock()
	defer w.mu.Unlock()
	w.features, w.names, w.dirs, w.units = n.features, n.names, n.dirs, n.units
	w.generation++
	w.statGeneration++
}

// ForEach calls fn for every feature in ID order under the read lock,
// without copying. fn must treat the feature as read-only — this is the
// cheap full-catalog read the wrangling chain's full passes (grid
// extraction, validation) use.
func (w *Working) ForEach(fn func(f *Feature)) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	ids := make([]string, 0, len(w.features))
	for id := range w.features {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fn(w.features[id])
	}
}

// ForEachOf is ForEach restricted to the given IDs, visited in the
// given order; absent IDs are skipped.
func (w *Working) ForEachOf(ids []string, fn func(f *Feature)) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	for _, id := range ids {
		if f, ok := w.features[id]; ok {
			fn(f)
		}
	}
}

// ToTable extracts the catalog's variable occurrences into a refine grid
// with columns (dataset, source, field, unit): the "extract catalog
// entries to Google Refine" arrow in the poster's discovery figure.
// Rows are ordered by dataset ID then variable position.
func (w *Working) ToTable() *table.Table {
	t := table.MustNew("dataset", "source", "field", "unit")
	w.ForEach(func(f *Feature) {
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
func (w *Working) ToTableOf(ids []string) *table.Table {
	t := table.MustNew("dataset", "source", "field", "unit")
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	w.mu.RLock()
	defer w.mu.RUnlock()
	for _, id := range sorted {
		f, ok := w.features[id]
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
func (w *Working) ApplyTable(t *table.Table) (int, error) {
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
	changed := w.MutateVariablesOf(ids, func(f *Feature) bool {
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
func (w *Working) tallyLocked(f *Feature, sign int) {
	dir := featureDir(f)
	formats := w.dirs[dir]
	if formats == nil {
		formats = make(map[string]int)
		w.dirs[dir] = formats
	}
	if formats[f.Format] += sign; formats[f.Format] == 0 {
		delete(formats, f.Format)
		if len(formats) == 0 {
			delete(w.dirs, dir)
		}
	}
	w.tallyVariablesLocked(f, sign)
}

// tallyVariablesLocked is the variable half of tallyLocked: the name
// tally and the unit counts. The MutateVariables paths, which change
// variables only, re-tally through it alone.
func (w *Working) tallyVariablesLocked(f *Feature, sign int) {
	for i := range f.Variables {
		v := &f.Variables[i]
		if v.Unit != "" {
			if w.units[v.Unit] += sign; w.units[v.Unit] == 0 {
				delete(w.units, v.Unit)
			}
		}
		t := w.names[v.Name]
		t.occurrences += sign
		if v.Excluded {
			t.excluded += sign
		}
		if v.Parent != "" {
			t.parented += sign
		}
		if t.occurrences == 0 {
			delete(w.names, v.Name)
			continue
		}
		w.names[v.Name] = t
	}
}
