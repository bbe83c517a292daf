package catalog

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Store is the catalog's durable home: a data directory holding a
// checkpoint (a full snapshot of the catalog at some generation) and a
// publish journal (the deltas since). Recovery is checkpoint-replay +
// journal-replay; a background compactor periodically folds the journal
// back into a fresh checkpoint so restart cost tracks churn since the
// last checkpoint, not archive size.
//
// Directory layout:
//
//	checkpoint      meta record (generation + sidecar) then one put per feature
//	journal         delta records appended by publishes
//	journal.old.N   pre-rotation journals, present only while a compaction
//	                is in flight (or died); N increases per rotation so a
//	                retried compaction can never overwrite an earlier
//	                rotation that is still the only copy of its records
//	checkpoint.tmp  the checkpoint being written, present only mid-compaction
//
// The compaction protocol is crash-consistent at every step:
//
//  1. rotate: journal → journal.old.N (atomic rename, N fresh), fresh
//     journal opened.
//  2. write checkpoint.tmp from the catalog's current snapshot — taken
//     after the rotation, so its generation covers every record in
//     every journal.old.N.
//  3. fsync + rename checkpoint.tmp → checkpoint.
//  4. remove the journal.old.N files.
//
// A crash after (1) recovers by replaying the journal.old.N files (in N
// order) then journal over the old checkpoint; after (3), the rotated
// records are at or below the new checkpoint's generation and replay
// idempotently; checkpoint.tmp is ignored (and removed) at open. Open
// finishes any compaction it finds interrupted.
type Store struct {
	dir  string
	opts StoreOptions

	journal *Journal

	// compactMu serializes compactions; mu guards the mutable state
	// below and is never held across file writes, so publishes are
	// blocked by a compaction only for the duration of one rename.
	compactMu sync.Mutex
	mu        sync.Mutex
	gen       uint64
	// ckGen is the generation stamped on the on-disk checkpoint file.
	// Every record with a higher stamp is, by the compaction protocol,
	// present in the on-disk journal files — so a tail from any
	// generation >= ckGen can be served from the journals alone, and a
	// tail from below it must resync from the checkpoint.
	ckGen   uint64
	sidecar json.RawMessage
	// pubCh, when non-nil, is closed on the next successful append —
	// the long-poll wakeup for journal tailers (see PublishNotify).
	pubCh    chan struct{}
	appends  uint64
	skipped  uint64
	refused  uint64
	degraded bool
	compacts uint64
	lastComp time.Duration

	// crashHook, when set (tests only), is consulted at each named
	// compaction stage; returning true abandons the compaction with all
	// files exactly as a kill -9 at that point would leave them.
	crashHook func(stage string) bool
}

// StoreOptions configures durability and compaction.
type StoreOptions struct {
	// Sync is the journal's fsync policy (default SyncAlways).
	Sync SyncPolicy
	// GroupWindow bounds group-commit latency under SyncGroup
	// (0 = DefaultGroupWindow).
	GroupWindow time.Duration
	// CompactRatio triggers compaction when the journal has grown past
	// CompactRatio × the checkpoint's size (0 = 1.0).
	CompactRatio float64
	// MinCompactBytes is the journal size below which compaction never
	// triggers, whatever the ratio says (0 = 256 KiB).
	MinCompactBytes int64
}

func (o StoreOptions) withDefaults() StoreOptions {
	if o.CompactRatio <= 0 {
		o.CompactRatio = 1.0
	}
	if o.MinCompactBytes <= 0 {
		o.MinCompactBytes = 256 << 10
	}
	return o
}

// StoreStats is a point-in-time view of the store for monitoring.
type StoreStats struct {
	Generation      uint64  `json:"generation"`
	JournalBytes    int64   `json:"journalBytes"`
	CheckpointBytes int64   `json:"checkpointBytes"`
	Appends         uint64  `json:"appends"`
	SkippedAppends  uint64  `json:"skippedAppends,omitempty"`
	RefusedAppends  uint64  `json:"refusedAppends,omitempty"`
	Syncs           uint64  `json:"syncs"`
	Compactions     uint64  `json:"compactions"`
	LastCompactMs   float64 `json:"lastCompactMs,omitempty"`
	Degraded        bool    `json:"degraded,omitempty"`
}

func (st *Store) checkpointPath() string { return filepath.Join(st.dir, "checkpoint") }
func (st *Store) journalPath() string    { return filepath.Join(st.dir, "journal") }
func (st *Store) tmpPath() string        { return filepath.Join(st.dir, "checkpoint.tmp") }

// oldJournals lists the journal.old.N files in rotation (N) order.
func oldJournals(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "journal.old.*"))
	if err != nil {
		return nil, fmt.Errorf("catalog: list rotated journals: %w", err)
	}
	type numbered struct {
		n    int
		path string
	}
	var olds []numbered
	for _, m := range matches {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(m), "journal.old.%d", &n); err != nil {
			return nil, fmt.Errorf("catalog: unrecognized rotated journal %s", m)
		}
		olds = append(olds, numbered{n, m})
	}
	sort.Slice(olds, func(i, j int) bool { return olds[i].n < olds[j].n })
	out := make([]string, len(olds))
	for i, o := range olds {
		out[i] = o.path
	}
	return out, nil
}

// nextOldPath picks the rotation target: one past the highest existing
// journal.old.N, so a compaction retried after a failure never
// overwrites the earlier rotation that may hold the only copy of its
// records.
func (st *Store) nextOldPath() (string, error) {
	olds, err := oldJournals(st.dir)
	if err != nil {
		return "", err
	}
	n := 1
	if len(olds) > 0 {
		fmt.Sscanf(filepath.Base(olds[len(olds)-1]), "journal.old.%d", &n)
		n++
	}
	return filepath.Join(st.dir, fmt.Sprintf("journal.old.%d", n)), nil
}

// OpenStore opens (creating if needed) the store at dir and restores
// its state into the given empty catalog: the checkpoint's features and
// every journaled delta at or past the checkpoint's generation are
// folded in order, and the catalog serves the result at the last
// durable publish's generation — so generation-keyed caches and logs
// stay continuous across a restart. If recovery fails, the catalog is
// unchanged.
func OpenStore(dir string, into *Catalog, opts StoreOptions) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("catalog: store dir: %w", err)
	}
	st := &Store{dir: dir, opts: opts}
	// A checkpoint.tmp is a compaction that died before its rename; the
	// real checkpoint is still authoritative.
	os.Remove(st.tmpPath())

	gen, ckGen, sidecar, hadOld, err := recoverState(dir, into)
	if err != nil {
		return nil, err
	}
	st.journal, err = OpenJournal(st.journalPath(), opts.Sync, opts.GroupWindow)
	if err != nil {
		return nil, err
	}
	st.gen = gen
	st.ckGen = ckGen
	st.sidecar = sidecar
	if hadOld {
		// Finish the interrupted compaction: fold everything into a fresh
		// checkpoint and retire journal.old.
		if err := st.Compact(into); err != nil {
			st.journal.Close()
			return nil, err
		}
	}
	return st, nil
}

// recoverState is OpenStore's pure recovery core (also the fuzz
// target): fold the checkpoint, any rotated journals (compactions that
// died mid-flight) and then the journal into one ID map, and serve it
// with one apply at the last durable publish's generation. On error the
// catalog is unchanged.
func recoverState(dir string, into *Catalog) (gen, ckGen uint64, sidecar json.RawMessage, hadOld bool, err error) {
	ck, err := loadCheckpoint(filepath.Join(dir, "checkpoint"))
	if err != nil {
		return 0, 0, nil, false, err
	}
	ckGen = ck.gen
	// Publishes stamp strictly increasing generations, and the replay
	// order (rotated journals in rotation order, then the live journal)
	// reconstructs append order — so the raw record stream must be
	// non-decreasing. A regression means the files were reordered or
	// hand-edited; applying around it would be silent partial state.
	lastRec := uint64(0)
	fold := func(rec DeltaRecord) error {
		if rec.Gen < lastRec {
			return fmt.Errorf("catalog: journal generation went backwards (%d after %d)", rec.Gen, lastRec)
		}
		lastRec = rec.Gen
		// Records below the checkpoint's generation were folded into it
		// by the compaction that rotated them out; records at the current
		// generation are sidecar refreshes (or already-checkpointed
		// content replaying idempotently after an interrupted compaction).
		if rec.Gen < ck.gen {
			return nil
		}
		for _, id := range rec.Removed {
			delete(ck.feats, id)
		}
		// deltaOf validated the decoded features, which are private to
		// this replay: the map takes them as they are.
		for _, f := range rec.Changed {
			ck.feats[f.ID] = f
		}
		ck.gen = rec.Gen
		if rec.Sidecar != nil {
			ck.sidecar = rec.Sidecar
		}
		return nil
	}
	olds, err := oldJournals(dir)
	if err != nil {
		return 0, 0, nil, false, err
	}
	for _, oldPath := range olds {
		hadOld = true
		if _, err := ReplayJournal(oldPath, fold); err != nil {
			return 0, 0, nil, false, err
		}
	}
	if _, err := ReplayJournal(filepath.Join(dir, "journal"), fold); err != nil {
		return 0, 0, nil, false, err
	}
	into.load(ck.feats, ck.gen)
	return ck.gen, ckGen, ck.sidecar, hadOld, nil
}

// Generation returns the last durable publish generation.
func (st *Store) Generation() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.gen
}

// Sidecar returns the most recent knowledge sidecar (nil when
// none has been journaled or checkpointed yet).
func (st *Store) Sidecar() json.RawMessage {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.sidecar
}

// AppendPublish journals one publish: the delta that produced gen, plus
// the knowledge sidecar if it moved (nil otherwise). It is the publish
// path's durability point — when it returns nil the publish survives a
// crash (per the store's sync policy). An empty delta at the current
// generation without a sidecar appends nothing (no-op re-wrangles keep
// the journal quiet). If an append fails, the store goes degraded — the in-memory
// catalog is now ahead of the journal, so subsequent appends are
// refused (a later delta over a missing earlier one would corrupt
// recovery) until a compaction rewrites the full state from the live
// catalog and clears the condition.
func (st *Store) AppendPublish(gen uint64, changed []*Feature, removed []string, sidecar []byte) error {
	st.mu.Lock()
	if st.degraded {
		st.refused++
		st.mu.Unlock()
		return fmt.Errorf("catalog: store degraded (a journal append failed); publish not durable until the next compaction")
	}
	if gen == st.gen && len(changed) == 0 && len(removed) == 0 && len(sidecar) == 0 {
		st.skipped++
		st.mu.Unlock()
		return nil
	}
	if gen < st.gen {
		st.mu.Unlock()
		return fmt.Errorf("catalog: publish generation %d behind journal generation %d", gen, st.gen)
	}
	st.mu.Unlock()

	err := st.journal.Append(DeltaRecord{Gen: gen, Changed: changed, Removed: removed, Sidecar: sidecar})

	st.mu.Lock()
	defer st.mu.Unlock()
	if err != nil {
		st.degraded = true
		return err
	}
	st.appends++
	st.gen = gen
	if len(sidecar) > 0 {
		st.sidecar = sidecar
	}
	if st.pubCh != nil {
		close(st.pubCh)
		st.pubCh = nil
	}
	return nil
}

// PublishNotify returns a channel closed by the next successful append,
// so journal tailers can long-poll instead of busy-spinning. Callers
// must take the channel before re-reading Generation: the append that
// bumps the generation closes the channel under the same lock, so
// channel-then-generation can never miss a wakeup.
func (st *Store) PublishNotify() <-chan struct{} {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.pubCh == nil {
		st.pubCh = make(chan struct{})
	}
	return st.pubCh
}

// errCrashInjected marks a test-simulated kill -9 mid-compaction.
var errCrashInjected = errors.New("catalog: crash injected")

func (st *Store) crashed(stage string) bool {
	return st.crashHook != nil && st.crashHook(stage)
}

// CompactIfNeeded compacts when the journal has outgrown the checkpoint
// per the configured ratio (or the store is degraded and needs the
// repair). It reports whether a compaction ran.
func (st *Store) CompactIfNeeded(c *Catalog) (bool, error) {
	st.mu.Lock()
	degraded := st.degraded
	st.mu.Unlock()
	jSize := st.journal.Size()
	if !degraded {
		if jSize < st.opts.MinCompactBytes {
			return false, nil
		}
		if float64(jSize) < st.opts.CompactRatio*float64(fileSize(st.checkpointPath())) {
			return false, nil
		}
	}
	if err := st.Compact(c); err != nil {
		return false, err
	}
	return true, nil
}

// Compact folds the journal into a fresh checkpoint taken from the
// catalog's current snapshot. Searches are never blocked (they read the
// immutable snapshot), and publishes only wait for the journal rotation
// rename. Compacting also repairs a degraded store: the full-state
// checkpoint supersedes whatever the journal lost.
func (st *Store) Compact(c *Catalog) error {
	st.compactMu.Lock()
	defer st.compactMu.Unlock()
	start := time.Now()

	// 1. Rotate so the checkpoint's snapshot — taken after — is
	// guaranteed to cover every rotated record. The target is a fresh
	// journal.old.N: a retry after a failed compaction must not
	// overwrite the earlier rotation, which until step 3 lands is the
	// only durable copy of its publishes.
	oldPath, err := st.nextOldPath()
	if err != nil {
		return err
	}
	if err := st.journal.rotate(oldPath); err != nil {
		return err
	}
	if st.crashed("rotated") {
		return errCrashInjected
	}

	snap := c.Snapshot()
	st.mu.Lock()
	sidecar := st.sidecar
	st.mu.Unlock()

	// 2. Write the new checkpoint beside the old one.
	if err := writeCheckpoint(st.tmpPath(), snap.All(), snap.Generation(), sidecar); err != nil {
		os.Remove(st.tmpPath())
		return err
	}
	if st.crashed("checkpoint-written") {
		return errCrashInjected
	}

	// 3. Atomically promote it.
	if err := os.Rename(st.tmpPath(), st.checkpointPath()); err != nil {
		os.Remove(st.tmpPath())
		return fmt.Errorf("catalog: checkpoint rename: %w", err)
	}
	syncDir(st.dir)
	if st.crashed("renamed") {
		return errCrashInjected
	}

	// 4. The rotated journals are now redundant: everything in them is
	// at or below the checkpoint's generation.
	olds, err := oldJournals(st.dir)
	if err != nil {
		return err
	}
	for _, p := range olds {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("catalog: retire %s: %w", filepath.Base(p), err)
		}
	}

	st.mu.Lock()
	st.compacts++
	st.lastComp = time.Since(start)
	st.degraded = false
	st.ckGen = snap.Generation()
	st.mu.Unlock()
	compactions.Inc()
	compactSeconds.ObserveSeconds(time.Since(start).Nanoseconds())
	return nil
}

// Stats returns a point-in-time monitoring view.
func (st *Store) Stats() StoreStats {
	ckSize := fileSize(st.checkpointPath())
	jSize, jSyncs := st.journal.stats()
	st.mu.Lock()
	defer st.mu.Unlock()
	s := StoreStats{
		Generation:      st.gen,
		JournalBytes:    jSize,
		CheckpointBytes: ckSize,
		Appends:         st.appends,
		SkippedAppends:  st.skipped,
		RefusedAppends:  st.refused,
		Syncs:           jSyncs,
		Compactions:     st.compacts,
		Degraded:        st.degraded,
	}
	if st.lastComp > 0 {
		s.LastCompactMs = float64(st.lastComp) / float64(time.Millisecond)
	}
	return s
}

// Sync forces journaled records to disk (shutdown drains call it).
func (st *Store) Sync() error { return st.journal.Sync() }

// Close flushes and closes the journal. Idempotent.
func (st *Store) Close() error { return st.journal.Close() }

// fileSize returns the byte size of the file at path (0 when it is
// missing or unreadable) — the checkpoint size compaction and monitoring
// compare the journal against.
func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// syncDir fsyncs a directory so a rename within it is durable;
// best-effort (some filesystems refuse directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
