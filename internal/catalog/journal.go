package catalog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// The publish journal is the catalog's write-ahead log: every publish
// appends one delta record — the features upserted, the IDs retracted,
// the resulting generation stamp, and the wrangling layer's opaque
// knowledge sidecar when it moved — as a single checksummed line. Because a
// record is one line, record application is all-or-nothing by
// construction: a crash mid-append leaves a torn final line that replay
// drops, so recovery always lands on the state before or after a
// publish, never between.

// SyncPolicy controls when journal appends are fsynced — the
// point at which an acknowledged publish is guaranteed to survive a
// crash.
type SyncPolicy int

const (
	// SyncAlways fsyncs every append before acknowledging it: a publish
	// that returned cannot be lost. The default.
	SyncAlways SyncPolicy = iota
	// SyncGroup is group commit: appends are flushed to the OS
	// immediately but fsynced only when the group window has elapsed
	// since the last fsync, bounding both the fsync rate and the data at
	// risk to one window.
	SyncGroup
	// SyncNone never fsyncs on append; durability happens at the OS's
	// discretion (and on Sync/Close). For tests and bulk loads.
	SyncNone
)

// ParseSyncPolicy maps the operator-facing policy names ("always",
// "group", "none") to a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "always":
		return SyncAlways, nil
	case "group":
		return SyncGroup, nil
	case "none":
		return SyncNone, nil
	}
	return SyncAlways, fmt.Errorf("catalog: unknown sync policy %q (want always, group, or none)", s)
}

// DefaultGroupWindow is the SyncGroup fsync window when none is set.
const DefaultGroupWindow = 50 * time.Millisecond

// DeltaRecord is one journaled publish.
type DeltaRecord struct {
	// Gen is the published catalog's generation after this delta was
	// applied. Records in a journal carry strictly increasing stamps,
	// except sidecar-only records which re-stamp the current generation.
	Gen uint64
	// Changed and Removed are the publish delta.
	Changed []*Feature
	Removed []string
	// Sidecar is the knowledge state at publish time, opaque to the
	// catalog, or nil when it did not move.
	Sidecar json.RawMessage
}

// Journal is an open publish journal. It is safe for concurrent use.
type Journal struct {
	mu       sync.Mutex
	path     string
	f        *os.File
	w        *bufio.Writer
	policy   SyncPolicy
	window   time.Duration
	lastSync time.Time
	size     int64
	appends  uint64
	syncs    uint64
	closed   bool
	// syncScheduled marks a pending deferred group-commit fsync.
	syncScheduled bool
}

// OpenJournal opens (creating if needed) the journal at path for
// appending. window applies to SyncGroup (0 = DefaultGroupWindow).
func OpenJournal(path string, policy SyncPolicy, window time.Duration) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("catalog: open journal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("catalog: stat journal: %w", err)
	}
	if window <= 0 {
		window = DefaultGroupWindow
	}
	return &Journal{
		path:   path,
		f:      f,
		w:      bufio.NewWriter(f),
		policy: policy,
		window: window,
		size:   st.Size(),
	}, nil
}

// Append journals one publish delta. On return the record is durable
// per the journal's sync policy (see SyncPolicy).
func (j *Journal) Append(rec DeltaRecord) error {
	line, err := encodeRecord(nil, logRecord{
		Op:      "delta",
		Gen:     rec.Gen,
		Changed: rec.Changed,
		Removed: rec.Removed,
		Sidecar: rec.Sidecar,
	})
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("catalog: append to closed journal")
	}
	if _, err := j.w.Write(line); err != nil {
		return fmt.Errorf("catalog: append journal record: %w", err)
	}
	j.size += int64(len(line))
	j.appends++
	journalAppends.Inc()
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("catalog: flush journal: %w", err)
	}
	switch j.policy {
	case SyncAlways:
		return j.syncLocked()
	case SyncGroup:
		if time.Since(j.lastSync) >= j.window {
			return j.syncLocked()
		}
		// The group guarantee is "at most one window of acknowledged
		// records at risk" — which needs a deferred fsync for the last
		// record of a burst, not just an opportunistic one on the next
		// append (there may never be a next append).
		if !j.syncScheduled {
			j.syncScheduled = true
			delay := j.window - time.Since(j.lastSync)
			time.AfterFunc(delay, j.groupSync)
		}
	}
	return nil
}

// groupSync is the deferred group-commit fsync.
func (j *Journal) groupSync() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.syncScheduled = false
	if j.closed {
		return
	}
	// Appends flush as they go; the buffer is empty unless an append
	// failed, in which case syncing what reached the file is still the
	// best we can do.
	j.w.Flush()
	j.syncLocked()
}

func (j *Journal) syncLocked() error {
	start := time.Now()
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("catalog: sync journal: %w", err)
	}
	journalFsyncs.Inc()
	journalFsyncSeconds.ObserveSeconds(time.Since(start).Nanoseconds())
	j.syncs++
	j.lastSync = time.Now()
	return nil
}

// Sync forces buffered records to disk regardless of policy.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("catalog: flush journal: %w", err)
	}
	return j.syncLocked()
}

// Size returns the journal's current byte size.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// stats returns the size and fsync count under the lock (monitoring).
func (j *Journal) stats() (size int64, syncs uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size, j.syncs
}

// Close flushes, fsyncs, and closes the journal.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if err := j.w.Flush(); err != nil {
		j.f.Close()
		return fmt.Errorf("catalog: flush journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return fmt.Errorf("catalog: sync journal: %w", err)
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("catalog: close journal: %w", err)
	}
	return nil
}

// rotate atomically renames the journal file to toPath and starts a
// fresh, empty journal at the original path; appends before the call
// land in the old file, appends after in the new. The compactor uses
// this so checkpointing never blocks publishes for longer than a
// rename.
func (j *Journal) rotate(toPath string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("catalog: rotate closed journal")
	}
	// Best-effort flush + sync: every Append flushes before returning,
	// so the buffer is provably empty here — a flush error can only be a
	// sticky remnant of an append that already failed (and already
	// degraded the store). Rotation must still succeed then, because a
	// full-state checkpoint is exactly how a degraded store is repaired.
	j.w.Flush()
	j.f.Sync()
	if err := os.Rename(j.path, toPath); err != nil {
		return fmt.Errorf("catalog: rotate rename: %w", err)
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("catalog: rotate close: %w", err)
	}
	f, err := os.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("catalog: rotate reopen: %w", err)
	}
	j.f = f
	j.w = bufio.NewWriter(f)
	j.size = 0
	return nil
}

// ReplayJournal reads the journal at path and calls apply for each
// intact delta record in order. A missing file is an empty journal. A
// torn final line (crash mid-append) is dropped; corruption anywhere
// earlier — a bad checksum, bad JSON, a non-delta op, a record whose
// features fail validation — is an error, so a damaged journal can
// never half-load. It returns the number of records applied.
func ReplayJournal(path string, apply func(DeltaRecord) error) (int, error) {
	applied := 0
	err := readRecordFile(path, true, func(_ []byte, rec logRecord) error {
		d, err := deltaOf(rec)
		if err != nil {
			return err
		}
		if err := apply(d); err != nil {
			return err
		}
		applied++
		return nil
	})
	if err != nil {
		return 0, err
	}
	return applied, nil
}
