package catalog

import (
	"bytes"
	"fmt"
	"io"
	"os"
)

// Journal tailing: the replication read side. A follower polls
// TailFrames with its current generation and receives the raw
// checksummed journal lines for every record past it — the frames ship
// verbatim, so the CRC written by the leader's append is the same CRC
// the follower verifies before applying. The whole read runs under
// compactMu: a compaction's rotate → checkpoint → retire sequence can
// never interleave with a tail, so a tailer sees either the
// pre-rotation file set or the post-rotation one, never a torn middle.
//
// The resync contract rides the compaction invariant: every record
// stamped above the on-disk checkpoint's generation is present in the
// on-disk journal files (rotation happens before the checkpoint is cut,
// and rotated files are retired only after the new checkpoint covers
// them). A tail from at or above the checkpoint generation is therefore
// always servable from the journals; a tail from below it has lost its
// window — those records may have been retired — and gets resync=true,
// telling the follower to bootstrap from the checkpoint instead.

// DefaultTailMaxBytes bounds one TailFrames response when the caller
// passes no budget; a lagging follower just tails again.
const DefaultTailMaxBytes = 1 << 20

// TailFrames returns the raw journal lines for every delta record
// stamped after fromGen, in append order, capped near maxBytes
// (0 = DefaultTailMaxBytes; at least one record is always returned when
// any qualifies). gen is the store's current durable generation.
// resync=true means fromGen predates the on-disk checkpoint — the
// journals no longer reach back that far, and the follower must
// bootstrap from the checkpoint.
func (st *Store) TailFrames(fromGen uint64, maxBytes int64) (frames []byte, gen uint64, resync bool, err error) {
	if maxBytes <= 0 {
		maxBytes = DefaultTailMaxBytes
	}
	st.compactMu.Lock()
	defer st.compactMu.Unlock()
	st.mu.Lock()
	gen = st.gen
	ckGen := st.ckGen
	st.mu.Unlock()
	if fromGen < ckGen {
		return nil, gen, true, nil
	}
	if fromGen >= gen {
		return nil, gen, false, nil
	}
	paths, err := oldJournals(st.dir)
	if err != nil {
		return nil, gen, false, err
	}
	paths = append(paths, st.journalPath())
	var buf bytes.Buffer
	for _, p := range paths {
		full, err := tailFile(p, fromGen, maxBytes, &buf)
		if err != nil {
			return nil, gen, false, err
		}
		if full {
			break
		}
	}
	return buf.Bytes(), gen, false, nil
}

// tailFile appends the qualifying raw lines of one journal file to buf,
// reporting whether the byte budget filled up (stop reading further
// files). Torn-tail tolerance matches ReplayJournal: both read through
// readRecordFile.
func tailFile(path string, fromGen uint64, maxBytes int64, buf *bytes.Buffer) (full bool, err error) {
	err = readRecordFile(path, true, func(line []byte, rec logRecord) error {
		if rec.Op != "delta" {
			return fmt.Errorf("unexpected op %q", rec.Op)
		}
		// Records at or below fromGen are already applied on the follower
		// (sidecar-only refreshes re-stamp the current generation and are
		// skipped with it — followers do not wrangle, so the curated state
		// only matters to them at restart, via their own journal).
		if rec.Gen <= fromGen {
			return nil
		}
		buf.Write(line)
		buf.WriteByte('\n')
		if int64(buf.Len()) >= maxBytes {
			full = true
			return errStopRead
		}
		return nil
	})
	return full, err
}

// CheckpointGeneration returns the generation stamped on the on-disk
// checkpoint — the oldest generation the journals are guaranteed to
// reach back to (the tail/resync boundary).
func (st *Store) CheckpointGeneration() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.ckGen
}

// OpenCheckpoint opens the on-disk checkpoint for reading — the
// follower bootstrap download. The open is taken under compactMu so it
// can never catch a compaction between removing and renaming; once
// open, the file handle pins the inode, so a later compaction replacing
// the directory entry does not disturb the read.
func (st *Store) OpenCheckpoint() (io.ReadCloser, error) {
	st.compactMu.Lock()
	defer st.compactMu.Unlock()
	f, err := os.Open(st.checkpointPath())
	if err != nil {
		return nil, fmt.Errorf("catalog: open checkpoint: %w", err)
	}
	return f, nil
}
