package metamess

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"

	"metamess/internal/catalog"
)

// Replication: a durable system's publish journal is already a
// totally-ordered, checksummed stream of generation-stamped deltas, so
// a leader can ship it verbatim and a follower can apply it through the
// same delta path a local publish uses. The leader side (JournalTail,
// AwaitPublish, CheckpointReader) serves the stream; the follower side
// (ApplyReplicatedFrames, BootstrapFromCheckpoint) consumes it. A
// durable follower journals every applied record into its own store
// with the leader's generation stamps, so a follower restart recovers
// through the ordinary OpenStore path and resumes tailing from its last
// applied generation — no full re-sync.
//
// One deliberate asymmetry: the knowledge sidecar a record carries is
// journaled by a durable follower but not restored into the running
// process: a follower runs no wrangle, so only its query expander would
// gain. A follower picks up curated knowledge at restart, exactly like
// a restarted leader; the catalog content itself replicates live.

// ErrNotDurable is returned by the replication entry points when the
// system has no data directory: there is no journal to tail or mirror.
var ErrNotDurable = errors.New("metamess: replication requires a data directory (Config.DataDir)")

// JournalTail returns the raw checksummed journal frames for every
// publish after fromGen, the current durable generation, and whether
// the follower must resync from the checkpoint because fromGen predates
// the journals' reach (see catalog.Store.TailFrames). maxBytes bounds
// the response (0 = catalog.DefaultTailMaxBytes).
func (s *System) JournalTail(fromGen uint64, maxBytes int64) (frames []byte, gen uint64, resync bool, err error) {
	if s.ctx.Journal == nil {
		return nil, 0, false, ErrNotDurable
	}
	return s.ctx.Journal.TailFrames(fromGen, maxBytes)
}

// AwaitPublish blocks until the durable generation exceeds after or ctx
// ends, returning the generation seen last — the leader-side long-poll
// primitive behind the journal tail endpoint.
func (s *System) AwaitPublish(ctx context.Context, after uint64) uint64 {
	if s.ctx.Journal == nil {
		return 0
	}
	for {
		// Channel before generation: the append that bumps the generation
		// closes the channel under the same lock, so this order can block
		// only while the generation really is behind.
		ch := s.ctx.Journal.PublishNotify()
		gen := s.ctx.Journal.Generation()
		if gen > after {
			return gen
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return gen
		}
	}
}

// CheckpointReader opens the on-disk checkpoint for streaming to a
// bootstrapping follower. The caller must Close it.
func (s *System) CheckpointReader() (io.ReadCloser, error) {
	if s.ctx.Journal == nil {
		return nil, ErrNotDurable
	}
	return s.ctx.Journal.OpenCheckpoint()
}

// ApplyReplicatedFrames applies a batch of tailed journal frames (raw
// checksummed lines, as returned by a leader's JournalTail) through the
// one commit, each pinned to the generation the leader stamped and, on
// a durable system, journaled with the leader's sidecar before the next
// is applied — so the follower's own store replays to exactly the
// replica state after a crash. Records at or below the current
// generation are skipped: re-delivery is idempotent. A record above
// generation + 1 is refused before it is applied: a leader's journal
// has no gaps, so a skipped or reordered frame is a broken transfer
// and must fail loudly rather than fork the replica. A frame without a
// trailing newline is a torn transfer tail and is dropped, like a torn
// journal line. Returns the number of records applied.
func (s *System) ApplyReplicatedFrames(frames []byte) (int, error) {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	applied := 0
	for len(frames) > 0 {
		i := bytes.IndexByte(frames, '\n')
		if i < 0 {
			break
		}
		line := frames[:i]
		frames = frames[i+1:]
		if len(line) == 0 {
			continue
		}
		rec, err := catalog.DecodeDeltaFrame(string(line))
		if err != nil {
			return applied, err
		}
		cur := s.ctx.Published.Generation()
		if rec.Gen <= cur {
			continue
		}
		if rec.Gen != cur+1 {
			return applied, fmt.Errorf("metamess: replicated generation %d does not follow generation %d (skipped or reordered frame)", rec.Gen, cur)
		}
		if _, _, err := s.ctx.Commit(rec.Changed, rec.Removed, rec.Gen, rec.Sidecar); err != nil {
			return applied, fmt.Errorf("metamess: apply replicated generation %d: %w", rec.Gen, err)
		}
		applied++
	}
	return applied, nil
}

// BootstrapFromCheckpoint replaces the follower's published state with
// the checkpoint streamed from r (a leader's checkpoint endpoint),
// committed as one delta pinned to the checkpoint's generation (see
// commitCatalog). A checkpoint at or behind the follower's current
// generation applies nothing. A durable follower then compacts
// unconditionally: its bootstrap record spans many generations, and a
// follower chained off this one must resync across it instead of
// tailing it as one publish. Returns the generation reached.
func (s *System) BootstrapFromCheckpoint(r io.Reader) (uint64, error) {
	scratch := catalog.New()
	gen, sidecar, err := catalog.LoadCheckpointFrom(r, scratch)
	if err != nil {
		return 0, err
	}
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	cur := s.ctx.Published.Generation()
	if gen <= cur {
		if gen < cur {
			return cur, fmt.Errorf("metamess: checkpoint generation %d behind follower generation %d (diverged leader?)", gen, cur)
		}
		return cur, nil
	}
	if err := s.commitCatalog(scratch, gen, sidecar); err != nil {
		return 0, err
	}
	if s.ctx.Journal != nil {
		if err := s.ctx.Journal.Compact(s.ctx.Published); err != nil {
			return gen, fmt.Errorf("metamess: compact after bootstrap: %w", err)
		}
	}
	return gen, nil
}

// commitCatalog is the body BootstrapFromCheckpoint and LoadCatalog
// share: diff the published catalog against a loaded scratch catalog
// and commit exactly that delta — pinned at generation at, or at the
// next generation when at is 0 — so a load disturbs only the features
// that differ and is journaled like any publish. Callers hold pubMu.
func (s *System) commitCatalog(scratch *catalog.Catalog, at uint64, sidecar []byte) error {
	next := catalog.NewWorking()
	next.SeedFrom(scratch.Snapshot())
	changed, removed := s.ctx.Published.DiffTo(next)
	_, _, err := s.ctx.Commit(changed, removed, at, sidecar)
	return err
}

// DurableGeneration returns the last durable publish generation (0 when
// the system is not durable) — the resume point a follower tails from.
func (s *System) DurableGeneration() uint64 {
	if s.ctx.Journal == nil {
		return 0
	}
	return s.ctx.Journal.Generation()
}
