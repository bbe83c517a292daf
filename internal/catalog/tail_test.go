package catalog

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// applyFrames decodes tailed frames and applies them to a follower
// catalog, requiring strict generation contiguity — the torn/skipped
// record detector every tailing test leans on.
func applyFrames(t testing.TB, follower *Catalog, frames []byte) int {
	t.Helper()
	applied := 0
	for _, line := range strings.Split(string(frames), "\n") {
		if line == "" {
			continue
		}
		rec, err := DecodeDeltaFrame(line)
		if err != nil {
			t.Fatalf("undecodable frame: %v", err)
		}
		if want := follower.Generation() + 1; rec.Gen != want {
			t.Fatalf("frame generation %d, want %d (torn or skipped record)", rec.Gen, want)
		}
		if err := follower.ApplyDeltaAt(rec.Gen, rec.Changed, rec.Removed); err != nil {
			t.Fatalf("apply replicated generation %d: %v", rec.Gen, err)
		}
		applied++
	}
	return applied
}

// resyncFromCheckpoint bootstraps a follower from the store's on-disk
// checkpoint, the way a real replica answers resync=true.
func resyncFromCheckpoint(t testing.TB, st *Store, follower *Catalog) {
	t.Helper()
	rc, err := st.OpenCheckpoint()
	if err != nil {
		t.Fatalf("open checkpoint: %v", err)
	}
	defer rc.Close()
	scratch := New()
	ckGen, _, err := LoadCheckpointFrom(rc, scratch)
	if err != nil {
		t.Fatalf("load checkpoint: %v", err)
	}
	if ckGen <= follower.Generation() {
		return
	}
	next := NewWorking()
	next.SeedFrom(scratch.Snapshot())
	changed, removed := follower.DiffTo(next)
	if err := follower.ApplyDeltaAt(ckGen, changed, removed); err != nil {
		t.Fatalf("apply checkpoint delta: %v", err)
	}
}

func TestTailFramesServesFullHistory(t *testing.T) {
	dir := t.TempDir()
	st, c, states, _ := storeHistory(t, dir, 6, StoreOptions{})
	defer st.Close()
	finalGen := c.Generation()

	frames, gen, resync, err := st.TailFrames(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resync {
		t.Fatal("resync signalled with no checkpoint on disk")
	}
	if gen != finalGen {
		t.Fatalf("tail generation %d, want %d", gen, finalGen)
	}
	follower := New()
	if n := applyFrames(t, follower, frames); n != 6 {
		t.Fatalf("applied %d records, want 6", n)
	}
	if got := storeFingerprint(t, follower); got != states[finalGen] {
		t.Fatal("follower content differs from leader at the same generation")
	}

	// A mid-history tail resumes exactly where the follower stopped.
	partial, _, _, err := st.TailFrames(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	mid := New()
	if err := mid.ApplyDeltaAt(4, nil, nil); err != nil {
		t.Fatal(err)
	}
	if n := applyFrames(t, mid, partial); n != 2 {
		t.Fatalf("mid-history tail applied %d records, want 2", n)
	}

	// A caught-up follower gets an empty answer, not an error.
	empty, gen, resync, err := st.TailFrames(finalGen, 0)
	if err != nil || resync || len(empty) != 0 || gen != finalGen {
		t.Fatalf("caught-up tail = (%d bytes, gen %d, resync %v, %v)", len(empty), gen, resync, err)
	}
}

func TestTailFramesByteBudget(t *testing.T) {
	dir := t.TempDir()
	st, c, states, _ := storeHistory(t, dir, 8, StoreOptions{})
	defer st.Close()
	finalGen := c.Generation()

	// A tiny budget still makes progress — at least one record per call —
	// and chaining budget-capped tails reassembles the full history.
	follower := New()
	calls := 0
	for follower.Generation() < finalGen {
		frames, _, resync, err := st.TailFrames(follower.Generation(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if resync {
			t.Fatal("unexpected resync")
		}
		if applyFrames(t, follower, frames) == 0 {
			t.Fatal("budget-capped tail made no progress")
		}
		calls++
	}
	if calls < 8 {
		t.Fatalf("one-byte budget served %d generations per call", finalGen)
	}
	if got := storeFingerprint(t, follower); got != states[finalGen] {
		t.Fatal("reassembled follower differs from leader")
	}
}

func TestTailFramesResyncBoundary(t *testing.T) {
	dir := t.TempDir()
	st, c, states, _ := storeHistory(t, dir, 5, StoreOptions{})
	defer st.Close()
	if err := st.Compact(c); err != nil {
		t.Fatal(err)
	}
	ckGen := st.CheckpointGeneration()
	if ckGen != c.Generation() {
		t.Fatalf("checkpoint generation %d, want %d", ckGen, c.Generation())
	}

	// Publishes continue past the compaction.
	for i := 0; i < 3; i++ {
		changed := []*Feature{deltaFeature(400+i, i%3)}
		if _, err := c.ApplyDelta(changed, nil); err != nil {
			t.Fatal(err)
		}
		if err := st.AppendPublish(c.Generation(), changed, nil, nil); err != nil {
			t.Fatal(err)
		}
		states[c.Generation()] = storeFingerprint(t, c)
	}

	// Below the checkpoint: the journals no longer reach back — resync.
	_, _, resync, err := st.TailFrames(ckGen-1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !resync {
		t.Fatal("tail below the checkpoint generation did not signal resync")
	}

	// At the checkpoint: servable, and the bootstrap+tail pair lands the
	// follower exactly on the leader.
	follower := New()
	resyncFromCheckpoint(t, st, follower)
	if follower.Generation() != ckGen {
		t.Fatalf("bootstrap landed on generation %d, want %d", follower.Generation(), ckGen)
	}
	frames, gen, resync, err := st.TailFrames(follower.Generation(), 0)
	if err != nil || resync {
		t.Fatalf("post-bootstrap tail: resync=%v err=%v", resync, err)
	}
	applyFrames(t, follower, frames)
	if follower.Generation() != gen {
		t.Fatalf("follower at %d after tail to %d", follower.Generation(), gen)
	}
	if got := storeFingerprint(t, follower); got != states[gen] {
		t.Fatal("bootstrapped follower differs from leader")
	}
}

func TestTailFramesToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	st, c, _, _ := storeHistory(t, dir, 4, StoreOptions{})
	finalGen := c.Generation()
	st.Close()

	// A crash mid-append leaves a torn final line; a tail must drop it,
	// like recovery does, not refuse the whole journal.
	f, err := os.OpenFile(filepath.Join(dir, "journal"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("deadbeef {\"op\":\"delta\",\"gen"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	into := New()
	st2, err := OpenStore(dir, into, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	frames, gen, resync, err := st2.TailFrames(0, 0)
	if err != nil || resync {
		t.Fatalf("tail over torn journal: resync=%v err=%v", resync, err)
	}
	if gen != finalGen {
		t.Fatalf("generation %d, want %d", gen, finalGen)
	}
	follower := New()
	if n := applyFrames(t, follower, frames); n != 4 {
		t.Fatalf("applied %d records, want 4 (torn line must be dropped, not shipped)", n)
	}
	if bytes.Contains(frames, []byte("deadbeef")) {
		t.Fatal("torn line shipped to the follower")
	}
}

// TestTailDuringCompactionProperty is the replication twin of
// TestStoreCrashRecoveryProperty: a publisher and a background
// compactor churn the leader store while a follower tails it with a
// deliberately tiny byte budget. The follower must observe every
// generation exactly once and in order — a rotation racing the tail may
// cost the follower a resync (which it handles via the checkpoint) but
// may never hand it a torn or skipped record — and must finish
// byte-identical to the leader.
func TestTailDuringCompactionProperty(t *testing.T) {
	dir := t.TempDir()
	c := NewSharded(3)
	st, err := OpenStore(dir, c, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const publishes = 60
	var (
		statesMu sync.Mutex
		states   = map[uint64]string{}
	)

	// Seed some history and force one compaction before the follower
	// starts, so its from=0 tail must travel the resync path.
	publish := func(i int) {
		changed := []*Feature{deltaFeature(i*2, i%3), deltaFeature(i*2+1, (i+1)%3)}
		var removed []string
		if i > 2 {
			removed = []string{deltaFeature((i-3)*2, 0).ID}
		}
		if _, err := c.ApplyDelta(changed, removed); err != nil {
			t.Errorf("publish %d: %v", i, err)
			return
		}
		if err := st.AppendPublish(c.Generation(), changed, removed, nil); err != nil {
			t.Errorf("journal publish %d: %v", i, err)
			return
		}
		statesMu.Lock()
		states[c.Generation()] = storeFingerprint(t, c)
		statesMu.Unlock()
	}
	for i := 0; i < 10; i++ {
		publish(i)
	}
	if err := st.Compact(c); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // publisher
		defer wg.Done()
		for i := 10; i < publishes; i++ {
			publish(i)
			time.Sleep(time.Millisecond)
		}
	}()
	go func() { // compactor, racing every tail and publish
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := st.Compact(c); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// The follower: tail in the main goroutine (it owns t.Fatal).
	follower := New()
	resyncs := 0
	deadline := time.Now().Add(30 * time.Second)
	for {
		frames, gen, resync, err := st.TailFrames(follower.Generation(), 256)
		if err != nil {
			t.Fatal(err)
		}
		if resync {
			resyncs++
			resyncFromCheckpoint(t, st, follower)
			continue
		}
		applyFrames(t, follower, frames)
		if follower.Generation() >= uint64(publishes) && gen == follower.Generation() {
			break
		}
		if len(frames) == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("follower stalled at generation %d", follower.Generation())
			}
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if resyncs == 0 {
		t.Error("follower never exercised the resync path (expected: it started below the first compaction)")
	}
	finalGen := follower.Generation()
	statesMu.Lock()
	want, ok := states[finalGen]
	statesMu.Unlock()
	if !ok {
		t.Fatalf("follower reached generation %d, which was never published", finalGen)
	}
	if got := storeFingerprint(t, follower); got != want {
		t.Fatalf("follower content at generation %d differs from the leader's", finalGen)
	}
}

// TestTailFramesRejectsMidFileCorruption pins the other half of the
// torn-tail contract: garbage in the middle of a journal is corruption
// and must fail the tail loudly rather than ship a gap.
func TestTailFramesRejectsMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	st, _, _, _ := storeHistory(t, dir, 3, StoreOptions{})
	st.Close()

	path := filepath.Join(dir, "journal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("journal has %d lines", len(lines))
	}
	lines[1] = []byte("deadbeef corrupted\n")
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	// Recovery refuses the corrupted journal too, so open the tail
	// machinery directly against a store whose catalog came from
	// elsewhere: simulate by writing a fresh store dir with the corrupt
	// journal only and calling tailFile.
	var buf bytes.Buffer
	if _, err := tailFile(path, 0, DefaultTailMaxBytes, &buf); err == nil {
		t.Fatal("mid-file corruption tailed without error")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("corruption error does not name the line: %v", err)
	}
}
