package catalog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// storeFingerprint renders a catalog's full content as comparable
// bytes (every feature in ID order, all fields).
func storeFingerprint(t testing.TB, c *Catalog) string {
	t.Helper()
	var b strings.Builder
	for _, f := range c.Snapshot().All() {
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(data)
		b.WriteByte('\n')
	}
	return b.String()
}

// storeHistory drives a store through n publishes (each a small delta
// of upserts, edits, and deletes, each with a sidecar) and returns the
// fingerprint of the catalog after every generation — the ground truth
// crash recovery is checked against — and the sidecar recovery must
// report at it. Generation g is produced by publish g; generation 0 is
// the empty store.
func storeHistory(t testing.TB, dir string, n int, opts StoreOptions) (st *Store, c *Catalog, states map[uint64]string, sidecars map[uint64]string) {
	t.Helper()
	return storeHistoryEvery(t, dir, n, 1, opts)
}

// storeHistoryEvery is storeHistory with a sidecar on every publish
// i with i%every == 0 only, the way a writer journals one only when its
// curated state moved; sidecars[g] is then the last one at or before g.
func storeHistoryEvery(t testing.TB, dir string, n, every int, opts StoreOptions) (st *Store, c *Catalog, states map[uint64]string, sidecars map[uint64]string) {
	t.Helper()
	c = NewSharded(3)
	st, err := OpenStore(dir, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	states = map[uint64]string{0: storeFingerprint(t, c)}
	sidecars = map[uint64]string{}
	for i := 0; i < n; i++ {
		var changed []*Feature
		// A rolling window of features: later publishes edit earlier ones.
		// Versions stay in 0..2 (deltaFeature duplicates a variable name
		// at version%4 == 3, which Validate rejects).
		for k := 0; k < 3; k++ {
			changed = append(changed, deltaFeature(i*2+k, i%3))
		}
		var removed []string
		if i > 2 {
			removed = []string{deltaFeature((i-3)*2, 0).ID}
		}
		bumped, err := c.ApplyDelta(changed, removed)
		if err != nil {
			t.Fatal(err)
		}
		if !bumped {
			t.Fatalf("publish %d applied nothing", i)
		}
		gen := c.Generation()
		var sidecar []byte
		if i%every == 0 {
			sidecar = []byte(fmt.Sprintf(`{"epoch":%d}`, gen))
		}
		if err := st.AppendPublish(gen, changed, removed, sidecar); err != nil {
			t.Fatal(err)
		}
		states[gen] = storeFingerprint(t, c)
		sidecars[gen] = sidecars[gen-1]
		if sidecar != nil {
			sidecars[gen] = string(sidecar)
		}
	}
	return st, c, states, sidecars
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, c, states, sidecars := storeHistory(t, dir, 8, StoreOptions{})
	finalGen := c.Generation()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	back := NewSharded(5) // a different shard count: the store is partition-independent
	st2, err := OpenStore(dir, back, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if back.Generation() != finalGen || st2.Generation() != finalGen {
		t.Fatalf("recovered generation %d/%d, want %d", back.Generation(), st2.Generation(), finalGen)
	}
	if got := storeFingerprint(t, back); got != states[finalGen] {
		t.Fatal("recovered catalog differs from live state")
	}
	if got := string(st2.Sidecar()); got != sidecars[finalGen] {
		t.Fatalf("recovered sidecar %s, want %s", got, sidecars[finalGen])
	}
}

func TestStoreCompactionRoundTripAndShrinks(t *testing.T) {
	dir := t.TempDir()
	st, c, states, sidecars := storeHistory(t, dir, 10, StoreOptions{})
	jBefore := st.Stats().JournalBytes
	if jBefore == 0 {
		t.Fatal("journal empty after 10 publishes")
	}
	if err := st.Compact(c); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.JournalBytes != 0 {
		t.Errorf("journal not reset by compaction: %d bytes", stats.JournalBytes)
	}
	if stats.CheckpointBytes == 0 {
		t.Error("no checkpoint written")
	}
	if stats.Compactions != 1 {
		t.Errorf("compactions = %d", stats.Compactions)
	}
	if olds, _ := oldJournals(dir); len(olds) != 0 {
		t.Errorf("rotated journals not retired after compaction: %v", olds)
	}

	// Publishes continue after compaction and recovery sees everything.
	var changed []*Feature
	changed = append(changed, deltaFeature(500, 1))
	if _, err := c.ApplyDelta(changed, nil); err != nil {
		t.Fatal(err)
	}
	gen := c.Generation()
	if err := st.AppendPublish(gen, changed, nil, []byte(`{"epoch":99}`)); err != nil {
		t.Fatal(err)
	}
	states[gen] = storeFingerprint(t, c)
	sidecars[gen] = `{"epoch":99}`
	st.Close()

	back := New()
	st2, err := OpenStore(dir, back, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if back.Generation() != gen {
		t.Fatalf("generation %d, want %d", back.Generation(), gen)
	}
	if storeFingerprint(t, back) != states[gen] {
		t.Fatal("post-compaction recovery differs")
	}
	if string(st2.Sidecar()) != sidecars[gen] {
		t.Fatalf("post-compaction sidecar %s", st2.Sidecar())
	}
}

func TestStoreSkipsNoopAppends(t *testing.T) {
	dir := t.TempDir()
	st, c, _, _ := storeHistory(t, dir, 2, StoreOptions{})
	defer st.Close()
	gen := c.Generation()
	sidecar := []byte(fmt.Sprintf(`{"epoch":%d}`, gen))
	size := st.Stats().JournalBytes

	// Same generation, no sidecar, empty delta: a no-op re-wrangle.
	if err := st.AppendPublish(gen, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().JournalBytes; got != size {
		t.Errorf("no-op publish grew the journal: %d -> %d", size, got)
	}
	if st.Stats().SkippedAppends != 1 {
		t.Errorf("skippedAppends = %d", st.Stats().SkippedAppends)
	}

	// Same generation but a moved sidecar (new rules, no feature churn)
	// must be journaled — the epoch state has to survive a crash too.
	if err := st.AppendPublish(gen, nil, nil, []byte(`{"epoch":777}`)); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().JournalBytes; got <= size {
		t.Error("sidecar-only publish not journaled")
	}
	// A regression to an older generation is refused outright.
	if err := st.AppendPublish(gen-1, nil, nil, sidecar); err == nil {
		t.Error("behind-generation publish accepted")
	}
}

// TestStoreCrashRecoveryProperty is the crash-injection battery's
// centerpiece: build a 12-publish history, then simulate kill -9 at 120
// randomized offsets into the journal — truncating it there, half the
// time with a tail of zero bytes, the residue a block-granular
// filesystem can leave — and require every recovery to land exactly on
// a previously published generation with that generation's exact
// catalog bytes and sidecar: pre- or post-publish, never in between.
// Two histories: every record carries a sidecar (journals written
// before sidecars became conditional), and only every third does, so
// recovery must keep the last one it saw.
func TestStoreCrashRecoveryProperty(t *testing.T) {
	for _, every := range []int{1, 3} {
		t.Run(fmt.Sprintf("sidecarEvery%d", every), func(t *testing.T) {
			storeCrashRecovery(t, every)
		})
	}
}

func storeCrashRecovery(t *testing.T, every int) {
	dir := t.TempDir()
	st, _, states, sidecars := storeHistoryEvery(t, dir, 12, every, StoreOptions{})
	st.Close()
	journal, err := os.ReadFile(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 120; trial++ {
		cut := rng.Intn(len(journal) + 1)
		crashed := t.TempDir()
		torn := append([]byte(nil), journal[:cut]...)
		if rng.Intn(2) == 0 {
			torn = append(torn, make([]byte, rng.Intn(200))...)
		}
		if err := os.WriteFile(filepath.Join(crashed, "journal"), torn, 0o644); err != nil {
			t.Fatal(err)
		}

		into := New()
		st2, err := OpenStore(crashed, into, StoreOptions{})
		if err != nil {
			t.Fatalf("trial %d (cut %d): recovery failed: %v", trial, cut, err)
		}
		gen := st2.Generation()
		want, ok := states[gen]
		if !ok {
			t.Fatalf("trial %d (cut %d): recovered generation %d was never published", trial, cut, gen)
		}
		if got := storeFingerprint(t, into); got != want {
			t.Fatalf("trial %d (cut %d): generation %d recovered with different content — a half-applied delta", trial, cut, gen)
		}
		if gen > 0 && string(st2.Sidecar()) != sidecars[gen] {
			t.Fatalf("trial %d (cut %d): generation %d sidecar mismatch", trial, cut, gen)
		}
		st2.Close()
	}
}

// TestStoreCompactionCrashInjection kills the compactor at each stage
// of its protocol — after the journal rotation, after the new
// checkpoint is written but not yet promoted, and after the promotion
// but before the old journal is retired — optionally with more
// publishes landing between the crash and the restart, and requires
// recovery to produce the exact last-published state every time.
func TestStoreCompactionCrashInjection(t *testing.T) {
	stages := []string{"rotated", "checkpoint-written", "renamed"}
	for _, stage := range stages {
		for _, publishAfterCrash := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/publishAfter=%v", stage, publishAfterCrash), func(t *testing.T) {
				dir := t.TempDir()
				st, c, states, _ := storeHistory(t, dir, 6, StoreOptions{})
				st.crashHook = func(s string) bool { return s == stage }
				if err := st.Compact(c); err != errCrashInjected {
					t.Fatalf("Compact = %v, want injected crash", err)
				}
				st.crashHook = nil

				finalGen := c.Generation()
				if publishAfterCrash {
					// The store survived the failed compaction (the rotation
					// left a live journal): publishes keep landing until the
					// real crash.
					for i := 0; i < 2; i++ {
						changed := []*Feature{deltaFeature(300+i, i)}
						if _, err := c.ApplyDelta(changed, nil); err != nil {
							t.Fatal(err)
						}
						finalGen = c.Generation()
						if err := st.AppendPublish(finalGen, changed, nil, []byte(`{"epoch":1}`)); err != nil {
							t.Fatal(err)
						}
						states[finalGen] = storeFingerprint(t, c)
					}
				}
				// kill -9: no Close.

				into := New()
				st2, err := OpenStore(dir, into, StoreOptions{})
				if err != nil {
					t.Fatalf("recovery after crash at %q: %v", stage, err)
				}
				defer st2.Close()
				if got := into.Generation(); got != finalGen {
					t.Fatalf("recovered generation %d, want %d", got, finalGen)
				}
				if storeFingerprint(t, into) != states[finalGen] {
					t.Fatal("recovered state differs from last published state")
				}
				// Open finishes the interrupted compaction: no residue, and
				// the next restart replays cleanly too.
				if olds, _ := oldJournals(dir); len(olds) != 0 {
					t.Errorf("rotated journals left behind after recovery: %v", olds)
				}
				if _, err := os.Stat(filepath.Join(dir, "checkpoint.tmp")); !os.IsNotExist(err) {
					t.Error("checkpoint.tmp left behind after recovery")
				}
			})
		}
	}
}

// TestStoreDegradedAppendRepairedByCompaction pins the journal-failure
// contract: when an append fails the store refuses further appends
// (recovery would misapply later deltas over the missing one), surfaces
// Degraded, and a compaction — which writes the full live state —
// repairs it.
func TestStoreDegradedAppendRepairedByCompaction(t *testing.T) {
	dir := t.TempDir()
	st, c, _, _ := storeHistory(t, dir, 3, StoreOptions{})
	defer st.Close()

	// Inject a torn write for the next append.
	st.journal.mu.Lock()
	st.journal.w = bufio.NewWriter(&failingWriter{f: st.journal.f, budget: 10})
	st.journal.mu.Unlock()

	changed := []*Feature{deltaFeature(400, 0)}
	if _, err := c.ApplyDelta(changed, nil); err != nil {
		t.Fatal(err)
	}
	lostGen := c.Generation()
	if err := st.AppendPublish(lostGen, changed, nil, []byte(`{"epoch":9}`)); err == nil {
		t.Fatal("torn append reported success")
	}
	if !st.Stats().Degraded {
		t.Fatal("store not degraded after failed append")
	}
	if err := st.AppendPublish(lostGen+1, changed, nil, nil); err == nil {
		t.Fatal("degraded store accepted an append")
	}

	// The repair: CompactIfNeeded must fire regardless of ratio and
	// rewrite the full state from the live catalog.
	ran, err := st.CompactIfNeeded(c)
	if err != nil {
		t.Fatalf("repair compaction: %v", err)
	}
	if !ran {
		t.Fatal("degraded store did not trigger compaction")
	}
	if st.Stats().Degraded {
		t.Fatal("compaction did not clear degraded")
	}

	// Recovery now includes the publish whose journal record was lost —
	// the checkpoint captured it.
	want := storeFingerprint(t, c)
	into := New()
	st2, err := OpenStore(dir, into, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if into.Generation() != lostGen {
		t.Fatalf("recovered generation %d, want %d", into.Generation(), lostGen)
	}
	if storeFingerprint(t, into) != want {
		t.Fatal("repaired store lost the degraded publish")
	}
}

func TestStoreCompactIfNeededRatio(t *testing.T) {
	dir := t.TempDir()
	st, c, _, _ := storeHistory(t, dir, 4, StoreOptions{MinCompactBytes: 1 << 30})
	defer st.Close()
	// Journal well below MinCompactBytes: never compacts.
	if ran, err := st.CompactIfNeeded(c); err != nil || ran {
		t.Fatalf("compacted below MinCompactBytes: ran=%v err=%v", ran, err)
	}

	dir2 := t.TempDir()
	st2, c2, _, _ := storeHistory(t, dir2, 4, StoreOptions{MinCompactBytes: 1})
	defer st2.Close()
	// No checkpoint yet, tiny floor: first check compacts.
	if ran, err := st2.CompactIfNeeded(c2); err != nil || !ran {
		t.Fatalf("want compaction: ran=%v err=%v", ran, err)
	}
	// Immediately after, the journal is empty: no re-compaction.
	if ran, err := st2.CompactIfNeeded(c2); err != nil || ran {
		t.Fatalf("empty journal re-compacted: ran=%v err=%v", ran, err)
	}
}

// TestOpenStoreLegacySnapshot loads a put-only snapshot (no meta header,
// as Save wrote before it wrote checkpoints) as the checkpoint, at
// generation zero.
func TestOpenStoreLegacySnapshot(t *testing.T) {
	dir := t.TempDir()
	var legacy []byte
	for i := 0; i < 5; i++ {
		line, err := encodeRecord(nil, logRecord{Op: "put", Feature: deltaFeature(i, 0)})
		if err != nil {
			t.Fatal(err)
		}
		legacy = append(legacy, line...)
	}
	if err := os.WriteFile(filepath.Join(dir, "checkpoint"), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	into := New()
	st, err := OpenStore(dir, into, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if into.Len() != 5 || st.Generation() != 0 {
		t.Fatalf("legacy load: len=%d gen=%d", into.Len(), st.Generation())
	}
}

func TestOpenStoreRejectsCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st, c, _, _ := storeHistory(t, dir, 3, StoreOptions{})
	if err := st.Compact(c); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// Flip one byte mid-checkpoint. Checkpoints are written atomically,
	// so unlike a journal tail this is real corruption and must refuse
	// to load rather than half-apply.
	path := filepath.Join(dir, "checkpoint")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir, New(), StoreOptions{}); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
}

// TestStoreRepeatedCompactionCrashes pins the retry hazard a single
// crash cannot reach: a compaction dies right after its rotation, more
// publishes land, and a *second* compaction (also dying after its
// rotation) must rotate to a fresh journal.old.N rather than clobber
// the first rotation — which until a checkpoint lands is the only
// durable copy of the early publishes. Recovery replays both rotated
// journals in order plus the live journal and reproduces the exact
// last-published state.
func TestStoreRepeatedCompactionCrashes(t *testing.T) {
	dir := t.TempDir()
	st, c, states, _ := storeHistory(t, dir, 4, StoreOptions{})
	crashAtRotate := func(s string) bool { return s == "rotated" }

	st.crashHook = crashAtRotate
	if err := st.Compact(c); err != errCrashInjected {
		t.Fatalf("first compact = %v", err)
	}
	// Publishes keep landing on the post-rotation journal.
	finalGen := c.Generation()
	for i := 0; i < 2; i++ {
		changed := []*Feature{deltaFeature(600+i, i)}
		if _, err := c.ApplyDelta(changed, nil); err != nil {
			t.Fatal(err)
		}
		finalGen = c.Generation()
		if err := st.AppendPublish(finalGen, changed, nil, []byte(`{"epoch":2}`)); err != nil {
			t.Fatal(err)
		}
		states[finalGen] = storeFingerprint(t, c)
	}
	// The retry dies the same way. Before the numbered-rotation scheme
	// this rename overwrote the first rotation and lost its publishes.
	if err := st.Compact(c); err != errCrashInjected {
		t.Fatalf("second compact = %v", err)
	}
	st.crashHook = nil
	if olds, _ := oldJournals(dir); len(olds) != 2 {
		t.Fatalf("expected 2 rotated journals pending, got %v", olds)
	}
	// kill -9: no Close.

	into := New()
	st2, err := OpenStore(dir, into, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if into.Generation() != finalGen {
		t.Fatalf("recovered generation %d, want %d", into.Generation(), finalGen)
	}
	if storeFingerprint(t, into) != states[finalGen] {
		t.Fatal("recovery lost publishes from the first crashed rotation")
	}
	if olds, _ := oldJournals(dir); len(olds) != 0 {
		t.Errorf("rotated journals not folded at open: %v", olds)
	}
}

// TestStoreRejectsReorderedJournal pins the monotonicity check: two
// intact, individually valid records with their order swapped must be
// refused — silently dropping the regressing record would be exactly
// the half-applied state recovery promises never to surface.
func TestStoreRejectsReorderedJournal(t *testing.T) {
	dir := t.TempDir()
	st, _, _, _ := storeHistory(t, dir, 3, StoreOptions{})
	st.Close()
	path := filepath.Join(dir, "journal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	lines[0], lines[1] = lines[1], lines[0]
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir, New(), StoreOptions{}); err == nil {
		t.Fatal("reordered journal accepted")
	} else if !strings.Contains(err.Error(), "backwards") {
		t.Fatalf("unexpected error: %v", err)
	}
}
