package catalog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// journalRec fabricates the i-th deterministic publish delta.
func journalRec(i int) DeltaRecord {
	return DeltaRecord{
		Gen:     uint64(i + 1),
		Changed: []*Feature{deltaFeature(i, 0), deltaFeature(i+100, 0)},
		Removed: []string{IDForPath(fmt.Sprintf("gone/%d.csv", i))},
		Sidecar: json.RawMessage(fmt.Sprintf(`{"epoch":%d}`, i+1)),
	}
}

func TestJournalAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	j, err := OpenJournal(path, SyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		if err := j.Append(journalRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var got []DeltaRecord
	applied, err := ReplayJournal(path, func(rec DeltaRecord) error {
		got = append(got, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if applied != n || len(got) != n {
		t.Fatalf("replayed %d records, want %d", applied, n)
	}
	for i, rec := range got {
		want := journalRec(i)
		if rec.Gen != want.Gen {
			t.Errorf("record %d gen = %d, want %d", i, rec.Gen, want.Gen)
		}
		if len(rec.Changed) != len(want.Changed) || !rec.Changed[0].ContentEquals(want.Changed[0]) {
			t.Errorf("record %d changed features corrupted", i)
		}
		if len(rec.Removed) != 1 || rec.Removed[0] != want.Removed[0] {
			t.Errorf("record %d removed = %v", i, rec.Removed)
		}
		if string(rec.Sidecar) != string(want.Sidecar) {
			t.Errorf("record %d sidecar = %s, want %s", i, rec.Sidecar, want.Sidecar)
		}
	}
}

func TestJournalReplayMissingFileIsEmpty(t *testing.T) {
	n, err := ReplayJournal(filepath.Join(t.TempDir(), "nope"), func(DeltaRecord) error {
		t.Fatal("apply called for a missing journal")
		return nil
	})
	if err != nil || n != 0 {
		t.Fatalf("missing journal: n=%d err=%v", n, err)
	}
}

func TestJournalReplayToleratesTornTailOnly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal")
	j, _ := OpenJournal(path, SyncAlways, 0)
	for i := 0; i < 3; i++ {
		if err := j.Append(journalRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Torn tail: drop the last 25 bytes. Two intact records survive.
	torn := filepath.Join(dir, "torn")
	if err := os.WriteFile(torn, data[:len(data)-25], 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := ReplayJournal(torn, func(DeltaRecord) error { return nil })
	if err != nil || n != 2 {
		t.Fatalf("torn tail: n=%d err=%v, want 2 records and no error", n, err)
	}

	// Mid-file truncation (a full record follows the damage) is fatal.
	lines := strings.SplitAfter(string(data), "\n")
	mid := lines[0] + lines[1][:len(lines[1])/2] + "\n" + lines[2]
	midPath := filepath.Join(dir, "mid")
	if err := os.WriteFile(midPath, []byte(mid), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayJournal(midPath, func(DeltaRecord) error { return nil }); err == nil {
		t.Fatal("mid-file truncation accepted")
	}

	// A valid record of the wrong op is rejected.
	line, err := encodeRecord(nil, logRecord{Op: "put", Feature: feat("x.csv", "v")})
	if err != nil {
		t.Fatal(err)
	}
	wrongOp := filepath.Join(dir, "wrongop")
	if err := os.WriteFile(wrongOp, line, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayJournal(wrongOp, func(DeltaRecord) error { return nil }); err == nil {
		t.Fatal("non-delta op accepted in journal")
	}

	// A delta whose feature fails validation is rejected.
	bad := deltaFeature(1, 1)
	bad.ID = "not-the-path-hash"
	badLine, err := encodeRecord(nil, logRecord{Op: "delta", Gen: 1, Changed: []*Feature{bad}})
	if err != nil {
		t.Fatal(err)
	}
	badPath := filepath.Join(dir, "badfeat")
	if err := os.WriteFile(badPath, badLine, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayJournal(badPath, func(DeltaRecord) error { return nil }); err == nil {
		t.Fatal("invalid feature accepted in journal")
	}
}

func TestJournalRotate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal")
	old := filepath.Join(dir, "journal.old")
	j, err := OpenJournal(path, SyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(journalRec(0)); err != nil {
		t.Fatal(err)
	}
	if err := j.rotate(old); err != nil {
		t.Fatal(err)
	}
	if j.Size() != 0 {
		t.Fatalf("post-rotate size = %d, want 0", j.Size())
	}
	if err := j.Append(journalRec(1)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	count := func(p string) int {
		n, err := ReplayJournal(p, func(DeltaRecord) error { return nil })
		if err != nil {
			t.Fatalf("replay %s: %v", p, err)
		}
		return n
	}
	if n := count(old); n != 1 {
		t.Errorf("journal.old has %d records, want 1", n)
	}
	if n := count(path); n != 1 {
		t.Errorf("new journal has %d records, want 1", n)
	}
}

func TestJournalSyncPolicies(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    SyncPolicy
		wantErr bool
	}{
		{"", SyncAlways, false},
		{"always", SyncAlways, false},
		{"group", SyncGroup, false},
		{"none", SyncNone, false},
		{"sometimes", SyncAlways, true},
	} {
		got, err := ParseSyncPolicy(tc.in)
		if (err != nil) != tc.wantErr || got != tc.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}

	// SyncAlways fsyncs per append; SyncGroup with a wide window fsyncs
	// at most once up front and batches the rest until Sync.
	dir := t.TempDir()
	always, _ := OpenJournal(filepath.Join(dir, "a"), SyncAlways, 0)
	for i := 0; i < 4; i++ {
		if err := always.Append(journalRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if always.syncs != 4 {
		t.Errorf("SyncAlways: %d fsyncs for 4 appends", always.syncs)
	}
	always.Close()

	group, _ := OpenJournal(filepath.Join(dir, "g"), SyncGroup, time.Hour)
	for i := 0; i < 4; i++ {
		if err := group.Append(journalRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if group.syncs > 1 {
		t.Errorf("SyncGroup(1h): %d fsyncs for 4 appends, want ≤ 1", group.syncs)
	}
	if err := group.Sync(); err != nil {
		t.Fatal(err)
	}
	if group.syncs < 1 {
		t.Error("explicit Sync did not fsync")
	}
	group.Close()

	// Whatever the policy, the records are on disk after Close.
	if n, err := ReplayJournal(filepath.Join(dir, "g"), func(DeltaRecord) error { return nil }); err != nil || n != 4 {
		t.Fatalf("group journal after close: n=%d err=%v", n, err)
	}

	// The last record of a burst must not wait for a next append that
	// never comes: group commit schedules a deferred fsync, so within a
	// couple of windows the at-risk tail is on disk.
	timed, _ := OpenJournal(filepath.Join(dir, "t"), SyncGroup, 20*time.Millisecond)
	if err := timed.Append(journalRec(0)); err != nil { // first append syncs (no prior sync)
		t.Fatal(err)
	}
	if err := timed.Append(journalRec(1)); err != nil { // inside the window: deferred
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, syncs := timed.stats(); syncs >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("deferred group-commit fsync never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	timed.Close()
}

// failingWriter is the torn-write filesystem shim: it forwards writes
// to the underlying file until the byte budget runs out, then writes
// whatever partial prefix still fits and fails — exactly the residue a
// kill -9 (or a full disk) leaves mid-append.
type failingWriter struct {
	f      io.Writer
	budget int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.budget <= 0 {
		return 0, fmt.Errorf("injected write failure")
	}
	n := len(p)
	if n > w.budget {
		n = w.budget
	}
	n, err := w.f.Write(p[:n])
	w.budget -= n
	if err != nil {
		return n, err
	}
	if n < len(p) {
		return n, fmt.Errorf("injected torn write after %d bytes", n)
	}
	return n, nil
}

// TestJournalTornWriteNeverHalfApplies kills the journal mid-append at
// every byte offset of the final record and checks the recovery
// invariant record by record: replay yields exactly the fully appended
// prefix — the torn record vanishes, and nothing is ever half-applied.
func TestJournalTornWriteNeverHalfApplies(t *testing.T) {
	// Reference: three full records and their encoded sizes.
	full := filepath.Join(t.TempDir(), "full")
	j, _ := OpenJournal(full, SyncNone, 0)
	var sizes []int64
	for i := 0; i < 3; i++ {
		if err := j.Append(journalRec(i)); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, j.Size())
	}
	j.Close()

	recLen := int(sizes[2] - sizes[1])
	for cut := 0; cut < recLen; cut += 7 {
		dir := t.TempDir()
		path := filepath.Join(dir, "journal")
		tj, err := OpenJournal(path, SyncNone, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := tj.Append(journalRec(i)); err != nil {
				t.Fatal(err)
			}
		}
		// Interpose the shim for the third append: only `cut` bytes of
		// the record reach the file before the "crash".
		tj.w = bufio.NewWriter(&failingWriter{f: tj.f, budget: cut})
		if err := tj.Append(journalRec(2)); err == nil && cut < recLen-1 {
			t.Fatalf("cut=%d: torn append reported success", cut)
		}
		// No Close: the process is dead. Recover from the bytes on disk.
		var gens []uint64
		n, err := ReplayJournal(path, func(rec DeltaRecord) error {
			gens = append(gens, rec.Gen)
			return nil
		})
		if err != nil {
			t.Fatalf("cut=%d: recovery failed: %v", cut, err)
		}
		if n != 2 {
			t.Fatalf("cut=%d: recovered %d records, want exactly the 2 acknowledged ones", cut, n)
		}
		if gens[0] != 1 || gens[1] != 2 {
			t.Fatalf("cut=%d: recovered gens %v", cut, gens)
		}
	}
}
