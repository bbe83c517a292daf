package catalog

import (
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeedJournal builds a small, valid journal's bytes for the seed
// corpus: two delta records with changed features, a removal, and
// sidecars.
func fuzzSeedJournal(t testing.TB) []byte {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "journal")
	j, err := OpenJournal(path, SyncNone, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := j.Append(journalRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzJournalReplay feeds arbitrary bytes to the store's recovery path
// — once as the journal, once as the checkpoint — and to Load, and
// requires the all-or-nothing contract to hold: each either fails
// cleanly (Load with a nil catalog) or yields a valid catalog — every
// feature passing Validate, the generation matching the store's — and
// does so deterministically. None may panic or surface silent partial
// state (two reads of the same bytes disagreeing).
func FuzzJournalReplay(f *testing.F) {
	valid := fuzzSeedJournal(f)
	f.Add(valid)
	// Torn tail: a record cut mid-payload.
	f.Add(valid[:len(valid)-17])
	// Mid-file corruption: a flipped byte in the first record.
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/4] ^= 0x20
	f.Add(flipped)
	// Reordered/duplicated generations.
	half := valid[:findNthNewline(valid, 1)]
	f.Add(append(append([]byte(nil), valid...), half...))
	// Structurally fine line, wrong op.
	putLine, err := encodeRecord(nil, logRecord{Op: "put", Feature: feat("fz.csv", "v")})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(putLine)
	// Checksummed garbage payload.
	garbage, err := encodeRecord(nil, logRecord{Op: "delta", Gen: 3})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(garbage, []byte("00000000 not-json\n")...))
	f.Add([]byte(""))
	f.Add([]byte("go wild\n\n\x00\xff"))
	// A valid checkpoint (as a journal, a wrong-op refusal).
	f.Add(fuzzSeedCheckpoint(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, name := range []string{"journal", "checkpoint"} {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
			recover := func() (*Catalog, uint64, error) {
				into := New()
				gen, _, _, _, err := recoverState(dir, into)
				return into, gen, err
			}
			c1, gen1, err1 := recover()
			c2, gen2, err2 := recover()
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s: non-deterministic recovery: %v vs %v", name, err1, err2)
			}
			if err1 != nil {
				continue // clean refusal: the contract holds
			}
			requireValid(t, c1)
			if c1.Generation() != gen1 {
				t.Fatalf("%s: catalog generation %d != recovered generation %d", name, c1.Generation(), gen1)
			}
			// Recovery must be a pure function of the bytes.
			if storeFingerprint(t, c1) != storeFingerprint(t, c2) || gen1 != gen2 {
				t.Fatalf("%s: two recoveries of the same bytes disagree", name)
			}
		}

		// The same bytes as an exported snapshot, through Load.
		path := filepath.Join(t.TempDir(), "snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c1, err1 := Load(path)
		c2, err2 := Load(path)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("Load: non-deterministic: %v vs %v", err1, err2)
		}
		if err1 != nil {
			if c1 != nil || c2 != nil {
				t.Fatalf("Load failed (%v) but returned a catalog", err1)
			}
			return
		}
		requireValid(t, c1)
		if storeFingerprint(t, c1) != storeFingerprint(t, c2) {
			t.Fatal("Load: two loads of the same bytes disagree")
		}
	})
}

// fuzzSeedCheckpoint is a small, valid checkpoint's bytes: a meta
// record and two puts.
func fuzzSeedCheckpoint(t testing.TB) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "checkpoint")
	if err := Save(path, served(t, 0, deltaFeature(0, 0), deltaFeature(1, 0))); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// requireValid fails unless every feature of a recovered or loaded
// catalog passes Validate.
func requireValid(t *testing.T, c *Catalog) {
	t.Helper()
	for _, feat := range c.Snapshot().All() {
		if err := feat.Validate(); err != nil {
			t.Fatalf("recovered catalog holds invalid feature: %v", err)
		}
	}
}

// findNthNewline returns the index just past the n-th newline (1-based).
func findNthNewline(b []byte, n int) int {
	for i, c := range b {
		if c == '\n' {
			n--
			if n == 0 {
				return i + 1
			}
		}
	}
	return len(b)
}
