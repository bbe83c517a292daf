package catalog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"
)

// goldenPublishes is the fixed history behind testdata/format: the
// publish the checkpoint covers, then the journal's two deltas and a
// removal.
func goldenPublishes() []DeltaRecord {
	return []DeltaRecord{
		{Changed: []*Feature{deltaFeature(0, 0), deltaFeature(1, 0), deltaFeature(2, 0), deltaFeature(3, 0)},
			Sidecar: json.RawMessage(`{"epoch":1}`)},
		{Changed: []*Feature{deltaFeature(1, 1), deltaFeature(4, 0)}, Sidecar: json.RawMessage(`{"epoch":2}`)},
		{Changed: []*Feature{deltaFeature(5, 2)}, Sidecar: json.RawMessage(`{"epoch":3}`)},
		{Removed: []string{deltaFeature(2, 0).ID}},
	}
}

// writeGoldenStore publishes goldenPublishes into a store at dir,
// compacting after the first, and returns the published catalog.
func writeGoldenStore(t testing.TB, dir string) *Catalog {
	t.Helper()
	c := New()
	st, err := OpenStore(dir, c, StoreOptions{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i, p := range goldenPublishes() {
		if _, err := c.ApplyDelta(p.Changed, p.Removed); err != nil {
			t.Fatal(err)
		}
		if err := st.AppendPublish(c.Generation(), p.Changed, p.Removed, p.Sidecar); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := st.Compact(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

func readFile(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// openStoreOver opens a store over a fresh data directory holding the
// given files and returns its catalog and generation.
func openStoreOver(t testing.TB, files map[string][]byte) (*Catalog, uint64) {
	t.Helper()
	dir := t.TempDir()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c := New()
	st, err := OpenStore(dir, c, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	return c, st.Generation()
}

// TestFormatGolden pins the on-disk format to files written by the build
// before the legacy log was deleted (testdata/format, produced from
// goldenPublishes at that commit): checkpoint and journal bytes are
// unchanged, Save's export is the old put-only snapshot plus one leading
// meta line, and every file — old or new — opens as the checkpoint it is.
func TestFormatGolden(t *testing.T) {
	legacy := readFile(t, filepath.Join("testdata", "format", "legacy.snap"))
	ckpt := readFile(t, filepath.Join("testdata", "format", "checkpoint"))
	journal := readFile(t, filepath.Join("testdata", "format", "journal"))

	// (a) The checkpoint writer and Journal.Append reproduce the bytes.
	dir := t.TempDir()
	c := writeGoldenStore(t, dir)
	if got := readFile(t, filepath.Join(dir, "checkpoint")); !bytes.Equal(got, ckpt) {
		t.Errorf("checkpoint bytes changed:\n got: %.300s\nwant: %.300s", got, ckpt)
	}
	if got := readFile(t, filepath.Join(dir, "journal")); !bytes.Equal(got, journal) {
		t.Errorf("journal bytes changed:\n got: %.300s\nwant: %.300s", got, journal)
	}
	want := storeFingerprint(t, c)

	// (b) The legacy snapshot and the store files hold the same features.
	loaded, err := Load(filepath.Join("testdata", "format", "legacy.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if storeFingerprint(t, loaded) != want {
		t.Error("legacy snapshot loads different features")
	}
	opened, gen := openStoreOver(t, map[string][]byte{"checkpoint": ckpt, "journal": journal})
	if storeFingerprint(t, opened) != want || gen != 4 {
		t.Errorf("store over the golden files: generation %d, features equal %v", gen, storeFingerprint(t, opened) == want)
	}

	// (c) Save is the legacy snapshot plus exactly one leading meta line.
	saved := filepath.Join(t.TempDir(), "export.snap")
	if err := Save(saved, c); err != nil {
		t.Fatal(err)
	}
	got := readFile(t, saved)
	nl := bytes.IndexByte(got, '\n')
	if nl < 0 || !bytes.Equal(got[nl+1:], legacy) {
		t.Fatalf("Save output is not meta line + legacy snapshot:\n%.400s", got)
	}
	if meta := got[9:nl]; string(meta) != `{"op":"meta","gen":4}` {
		t.Errorf("Save's meta line payload = %s", meta)
	}
	if _, err := decodeLine(got[:nl]); err != nil {
		t.Errorf("Save's meta line: %v", err)
	}

	// (d) A Save file, old or new, dropped into an empty data directory
	// opens as its checkpoint: one on-disk format.
	for _, tc := range []struct {
		name string
		data []byte
		gen  uint64
	}{{"legacy", legacy, 0}, {"current", got, 4}} {
		opened, gen := openStoreOver(t, map[string][]byte{"checkpoint": tc.data})
		if storeFingerprint(t, opened) != want {
			t.Errorf("%s Save file as checkpoint: features differ", tc.name)
		}
		if gen != tc.gen {
			t.Errorf("%s Save file as checkpoint: generation %d, want %d", tc.name, gen, tc.gen)
		}
	}
}

// TestOversizedRecordReopens is the regression test for a store that
// could write a record it could not read back: a journal line past the
// old fixed 64 MiB scanner cap made OpenStore fail with "token too long".
// File readers now bound a line by the file's size.
func TestOversizedRecordReopens(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("writes a 64 MiB record")
	}
	// Collect eagerly: the record is copied several times on its way
	// through encode, replay and tail, and the default pacing lets those
	// dead copies pile up to ~0.6 GB.
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	dir := t.TempDir()
	c := New()
	st, err := OpenStore(dir, c, StoreOptions{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	sidecar := json.RawMessage(`"` + strings.Repeat("x", MaxStreamLine) + `"`)
	f := deltaFeature(7, 0)
	if _, err := c.ApplyDelta([]*Feature{f}, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendPublish(c.Generation(), []*Feature{f}, nil, sidecar); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	back := New()
	st, err = OpenStore(dir, back, StoreOptions{Sync: SyncNone})
	if err != nil {
		t.Fatalf("reopen after a >64 MiB record: %v", err)
	}
	defer st.Close()
	if st.Generation() != 1 || !bytes.Equal(st.Sidecar(), sidecar) || back.Len() != 1 {
		t.Fatalf("recovered generation %d, sidecar %d bytes, %d features", st.Generation(), len(st.Sidecar()), back.Len())
	}
	frames, _, _, err := st.TailFrames(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := DecodeDeltaFrame(strings.TrimSuffix(string(frames), "\n"))
	if err != nil || rec.Gen != 1 || !bytes.Equal(rec.Sidecar, sidecar) {
		t.Fatalf("tail of the oversized record: gen %d, sidecar %d bytes, %v", rec.Gen, len(rec.Sidecar), err)
	}
}

// TestReplayMissingFile: Load of a missing file is an empty catalog.
func TestReplayMissingFile(t *testing.T) {
	c, err := Load(filepath.Join(t.TempDir(), "nope.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Error("missing file should load as an empty catalog")
	}
}

// saveLines saves n small features and returns the file's lines (a meta
// line, then one put per feature).
func saveLines(t testing.TB, n int) []string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "base.snap")
	var feats []*Feature
	for i := 0; i < n; i++ {
		feats = append(feats, feat(fmt.Sprintf("d%d.csv", i), "salinity"))
	}
	if err := Save(path, served(t, 0, feats...)); err != nil {
		t.Fatal(err)
	}
	return strings.SplitAfter(string(readFile(t, path)), "\n")
}

func writeLines(t testing.TB, lines []string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "snap")
	if err := os.WriteFile(p, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestReplayRejectsMidFileCorruption(t *testing.T) {
	lines := saveLines(t, 2)
	// Flip a byte inside the first put's payload.
	lines[1] = strings.Replace(lines[1], `"op":"put"`, `"op":"pXt"`, 1)
	if c, err := Load(writeLines(t, lines)); err == nil || c != nil {
		t.Errorf("mid-file corruption: catalog %v, err %v", c, err)
	}
}

func TestReplayRejectsBadChecksumMidFile(t *testing.T) {
	lines := saveLines(t, 2)
	// Zero the first put's checksum.
	lines[1] = "00000000" + lines[1][8:]
	if _, err := Load(writeLines(t, lines)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("checksum corruption error = %v", err)
	}
}

// TestCompactAndLoad: a put-only snapshot from an older build, with
// redundant puts of one feature, loads with the last put winning, and
// Save rewrites it in place as a smaller checkpoint that loads the same.
func TestCompactAndLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.snap")
	var old []byte
	put := func(f *Feature) {
		line, err := encodeRecord(nil, logRecord{Op: "put", Feature: f})
		if err != nil {
			t.Fatal(err)
		}
		old = append(old, line...)
	}
	for i := 0; i < 50; i++ {
		put(feat("a.csv", "x"))
	}
	put(feat("b.csv", "y"))
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}

	c, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("legacy Len = %d, want 2", c.Len())
	}
	if err := Save(path, c); err != nil {
		t.Fatal(err)
	}
	if after := fileSize(path); after >= int64(len(old)) {
		t.Errorf("re-save did not shrink the file: %d -> %d", len(old), after)
	}
	again, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if storeFingerprint(t, again) != storeFingerprint(t, c) {
		t.Error("re-saved file loads different features")
	}
}

func TestSaveLoadSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.log")
	var feats []*Feature
	for i := 0; i < 20; i++ {
		feats = append(feats, feat(fmt.Sprintf("d%02d.csv", i), "salinity", "temp"))
	}
	c := served(t, 0, feats...)
	if err := Save(path, c); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != c.Len() {
		t.Fatalf("Len = %d, want %d", back.Len(), c.Len())
	}
	for _, orig := range c.Snapshot().All() {
		id := orig.ID
		got, ok := back.Snapshot().ByID(id)
		if !ok {
			t.Fatalf("feature %s missing", id)
		}
		if got.Path != orig.Path || len(got.Variables) != len(orig.Variables) {
			t.Errorf("feature %s corrupted in round trip", id)
		}
		if !got.Time.Start.Equal(orig.Time.Start) {
			t.Errorf("feature %s time corrupted", id)
		}
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("Save left its temp file behind: %v", err)
	}
}

// TestLogSizeMissing: the checkpoint size compaction reads is 0, not an
// error, before any checkpoint exists.
func TestLogSizeMissing(t *testing.T) {
	dir := t.TempDir()
	if n := fileSize(filepath.Join(dir, "nope")); n != 0 {
		t.Errorf("size of a missing file = %d", n)
	}
	path := filepath.Join(dir, "some")
	if err := os.WriteFile(path, []byte("12345"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n := fileSize(path); n != 5 {
		t.Errorf("size = %d, want 5", n)
	}
}

func BenchmarkLoad1000(b *testing.B) {
	dir := b.TempDir()
	path := filepath.Join(dir, "bench.snap")
	var feats []*Feature
	for i := 0; i < 1000; i++ {
		feats = append(feats, feat(fmt.Sprintf("d%04d.csv", i), "salinity", "temp"))
	}
	if err := Save(path, served(b, 0, feats...)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(path); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSaveLoadShardedCatalog drives the full persistence round trip
// over a many-shard catalog with content-rich features: Save walks the
// sharded snapshot's merged All() (so the file is ID-ordered regardless
// of the partition), and Load must reconstruct every feature with
// content equality — into a catalog with a *different* shard count,
// since the format is partition-independent.
func TestSaveLoadShardedCatalog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sharded.log")
	var feats []*Feature
	for i := 0; i < 40; i++ {
		feats = append(feats, deltaFeature(i, i%3))
	}
	c := served(t, 5, feats...)
	if err := Save(path, c); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != c.Len() {
		t.Fatalf("Len = %d, want %d", back.Len(), c.Len())
	}
	// Saving the loaded catalog again must produce identical bytes: the
	// round trip is lossless and the file order is partition-independent.
	path2 := filepath.Join(dir, "resaved.log")
	if err := Save(path2, back); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(path)
	b2, _ := os.ReadFile(path2)
	if string(b1) != string(b2) {
		t.Fatal("re-saved file differs from original")
	}
	for _, orig := range c.Snapshot().All() {
		id := orig.ID
		got, ok := back.Snapshot().ByID(id)
		if !ok {
			t.Fatalf("feature %s missing after round trip", id)
		}
		if !orig.ContentEquals(got) {
			t.Errorf("feature %s content differs after round trip", id)
		}
		if !orig.ScannedAt.Equal(got.ScannedAt) {
			t.Errorf("feature %s ScannedAt differs after round trip", id)
		}
	}
}

// TestReplayNeverHalfLoads pins the all-or-nothing contract of Load: a
// file with a flipped checksum, a truncated record, or a torn final line
// must be rejected with a nil catalog — corruption can surface no
// partially applied state for a caller to serve by accident. (Save is
// atomic, so unlike a journal a torn tail can only be damage.)
func TestReplayNeverHalfLoads(t *testing.T) {
	lines := saveLines(t, 3)

	// Flip one checksum hex digit on a middle record.
	flipped := append([]string(nil), lines...)
	if flipped[2][0] == '0' {
		flipped[2] = "1" + flipped[2][1:]
	} else {
		flipped[2] = "0" + flipped[2][1:]
	}
	c, err := Load(writeLines(t, flipped))
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("flipped checksum: err = %v", err)
	}
	if c != nil {
		t.Error("flipped checksum returned a half-loaded catalog")
	}

	// Truncate a middle record but keep its newline, so a full record
	// still follows.
	truncated := append([]string(nil), lines...)
	truncated[2] = truncated[2][:len(truncated[2])/2] + "\n"
	c, err = Load(writeLines(t, truncated))
	if err == nil {
		t.Error("mid-file truncated record accepted")
	}
	if c != nil {
		t.Error("truncated record returned a half-loaded catalog")
	}

	// Tear the final record.
	torn := strings.Join(lines, "")
	c, err = Load(writeLines(t, []string{torn[:len(torn)-20]}))
	if err == nil || c != nil {
		t.Errorf("torn final record: catalog %v, err %v", c, err)
	}

	// Control: the intact lines load all three features.
	c, err = Load(writeLines(t, lines))
	if err != nil || c.Len() != 3 {
		t.Fatalf("intact file: len=%v err=%v", c, err)
	}
}
