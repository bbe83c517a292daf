package scan

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"metamess/internal/archive"
	"metamess/internal/catalog"
)

// genArchive generates a small archive and returns root + manifest.
func genArchive(t testing.TB, n int, seed int64) (string, *archive.Manifest) {
	t.Helper()
	root := t.TempDir()
	m, err := archive.Generate(root, archive.DefaultGenConfig(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return root, m
}

func TestScanAllMatchesManifest(t *testing.T) {
	root, m := genArchive(t, 12, 21)
	res, err := scanAll(New(Config{Root: root}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("scan errors: %v", res.Errors)
	}
	if len(res.Features) != len(m.Datasets) {
		t.Fatalf("features = %d, want %d", len(res.Features), len(m.Datasets))
	}
	truth := m.ByPath()
	for _, f := range res.Features {
		d, ok := truth[filepath.ToSlash(f.Path)]
		if !ok {
			t.Fatalf("scanned unknown path %s", f.Path)
		}
		if f.RowCount != d.Rows {
			t.Errorf("%s: rows %d, want %d", f.Path, f.RowCount, d.Rows)
		}
		if len(f.Variables) != len(d.Vars) {
			t.Errorf("%s: vars %d, want %d", f.Path, len(f.Variables), len(d.Vars))
			continue
		}
		for i, v := range f.Variables {
			if v.RawName != d.Vars[i].Raw {
				t.Errorf("%s var %d: raw %q, want %q", f.Path, i, v.RawName, d.Vars[i].Raw)
			}
			if v.Unit != d.Vars[i].Unit {
				t.Errorf("%s var %d: unit %q, want %q", f.Path, i, v.Unit, d.Vars[i].Unit)
			}
			if v.Count == 0 {
				t.Errorf("%s var %q: zero observations", f.Path, v.RawName)
			}
		}
		// Extents must match the manifest to within coordinate precision:
		// CSV/OBS files round coordinates to 5 decimals (~1m).
		const tol = 1e-4
		if math.Abs(f.BBox.MinLat-d.BBox.MinLat) > tol ||
			math.Abs(f.BBox.MaxLon-d.BBox.MaxLon) > tol {
			t.Errorf("%s: bbox %v, want ~%v", f.Path, f.BBox, d.BBox)
		}
		if f.Time.Start.Unix() != d.Time.Start.Unix() {
			// OBS stores unix seconds; compare at second precision.
			t.Errorf("%s: start %v, want %v", f.Path, f.Time.Start, d.Time.Start)
		}
		if f.Source != d.Source {
			t.Errorf("%s: source %q, want %q", f.Path, f.Source, d.Source)
		}
		if f.Format != string(d.Format) {
			t.Errorf("%s: format %q, want %q", f.Path, f.Format, d.Format)
		}
	}
	if res.Stats.Parsed != len(m.Datasets) || res.Stats.BytesParsed == 0 {
		t.Errorf("stats = %+v", res.Stats)
	}
}

func TestScanDirsRestrict(t *testing.T) {
	root, m := genArchive(t, 12, 3)
	res, err := scanAll(New(Config{Root: root, Dirs: []string{"stations"}}))
	if err != nil {
		t.Fatal(err)
	}
	wantCount := 0
	for _, d := range m.Datasets {
		if d.Source == "stations" {
			wantCount++
		}
	}
	if len(res.Features) != wantCount {
		t.Errorf("features = %d, want %d (stations only)", len(res.Features), wantCount)
	}
	for _, f := range res.Features {
		if f.Source != "stations" {
			t.Errorf("scanned %s outside configured dir", f.Path)
		}
	}
	// Adding a directory (curatorial improvement) widens the scan.
	res2, err := scanAll(New(Config{Root: root, Dirs: []string{"stations", "cruises"}}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Features) <= len(res.Features) {
		t.Error("adding a directory did not find more datasets")
	}
}

func TestScanIntoIncremental(t *testing.T) {
	root, m := genArchive(t, 9, 17)
	c := catalog.NewWorking()
	sc := New(Config{Root: root})
	res1, err := sc.ScanInto(c)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Stats.Parsed != len(m.Datasets) || c.Len() != len(m.Datasets) {
		t.Fatalf("initial scan: %+v", res1.Stats)
	}
	// Re-scan with nothing changed: everything is skipped.
	res2, err := sc.ScanInto(c)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Parsed != 0 || res2.Stats.SkippedUnchanged != len(m.Datasets) {
		t.Fatalf("incremental rescan: %+v", res2.Stats)
	}
	// Touch one file with new content: exactly one re-parse.
	target := filepath.Join(root, m.Datasets[0].Path)
	data, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(target, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(target, future, future); err != nil {
		t.Fatal(err)
	}
	res3, err := sc.ScanInto(c)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Stats.Parsed != 1 || res3.Stats.SkippedUnchanged != len(m.Datasets)-1 {
		t.Fatalf("after touch: %+v", res3.Stats)
	}
}

func TestScanSurvivesCorruptFile(t *testing.T) {
	root, m := genArchive(t, 6, 5)
	bad := filepath.Join(root, "stations", "corrupt.obs")
	if err := os.WriteFile(bad, []byte("#fields:\tx\nnot_a_number\t1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := scanAll(New(Config{Root: root}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 1 || res.Stats.Failed != 1 {
		t.Fatalf("errors = %v, stats = %+v", res.Errors, res.Stats)
	}
	if len(res.Features) != len(m.Datasets) {
		t.Errorf("good files should still scan: %d", len(res.Features))
	}
}

func TestScanSkipsOversizedAndUnknown(t *testing.T) {
	root, m := genArchive(t, 3, 5)
	// An unknown extension is ignored entirely.
	if err := os.WriteFile(filepath.Join(root, "stations", "readme.txt"), []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := scanAll(New(Config{Root: root, MaxFileBytes: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SkippedOther != len(m.Datasets) {
		t.Errorf("oversized skip count = %d, want %d", res.Stats.SkippedOther, len(m.Datasets))
	}
	if len(res.Features) != 0 {
		t.Error("oversized files were parsed")
	}
}

func TestScanMissingRoot(t *testing.T) {
	if _, err := scanAll(New(Config{})); err == nil {
		t.Error("empty root accepted")
	}
	if _, err := scanAll(New(Config{Root: filepath.Join(t.TempDir(), "ghost")})); err == nil {
		t.Error("missing root accepted")
	}
}

func TestSniff(t *testing.T) {
	cases := []struct {
		path string
		head string
		want archive.Format
		ok   bool
	}{
		{"a.csv", "time,latitude,longitude,x\n1,2,3,4\n", archive.FormatCSV, true},
		{"a.obs", "# comment\n#fields:\tx\n", archive.FormatOBS, true},
		{"a.jsonl", `{"type":"header"}` + "\n", archive.FormatJSONL, true},
		// Content wins over extension.
		{"mislabeled.csv", `{"type":"header"}` + "\n", archive.FormatJSONL, true},
		{"mislabeled.jsonl", "#station: x\n", archive.FormatOBS, true},
		// Extension fallback when content is inconclusive.
		{"plain.obs", "", archive.FormatOBS, true},
		{"noidea.bin", "binarygarbage", "", false},
	}
	for _, c := range cases {
		got, ok := Sniff(c.path, []byte(c.head))
		if ok != c.ok || got != c.want {
			t.Errorf("Sniff(%q, %q) = %q, %v; want %q, %v", c.path, c.head, got, ok, c.want, c.ok)
		}
	}
}

func TestSplitNameUnit(t *testing.T) {
	cases := []struct{ in, name, unit string }{
		{"water_temperature [degC]", "water_temperature", "degC"},
		{"salinity [practical salinity units]", "salinity", "practical salinity units"},
		{"no_unit", "no_unit", ""},
		{"weird [bracket", "weird [bracket", ""},
		{"[degC]", "[degC]", ""},
		{"name [a[b]]", "name [a", "b]"},
	}
	for _, c := range cases {
		name, unit := splitNameUnit(c.in)
		if name != c.name || unit != c.unit {
			t.Errorf("splitNameUnit(%q) = %q, %q; want %q, %q", c.in, name, unit, c.name, c.unit)
		}
	}
}

func TestValueRangesWithinTypical(t *testing.T) {
	root, m := genArchive(t, 9, 23)
	res, err := scanAll(New(Config{Root: root}))
	if err != nil {
		t.Fatal(err)
	}
	truth := m.ByPath()
	for _, f := range res.Features {
		d := truth[filepath.ToSlash(f.Path)]
		for i, v := range f.Variables {
			if v.Count == 0 {
				continue
			}
			if v.Range.Min > v.Range.Max {
				t.Errorf("%s %q: inverted range %v", f.Path, v.RawName, v.Range)
			}
			_ = d
			_ = i
		}
	}
}

func TestSourceOf(t *testing.T) {
	if got := sourceOf("stations/2010/a.csv"); got != "stations" {
		t.Errorf("sourceOf = %q", got)
	}
	if got := sourceOf("orphan.csv"); got != "unknown" {
		t.Errorf("sourceOf root file = %q", got)
	}
}

func TestParseErrorsAreDescriptive(t *testing.T) {
	root := t.TempDir()
	sub := filepath.Join(root, "stations")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"short.csv":      "time,latitude\n", // header too short
		"badtime.csv":    "time,latitude,longitude,x\nnot-a-time,1,2,3\n",
		"badcoord.csv":   "time,latitude,longitude,x\n2010-06-01T00:00:00Z,abc,2,3\n",
		"nofields.obs":   "#lat: 1\n#lon: 2\n5 6\n",
		"noheader.jsonl": `{"type":"obs","values":[1]}` + "\n",
	}
	for name, content := range cases {
		path := filepath.Join(sub, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	res, err := scanAll(New(Config{Root: root}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != len(cases) {
		t.Fatalf("errors = %d, want %d: %v", len(res.Errors), len(cases), res.Errors)
	}
	for _, e := range res.Errors {
		if !strings.Contains(e.Error(), "scan:") {
			t.Errorf("error lacks package prefix: %v", e)
		}
	}
}

func BenchmarkScanArchive30(b *testing.B) {
	root, _ := genArchive(b, 30, 99)
	cfg := Config{Root: root}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := scanAll(New(cfg))
		if err != nil || len(res.Errors) > 0 {
			b.Fatalf("%v %v", err, res.Errors)
		}
	}
}

func TestScanDeltaClassification(t *testing.T) {
	root, m := genArchive(t, 10, 31)
	c := catalog.NewWorking()
	sc := New(Config{Root: root})
	res1, err := sc.ScanInto(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Added) != len(m.Datasets) || len(res1.Changed) != 0 || len(res1.Removed) != 0 {
		t.Fatalf("initial delta: added=%d changed=%d removed=%d",
			len(res1.Added), len(res1.Changed), len(res1.Removed))
	}

	// One modify, one delete, one add.
	modTarget := filepath.Join(root, m.Datasets[0].Path)
	data, err := os.ReadFile(modTarget)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(modTarget, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	delTarget := filepath.Join(root, m.Datasets[1].Path)
	if err := os.Remove(delTarget); err != nil {
		t.Fatal(err)
	}
	added := filepath.Join(root, "stations", "fresh.obs")
	if err := os.WriteFile(added, []byte("#station: s9\n#lat: 45.1\n#lon: -124.2\n#fields:\ttime\twater_temperature [degC]\n1273000000\t11.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	res2, err := sc.ScanInto(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Added) != 1 || res2.Added[0] != catalog.IDForPath(filepath.Join("stations", "fresh.obs")) {
		t.Errorf("added = %v", res2.Added)
	}
	if len(res2.Changed) != 1 || res2.Changed[0] != catalog.IDForPath(m.Datasets[0].Path) {
		t.Errorf("changed = %v", res2.Changed)
	}
	if len(res2.Removed) != 1 || res2.Removed[0] != catalog.IDForPath(m.Datasets[1].Path) {
		t.Errorf("removed = %v", res2.Removed)
	}
	if res2.Stats.Removed != 1 {
		t.Errorf("stats.Removed = %d", res2.Stats.Removed)
	}
	// The catalog reflects the delta: deleted gone, added present.
	if _, ok := c.Get(catalog.IDForPath(m.Datasets[1].Path)); ok {
		t.Error("deleted dataset still cataloged")
	}
	if _, ok := c.Get(catalog.IDForPath(filepath.Join("stations", "fresh.obs"))); !ok {
		t.Error("added dataset not cataloged")
	}
}

func TestScanRemovalRespectsDirScope(t *testing.T) {
	root, m := genArchive(t, 12, 7)
	c := catalog.NewWorking()
	if _, err := New(Config{Root: root}).ScanInto(c); err != nil {
		t.Fatal(err)
	}
	// Re-scan only "stations": features from other dirs are out of
	// scope and must not be reported (or deleted) as removed.
	res, err := New(Config{Root: root, Dirs: []string{"stations"}}).ScanInto(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Removed) != 0 {
		t.Fatalf("scoped scan removed %v", res.Removed)
	}
	if c.Len() != len(m.Datasets) {
		t.Fatalf("catalog shrank to %d, want %d", c.Len(), len(m.Datasets))
	}
}

// TestScanRemovalUncleanDirs: a Dirs entry is a directory however it is
// written — "stations/" and "./stations" retract a deleted file there as
// "stations" does, and nothing outside it.
func TestScanRemovalUncleanDirs(t *testing.T) {
	for _, dir := range []string{"stations", "stations/", "./stations", "stations/../stations"} {
		t.Run(dir, func(t *testing.T) {
			root, m := genArchive(t, 12, 7)
			c := catalog.NewWorking()
			if _, err := New(Config{Root: root}).ScanInto(c); err != nil {
				t.Fatal(err)
			}
			var victim string
			for _, d := range m.Datasets {
				if strings.HasPrefix(d.Path, "stations/") {
					victim = filepath.FromSlash(d.Path)
				}
			}
			if err := os.Remove(filepath.Join(root, victim)); err != nil {
				t.Fatal(err)
			}
			res, err := New(Config{Root: root, Dirs: []string{dir}}).ScanInto(c)
			if err != nil {
				t.Fatal(err)
			}
			if want := []string{catalog.IDForPath(victim)}; !reflect.DeepEqual(res.Removed, want) {
				t.Fatalf("removed %v, want %v", res.Removed, want)
			}
			if c.Len() != len(m.Datasets)-1 {
				t.Fatalf("catalog holds %d, want %d", c.Len(), len(m.Datasets)-1)
			}
		})
	}
}

func TestScanCatchesMtimePreservingEdit(t *testing.T) {
	root, _ := genArchive(t, 6, 11)
	// A handcrafted dataset whose edit we fully control: both versions
	// are valid OBS with identical byte length, differing only in an
	// observed value.
	rel := filepath.Join("stations", "pinned.obs")
	target := filepath.Join(root, rel)
	body := func(v int) string {
		return "#station: pin\n#lat: 45.1000\n#lon: -124.2000\n" +
			"#fields:\ttime\twater_temperature [degC]\n" +
			"1273000000\t1" + string(rune('0'+v)) + ".5\n"
	}
	if err := os.WriteFile(target, []byte(body(1)), 0o644); err != nil {
		t.Fatal(err)
	}
	c := catalog.NewWorking()
	sc := New(Config{Root: root})
	if res, err := sc.ScanInto(c); err != nil || res.Stats.Failed != 0 {
		t.Fatalf("initial scan: err=%v stats=%+v errors=%v", err, res.Stats, res.Errors)
	}

	// Edit the value, then restore the exact size and mtime: the stat
	// fingerprint is a lie only the content hash can expose.
	st, err := os.Stat(target)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(target, []byte(body(2)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(target, st.ModTime(), st.ModTime()); err != nil {
		t.Fatal(err)
	}

	res, err := sc.ScanInto(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changed) != 1 || res.Changed[0] != catalog.IDForPath(rel) {
		t.Fatalf("mtime-preserving edit not caught: changed=%v stats=%+v errors=%v", res.Changed, res.Stats, res.Errors)
	}
	f, ok := c.Get(catalog.IDForPath(rel))
	if !ok || f.Variables[0].Range.Max < 12 {
		t.Fatalf("edited value not reflected in catalog: %+v", f)
	}
}

func TestScanHashVerifyStampsThenTrustsStat(t *testing.T) {
	root, m := genArchive(t, 5, 19)
	c := catalog.NewWorking()
	sc := New(Config{Root: root})
	if _, err := sc.ScanInto(c); err != nil {
		t.Fatal(err)
	}
	// Files were written moments before the scan, inside the racy
	// window: the first re-scan must verify them by content hash.
	res2, err := sc.ScanInto(c)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.HashVerified != len(m.Datasets) || res2.Stats.SkippedUnchanged != len(m.Datasets) {
		t.Fatalf("first rescan: %+v", res2.Stats)
	}
	// The verify refreshed the scan stamps; with mtimes now safely in
	// the past, the next re-scan trusts the stat fingerprint alone.
	sc.now = func() time.Time { return time.Now().Add(time.Minute) }
	res3, err := sc.ScanInto(c)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Stats.HashVerified != len(m.Datasets) {
		// Stamps were refreshed at "now"; mtime + racyWindow precedes
		// them only after the clock moves past the window.
		t.Logf("second rescan still verifying: %+v", res3.Stats)
	}
	res4, err := sc.ScanInto(c)
	if err != nil {
		t.Fatal(err)
	}
	if res4.Stats.HashVerified != 0 || res4.Stats.SkippedUnchanged != len(m.Datasets) {
		t.Fatalf("stat fingerprint still distrusted: %+v", res4.Stats)
	}
}

func TestScanStatFailureCountsAsFailed(t *testing.T) {
	root, m := genArchive(t, 4, 3)
	// A dangling symlink with a candidate extension stats to an error
	// mid-walk; the scan must record it and carry on.
	if err := os.Symlink(filepath.Join(root, "nowhere.csv"),
		filepath.Join(root, "stations", "dangling.csv")); err != nil {
		t.Fatal(err)
	}
	res, err := scanAll(New(Config{Root: root}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Failed != 1 || len(res.Errors) != 1 {
		t.Fatalf("failed = %d, errors = %v", res.Stats.Failed, res.Errors)
	}
	if !strings.Contains(res.Errors[0].Error(), "stat") {
		t.Errorf("error should name the stat failure: %v", res.Errors[0])
	}
	if len(res.Features) != len(m.Datasets) {
		t.Errorf("good files should still scan: %d, want %d", len(res.Features), len(m.Datasets))
	}
}

func TestScanOversizedSkipCounters(t *testing.T) {
	root, m := genArchive(t, 4, 9)
	big := filepath.Join(root, "stations", "big.csv")
	if err := os.WriteFile(big, []byte("time,latitude,longitude,x\n"+strings.Repeat("1,2,3,4\n", 1<<17)), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := scanAll(New(Config{Root: root, MaxFileBytes: 1 << 19}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SkippedOther != 1 {
		t.Errorf("SkippedOther = %d, want 1 (only the oversized file)", res.Stats.SkippedOther)
	}
	if res.Stats.Parsed != len(m.Datasets) || res.Stats.Failed != 0 {
		t.Errorf("stats = %+v", res.Stats)
	}
	if res.Stats.FilesSeen != len(m.Datasets)+1 {
		t.Errorf("FilesSeen = %d, want %d", res.Stats.FilesSeen, len(m.Datasets)+1)
	}
}

// TestScanParallelMatchesSerial: the batch pipeline hands work out in
// scheduling order but aggregates in walk order, so a scan's whole
// Result — features, delta classification, errors and their order,
// counters — is the same at any worker count. The archive has every
// kind of candidate: parsed, trusted-unchanged, hash-verified, corrupt,
// oversized, dangling, vanished, plus overlapping Dirs and a subtree the
// walk cannot read.
func TestScanParallelMatchesSerial(t *testing.T) {
	root, m := genArchive(t, 150, 77) // > maxBatch files per directory
	dirs := []string{"stations", ".", "cruises", "stations", filepath.Join("auv", "gone")}
	scanWith := func(workers int, c *catalog.Working) *Result {
		t.Helper()
		sc := New(Config{Root: root, Dirs: dirs, Workers: workers, MaxFileBytes: 1 << 19})
		sc.now = func() time.Time { return time.Unix(2e9, 0) } // ScannedAt is a clock read
		res, err := sc.ScanInto(c)
		if err != nil {
			t.Fatal(err)
		}
		res.Stats.Duration = 0
		return res
	}
	write := func(rel, body string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(filepath.Join(root, rel)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, rel), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	const tiny = "time,latitude,longitude,x\n2010-05-01T00:00:00Z,1,2,3\n"
	write(filepath.Join("auv", "gone", "kept.csv"), tiny)
	base := catalog.NewWorking()
	scanWith(1, base)

	// auv/gone stops being walkable (its own Dirs entry errors at its
	// root), so kept.csv is unreached, not removed; cruises/locked is
	// unreadable to anyone but root.
	if err := os.Rename(filepath.Join(root, "auv", "gone"), filepath.Join(t.TempDir(), "gone")); err != nil {
		t.Fatal(err)
	}
	write(filepath.Join("stations", "corrupt.obs"), "#fields:\ttemp\nnot-a-number\t1\n")
	write(filepath.Join("cruises", "corrupt.csv"), "time,latitude,longitude,x\n2010-05-01T00:00:00Z,1,2\n")
	write(filepath.Join("auv", "big.csv"), "time,latitude,longitude,x\n"+strings.Repeat("1,2,3,4\n", 1<<17))
	write(filepath.Join("auv", "new.csv"), tiny)
	if err := os.Symlink(filepath.Join(root, "nowhere.csv"), filepath.Join(root, "auv", "dangling.csv")); err != nil {
		t.Fatal(err)
	}
	for i, d := range m.Datasets[:12] {
		path := filepath.Join(root, d.Path)
		switch i % 3 {
		case 0: // rewritten: changed
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			write(d.Path, string(data)+"\n")
		case 1: // vanished: removed
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}
	}
	locked := filepath.Join(root, "cruises", "locked")
	write(filepath.Join("cruises", "locked", "hidden.csv"), tiny)
	if err := os.Chmod(locked, 0); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(locked, 0o755) })

	want := scanWith(1, base.Clone())
	if want.Stats.Parsed == 0 || want.Stats.Removed == 0 || want.Stats.SkippedOther != 1 ||
		want.Stats.SkippedUnchanged == 0 || len(want.Changed) == 0 || len(want.Added) == 0 {
		t.Fatalf("fixture does not exercise every outcome: %+v", want.Stats)
	}
	// auv/gone, corrupt.obs, corrupt.csv, dangling.csv, and for anyone
	// but root cruises/locked.
	if n := len(want.Errors); n != 4 && !(n == 5 && os.Geteuid() != 0) {
		t.Fatalf("%d errors: %v", n, want.Errors)
	}
	if keptID := catalog.IDForPath(filepath.Join("auv", "gone", "kept.csv")); slices.Contains(want.Removed, keptID) {
		t.Fatal("file under an unwalkable dir reported removed")
	}
	for _, workers := range []int{2, 7} {
		got := scanWith(workers, base.Clone())
		if !reflect.DeepEqual(got.Features, want.Features) {
			t.Errorf("workers=%d: features differ", workers)
		}
		if !reflect.DeepEqual(got.Added, want.Added) || !reflect.DeepEqual(got.Changed, want.Changed) ||
			!reflect.DeepEqual(got.Removed, want.Removed) || !reflect.DeepEqual(got.verified, want.verified) {
			t.Errorf("workers=%d: delta differs: +%d ~%d -%d vs +%d ~%d -%d", workers,
				len(got.Added), len(got.Changed), len(got.Removed), len(want.Added), len(want.Changed), len(want.Removed))
		}
		if fmt.Sprint(got.Errors) != fmt.Sprint(want.Errors) {
			t.Errorf("workers=%d: errors differ:\n got %v\nwant %v", workers, got.Errors, want.Errors)
		}
		if got.Stats != want.Stats {
			t.Errorf("workers=%d: stats differ:\n got %+v\nwant %+v", workers, got.Stats, want.Stats)
		}
	}
}

// TestRelUnderMatchesFilepathRel pins the sliced relative path to what
// filepath.Rel derives (cleaned: Rel("arch", ".") is "../."), for the
// shapes WalkDir can hand the scanner.
func TestRelUnderMatchesFilepathRel(t *testing.T) {
	for _, root := range []string{".", "arch", "./arch/", "/", "/data/arch", "/data//arch/", "../arch"} {
		for _, dir := range []string{".", "", "stations", "a/b/", "./a/../b", "..", "../other"} {
			base := filepath.Join(root, dir)
			baseRel, err := filepath.Rel(root, base)
			if err != nil {
				t.Fatal(err)
			}
			baseRel = filepath.Clean(baseRel)
			for _, suffix := range []string{"", "x.csv", "sub/x.csv"} {
				path := filepath.Join(base, suffix)
				want, err := filepath.Rel(root, path)
				if err != nil {
					t.Fatal(err)
				}
				if got := relUnder(base, baseRel, path); got != filepath.Clean(want) {
					t.Errorf("root %q dir %q path %q: %q, want %q", root, dir, path, got, want)
				}
			}
		}
	}
}

func TestWalkErrorDoesNotRetractSubtree(t *testing.T) {
	root, m := genArchive(t, 10, 29)
	c := catalog.NewWorking()
	sc := New(Config{Root: root, Dirs: []string{"stations", "cruises", "auv"}})
	if _, err := sc.ScanInto(c); err != nil {
		t.Fatal(err)
	}
	if c.Len() == 0 {
		t.Fatal("nothing cataloged")
	}
	stations := 0
	for _, d := range m.Datasets {
		if d.Source == "stations" {
			stations++
		}
	}
	if stations == 0 {
		t.Skip("no stations datasets at this seed")
	}

	// Make the "stations" scan dir transiently unavailable (an unmount /
	// NFS blip): the walk errors, its files go unobserved, and deletion
	// detection must NOT retract the datasets cataloged beneath it.
	hidden := filepath.Join(t.TempDir(), "stations")
	if err := os.Rename(filepath.Join(root, "stations"), hidden); err != nil {
		t.Fatal(err)
	}
	res, err := sc.ScanInto(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Failed == 0 || len(res.Errors) == 0 {
		t.Fatalf("walk error not recorded: %+v", res.Stats)
	}
	if len(res.Removed) != 0 {
		t.Fatalf("walk error retracted %d datasets: %v", len(res.Removed), res.Removed)
	}
	if c.Len() != len(m.Datasets) {
		t.Fatalf("catalog shrank to %d, want %d", c.Len(), len(m.Datasets))
	}

	// The blip clears; a real deletion inside the restored directory is
	// detected again.
	if err := os.Rename(hidden, filepath.Join(root, "stations")); err != nil {
		t.Fatal(err)
	}
	victim := ""
	for _, d := range m.Datasets {
		if d.Source == "stations" {
			victim = d.Path
			break
		}
	}
	if err := os.Remove(filepath.Join(root, victim)); err != nil {
		t.Fatal(err)
	}
	res, err = sc.ScanInto(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Removed) != 1 || res.Removed[0] != catalog.IDForPath(victim) {
		t.Fatalf("post-recovery removal not detected: %v (stats %+v)", res.Removed, res.Stats)
	}
}

// TestRootWalkErrorSuppressesAllRemovals covers total transient loss:
// every configured scan directory fails at the root of its walk (an
// unmounted archive), so nothing at all is observed — and nothing may
// be retracted.
func TestRootWalkErrorSuppressesAllRemovals(t *testing.T) {
	root, m := genArchive(t, 6, 37)
	c := catalog.NewWorking()
	sc2 := New(Config{Root: root, Dirs: []string{"stations", "cruises", "auv"}})
	if _, err := sc2.ScanInto(c); err != nil {
		t.Fatal(err)
	}
	// Swap every scan dir away: all three walks error at their roots,
	// nothing is seen, and not a single dataset may be retracted.
	hidden := t.TempDir()
	for _, d := range []string{"stations", "cruises", "auv"} {
		if err := os.Rename(filepath.Join(root, d), filepath.Join(hidden, d)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sc2.ScanInto(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Removed) != 0 {
		t.Fatalf("transient dir loss retracted %d datasets: %v", len(res.Removed), res.Removed)
	}
	if c.Len() != len(m.Datasets) {
		t.Fatalf("catalog shrank to %d, want %d", c.Len(), len(m.Datasets))
	}
	if res.Stats.Failed == 0 {
		t.Fatal("walk errors not recorded")
	}
}

func TestRejectedUpsertLeavesDelta(t *testing.T) {
	root, m := genArchive(t, 4, 13)
	// Parses fine but fails Feature.Validate (duplicate raw name), so
	// Upsert rejects it: the scan must surface the error without
	// keeping the delta permanently non-empty.
	bad := filepath.Join(root, "stations", "dupes.csv")
	if err := os.WriteFile(bad,
		[]byte("time,latitude,longitude,temp [degC],temp [degC]\n2010-05-01T00:00:00Z,45.1,-124.2,10.0,11.0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := catalog.NewWorking()
	sc := New(Config{Root: root})
	res, err := sc.ScanInto(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Failed == 0 {
		t.Skip("fixture unexpectedly validated; scan rejected nothing")
	}
	badID := catalog.IDForPath(filepath.Join("stations", "dupes.csv"))
	for _, id := range res.Added {
		if id == badID {
			t.Error("rejected feature still classified as added")
		}
	}
	if c.Len() != len(m.Datasets) {
		t.Errorf("catalog = %d datasets, want %d", c.Len(), len(m.Datasets))
	}
	// The rest of the archive being unchanged, the next scan's delta is
	// empty even though the bad file re-parses and re-fails.
	res2, err := sc.ScanInto(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Added)+len(res2.Changed)+len(res2.Removed) != 0 {
		t.Errorf("rejected file keeps the delta non-empty: added=%v changed=%v removed=%v",
			res2.Added, res2.Changed, res2.Removed)
	}
	if res2.Stats.Failed == 0 {
		t.Error("persistent failure not re-surfaced")
	}
}

// scanAll walks the configured directories and parses every candidate
// file, against no catalog ("scan once").
func scanAll(s *Scanner) (*Result, error) { return s.walk(nil, false) }
