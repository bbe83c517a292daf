package scan

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"metamess/internal/catalog"
)

// appendEvent appends one inotify event as read(2) returns it, its name
// followed by pad NUL bytes.
func appendEvent(buf []byte, wd int32, mask uint32, name string, pad int) []byte {
	var hdr [eventHeader]byte
	binary.NativeEndian.PutUint32(hdr[0:], uint32(wd))
	binary.NativeEndian.PutUint32(hdr[4:], mask)
	binary.NativeEndian.PutUint32(hdr[12:], uint32(len(name)+pad))
	buf = append(buf, hdr[:]...)
	buf = append(buf, name...)
	return append(buf, make([]byte, pad)...)
}

func TestDecodeEvents(t *testing.T) {
	var buf []byte
	buf = appendEvent(buf, 1, inModify, "a.csv", 11) // padded to 16
	buf = appendEvent(buf, 2, inCreate|inIsDir, "sub", 1)
	buf = appendEvent(buf, 1, inAttrib, "", 0) // the watched directory itself
	buf = appendEvent(buf, -1, inQOverflow, "", 0)
	buf = appendEvent(buf, 3, inIgnored, "", 0)
	buf = appendEvent(buf, 1, inCloseWrite, "b.obs", 27)
	var got []event
	if err := decodeEvents(buf, func(e event) { got = append(got, e) }); err != nil {
		t.Fatal(err)
	}
	want := []event{
		{1, inModify, "a.csv"}, {2, inCreate | inIsDir, "sub"}, {1, inAttrib, ""},
		{-1, inQOverflow, ""}, {3, inIgnored, ""}, {1, inCloseWrite, "b.obs"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v\nwant %+v", got, want)
	}
	for _, n := range []int{eventHeader - 1, eventHeader + 3} {
		if err := decodeEvents(buf[:n], func(event) {}); err == nil {
			t.Errorf("a buffer torn at byte %d decoded", n)
		}
	}
}

// TestFeedEventClassification: a file event dirties its path; anything
// that can change the set of directories, or that loses events, asks
// for a walk.
func TestFeedEventClassification(t *testing.T) {
	f := &feed{dirs: map[int32]string{1: ".", 2: filepath.Join("stations", "2010")}}
	sep := string(filepath.Separator)
	for _, tc := range []struct {
		e      event
		reason string
		path   string
	}{
		{event{1, inModify, "manifest.json"}, "", "manifest.json"},
		{event{2, inCloseWrite, "x.obs"}, "", "stations" + sep + "2010" + sep + "x.obs"},
		{event{2, inMovedTo, "y.obs"}, "", "stations" + sep + "2010" + sep + "y.obs"},
		{event{2, inAttrib, "x.obs"}, "", "stations" + sep + "2010" + sep + "x.obs"},
		{event{-1, inQOverflow, ""}, walkOverflow, ""},
		{event{2, inIgnored, ""}, walkDirEvent, ""},
		{event{2, inDeleteSelf, ""}, walkDirEvent, ""},
		{event{1, inMoveSelf, ""}, walkDirEvent, ""},
		{event{1, inCreate | inIsDir, "new"}, walkDirEvent, ""},
		{event{1, inMovedFrom | inIsDir, "old"}, walkDirEvent, ""},
		{event{1, inAttrib, ""}, walkDirEvent, ""},
		{event{9, inModify, "z.csv"}, walkDirEvent, ""}, // unknown watch
	} {
		dirty := map[string]bool{}
		if got := f.apply(tc.e, dirty); got != tc.reason {
			t.Errorf("%+v: reason %q, want %q", tc.e, got, tc.reason)
		}
		if tc.path != "" && !dirty[tc.path] || tc.path == "" && len(dirty) != 0 {
			t.Errorf("%+v: dirty %v, want %q", tc.e, dirty, tc.path)
		}
	}
}

func TestWalkCompareMatchesWalkDir(t *testing.T) {
	root := t.TempDir()
	for _, rel := range []string{"a.csv", "a/b.csv", "a-b.csv", "a.b/c.csv", "ab/c.csv", "a/b/c.csv", "a/a.csv", "b.csv", "B.csv"} {
		if err := os.MkdirAll(filepath.Join(root, filepath.Dir(rel)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, rel), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var walked []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			walked = append(walked, relUnder(root, ".", path))
		}
		return nil
	})
	for i := range walked {
		for j := range walked {
			if got, want := walkCompare(walked[i], walked[j]), cmpInt(i, j); got != want {
				t.Errorf("walkCompare(%q, %q) = %d, want %d", walked[i], walked[j], got, want)
			}
		}
	}
}

func cmpInt(a, b int) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// requireFeedAvailable skips a test where no change feed can open.
func requireFeedAvailable(t *testing.T) {
	t.Helper()
	fd, err := openInotify()
	if err != nil {
		t.Skipf("no change feed: %v", err)
	}
	fd.close()
}

// requireSameScan holds a scan through the feed to the walk: equal in
// every field but Duration and FullWalk.
func requireSameScan(t *testing.T, label string, got, want *Result) {
	t.Helper()
	gs, ws := got.Stats, want.Stats
	gs.Duration, ws.Duration, gs.FullWalk, ws.FullWalk = 0, 0, false, false
	if gs != ws {
		t.Fatalf("%s: stats differ:\n got %+v\nwant %+v", label, gs, ws)
	}
	if !reflect.DeepEqual(got.Features, want.Features) {
		t.Fatalf("%s: features differ", label)
	}
	for _, l := range []struct {
		name      string
		got, want []string
	}{{"added", got.Added, want.Added}, {"changed", got.Changed, want.Changed}, {"removed", got.Removed, want.Removed}, {"verified", got.verified, want.verified}} {
		if !reflect.DeepEqual(l.got, l.want) {
			t.Fatalf("%s: %s %v, want %v", label, l.name, l.got, l.want)
		}
	}
	if fmt.Sprint(got.Errors) != fmt.Sprint(want.Errors) {
		t.Fatalf("%s: errors differ:\n got %v\nwant %v", label, got.Errors, want.Errors)
	}
}

// TestFeedScanMatchesWalk is the feed's oracle property: over seeded
// random archive operations — edits, mtime moves, same-size edits with
// the mtime restored, adds, removes, renames, new and removed
// subdirectories, a scanned directory that goes and comes back, an
// unreadable subtree, corrupt, oversized and symlinked candidates,
// writes through a symlinked directory, a file whose mtime is in the
// future, and catalog edits between scans — every scan of one
// long-lived scanner equals a fresh scanner's walk of the same catalog,
// Result and resulting catalog alike. Half the seeds scan named
// directories, some of them written unclean.
func TestFeedScanMatchesWalk(t *testing.T) {
	requireFeedAvailable(t)
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			root, m := genArchive(t, 40, seed)
			past := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
			tick := 0
			stamp := func(rel string) {
				t.Helper()
				tick++
				at := past.Add(time.Duration(tick) * time.Second)
				if err := os.Chtimes(filepath.Join(root, rel), at, at); err != nil {
					t.Fatal(err)
				}
			}
			// A long-lived archive's files are old: the walk trusts their
			// stat, and only the racy ones are read every scan.
			for _, d := range m.Datasets {
				stamp(d.Path)
			}
			cfg := Config{Root: root, MaxFileBytes: 1 << 16, Workers: 2}
			switch seed % 4 {
			case 1:
				cfg.Dirs = []string{"stations", ".", "cruises"}
			case 3:
				cfg.Dirs = []string{"stations/", "./cruises"}
			}
			write := func(rel string, data []byte) {
				t.Helper()
				if err := os.MkdirAll(filepath.Join(root, filepath.Dir(rel)), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(root, rel), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			files := func() []string {
				var out []string
				filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
					if err == nil && d.Type().IsRegular() && !strings.HasSuffix(path, ".json") {
						out = append(out, relUnder(root, ".", path))
					}
					return nil
				})
				return out
			}
			pick := func() string {
				fs := files()
				return fs[rng.Intn(len(fs))]
			}
			read := func(rel string) []byte {
				t.Helper()
				data, err := os.ReadFile(filepath.Join(root, rel))
				if err != nil {
					t.Fatal(err)
				}
				return data
			}
			trap := filepath.Join("stations", "trap.obs")
			trapAt := time.Now().Add(time.Hour).Truncate(time.Second)
			writeTrap := func(v int) {
				write(trap, []byte(fmt.Sprintf("#station: trap\n#lat: 45.1000\n#lon: -124.2000\n#fields:\ttime\twater_temperature [degC]\n1273000000\t1%d.5\n", v%10)))
				if err := os.Chtimes(filepath.Join(root, trap), trapAt, trapAt); err != nil {
					t.Fatal(err)
				}
			}
			writeTrap(0)

			cat := catalog.NewWorking()
			sc := New(cfg)
			var subdirs []string
			locked, hidden := "", ""
			n := 0
			ops := []func(){
				func() { // edit: grow by a repeated line
					rel := pick()
					data := bytes.TrimRight(read(rel), "\n")
					i := bytes.LastIndexByte(data, '\n')
					write(rel, append(append(data, data[i:]...), '\n'))
					stamp(rel)
				},
				func() { stamp(pick()) }, // a mtime moves, the bytes do not
				func() { // same size, same mtime, new bytes: only a racy fingerprint can tell
					rel := pick()
					st, err := os.Stat(filepath.Join(root, rel))
					if err != nil {
						t.Fatal(err)
					}
					data := read(rel)
					for i := len(data) - 1; i >= 0; i-- {
						if data[i] >= '0' && data[i] <= '8' {
							data[i]++
							break
						}
					}
					write(rel, data)
					if err := os.Chtimes(filepath.Join(root, rel), st.ModTime(), st.ModTime()); err != nil {
						t.Fatal(err)
					}
				},
				func() { // add a copy beside its source
					src := pick()
					n++
					rel := filepath.Join(filepath.Dir(src), fmt.Sprintf("add-%d%s", n, filepath.Ext(src)))
					write(rel, read(src))
					stamp(rel)
				},
				func() { // remove
					if err := os.Remove(filepath.Join(root, pick())); err != nil {
						t.Fatal(err)
					}
				},
				func() { // rename, maybe into another directory
					src, dst := pick(), pick()
					n++
					rel := filepath.Join(filepath.Dir(dst), fmt.Sprintf("moved-%d%s", n, filepath.Ext(src)))
					if err := os.Rename(filepath.Join(root, src), filepath.Join(root, rel)); err != nil {
						t.Fatal(err)
					}
				},
				func() { // a new subdirectory with files
					n++
					dir := filepath.Join("cruises", fmt.Sprintf("sub-%d", n))
					for k := 0; k < 2; k++ {
						rel := filepath.Join(dir, fmt.Sprintf("f%d.csv", k))
						write(rel, read(pick()))
						stamp(rel)
					}
					subdirs = append(subdirs, dir)
				},
				func() { // a subdirectory goes
					if len(subdirs) == 0 || subdirs[0] == locked {
						return
					}
					if err := os.RemoveAll(filepath.Join(root, subdirs[0])); err != nil {
						t.Fatal(err)
					}
					subdirs = subdirs[1:]
				},
				func() { // a subtree turns unreadable, or readable again
					if locked != "" {
						if err := os.Chmod(filepath.Join(root, locked), 0o755); err != nil {
							t.Fatal(err)
						}
						locked = ""
					} else if len(subdirs) > 0 && hidden == "" {
						locked = subdirs[len(subdirs)-1]
						if err := os.Chmod(filepath.Join(root, locked), 0); err != nil {
							t.Fatal(err)
						}
					}
				},
				func() { // corrupt, oversized and symlinked candidates
					n++
					// The walk visits bad-N/x.csv before bad-N.csv: their
					// errors must come out in that order through the feed too.
					bad := []byte("time,latitude,longitude,x\n2010-05-01T00:00:00Z,1,2\n")
					write(filepath.Join("auv", fmt.Sprintf("bad-%d.csv", n)), bad)
					write(filepath.Join("auv", fmt.Sprintf("bad-%d", n), "x.csv"), bad)
					write(filepath.Join("auv", fmt.Sprintf("big-%d.csv", n)), bytes.Repeat([]byte("1,2,3,4\n"), 1<<14))
					if err := os.Symlink(filepath.Join(root, pick()), filepath.Join(root, "stations", fmt.Sprintf("link-%d.obs", n))); err != nil {
						t.Fatal(err)
					}
				},
				func() { // a scanned directory goes away (a walk error where it is a Dirs entry), and later comes back
					cruises := filepath.Join(root, "cruises")
					if hidden == "" && locked == "" {
						hidden = filepath.Join(t.TempDir(), "cruises")
						if err := os.Rename(cruises, hidden); err != nil {
							t.Fatal(err)
						}
					} else if _, err := os.Stat(cruises); hidden != "" && os.IsNotExist(err) {
						if err := os.Rename(hidden, cruises); err != nil {
							t.Fatal(err)
						}
						hidden = ""
					}
				},
				func() { writeTrap(n + rng.Intn(9)) },
				func() { // a catalog edit between scans (a mirrored push): in scope with and without a file, out of scope, a removal
					var fs []*catalog.Feature
					cat.ForEach(func(f *catalog.Feature) { fs = append(fs, f) })
					if len(fs) == 0 {
						return
					}
					n++
					src := fs[rng.Intn(len(fs))].Clone()
					src.Path = []string{filepath.Join("stations", fmt.Sprintf("pushed-%d.obs", n)), filepath.Join("pushed", fmt.Sprintf("p%d.obs", n)), pick()}[rng.Intn(3)]
					src.ID = catalog.IDForPath(src.Path)
					if err := cat.Upsert(src); err != nil {
						t.Fatal(err)
					}
					cat.Delete(fs[rng.Intn(len(fs))].ID)
				},
				func() { // a symlinked directory, and files written through it into the directory it names
					link := filepath.Join(root, "stations", "linkdir")
					if _, err := os.Lstat(link); os.IsNotExist(err) {
						if err := os.Symlink(filepath.Join(root, "auv"), link); err != nil {
							t.Fatal(err)
						}
						return
					}
					n++
					rel := filepath.Join("stations", "linkdir", fmt.Sprintf("via-%d.csv", n))
					write(rel, read(pick()))
					stamp(rel)
				},
			}
			t.Cleanup(func() {
				if locked != "" {
					os.Chmod(filepath.Join(root, locked), 0o755)
				}
				sc.Close()
			})

			followed := 0
			for round := 0; round < 40; round++ {
				if round > 1 {
					for k := 1 + rng.Intn(4); k > 0; k-- {
						ops[rng.Intn(len(ops))]()
					}
				}
				clock := time.Now()
				sc.now = func() time.Time { return clock }
				oracleCat := cat.Clone()
				oracle := New(cfg)
				oracle.now = sc.now
				want, err := oracle.ScanInto(oracleCat)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sc.ScanInto(cat)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("round %d (full walk %v)", round, got.Stats.FullWalk)
				requireSameScan(t, label, got, want)
				if g, w := catalogByPath(cat), catalogByPath(oracleCat); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: catalogs differ", label)
				}
				if !got.Stats.FullWalk {
					followed++
				}
			}
			t.Logf("%d of 40 scans followed the feed", followed)
			if followed < 10 {
				t.Fatalf("only %d of 40 scans followed the feed", followed)
			}
		})
	}
}

// TestFeedScanStatsOnlyTheChurn: once armed, a scan stats the scanned
// directories and what changed, not the archive; the first scan opens
// no feed and the second arms it.
func TestFeedScanStatsOnlyTheChurn(t *testing.T) {
	requireFeedAvailable(t)
	root, m := genArchive(t, 60, 8)
	past := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, d := range m.Datasets {
		if err := os.Chtimes(filepath.Join(root, d.Path), past, past); err != nil {
			t.Fatal(err)
		}
	}
	c := catalog.NewWorking()
	sc := New(Config{Root: root})
	defer sc.Close()
	scan := func() (*Result, uint64) {
		t.Helper()
		before := StatCalls()
		res, err := sc.ScanInto(c)
		if err != nil {
			t.Fatal(err)
		}
		return res, StatCalls() - before
	}
	if res, _ := scan(); !res.Stats.FullWalk || sc.feed != nil {
		t.Fatalf("first scan: full walk %v, feed %v", res.Stats.FullWalk, sc.feed != nil)
	}
	if res, _ := scan(); !res.Stats.FullWalk || sc.feed == nil {
		t.Fatalf("second scan: full walk %v, feed %v", res.Stats.FullWalk, sc.feed != nil)
	}
	res, stats := scan()
	if res.Stats.FullWalk || stats != 2 || res.Stats.SkippedUnchanged != len(m.Datasets) {
		t.Fatalf("quiet scan: full walk %v, %d stat calls, stats %+v", res.Stats.FullWalk, stats, res.Stats)
	}
	for _, d := range m.Datasets[:3] {
		appendLine(t, filepath.Join(root, d.Path))
	}
	res, stats = scan()
	if res.Stats.FullWalk || len(res.Changed) != 3 || stats != 2+3 || res.Stats.FilesSeen != len(m.Datasets) {
		t.Fatalf("3 edits: full walk %v, changed %d, %d stat calls, stats %+v", res.Stats.FullWalk, len(res.Changed), stats, res.Stats)
	}

	// A new directory, the periodic walk and an unannounced catalog edit
	// each make a scan walk.
	if err := os.Mkdir(filepath.Join(root, "stations", "new"), 0o755); err != nil {
		t.Fatal(err)
	}
	if res, _ := scan(); !res.Stats.FullWalk {
		t.Fatal("a new directory did not make the scan walk")
	}
	walks := 0
	for i := 0; i < walkEvery+1; i++ {
		if res, _ := scan(); res.Stats.FullWalk {
			walks++
		}
	}
	if walks != 1 {
		t.Fatalf("%d walks in %d quiet scans, want the one periodic walk", walks, walkEvery+1)
	}
	c.Delete(catalog.IDForPath(m.Datasets[5].Path))
	if res, _ := scan(); !res.Stats.FullWalk || len(res.Added) != 1 {
		t.Fatalf("unannounced catalog edit: full walk %v, added %v", res.Stats.FullWalk, res.Added)
	}

	// Closed, the scanner holds no feed and walks.
	sc.Close()
	if res, _ := scan(); !res.Stats.FullWalk || sc.feed != nil {
		t.Fatal("a closed scanner followed a feed")
	}
}

// appendLine grows a file by a repeated last line and keeps its mtime
// far in the past.
func appendLine(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.TrimRight(data, "\n")
	i := bytes.LastIndexByte(data, '\n')
	if err := os.WriteFile(path, append(append(data, data[i:]...), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	at := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := os.Chtimes(path, at, at); err != nil {
		t.Fatal(err)
	}
}
