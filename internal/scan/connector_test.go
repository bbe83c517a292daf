package scan

import (
	"archive/tar"
	"archive/zip"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"metamess/internal/catalog"
)

// Compile-time interface compliance: the walker and every streaming
// connector are interchangeable ingest sources.
var (
	_ Connector = (*Scanner)(nil)
	_ Connector = (*TarConnector)(nil)
	_ Connector = (*ZipConnector)(nil)
	_ Connector = (*HTTPConnector)(nil)
)

// tarArchive packs root's files into a PAX tar image. PAX keeps
// sub-second mtimes, so tar-ingested features carry the same ModTime
// the walker stats.
func tarArchive(t testing.TB, root string) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		hdr, err := tar.FileInfoHeader(info, "")
		if err != nil {
			return err
		}
		hdr.Name = filepath.ToSlash(rel)
		hdr.Format = tar.FormatPAX
		if err := tw.WriteHeader(hdr); err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		_, err = tw.Write(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// zipArchive packs root's files into a zip image.
func zipArchive(t testing.TB, root string) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		hdr := &zip.FileHeader{Name: filepath.ToSlash(rel), Method: zip.Deflate, Modified: info.ModTime()}
		w, err := zw.CreateHeader(hdr)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		_, err = w.Write(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// catalogByPath snapshots a catalog into a path-keyed map of clones.
func catalogByPath(c *catalog.Working) map[string]*catalog.Feature {
	out := make(map[string]*catalog.Feature)
	c.ForEach(func(f *catalog.Feature) {
		out[f.Path] = f.Clone()
	})
	return out
}

// requireSameCatalog asserts two catalogs hold content-equal features
// (ScannedAt aside) for identical path sets.
func requireSameCatalog(t *testing.T, want, got *catalog.Working, label string) {
	t.Helper()
	w, g := catalogByPath(want), catalogByPath(got)
	if len(w) != len(g) {
		t.Fatalf("%s: %d features, want %d", label, len(g), len(w))
	}
	for p, wf := range w {
		gf, ok := g[p]
		if !ok {
			t.Fatalf("%s: missing %s", label, p)
		}
		if !wf.ContentEquals(gf) {
			wj, _ := json.Marshal(wf)
			gj, _ := json.Marshal(gf)
			t.Fatalf("%s: %s differs:\nwalker %s\n%s %s", label, p, wj, label, gj)
		}
	}
}

func TestTarConnectorMatchesWalker(t *testing.T) {
	root, _ := genArchive(t, 12, 5)
	walked := catalog.NewWorking()
	wres, err := New(Config{Root: root}).ScanInto(walked)
	if err != nil {
		t.Fatal(err)
	}
	if len(wres.Errors) != 0 {
		t.Fatalf("walker errors: %v", wres.Errors)
	}

	image := tarArchive(t, root)
	tarred := catalog.NewWorking()
	tres, err := tarBytesConnector(image).ScanInto(tarred)
	if err != nil {
		t.Fatal(err)
	}
	if len(tres.Errors) != 0 {
		t.Fatalf("tar errors: %v", tres.Errors)
	}
	if len(tres.Added) != len(wres.Added) || len(tres.Changed) != 0 {
		t.Errorf("tar delta added=%d changed=%d, walker added=%d", len(tres.Added), len(tres.Changed), len(wres.Added))
	}
	requireSameCatalog(t, walked, tarred, "tar")

	// The gzip-compressed stream is detected by magic bytes and yields
	// the identical catalog.
	var gzBuf bytes.Buffer
	gz := gzip.NewWriter(&gzBuf)
	if _, err := gz.Write(image); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	gzipped := catalog.NewWorking()
	if _, err := tarBytesConnector(gzBuf.Bytes()).ScanInto(gzipped); err != nil {
		t.Fatal(err)
	}
	requireSameCatalog(t, walked, gzipped, "tar.gz")
}

func TestZipConnectorMatchesWalker(t *testing.T) {
	root, _ := genArchive(t, 9, 11)
	// Zip timestamps carry second precision; align the fixture so the
	// walker's stat mtime and the zip entry mtime agree exactly.
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		sec := info.ModTime().Truncate(time.Second)
		return os.Chtimes(path, sec, sec)
	})
	if err != nil {
		t.Fatal(err)
	}
	walked := catalog.NewWorking()
	if _, err := New(Config{Root: root}).ScanInto(walked); err != nil {
		t.Fatal(err)
	}
	zipped := catalog.NewWorking()
	res, err := zipBytesConnector(zipArchive(t, root)).ScanInto(zipped)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("zip errors: %v", res.Errors)
	}
	requireSameCatalog(t, walked, zipped, "zip")
}

func TestTarConnectorIncremental(t *testing.T) {
	root, m := genArchive(t, 9, 23)
	image := tarArchive(t, root)
	c := catalog.NewWorking()
	if _, err := tarBytesConnector(image).ScanInto(c); err != nil {
		t.Fatal(err)
	}
	n := c.Len()
	gen := c.Generation()

	// Re-ingesting the identical stream is a hash-skip for every entry:
	// no churn, no generation movement.
	res, err := tarBytesConnector(image).ScanInto(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Added)+len(res.Changed)+len(res.Removed) != 0 {
		t.Fatalf("identical stream produced churn: %+v", res.Stats)
	}
	if res.Stats.SkippedUnchanged != n || res.Stats.Parsed != 0 {
		t.Errorf("stats = %+v, want %d unchanged skips", res.Stats, n)
	}
	if c.Generation() != gen {
		t.Errorf("generation moved on no-op re-ingest: %d -> %d", gen, c.Generation())
	}

	// A stream missing one dataset retracts exactly that dataset.
	victim := m.Datasets[0].Path
	var pruned bytes.Buffer
	tw := tar.NewWriter(&pruned)
	tr := tar.NewReader(bytes.NewReader(image))
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if filepath.ToSlash(hdr.Name) == victim {
			continue
		}
		if err := tw.WriteHeader(hdr); err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(tw, tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	res, err = tarBytesConnector(pruned.Bytes()).ScanInto(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Removed) != 1 || res.Removed[0] != catalog.IDForPath(victim) {
		t.Fatalf("removed = %v, want exactly %s", res.Removed, victim)
	}
	if c.Len() != n-1 {
		t.Errorf("catalog size %d after removal, want %d", c.Len(), n-1)
	}
}

func TestIngesterBoundsAndHostileNames(t *testing.T) {
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	add := func(name string, data []byte) {
		t.Helper()
		if err := tw.WriteHeader(&tar.Header{Name: name, Size: int64(len(data)), Mode: 0o644, Format: tar.FormatPAX}); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write(data); err != nil {
			t.Fatal(err)
		}
	}
	good := []byte("time,latitude,longitude,temp [C]\n2010-06-01T00:00:00Z,45.5,-124.4,11.2\n")
	add("push/good.csv", good)
	add("../escape.csv", good)
	add("/abs/rooted.csv", good)
	add("push/huge.csv", bytes.Repeat([]byte("a,b,c\n"), 64))
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	c := catalog.NewWorking()
	conn := tarBytesConnector(buf.Bytes())
	conn.MaxFileBytes = 128 // huge.csv (384 bytes) must be skipped, not buffered
	res, err := conn.ScanInto(c)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("catalog holds %d features, want only push/good.csv", c.Len())
	}
	if _, ok := c.Get(catalog.IDForPath("push/good.csv")); !ok {
		t.Error("good entry not ingested")
	}
	if res.Stats.SkippedOther != 1 {
		t.Errorf("oversize entry not skipped: %+v", res.Stats)
	}
}

func TestHTTPConnectorMatchesWalkerAndSkipsByHash(t *testing.T) {
	root, _ := genArchive(t, 9, 31)
	type object struct {
		rel  string
		data []byte
		mod  time.Time
	}
	var objects []object
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		objects = append(objects, object{rel: filepath.ToSlash(rel), data: data, mod: info.ModTime()})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var fetches atomic.Int64
	advertiseHashes := false
	mux := http.NewServeMux()
	mux.HandleFunc("/list", func(w http.ResponseWriter, r *http.Request) {
		var l HTTPListing
		for _, o := range objects {
			obj := HTTPObject{Path: o.rel, URL: "/obj/" + o.rel, Size: int64(len(o.data)), ModTime: o.mod}
			if advertiseHashes {
				obj.ContentHash = contentHash(o.data)
			}
			l.Objects = append(l.Objects, obj)
		}
		json.NewEncoder(w).Encode(l)
	})
	mux.HandleFunc("/obj/", func(w http.ResponseWriter, r *http.Request) {
		fetches.Add(1)
		rel := strings.TrimPrefix(r.URL.Path, "/obj/")
		for _, o := range objects {
			if o.rel == rel {
				w.Write(o.data)
				return
			}
		}
		http.NotFound(w, r)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	walked := catalog.NewWorking()
	if _, err := New(Config{Root: root}).ScanInto(walked); err != nil {
		t.Fatal(err)
	}
	conn := &HTTPConnector{ListURL: srv.URL + "/list", Client: srv.Client()}
	fetched := catalog.NewWorking()
	res, err := conn.ScanInto(fetched)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("http errors: %v", res.Errors)
	}
	requireSameCatalog(t, walked, fetched, "http")
	// Only parseable objects are worth a fetch; a README in the listing
	// costs nothing.
	var datasets int64
	for _, o := range objects {
		switch strings.ToLower(filepath.Ext(o.rel)) {
		case ".csv", ".obs", ".jsonl":
			datasets++
		}
	}
	if got := fetches.Load(); got != datasets {
		t.Errorf("cold scan fetched %d objects, want %d", got, datasets)
	}

	// A hash-advertising listing resolves every unchanged check from the
	// listing alone: the rescan performs zero object fetches.
	advertiseHashes = true
	fetches.Store(0)
	res, err = conn.ScanInto(fetched)
	if err != nil {
		t.Fatal(err)
	}
	if got := fetches.Load(); got != 0 {
		t.Errorf("hash-advertised rescan fetched %d objects, want 0", got)
	}
	if len(res.Added)+len(res.Changed)+len(res.Removed) != 0 {
		t.Errorf("hash-advertised rescan produced churn: %+v", res.Stats)
	}
}

func TestTarConnectorTruncatedStreamAborts(t *testing.T) {
	root, _ := genArchive(t, 6, 41)
	image := tarArchive(t, root)
	c := catalog.NewWorking()
	if _, err := tarBytesConnector(image).ScanInto(c); err != nil {
		t.Fatal(err)
	}
	n := c.Len()
	// A connection dropped mid-archive must abort the scan — a half-read
	// stream must not masquerade as one with most datasets removed.
	if _, err := tarBytesConnector(image[:len(image)/3]).ScanInto(c); err == nil {
		t.Fatal("truncated stream accepted")
	}
	if c.Len() != n {
		t.Errorf("truncated stream mutated the catalog: %d -> %d", n, c.Len())
	}
}

func TestConnectorNames(t *testing.T) {
	for _, tc := range []struct {
		conn Connector
		want string
	}{
		{New(Config{Root: "."}), "walker"},
		{tarBytesConnector(nil), "tar"},
		{zipBytesConnector(nil), "zip"},
		{&HTTPConnector{}, "http"},
	} {
		if got := tc.conn.Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}
}

func TestStatCallsCounter(t *testing.T) {
	root, _ := genArchive(t, 6, 51)
	before := StatCalls()
	if _, err := scanAll(New(Config{Root: root})); err != nil {
		t.Fatal(err)
	}
	if StatCalls() == before {
		t.Error("walker scan did not move the stat counter")
	}
	// Streaming ingest never touches the filesystem.
	image := tarArchive(t, root)
	before = StatCalls()
	if _, err := tarBytesConnector(image).ScanInto(catalog.NewWorking()); err != nil {
		t.Fatal(err)
	}
	if got := StatCalls(); got != before {
		t.Errorf("tar ingest performed %d stat calls", got-before)
	}
}

// tarBytesConnector ingests an in-memory tar (or tar.gz) image.
func tarBytesConnector(data []byte) *TarConnector {
	return &TarConnector{Open: func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(data)), nil
	}}
}

// zipBytesConnector ingests an in-memory zip image.
func zipBytesConnector(data []byte) *ZipConnector {
	return &ZipConnector{ReaderAt: bytes.NewReader(data), Size: int64(len(data))}
}
