package metamess

import (
	"archive/tar"
	"bytes"
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"metamess/internal/archive"
	"metamess/internal/catalog"
	"metamess/internal/scan"
)

// The ingest-equivalence property: the same logical archive content,
// delivered through any connector (filesystem walker, streaming tar,
// HTTP object listing) or pushed feature-by-feature through the publish
// path, must produce byte-identical published catalogs and search
// rankings. The reference is the linear-scan oracle — an unsharded,
// full-reprocess walker system — so the test simultaneously pins the
// sharded walker, both streaming connectors, and push ingest to one
// ground truth.

// tarOfDir packs a directory into a PAX tar image, preserving exact
// (sub-second) mtimes so streamed features carry the same ModTime the
// walker stats.
func tarOfDir(t *testing.T, root string) []byte {
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

// archiveHTTPServer serves root as an HTTP object store: /list returns
// the listing, /obj/<path> the bytes.
func archiveHTTPServer(t *testing.T, root string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/list", func(w http.ResponseWriter, r *http.Request) {
		var l scan.HTTPListing
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			rel = filepath.ToSlash(rel)
			l.Objects = append(l.Objects, scan.HTTPObject{
				Path: rel, URL: "/obj/" + rel, Size: info.Size(), ModTime: info.ModTime(),
			})
			return nil
		})
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(l)
	})
	mux.HandleFunc("/obj/", func(w http.ResponseWriter, r *http.Request) {
		http.ServeFile(w, r, filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(r.URL.Path, "/obj/"))))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// publishedCanonical renders a system's published catalog as
// deterministic bytes: features sorted by path, scan timestamps (when
// we looked, not what we saw) zeroed.
func publishedCanonical(t *testing.T, sys *System) []byte {
	t.Helper()
	var feats []*catalog.Feature
	sys.ctx.Published.ForEach(func(f *catalog.Feature) {
		c := f.Clone()
		c.ScannedAt = time.Time{}
		feats = append(feats, c)
	})
	sort.Slice(feats, func(i, j int) bool { return feats[i].Path < feats[j].Path })
	out, err := json.MarshalIndent(feats, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// equivalenceQueries is the ranking probe set: spatial, temporal,
// variable, and combined queries.
func equivalenceQueries() []Query {
	return []Query{
		{Near: &LatLon{Lat: 46.2, Lon: -123.8}, K: 10},
		{From: time.Date(2010, 5, 1, 0, 0, 0, 0, time.UTC), To: time.Date(2010, 8, 1, 0, 0, 0, 0, time.UTC), K: 10},
		{Variables: []VariableTerm{{Name: "temperature", Min: f64(5), Max: f64(10)}}, K: 10},
		{Variables: []VariableTerm{{Name: "salinity"}}, K: 10},
		{
			Near:      &LatLon{Lat: 45.5, Lon: -124.4},
			From:      time.Date(2010, 5, 1, 0, 0, 0, 0, time.UTC),
			To:        time.Date(2010, 8, 1, 0, 0, 0, 0, time.UTC),
			Variables: []VariableTerm{{Name: "temperature", Min: f64(5), Max: f64(10)}},
			K:         10,
		},
	}
}

// rankingsCanonical runs the probe queries and renders the full ranked
// output as bytes.
func rankingsCanonical(t *testing.T, sys *System) []byte {
	t.Helper()
	var out bytes.Buffer
	for i, q := range equivalenceQueries() {
		hits, err := sys.Search(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		b, err := json.Marshal(hits)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(b)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

func TestIngestPathEquivalence(t *testing.T) {
	root := t.TempDir()
	if _, err := archive.Generate(root, archive.DefaultGenConfig(24, 77)); err != nil {
		t.Fatal(err)
	}

	// The linear-scan oracle: unsharded, full-reprocess walker.
	oracle, err := New(Config{ArchiveRoot: root, FullReprocess: true, SnapshotShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.Wrangle(); err != nil {
		t.Fatal(err)
	}
	wantCatalog := publishedCanonical(t, oracle)
	wantRankings := rankingsCanonical(t, oracle)

	check := func(label string, sys *System) {
		t.Helper()
		if got := publishedCanonical(t, sys); !bytes.Equal(got, wantCatalog) {
			t.Errorf("%s catalog differs from the oracle:\noracle %d bytes, %s %d bytes\n%s",
				label, len(wantCatalog), label, len(got), firstDiff(string(got), string(wantCatalog)))
		}
		if got := rankingsCanonical(t, sys); !bytes.Equal(got, wantRankings) {
			t.Errorf("%s rankings differ from the oracle:\n%s", label, firstDiff(string(got), string(wantRankings)))
		}
	}

	// Sharded walker.
	walker, err := New(Config{ArchiveRoot: root})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := walker.Wrangle(); err != nil {
		t.Fatal(err)
	}
	check("walker", walker)

	// Streaming tar connector over a no-filesystem system.
	image := tarOfDir(t, root)
	tarSys, err := New(Config{
		ArchiveRoot: t.TempDir(),
		Connector: &scan.TarConnector{Open: func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(image)), nil
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tarSys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	check("tar", tarSys)

	// HTTP object-listing connector.
	srv := archiveHTTPServer(t, root)
	httpSys, err := New(Config{
		ArchiveRoot: t.TempDir(),
		Connector:   &scan.HTTPConnector{ListURL: srv.URL + "/list", Client: srv.Client()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := httpSys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	check("http", httpSys)

	// Push ingest: the oracle's published features arrive as publish
	// batches on a system that never scans anything.
	pushSys, err := New(Config{ArchiveRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var batch []*catalog.Feature
	oracle.ctx.Published.ForEach(func(f *catalog.Feature) {
		batch = append(batch, f.Clone())
	})
	sort.Slice(batch, func(i, j int) bool { return batch[i].Path < batch[j].Path })
	// Split into two batches to exercise multi-publish accumulation.
	mid := len(batch) / 2
	for _, part := range [][]*catalog.Feature{batch[:mid], batch[mid:]} {
		if _, err := pushSys.PublishFeatures(&PublishRequest{Features: part}); err != nil {
			t.Fatal(err)
		}
	}
	check("push", pushSys)

	// A replayed push batch is a generation-stable no-op, exactly like a
	// no-op re-wrangle.
	gen := pushSys.SnapshotGeneration()
	rec, err := pushSys.PublishFeatures(&PublishRequest{Features: batch})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Stable || rec.Generation != gen || rec.Published != 0 {
		t.Errorf("replayed push not stable: %+v (gen %d -> %d)", rec, gen, rec.Generation)
	}
	check("push-replayed", pushSys)
}
