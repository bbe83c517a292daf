package scan

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"sort"
	"testing"
	"time"

	"metamess/internal/catalog"
)

// fuzzTarMax bounds one streamed entry during fuzzing — small enough
// that a hostile header claiming terabytes cannot make the connector
// allocate past it.
const fuzzTarMax = 1 << 16

// canonicalDump renders a catalog as deterministic bytes: features
// sorted by path, scan timestamps (wall-clock bookkeeping) zeroed.
func canonicalDump(t *testing.T, c *catalog.Working) []byte {
	t.Helper()
	var feats []*catalog.Feature
	c.ForEach(func(f *catalog.Feature) {
		cl := f.Clone()
		cl.ScannedAt = time.Time{}
		feats = append(feats, cl)
	})
	sort.Slice(feats, func(i, j int) bool { return feats[i].Path < feats[j].Path })
	out, err := json.Marshal(feats)
	if err != nil {
		t.Fatalf("catalog does not marshal: %v", err)
	}
	return out
}

// FuzzTarConnector streams hostile tar (and tar.gz) images through the
// archive connector. The stream is a trust boundary — POST-fed archives
// arrive from arbitrary producers — so the properties are:
//
//   - no input panics the connector;
//   - ScanInto returns a result XOR an error, never both or neither;
//   - ingest is deterministic: the same bytes yield byte-identical
//     catalogs and deltas on every run;
//   - memory stays bounded: no accepted feature's source exceeded
//     MaxFileBytes, no matter what the entry header claimed;
//   - a failed ingest leaves the target catalog empty — a hostile
//     stream cannot half-apply.
func FuzzTarConnector(f *testing.F) {
	seed := func(entries map[string]string) []byte {
		var buf bytes.Buffer
		tw := tar.NewWriter(&buf)
		for name, body := range entries {
			tw.WriteHeader(&tar.Header{Name: name, Size: int64(len(body)), Mode: 0o644, Format: tar.FormatPAX})
			tw.Write([]byte(body))
		}
		tw.Close()
		return buf.Bytes()
	}
	valid := seed(map[string]string{
		"push/a.csv": "time,latitude,longitude,temp [C]\n2010-06-01T00:00:00Z,45.5,-124.4,11.2\n",
		"push/b.obs": "#station: s1\n#lat: 46.2\n#lon: -123.8\n#fields:\ttemp\n#units:\tC\n1275350400\t11.2\n",
	})
	f.Add(valid)
	var gzBuf bytes.Buffer
	gz := gzip.NewWriter(&gzBuf)
	gz.Write(valid)
	gz.Close()
	f.Add(gzBuf.Bytes())
	f.Add(seed(map[string]string{"../escape.csv": "a,b\n1,2\n"}))
	f.Add(valid[:len(valid)/2]) // truncated stream
	f.Add([]byte("\x1f\x8b not actually gzip"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		run := func() (*catalog.Working, *Result, error) {
			conn := tarBytesConnector(data)
			conn.MaxFileBytes = fuzzTarMax
			c := catalog.NewWorking()
			res, err := conn.ScanInto(c)
			return c, res, err
		}
		c1, res1, err1 := run()
		if (res1 == nil) == (err1 == nil) {
			t.Fatalf("result XOR error violated: res=%v err=%v", res1, err1)
		}
		c2, res2, err2 := run()
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("nondeterministic outcome: first err=%v, second err=%v", err1, err2)
		}
		if err1 != nil {
			if c1.Len() != 0 {
				t.Fatalf("failed ingest half-applied %d features", c1.Len())
			}
			return
		}
		d1, d2 := canonicalDump(t, c1), canonicalDump(t, c2)
		if !bytes.Equal(d1, d2) {
			t.Fatalf("nondeterministic catalog:\n first %s\nsecond %s", d1, d2)
		}
		if len(res1.Added) != len(res2.Added) || len(res1.Changed) != len(res2.Changed) || len(res1.Removed) != len(res2.Removed) {
			t.Fatalf("nondeterministic delta: %v/%v/%v vs %v/%v/%v",
				res1.Added, res1.Changed, res1.Removed, res2.Added, res2.Changed, res2.Removed)
		}
		c1.ForEach(func(feat *catalog.Feature) {
			if feat.Bytes > fuzzTarMax {
				t.Fatalf("feature %s ingested %d bytes past the %d cap", feat.Path, feat.Bytes, fuzzTarMax)
			}
			if err := feat.Validate(); err != nil {
				t.Fatalf("ingested feature invalid: %v", err)
			}
		})
	})
}
