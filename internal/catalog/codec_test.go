package catalog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"metamess/internal/geo"
)

// corpusPayloads returns the payload (the line after its 9-byte header)
// of every line of the golden format files and of the FuzzJournalReplay
// seed corpus — the records this build and older ones wrote.
func corpusPayloads(t testing.TB) [][]byte {
	t.Helper()
	var files [][]byte
	for _, name := range []string{"checkpoint", "journal", "legacy.snap"} {
		files = append(files, readFile(t, filepath.Join("testdata", "format", name)))
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzJournalReplay")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		for _, l := range strings.Split(string(readFile(t, filepath.Join(dir, e.Name()))), "\n") {
			if quoted, ok := strings.CutPrefix(l, "[]byte("); ok {
				data, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
				if err != nil {
					t.Fatalf("%s: %v", e.Name(), err)
				}
				files = append(files, []byte(data))
			}
		}
	}
	var out [][]byte
	for _, data := range files {
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(line) > 9 {
				out = append(out, line[9:])
			}
		}
	}
	return out
}

// checkAgainstReference holds the kernel to encoding/json on one
// payload: a kernel decode must equal json.Unmarshal's, and a kernel
// encode of what json.Unmarshal decoded must equal json.Marshal's bytes.
func checkAgainstReference(t *testing.T, payload []byte) {
	t.Helper()
	var want logRecord
	refErr := json.Unmarshal(payload, &want)
	var got logRecord
	if parsePayload(payload, &got) {
		if refErr != nil {
			t.Fatalf("kernel accepted a payload encoding/json rejects (%v):\n%s", refErr, payload)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("kernel decode differs from encoding/json:\npayload %s\n got %+v\nwant %+v", payload, got, want)
		}
	}
	if refErr != nil {
		return
	}
	ref, marshalErr := json.Marshal(want)
	if enc, ok := appendPayload(nil, &want); ok && (marshalErr != nil || !bytes.Equal(enc, ref)) {
		t.Fatalf("kernel encode differs from json.Marshal (%v):\n got %s\nwant %s", marshalErr, enc, ref)
	}
}

// FuzzRecordCodecMatchesReference is the kernel's oracle: for any
// payload the kernel either declines or decodes exactly what
// json.Unmarshal decodes, and re-encoding that value either declines or
// writes exactly what json.Marshal writes.
func FuzzRecordCodecMatchesReference(f *testing.F) {
	for _, p := range corpusPayloads(f) {
		f.Add(p)
	}
	for _, p := range kernelTraps() {
		f.Add([]byte(p))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkAgainstReference(t, payload)
	})
}

// canonicalPut is one put payload as json.Marshal writes it, with
// every optional key present.
func canonicalPut() string {
	t0 := time.Date(2009, 1, 12, 0, 0, 0, 0, time.UTC)
	p, _ := json.Marshal(logRecord{Op: "put", Feature: &Feature{
		ID: IDForPath("src/a.obs"), Path: "src/a.obs", Source: "src", Format: "obs",
		BBox: geo.BBox{MinLat: 1.5, MinLon: -2, MaxLat: 3, MaxLon: 4},
		Time: geo.TimeRange{Start: t0, End: t0.Add(time.Hour)},
		Variables: []VarFeature{{RawName: "t", Name: "temperature", Unit: "µg/L", CanonicalUnit: "ug/L",
			Range: geo.ValueRange{Min: 0, Max: 20}, Count: 50, Excluded: true, Contexts: []string{"station"}, Parent: "p"}},
		RowCount: 100, Bytes: 1000, ScannedAt: t0, ModTime: t0, ContentHash: "h",
	}})
	return string(p)
}

// kernelTraps rewrites a canonical put into the inputs where a
// hand-written decoder is most likely to guess instead of decline:
// numbers JSON or an integer field refuses, times only a lenient parser
// takes, strings encoding/json would unescape or repair, keys out of
// place, nil versus empty slices, and whitespace.
func kernelTraps() []string {
	base := canonicalPut()
	var out []string
	for _, r := range [][2]string{
		{`"count":50`, `"count":+50`},
		{`"count":50`, `"count":050`},
		{`"count":50`, `"count":5e1`},
		{`"count":50`, `"count":50.0`},
		{`"count":50`, `"count":-0`},
		{`"rowCount":100`, `"rowCount":99999999999999999999`},
		{`"min":0`, `"min":.5`},
		{`"min":0`, `"min":1.`},
		{`"min":0`, `"min":0x1p3`},
		{`"min":0`, `"min":Inf`},
		{`"min":0`, `"min":NaN`},
		{`"min":0`, `"min":1e400`},
		{`"min":0`, `"min":1e-400`},
		{`"min":0`, `"min":-0`},
		{`"min":0`, `"min":1E+2`},
		{`"variables":[`, `"variables":[],"x":[`},
		{`"bbox":{`, `"bbox":null,"y":{`},
		{`"contexts":["station"]`, `"contexts":[]`},
		{`"contexts":["station"]`, `"contexts":null`},
		{`"contexts":["station"]`, `"contexts":["station",]`},
		{`"excluded":true`, `"excluded":false`},
		{`"excluded":true`, `"excluded":1`},
		{`"2009-01-12T00:00:00Z"`, `"2009-01-12T00:00:00+00:00"`},
		{`"2009-01-12T00:00:00Z"`, `"2009-01-12T00:00:00.5-07:30"`},
		{`"2009-01-12T00:00:00Z"`, `"2009-01-12 00:00:00Z"`},
		{`"2009-01-12T00:00:00Z"`, `"2009-01-12T24:00:00Z"`},
		{`"2009-01-12T00:00:00Z"`, `"10000-01-12T00:00:00Z"`},
		{`"2009-01-12T00:00:00Z"`, `"2009-01-12T00:00:00\u005a"`},
		{`"2009-01-12T00:00:00Z"`, `null`},
		{`"obs"`, "\"o\xffs\""},
		{`"obs"`, "\"o\ts\""},
		{`"obs"`, `"o\u0062s"`},
		{`"obs"`, `"<obs>&"`},
		{`"obs"`, "\"o\u2028s\""},
		{`"id":`, `"ID":`},
		{`"op":"put"`, `"op":"put","op":"delta"`},
		{`"op":"put"`, `"op" :"put"`},
		{`"feature":{`, `"feature":null,"z":{`},
	} {
		out = append(out, strings.Replace(base, r[0], r[1], 1))
	}
	return append(out,
		base,
		" "+base,
		base+" ",
		base+"}",
		`{"op":"meta","gen":3,"sidecar":{"a": [1, 2]}}`,
		`{"op":"meta","gen":3,"sidecar":"<b>"}`,
		`{"op":"meta","gen":3,"sidecar":null}`,
		`{"op":"meta","gen":3,"sidecar": 1}`,
		`{"op":"meta","gen":3,"sidecar":{"a":1}}}`,
		`{"op":"meta","gen":3,"sidecar":}`,
		`{"op":"meta","gen":-3}`,
		`{"op":"meta","gen":18446744073709551616}`,
		`{"op":"delta","gen":2,"changed":[],"removed":[]}`,
		`{"op":"delta","gen":2,"changed":null,"removed":null}`,
		`{"op":"delta","gen":2,"changed":[null]}`,
		`{"op":"delta","removed":["a","b"]}`,
	)
}

// TestRecordKernelTraps runs every trap through the oracle. The
// canonical put itself must be taken, so each trap is a near miss of an
// accepted payload rather than something declined for another reason.
func TestRecordKernelTraps(t *testing.T) {
	var rec logRecord
	if !parsePayload([]byte(canonicalPut()), &rec) {
		t.Fatalf("kernel declined the canonical put:\n%s", canonicalPut())
	}
	for _, p := range kernelTraps() {
		checkAgainstReference(t, []byte(p))
	}
}

// hostileFeature draws a feature from the values where encoding/json's
// output has edges: float formatting cutoffs and exponents, negative
// zero, strings it escapes, times it refuses, empty and inverted boxes,
// nil versus empty slices.
func hostileFeature(rng *rand.Rand) *Feature {
	floats := []float64{0, math.Copysign(0, -1), 1, -1.5, 0.1, 28.849999999999998, 1e-7, 1e-6, 9.99999e-7,
		1e20, 1e21, 9.99999999999e20, 1.5e21, 5e-324, 1e-300, math.MaxFloat64, -math.MaxFloat64, 123456789.123456789}
	strs := []string{"", "plain", "µg/L", "日本語", "\ufffd", "del\x7f", "a<b", "x>y", "R&D", "line\u2028sep",
		"para\u2029", "bad\xffutf8", `q"uote`, `back\slash`, "tab\t", "\x00"}
	times := []time.Time{
		{},
		time.Date(2010, 6, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2010, 6, 1, 12, 30, 15, 123456789, time.UTC),
		time.Date(2010, 6, 1, 0, 0, 0, 0, time.FixedZone("", 5*3600+30*60)),
		time.Date(2010, 6, 1, 0, 0, 0, 0, time.FixedZone("", -(23*3600+59*60))),
		time.Date(2010, 6, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600)),
		time.Date(2010, 6, 1, 0, 0, 0, 0, time.FixedZone("", -100*3600)),
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Now(), // carries a monotonic reading
	}
	fl := func() float64 {
		switch rng.Intn(40) {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(-1)
		}
		return floats[rng.Intn(len(floats))]
	}
	s := func() string {
		if rng.Intn(3) == 0 {
			return strs[rng.Intn(len(strs))]
		}
		return strs[rng.Intn(4)]
	}
	tm := func() time.Time {
		if rng.Intn(3) == 0 {
			return times[rng.Intn(len(times))]
		}
		return times[1+rng.Intn(4)]
	}
	f := &Feature{ID: s(), Path: s(), Source: s(), Format: s(),
		Time:     geo.TimeRange{Start: tm(), End: tm()},
		RowCount: rng.Intn(1000) - 10, Bytes: rng.Int63() >> uint(rng.Intn(64)),
		ScannedAt: tm(), ModTime: tm(), ContentHash: s(),
	}
	switch rng.Intn(4) {
	case 0:
		f.BBox = geo.EmptyBBox()
	case 1:
		f.BBox = geo.BBox{MinLat: 1, MinLon: 1, MaxLat: 0, MaxLon: 2} // inverted: empty
	default:
		f.BBox = geo.BBox{MinLat: fl(), MinLon: fl(), MaxLat: fl(), MaxLon: fl()}
	}
	if n := rng.Intn(5) - 1; n >= 0 {
		f.Variables = make([]VarFeature, n)
	}
	for i := range f.Variables {
		v := &f.Variables[i]
		v.RawName, v.Name, v.Unit, v.CanonicalUnit, v.Parent = s(), s(), s(), s(), s()
		v.Range = geo.ValueRange{Min: fl(), Max: fl()}
		v.Count, v.Excluded = rng.Intn(100)-1, rng.Intn(2) == 0
		if n := rng.Intn(4) - 1; n >= 0 {
			v.Contexts = make([]string, n)
			for j := range v.Contexts {
				v.Contexts[j] = s()
			}
		}
	}
	return f
}

// hostileRecord draws a record of any op around hostile features.
func hostileRecord(rng *rand.Rand) logRecord {
	sidecars := []json.RawMessage{nil, {}, json.RawMessage(`{"epoch":2}`), json.RawMessage(`{"a": [1, 2]}`),
		json.RawMessage(`"<b>"`), json.RawMessage(`"\u2028"`), json.RawMessage("\"\u2028\""), json.RawMessage(`{`),
		json.RawMessage(`null`), json.RawMessage(` 1 `)}
	rec := logRecord{Op: []string{"put", "delta", "meta", "p<t"}[rng.Intn(4)]}
	if rng.Intn(2) == 0 {
		rec.Feature = hostileFeature(rng)
	}
	rec.Gen = []uint64{0, 1, math.MaxUint64}[rng.Intn(3)]
	if n := rng.Intn(4) - 1; n >= 0 {
		rec.Changed = make([]*Feature, n)
		for i := range rec.Changed {
			if rng.Intn(20) > 0 {
				rec.Changed[i] = hostileFeature(rng)
			}
		}
	}
	if n := rng.Intn(4) - 1; n >= 0 {
		rec.Removed = make([]string, n)
		for i := range rec.Removed {
			rec.Removed[i] = hostileFeature(rng).ID
		}
	}
	rec.Sidecar = sidecars[rng.Intn(len(sidecars))]
	return rec
}

// TestRecordEncoderMatchesReference: over generated hostile records,
// whatever the kernel encodes is byte-identical to json.Marshal, and
// encodeRecord — kernel or fallback — writes json.Marshal's payload or
// fails with json.Marshal's error (NaN, ±Inf, an unencodable time, an
// invalid sidecar). What it writes decodes as encoding/json decodes it.
func TestRecordEncoderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	kernel := 0
	const n = 4000
	for i := 0; i < n; i++ {
		rec := hostileRecord(rng)
		ref, refErr := json.Marshal(rec)
		if enc, ok := appendPayload(nil, &rec); ok {
			kernel++
			if refErr != nil || !bytes.Equal(enc, ref) {
				t.Fatalf("record %d: kernel wrote\n%s\njson.Marshal (%v) wrote\n%s", i, enc, refErr, ref)
			}
		}
		line, err := encodeRecord(nil, rec)
		if refErr != nil {
			if err == nil || !strings.HasSuffix(err.Error(), refErr.Error()) {
				t.Fatalf("record %d: encodeRecord error %v, json.Marshal error %v", i, err, refErr)
			}
			continue
		}
		if err != nil || !bytes.Equal(line[9:len(line)-1], ref) {
			t.Fatalf("record %d: encodeRecord (%v) wrote\n%s\nwant payload\n%s", i, err, line, ref)
		}
		got, err := decodeLine(line[:len(line)-1])
		var want logRecord
		if json.Unmarshal(ref, &want) != nil || err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d: decodeLine (%v) differs from json.Unmarshal:\n%s", i, err, ref)
		}
	}
	// The generator must leave the kernel something to encode.
	if kernel < n/10 {
		t.Fatalf("kernel encoded only %d of %d records", kernel, n)
	}
}

// fillEveryField sets every exported field reachable from v to a
// non-zero value. A field of a kind it does not know fails the test, so
// a field added to Feature or VarFeature must be taught here, and then
// to the kernel.
func fillEveryField(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString("s")
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint64:
		v.SetUint(9)
	case reflect.Float64:
		v.SetFloat(1.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillEveryField(t, v.Elem())
	case reflect.Slice:
		if v.Type() == reflect.TypeOf(json.RawMessage(nil)) {
			v.SetBytes([]byte(`{"k":1}`))
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillEveryField(t, v.Index(0))
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(time.Time{}) {
			v.Set(reflect.ValueOf(time.Date(2010, 6, 1, 2, 3, 4, 5, time.UTC)))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillEveryField(t, v.Field(i))
			}
		}
	default:
		t.Fatalf("fillEveryField: %s has kind %s", v.Type(), v.Kind())
	}
}

// TestRecordKernelCoversEveryField: a record with every field of
// logRecord, Feature and VarFeature set encodes to json.Marshal's bytes
// and decodes, without declining, to json.Unmarshal's value.
func TestRecordKernelCoversEveryField(t *testing.T) {
	var rec logRecord
	fillEveryField(t, reflect.ValueOf(&rec).Elem())
	ref, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if enc, ok := appendPayload(nil, &rec); !ok || !bytes.Equal(enc, ref) {
		t.Fatalf("kernel encode (ok=%v):\n got %s\nwant %s", ok, enc, ref)
	}
	var got, want logRecord
	if err := json.Unmarshal(ref, &want); err != nil {
		t.Fatal(err)
	}
	if !parsePayload(ref, &got) || !reflect.DeepEqual(got, want) {
		t.Fatalf("kernel decode of\n%s\n got %+v\nwant %+v", ref, got, want)
	}
}

// TestRecordKernelTakesWhatWeWrite keeps the fast path from vanishing
// silently: every record writeGoldenStore writes, and every line of a
// 500-feature checkpoint, is encoded and decoded by the kernel with no
// decline.
func TestRecordKernelTakesWhatWeWrite(t *testing.T) {
	before := kernelDeclines.Load()
	dir := t.TempDir()
	writeGoldenStore(t, dir)
	var feats []*Feature
	for i := 0; i < 500; i++ {
		f := deltaFeature(i, i%3)
		f.Variables[0].Unit, f.Variables[0].CanonicalUnit = "µg/L", "ug/L"
		if i%7 == 0 {
			f.Variables[1].Contexts = []string{"station", "cruise"}
		}
		feats = append(feats, f)
	}
	ckpt := filepath.Join(dir, "500.snap")
	if err := Save(ckpt, served(t, 0, feats...)); err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, name := range []string{"checkpoint", "journal", "500.snap"} {
		for _, line := range bytes.SplitAfter(readFile(t, filepath.Join(dir, name)), []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			if _, err := decodeLine(bytes.TrimSuffix(line, []byte("\n"))); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			lines++
		}
	}
	if lines < 501 {
		t.Fatalf("read %d lines", lines)
	}
	if d := kernelDeclines.Load() - before; d != 0 {
		t.Fatalf("the kernel declined %d of the records this package writes", d)
	}
}

// TestDecodeLineStrictHeader: the checksum field is exactly eight hex
// digits, either case. A header of seven digits and a stray byte used
// to parse whenever the checksum's top nibble was zero.
func TestDecodeLineStrictHeader(t *testing.T) {
	var line []byte
	for gen := uint64(1); ; gen++ {
		var err error
		if line, err = encodeRecord(nil, logRecord{Op: "meta", Gen: gen}); err != nil {
			t.Fatal(err)
		}
		if line[0] == '0' {
			break
		}
	}
	line = line[:len(line)-1]
	if _, err := decodeLine(line); err != nil {
		t.Fatal(err)
	}
	upper := append(bytes.ToUpper(line[:8]), line[8:]...)
	if _, err := decodeLine(upper); err != nil {
		t.Errorf("upper-case checksum %s: %v", upper[:8], err)
	}
	for _, junk := range []string{"z", "_", "g", " "} {
		bad := fmt.Sprintf("%s%s%s", line[1:8], junk, line[8:])
		if _, err := decodeLine([]byte(bad)); err == nil {
			t.Errorf("header %q accepted", bad[:9])
		}
	}
}

// BenchmarkRecordCodec runs the kernel and encoding/json over the same
// 1 000 put payloads, each way; MB/s is payload bytes.
func BenchmarkRecordCodec(b *testing.B) {
	recs := make([]logRecord, 1000)
	payloads := make([][]byte, len(recs))
	size := 0
	for i := range recs {
		recs[i] = logRecord{Op: "put", Feature: deltaFeature(i, i%3)}
		payloads[i], _ = json.Marshal(recs[i])
		size += len(payloads[i])
	}
	decoders := map[string]func(p []byte, rec *logRecord) bool{
		"kernel":    parsePayload,
		"reference": func(p []byte, rec *logRecord) bool { return json.Unmarshal(p, rec) == nil },
	}
	encoders := map[string]func(dst []byte, rec *logRecord) ([]byte, bool){
		"kernel": appendPayload,
		"reference": func(dst []byte, rec *logRecord) ([]byte, bool) {
			p, err := json.Marshal(rec)
			return append(dst, p...), err == nil
		},
	}
	for _, name := range []string{"kernel", "reference"} {
		b.Run("decode/"+name, func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				for _, p := range payloads {
					var rec logRecord
					if !decoders[name](p, &rec) {
						b.Fatal("declined")
					}
				}
			}
		})
		b.Run("encode/"+name, func(b *testing.B) {
			b.SetBytes(int64(size))
			var buf []byte
			for i := 0; i < b.N; i++ {
				for j := range recs {
					var ok bool
					if buf, ok = encoders[name](buf[:0], &recs[j]); !ok {
						b.Fatal("declined")
					}
				}
			}
		})
	}
}
