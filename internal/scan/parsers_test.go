package scan

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"metamess/internal/archive"
	"metamess/internal/catalog"
)

type parseFunc func(rel string, data []byte) (*catalog.Feature, error)

// parsersByFormat pairs each format's kernel with its reference parser.
var parsersByFormat = map[string]struct{ kernel, reference parseFunc }{
	"csv":   {parseCSV, refParseCSV},
	"obs":   {parseOBS, refParseOBS},
	"jsonl": {parseJSONL, refParseJSONL},
}

// matchReference fails t unless the format's kernel and reference
// parser agree on data: the same error string, or json.Marshal-equal
// features.
func matchReference(t testing.TB, format string, data []byte) {
	t.Helper()
	p, ok := parsersByFormat[format]
	if !ok {
		return
	}
	const rel = "fuzz/input.dat"
	got, gotErr := p.kernel(rel, data)
	want, wantErr := p.reference(rel, data)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: kernel error %v, reference error %v\ninput %q", format, gotErr, wantErr, clip(data))
	}
	if gotErr != nil {
		return
	}
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatalf("%s: accepted summary does not marshal: %v", format, err)
	}
	w, _ := json.Marshal(want)
	if !bytes.Equal(g, w) {
		t.Fatalf("%s: summaries differ\n   kernel %s\nreference %s\ninput %q", format, g, w, clip(data))
	}
}

func clip(data []byte) []byte { return data[:min(len(data), 400)] }

const (
	jsonlHdr = `{"type":"header","platform":"auv1","fields":[{"name":"temp","unit":"C"},{"name":"sal"}]}` + "\n"
	csvHdr   = "time,latitude,longitude,temp [C],salinity [PSU]\n"
	obsHdr   = "#station: saturn01\n#lat: 46.2\n#lon: -123.8\n#fields:\ttemp\tsal\n#units:\tC\tPSU\n"
)

// nearMisses are inputs one step away from the shapes the kernels read
// directly; each must be declined to, or agree with, the general decoder.
var nearMisses = map[string][]string{
	"jsonl": {
		jsonlHdr + `{"type":"obs","time":"2010-06-01T00:00:00Z","lat":45.5,"lon":-124.4,"values":[11.2,31.5]}` + "\n",
		jsonlHdr + `{"time":"2010-06-01T00:00:00Z","type":"obs","lat":45.5,"lon":-124.4,"values":[11.2]}`,
		jsonlHdr + `{"type":"obs","time":"2010-06-01T00:00:00Z","lat":1,"lat":2,"lon":3,"values":[4]}`,
		jsonlHdr + `{"type":"obs","type":"header","time":"2010-06-01T00:00:00Z","lat":1,"lon":3,"values":[4]}`,
		jsonlHdr + `{"TYPE":"obs","Time":"2010-06-01T00:00:00Z","LAT":1,"Lon":3,"VALUES":[4]}`,
		jsonlHdr + `{"type":"obs","time":"2010-06-01T00:00:00Z","LAT":1,"lon":3,"values":[4]}`,
		jsonlHdr + `{"type":"obs","time":"2010-06-01T00:00:00\u005a","lat":1,"lon":3,"values":[4]}`,
		jsonlHdr + `{"type":"obs","time":"2010\u002d06-01T00:00:00Z","lat":1,"lon":3,"values":[4]}`,
		jsonlHdr + `{"type":"obs","time":"2010-06-01T00:00:00Z\/","lat":1,"lon":3,"values":[4]}`,
		jsonlHdr + `{"type":"o\u0062s","time":"2010-06-01T00:00:00Z","lat":1,"lon":3,"values":[4]}`,
		jsonlHdr + `{"type":"obs","time":"2010-06-01T00:00:00Z\"","lat":1,"lon":3,"values":[4]}`,
		jsonlHdr + `{"type":"obs","time":"2010-06-01T00:00:00+01:00","lat":1,"lon":3,"values":[4]}`,
		jsonlHdr + `{"type":"obs","time":"2010-06-01T00:00:00.123456789Z","lat":1,"lon":3,"values":[4]}`,
		jsonlHdr + `{"type":"obs","time":"2010-06-01 00:00:00Z","lat":1,"lon":3,"values":[4]}`,
		jsonlHdr + `{"type":"obs","time":"2010-06-01T24:00:00Z","lat":1,"lon":3,"values":[4]}`,
		jsonlHdr + `{"type":"obs","time":"2010-06-01T00:00:00Z` + "\x01" + `","lat":1,"lon":3,"values":[4]}`,
		jsonlHdr + `{"type":"obs","time":"2010-06-01T00:00:00Zé","lat":1,"lon":3,"values":[4]}`,
		jsonlHdr + `{"type":"obs","time":null,"lat":1,"lon":3,"values":[4]}`,
		jsonlHdr + `{"type":"obs","time":"2010-06-01T00:00:00Z","lat":1,"lon":3,"values":null}`,
		jsonlHdr + `{"type":"obs","time":"2010-06-01T00:00:00Z","lat":1,"lon":3,"values":[]}`,
		jsonlHdr + `{"type":"obs","time":"2010-06-01T00:00:00Z","lat":1,"lon":3,"values":[1,]}`,
		jsonlHdr + `{"type":"obs","time":"2010-06-01T00:00:00Z","lat":1,"lon":3,"values":[,1]}`,
		jsonlHdr + `{"type":"obs","time":"2010-06-01T00:00:00Z","lat":1,"lon":3,"values":[1 ,2]}`,
		jsonlHdr + `{"type":"obs","time":"2010-06-01T00:00:00Z","lat":1,"lon":3,"values":[1,2,3,4,5]}`,
		jsonlHdr + `{"type":"obs","time":"2010-06-01T00:00:00Z","lat":1,"lon":3,"values":[1e999]}`,
		jsonlHdr + `{"type":"obs","time":"2010-06-01T00:00:00Z","lat":1,"lon":3,"values":[-1e999,1e-999]}`,
		jsonlHdr + `{"type":"obs","time":"2010-06-01T00:00:00Z","lat":-0,"lon":-0.0,"values":[-0,0e0,-0E+0]}`,
		jsonlHdr + `{"type":"obs","time":"2010-06-01T00:00:00Z","lat":01,"lon":3,"values":[4]}`,
		jsonlHdr + `{"type":"obs","time":"2010-06-01T00:00:00Z","lat":1,"lon":3,"values":[.5]}`,
		jsonlHdr + `{"type":"obs","time":"2010-06-01T00:00:00Z","lat":1,"lon":3,"values":[1.]}`,
		jsonlHdr + `{"type":"obs","time":"2010-06-01T00:00:00Z","lat":+1,"lon":3,"values":[4]}`,
		jsonlHdr + `{"type":"obs","time":"2010-06-01T00:00:00Z","lat":1,"lon":3,"values":[inf,NaN,0x1p3,1_0]}`,
		jsonlHdr + `{"type":"obs","time":"2010-06-01T00:00:00Z","lat":1,"lon":3,"values":[1e5,1E-5,1.5e+3]}`,
		jsonlHdr + `{"type":"obs","time":"2010-06-01T00:00:00Z","lat":1,"lon":3,"values":["4"]}`,
		jsonlHdr + `{"type":"obs","time":"2010-06-01T00:00:00Z","lat":"1","lon":3,"values":[4]}`,
		jsonlHdr + `{"type":"obs","time":"2010-06-01T00:00:00Z","lat":1,"lon":3,"values":[4],"depth":2}`,
		jsonlHdr + `{"type":"obs","time":"2010-06-01T00:00:00Z","lat":1,"lon":3,"values":[4]}}`,
		jsonlHdr + `{"type":"obs","time":"2010-06-01T00:00:00Z","lat":1,"lon":3,"values":[4]} x`,
		jsonlHdr + `{"type":"obs","time":"2010-06-01T00:00:00Z","lat":1,"lon":3,"values":[4]`,
		jsonlHdr + `{"type":"obs","time":"2010-06-01T00:00:00Z","lat":1,"lon":3}`,
		jsonlHdr + `{"type": "obs", "time": "2010-06-01T00:00:00Z", "lat": 1, "lon": 3, "values": [4, 5]}`,
		jsonlHdr + ` {"type":"obs","time":"2010-06-01T00:00:00Z","lat":1,"lon":3,"values":[4]} ` + "\r\n\r\n",
		jsonlHdr + " " + `{"type":"obs","time":"2010-06-01T00:00:00Z","lat":1,"lon":3,"values":[4]}` + " \n",
		`{"type":"obs","time":"2010-06-01T00:00:00Z","lat":1,"lon":3,"values":[4]}` + "\n" + jsonlHdr,
		jsonlHdr + `{"type":"obs","time":"2010-06-01T00:00:00Z","lat":1,"lon":3,"values":[4]}` + "\n" + jsonlHdr,
		jsonlHdr + `{"type":"nav","time":"2010-06-01T00:00:00Z"}`,
		jsonlHdr + `[1,2]`,
		"\n\n",
		"",
	},
	"csv": {
		csvHdr + "2010-06-01T00:00:00Z,45.5,-124.4,11.2,31.5\n2010-06-01T01:00:00Z,45.6,-124.3,NaN,31.9\n",
		csvHdr + "2010-06-01T00:00:00Z,45.5,-124.4,11.2,31.5",
		csvHdr + "2010-06-01T00:00:00Z,45.5,-124.4,11.2,31.5\r\n\r\n2010-06-01T01:00:00Z,45.6,-124.3,,\r",
		csvHdr + "2010-06-01T00:00:00Z,45.5,-124.4,11.2,31.5\r\r\n",
		csvHdr + "2010-06-01T00:00:00Z,45.5,-124.4,11.2\r,31.5\n",
		csvHdr + "2010-06-01T00:00:00Z,45.5,-124.4,\"11.2\",31.5\n",
		csvHdr + "2010-06-01T00:00:00Z,45.5,-124.4,\"11\n.2\",31.5\n",
		csvHdr + "2010-06-01T00:00:00Z,45.5,-124.4,11\"2,31.5\n",
		"time,latitude,longitude,\"temp, surface [C]\",sal\n2010-06-01T00:00:00Z,45.5,-124.4,11.2,31.5\n",
		csvHdr + "2010-06-01T00:00:00Z,45.5,-124.4,11.2\n",
		csvHdr + "2010-06-01T00:00:00Z,45.5,-124.4,11.2,31.5,7\n",
		csvHdr + "\n \n2010-06-01T00:00:00Z,45.5,-124.4,11.2,31.5\n",
		csvHdr + "\r\n\n\r\n2010-06-01T00:00:00Z,45.5,-124.4,11.2,31.5\n\n",
		csvHdr + "2010-06-01T00:00:00Z,45.5,-124.4, 11.2 ,\t31.5 \n",
		csvHdr + "2010-06-01T00:00:00Z,45.5,-124.4,\u00a011.2\u00a0,\u200731.5\u0085\n",
		csvHdr + "2010-06-01T00:00:00Z,45.5,-124.4,\xa011.2,\xff\n",
		csvHdr + "2010-06-01T00:00:00Z,45.5,-124.4,inf,-Infinity\n2010-06-01T00:00:00Z,45.5,-124.4,nan,0x1p-2\n",
		csvHdr + "2010-06-01T00:00:00Z,45.5,-124.4,1e999,1\n",
		csvHdr + "2010-06-01T00:00:00Z, 45.5,-124.4,1,1\n",
		csvHdr + "2010-06-01T00:00:00Z,inf,-124.4,1,1\n",
		csvHdr + "2010-06-01T00:00:00.5+02:00,45.5,-124.4,1,1\n",
		csvHdr + "2010-06-01,45.5,-124.4,1,1\n",
		csvHdr + "2010-06-01T00:00:00Z,45.5,-124.4,abc,1\n",
		"TIME,lat,lon,x\n2010-06-01T00:00:00Z,1,2,3\n",
		"when,lat,lon,x\n2010-06-01T00:00:00Z,1,2,3\n",
		"time,latitude,longitude\n",
		"time,latitude,longitude,x [u],x [u], [u],y[\n",
		"\n\ntime,latitude,longitude,x\n",
		"\r",
		"",
	},
	"obs": {
		obsHdr + "1275350400\t11.2\t31.5\n1275354000\t\t31.9\n",
		obsHdr + "1275350400\t11.2\t31.5\r\n1275354000\t\t31.9\r\n",
		obsHdr + "1275350400\t11.2\t31.5\r",
		obsHdr + "1275350400\r\n1275350401\t1\n",
		obsHdr + "1275350400\t11.2\t31.5\t99\tjunk\n",
		obsHdr + "1275350400\t 11.2 \t 31.5 \n",
		obsHdr + "1275350400\t\u00a011.2\u00a0\t\u300031.5\u0085\n",
		obsHdr + "1275350400\t\xa011.2\t\xc2\n",
		obsHdr + "1275350400\tinf\tNaN\n1275350400\t-inf\t1e999\n",
		obsHdr + "1275350400\tabc\t1\n",
		obsHdr + " 1275350400\t1\t1\n",
		obsHdr + "+1275350400\t1\t1\n",
		obsHdr + "253402300800\t1\t1\n",
		obsHdr + "-62135596801\t1\t1\n",
		obsHdr + "1275350400\t1\t1\n#fields:\ta\tb\tc\n1275350401\t1\t2\t3\n#lat: 10\n1275350402\t4\n",
		obsHdr + "1275350400\t1\t1\n#fields:\ta\n1275350401\t5\tx\n",
		obsHdr + "\n\n# comment\n#\n1275350400\t1\t1\n",
		"#fields:\ttemp\n1275350400\t11.2\n",
		"#lat: 1\n#lon: 2\n1275350400\t11.2\n",
		"#lat: 1\n#lon: 2\n#fields:\t \t\n1275350400\t11.2\n",
		"#lat: x\n",
		"#lat:  1 \n#lon:\t2\n#fields:temp\tsal\n#units:C\n1\t2\t3\n",
		"#fields:\ttemp\n",
		"# nothing\n",
		"",
	},
}

// FuzzParseMatchesReference holds the single-pass kernels to the parsers
// they replaced: for any (format, bytes) the kernel returns the same
// feature or the same error string as the reference kept in
// parsers_reference_test.go.
func FuzzParseMatchesReference(f *testing.F) {
	for format, inputs := range nearMisses {
		for _, in := range inputs {
			f.Add(format, []byte(in))
		}
	}
	f.Fuzz(func(t *testing.T, format string, data []byte) {
		matchReference(t, format, data)
	})
}

// TestLineBoundMatchesReference pins the 4 MiB line bound of the .obs
// and .jsonl kernels to the bufio.Scanner the reference parsers use, on
// both sides of the boundary, with and without a terminator.
func TestLineBoundMatchesReference(t *testing.T) {
	for _, n := range []int{maxLineBytes - 2, maxLineBytes - 1, maxLineBytes, maxLineBytes + 1} {
		for _, end := range []string{"", "\n", "\r\n", "\r"} {
			// line pads body with spaces so that n bytes precede the
			// "\n" (or the end of input), a trailing "\r" included.
			line := func(body string) string {
				cr := strings.TrimSuffix(end, "\n")
				return body + strings.Repeat(" ", n-len(body)-len(cr)) + end
			}
			next := "" // a later bad line must not be reached past a long one
			if strings.HasSuffix(end, "\n") {
				next = "bad\n"
			}
			t.Run(fmt.Sprintf("%d%q", n, end), func(t *testing.T) {
				matchReference(t, "obs", []byte(obsHdr+line("1275350400\t1\t2")+next))
				matchReference(t, "obs", []byte(obsHdr+line("#")+next))
				matchReference(t, "obs", []byte(obsHdr+"bad\n"+line("#")))
				matchReference(t, "jsonl", []byte(jsonlHdr+line("")+next))
				matchReference(t, "jsonl", []byte("bad\n"+line("")))
			})
		}
	}
}

// TestGeneratedArchiveParsesIdentically runs every dataset of a
// generated archive through ParseBytes' kernels and the reference.
func TestGeneratedArchiveParsesIdentically(t *testing.T) {
	root := t.TempDir()
	m, err := archive.Generate(root, archive.DefaultGenConfig(600, 20130408))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, d := range m.Datasets {
		data, err := os.ReadFile(filepath.Join(root, d.Path))
		if err != nil {
			t.Fatal(err)
		}
		format, ok := Sniff(d.Path, data)
		if !ok {
			t.Fatalf("%s: not sniffed", d.Path)
		}
		matchReference(t, string(format), data)
		seen[string(format)]++
	}
	for format := range parsersByFormat {
		if seen[format] == 0 {
			t.Errorf("generated archive has no %s dataset", format)
		}
	}
}

// canonicalFile returns a file of the given format and row count in the
// shape the archive's writers emit.
func canonicalFile(format string, rows int) []byte {
	var b bytes.Buffer
	switch format {
	case "csv":
		b.WriteString(csvHdr)
	case "obs":
		b.WriteString(obsHdr)
	case "jsonl":
		b.WriteString(jsonlHdr)
	}
	for i := 0; i < rows; i++ {
		switch format {
		case "csv":
			fmt.Fprintf(&b, "2010-06-%02dT%02d:00:00Z,%.5f,%.5f,%.3f,%.3f\n", 1+i/24%28, i%24, 45+float64(i)/1e4, -124-float64(i)/1e4, 10+float64(i%70)/7, 30+float64(i%50)/9)
		case "obs":
			fmt.Fprintf(&b, "%d\t%.3f\t%.3f\n", 1275350400+3600*i, 10+float64(i%70)/7, 30+float64(i%50)/9)
		case "jsonl":
			fmt.Fprintf(&b, `{"type":"obs","time":"2010-06-%02dT%02d:00:00Z","lat":%v,"lon":%v,"values":[%v,%v]}`+"\n", 1+i/24%28, i%24, 45+float64(i)/1e4, -124-float64(i)/1e4, 10+float64(i%70)/7, 30+float64(i%50)/9)
		}
	}
	return b.Bytes()
}

// TestParseAllocsIndependentOfRows is the kernels' allocation contract:
// ten times the rows costs no more allocations. For .jsonl and .csv it
// also proves canonical files never decline to the general decoders,
// which allocate per line.
func TestParseAllocsIndependentOfRows(t *testing.T) {
	for format := range parsersByFormat {
		allocs := func(rows int) float64 {
			data := canonicalFile(format, rows)
			matchReference(t, format, data)
			rel := "auv/x." + format
			return testing.AllocsPerRun(20, func() {
				if f, err := ParseBytes(rel, data); err != nil || f.RowCount != rows {
					t.Fatalf("%s: %v rows, err %v", format, f, err)
				}
			})
		}
		small, large := allocs(100), allocs(1000)
		t.Logf("%s: %.0f allocs at 100 rows, %.0f at 1000", format, small, large)
		if large-small > 2 {
			t.Errorf("%s: allocations grow with rows: %.0f at 100, %.0f at 1000", format, small, large)
		}
	}
}

// BenchmarkParseBytes reports each kernel's throughput (MB/s) over a
// canonical 400-row file:
//
//	go test ./internal/scan -run '^$' -bench ParseBytes
func BenchmarkParseBytes(b *testing.B) {
	for _, format := range []string{"csv", "obs", "jsonl"} {
		b.Run(format, func(b *testing.B) {
			data := canonicalFile(format, 400)
			rel := "auv/x." + format
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ParseBytes(rel, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
