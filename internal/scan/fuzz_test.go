package scan

import (
	"bytes"
	"encoding/json"
	"testing"

	"metamess/internal/catalog"
)

// FuzzScanParsers feeds malformed archive files to all three format
// parsers (cruise CSV, station OBS, AUV JSONL) at the entry points
// ParseBytes dispatches to, plus the general cruise decoder on its own
// ("csv-records": parseCSV only reaches it for files its quote-free
// kernel declines). The archive is the system's trust boundary — any
// file an operator drops under the root reaches these parsers verbatim
// — so the properties are:
//
//   - no input panics a parser (errors are the only rejection channel);
//   - a parser returns a feature XOR an error, never both or neither;
//   - parsing is deterministic: the same bytes yield byte-identical
//     summaries (the incremental scanner depends on this — a re-parse
//     of an unchanged file must not register as churn);
//   - an accepted summary is internally coherent: per-variable
//     observation counts are non-negative, never exceed the row count,
//     and every observed value range has Min ≤ Max.
func FuzzScanParsers(f *testing.F) {
	f.Add("csv", []byte("time,latitude,longitude,temp [C],salinity [PSU]\n"+
		"2010-06-01T00:00:00Z,45.5,-124.4,11.2,31.5\n"+
		"2010-06-01T01:00:00Z,45.6,-124.3,NaN,31.9\n"))
	f.Add("csv", []byte("time,latitude,longitude\n"))
	f.Add("csv-records", []byte("time,latitude,longitude,\"temp, top [C]\"\n2010-06-01T00:00:00Z,45.5,-124.4,\"11.2\"\n"))
	f.Add("obs", []byte("#station: saturn01\n#lat: 46.2\n#lon: -123.8\n"+
		"#fields:\ttemp\tsal\n#units:\tC\tPSU\n"+
		"1275350400\t11.2\t31.5\n1275354000\t\t31.9\n"))
	f.Add("obs", []byte("#fields:\ttemp\n1275350400\t11.2\n"))
	f.Add("jsonl", []byte(`{"type":"header","fields":[{"name":"temp","unit":"C"}]}`+"\n"+
		`{"type":"obs","time":"2010-06-01T00:00:00Z","lat":45.5,"lon":-124.4,"values":[11.2]}`+"\n"))
	f.Add("jsonl", []byte(`{"type":"obs"}`))
	f.Fuzz(func(t *testing.T, format string, data []byte) {
		var parse func(string, []byte) (*catalog.Feature, error)
		switch format {
		case "csv":
			parse = parseCSV
		case "csv-records":
			parse = parseCSVRecords
		case "obs":
			parse = parseOBS
		default:
			parse = parseJSONL
		}
		feat1, err1 := parse("fuzz/input.dat", data)
		if (feat1 == nil) == (err1 == nil) {
			t.Fatalf("feature XOR error violated: feature=%v err=%v", feat1, err1)
		}
		feat2, err2 := parse("fuzz/input.dat", data)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("nondeterministic outcome: first err=%v, second err=%v", err1, err2)
		}
		if err1 != nil {
			return
		}
		// Every accepted summary must survive JSON persistence — this is
		// the invariant that flushed out ±Inf leaking through EmptyBBox
		// and "inf"/"nan" numeric spellings.
		j1, err := json.Marshal(feat1)
		if err != nil {
			t.Fatalf("accepted summary does not marshal: %v", err)
		}
		j2, _ := json.Marshal(feat2)
		if !bytes.Equal(j1, j2) {
			t.Fatalf("nondeterministic summary:\n first %s\nsecond %s", j1, j2)
		}
		if feat1.RowCount < 0 {
			t.Fatalf("negative row count %d", feat1.RowCount)
		}
		for _, v := range feat1.Variables {
			if v.Count < 0 || v.Count > feat1.RowCount {
				t.Fatalf("variable %q count %d outside [0, rows=%d]", v.RawName, v.Count, feat1.RowCount)
			}
			if v.Count > 0 && v.Range.Min > v.Range.Max {
				t.Fatalf("variable %q inverted range [%g, %g]", v.RawName, v.Range.Min, v.Range.Max)
			}
		}
	})
}
