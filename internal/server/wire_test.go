package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"metamess"
	"metamess/internal/obs"
	"metamess/internal/search"
	"metamess/internal/workload"
)

var updateWireGolden = flag.Bool("update-wire", false, "rewrite testdata/wire.golden from the running code")

// wireText renders a structured query in the textual query language at
// the language's own granularity (whole days), so the golden file holds
// the /search/text spelling of every workload query beside its /search
// body.
func wireText(q search.Query) string {
	var parts []string
	num := func(f float64) string { return strconv.FormatFloat(f, 'f', -1, 64) }
	if q.Location != nil {
		parts = append(parts, "near "+num(q.Location.Lat)+","+num(q.Location.Lon))
	}
	if q.Time != nil {
		parts = append(parts, "from "+q.Time.Start.Format("2006-01-02")+" to "+q.Time.End.Format("2006-01-02"))
	}
	for _, t := range q.Terms {
		clause := "with " + strconv.Quote(t.Name)
		if t.Range != nil {
			clause += " between " + num(t.Range.Min) + " and " + num(t.Range.Max)
		}
		parts = append(parts, clause)
	}
	if q.K > 0 {
		parts = append(parts, "top "+strconv.Itoa(q.K))
	}
	return strings.Join(parts, " ")
}

// TestWireGolden pins the read path's bytes: for a fixed seed of
// workload.Queries plus hand-written edge cases, the normalized key
// (what the cache and the flight group are keyed on) and the full
// response body of POST /search and of the equivalent GET /search/text.
// The key is also looked up in the server's own cache, so the golden
// key is the one the serving path really used. Zero from/to must be
// absent from every key: a toolchain whose encoding/json ignores
// `omitzero` would change every cache key, and fails here.
func TestWireGolden(t *testing.T) {
	sys, m, _ := newTestSystem(t, 24, 7)
	srv, ts := newTestServer(t, sys, 0)
	gen := sys.SnapshotGeneration()

	type wireCase struct{ name, body, text string }
	judged, err := workload.Queries(m, 4, 29, workload.DefaultRelevance(), false)
	if err != nil {
		t.Fatal(err)
	}
	var cases []wireCase
	for i, j := range judged {
		body, err := json.Marshal(RequestFromQuery(j.Query))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, wireCase{fmt.Sprintf("workload-%d", i), string(body), wireText(j.Query)})
	}
	cases = append(cases,
		wireCase{"no-time",
			`{"near":{"lat":46.2,"lon":-123.8},"variables":[{"name":"temperature"}],"k":5}`,
			`near 46.2,-123.8 with temperature top 5`},
		wireCase{"min-only",
			`{"variables":[{"name":"temperature","min":5}],"k":5}`,
			`with temperature between 5 and 5 top 5`},
		wireCase{"max-only",
			`{"variables":[{"name":"salinity","max":30}],"k":5}`,
			`with salinity between 0 and 30 top 5`},
		wireCase{"k-zero",
			`{"variables":[{"name":"temperature"}],"k":0}`,
			`with temperature`},
		wireCase{"unknown-field",
			`{"variables":[{"name":"salinity"}],"k":3,"ignoredExtra":{"deep":[1,2]}}`,
			`with salinity top 3`},
		wireCase{"reordered-fields",
			`{"k":5, "variables":[{"max":10,"name":"temperature","min":5}], "to":"2010-08-01T00:00:00Z", "near":{"lon":-123.8,"lat":46.2}, "from":"2010-05-01T00:00:00Z"}`,
			`top 5 with temperature between 5 and 10 from 2010-05-01 to 2010-08-01 near 46.2,-123.8`},
	)

	keyOf := func(req SearchRequest) string {
		key, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return string(key)
	}
	var got bytes.Buffer
	for _, c := range cases {
		var req SearchRequest
		if err := json.Unmarshal([]byte(c.body), &req); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		iq, err := search.ParseQuery(c.text)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		key, textKey := keyOf(req), keyOf(RequestFromQuery(iq))
		for _, k := range []string{key, textKey} {
			if req.From.IsZero() && req.To.IsZero() && (strings.Contains(k, `"from"`) || strings.Contains(k, `"to"`)) {
				t.Errorf("%s: key %s carries a zero from/to — omitzero not honoured", c.name, k)
			}
		}
		status, _, searchBody := postJSON(t, ts.URL+"/search", []byte(c.body))
		if status != 200 {
			t.Fatalf("%s: /search status %d: %s", c.name, status, searchBody)
		}
		status, _, textBody := get(t, ts.URL+"/search/text?q="+url.QueryEscape(c.text))
		if status != 200 {
			t.Fatalf("%s: /search/text status %d: %s", c.name, status, textBody)
		}
		for k, body := range map[string][]byte{key: searchBody, textKey: textBody} {
			if cached, ok := srv.cache.Get(gen, k); !ok || !bytes.Equal(cached, body) {
				t.Errorf("%s: key %s is not the cache entry of its response", c.name, k)
			}
		}
		if bytes.Equal(textBody, searchBody) {
			textBody = []byte("= search")
		}
		fmt.Fprintf(&got, "== %s\nbody: %s\nkey: %s\nsearch: %s\ntext: %s\ntext-key: %s\nsearch/text: %s\n",
			c.name, c.body, key, searchBody, c.text, textKey, textBody)
	}

	// The one body no executor renders: a collapsed follower whose own
	// deadline expires while the (held) leader is still working.
	const held = `{"variables":[{"name":"turbidity"}],"k":2}`
	fk := queryKey{generation: gen, query: held}
	f, leader := srv.flights.join(fk)
	if !leader {
		t.Fatal("test did not become flight leader")
	}
	status, hdr, timeoutBody := postDeadline(t, ts.URL+"/search", []byte(held), "20")
	srv.flights.finish(fk, f, searchOutcome{})
	if status != 200 || hdr.Get("X-Dnhd-Cache") != "timeout" {
		t.Fatalf("follower timeout: status %d cache %q", status, hdr.Get("X-Dnhd-Cache"))
	}
	fmt.Fprintf(&got, "== follower-timeout\nbody: %s\nsearch: %s\n", held, timeoutBody)

	const path = "testdata/wire.golden"
	if *updateWireGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("wire bytes changed at line %d:\n got: %.300s\nwant: %.300s", i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("wire bytes changed: %d lines, want %d", len(gotLines), len(wantLines))
	}
}

// FuzzSearchResponseMatchesMarshal holds the response kernel to
// encoding/json: for every response appendResponse does not decline,
// its bytes are json.Marshal's of the same SearchResponse, and it
// declines exactly where json.Marshal fails. Inputs vary the hit count
// (zero and nil included), the strings of every field (HTML-escaped
// bytes, U+2028, invalid UTF-8), non-finite scores, partial, and a
// forced trace.
func FuzzSearchResponseMatchesMarshal(f *testing.F) {
	f.Add(uint64(3), 2, "a<b>&c.csv", "Dataset: x\n\u2028", "t -> s (0.50)", 0.5, false, false)
	f.Add(uint64(0), 0, "", "", "", 0.0, true, true)
	f.Add(uint64(1)<<63, -1, "bad\xffutf8", "\x00\x1f\"\\", "<&>\u2029", 1e-7, true, false)
	f.Add(uint64(9), 3, "p", "s", "", math.NaN(), false, true)
	f.Add(uint64(9), 1, "p", "s", "m", math.Inf(-1), false, false)
	f.Add(uint64(9), 4, "p", "s", "m", 1e21, true, true)
	f.Fuzz(func(t *testing.T, gen uint64, n int, path, summary, match string, score float64, partial, traced bool) {
		var hits []metamess.Hit
		if n >= 0 {
			hits = []metamess.Hit{}
		}
		for i := 0; i < n%8; i++ {
			h := metamess.Hit{Path: path, Score: score, Summary: summary}
			for j := 0; j < i%3; j++ {
				h.MatchedVariables = append(h.MatchedVariables, match)
			}
			if i%2 == 1 {
				h.MatchedVariables = []string{}
				h.Score = float64(i) / 7
			}
			hits = append(hits, h)
		}
		var trace *obs.SpanTree
		if traced {
			trace = &obs.SpanTree{Name: "search", DurUs: int64(n), Attrs: map[string]int64{match: 1, "hits": int64(len(hits))},
				Children: []*obs.SpanTree{{Name: path}}}
		}
		resp := SearchResponse{Generation: gen, Count: len(hits), Hits: hits, Partial: partial, Trace: trace}
		if resp.Hits == nil {
			resp.Hits = []metamess.Hit{}
		}
		want, err := json.Marshal(resp)
		got, ok := appendResponse([]byte("x"), gen, hits, partial, trace)
		if ok != (err == nil) {
			t.Fatalf("kernel ok=%v, json.Marshal error %v", ok, err)
		}
		if ok && !bytes.Equal(got[1:], want) {
			t.Fatalf("kernel wrote\n%s\njson.Marshal wrote\n%s", got[1:], want)
		}
		out := render(gen, hits, partial, trace)
		if ok && !bytes.Equal(out.body, want) {
			t.Fatalf("render wrote\n%s\nwant\n%s", out.body, want)
		}
		if !ok && out.status != http.StatusInternalServerError {
			t.Fatalf("render of a declined response: status %d, want 500", out.status)
		}
	})
}

// fillEveryField sets every exported field reachable from v to a
// non-zero value. The kernel hands a trace to json.Marshal whole, so a
// *obs.SpanTree gets one fixed span instead of an endless descent into
// its children.
func fillEveryField(t *testing.T, v reflect.Value) {
	if v.Type() == reflect.TypeOf((*obs.SpanTree)(nil)) {
		v.Set(reflect.ValueOf(&obs.SpanTree{Name: "search", DurUs: 7, Attrs: map[string]int64{"hits": 1}}))
		return
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString("a<b>&\u2028c -> d")
	case reflect.Float32, reflect.Float64:
		v.SetFloat(0.625)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(7)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillEveryField(t, v.Index(0))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillEveryField(t, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillEveryField(t, v.Field(i))
			}
		}
	default:
		t.Fatalf("fillEveryField: %s has kind %s", v.Type(), v.Kind())
	}
}

// TestResponseKernelCoversEveryField: a SearchResponse with every field
// of it and of metamess.Hit set renders to json.Marshal's bytes, so a
// field added to either type fails here until the kernel writes it.
func TestResponseKernelCoversEveryField(t *testing.T) {
	var resp SearchResponse
	fillEveryField(t, reflect.ValueOf(&resp).Elem())
	if resp.Count != len(resp.Hits) {
		t.Fatalf("count %d for %d hits", resp.Count, len(resp.Hits))
	}
	want, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := appendResponse(nil, resp.Generation, resp.Hits, resp.Partial, resp.Trace); !ok || !bytes.Equal(got, want) {
		t.Fatalf("kernel (ok=%v) wrote\n%s\njson.Marshal wrote\n%s", ok, got, want)
	}
}
