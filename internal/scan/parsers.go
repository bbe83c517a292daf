package scan

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"metamess/internal/catalog"
	"metamess/internal/geo"
)

// The parsers summarise a file in one pass over its bytes: lines and
// cells are sub-slices of the input, numbers go to strconv through
// short-lived string views, and the per-row scratch lives in the
// accumulator, so what a parse allocates does not depend on how many
// rows the file has.

// accumulator builds a feature's summary in one pass over observations.
type accumulator struct {
	bbox   geo.BBox
	trange geo.TimeRange
	rows   int
	vars   []varAcc
	// values and present are the row scratch: handed out by row, and
	// (values only) filled by observeCanonical.
	values  []float64
	present []bool
}

type varAcc struct {
	name, unit string
	min, max   float64
	count      int
}

func newAccumulator(names, units []string) *accumulator {
	a := &accumulator{bbox: geo.EmptyBBox()}
	for i, n := range names {
		u := ""
		if i < len(units) {
			u = units[i]
		}
		a.vars = append(a.vars, varAcc{name: n, unit: u})
	}
	return a
}

// row returns the accumulator's n-cell row scratch with every cell
// marked missing. It is valid until the next call.
func (a *accumulator) row(n int) ([]float64, []bool) {
	if cap(a.values) < n || cap(a.present) < n {
		a.values = make([]float64, n)
		a.present = make([]bool, n)
	}
	present := a.present[:n]
	clear(present)
	return a.values[:n], present
}

// finite reports whether v is a usable observation value. strconv
// accepts spellings like "inf" and "nan", but the scorer's value ranges
// and JSON persistence cannot carry non-finite numbers, so parsers
// treat them as missing cells and reject them as coordinates.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// obsTimeBounds keep parsed timestamps within JSON-representable years
// [1, 9999]; a unix-seconds field outside them is file corruption, not
// a dataset from the far future.
const (
	minUnixSec = -62135596800 // 0001-01-01T00:00:00Z
	maxUnixSec = 253402300799 // 9999-12-31T23:59:59Z
)

func (a *accumulator) observe(at time.Time, p geo.Point, values []float64, present []bool) {
	a.rows++
	a.bbox = a.bbox.ExtendPoint(p)
	a.trange = a.trange.Extend(at)
	for i := range a.vars {
		if i >= len(values) || (present != nil && !present[i]) {
			continue
		}
		v := values[i]
		va := &a.vars[i]
		if va.count == 0 || v < va.min {
			va.min = v
		}
		if va.count == 0 || v > va.max {
			va.max = v
		}
		va.count++
	}
}

func (a *accumulator) feature() *catalog.Feature {
	f := &catalog.Feature{
		BBox:     a.bbox,
		Time:     a.trange,
		RowCount: a.rows,
	}
	for _, va := range a.vars {
		f.Variables = append(f.Variables, catalog.VarFeature{
			RawName: va.name,
			Name:    va.name,
			Unit:    va.unit,
			Range:   geo.ValueRange{Min: va.min, Max: va.max},
			Count:   va.count,
		})
	}
	return f
}

// maxLineBytes bounds one .obs or .jsonl line: a longer one is
// bufio.ErrTooLong, as it was when a bufio.Scanner with a 4 MiB buffer
// split these files.
const maxLineBytes = 1 << 22

// cutLine splits data's first line off the way bufio.ScanLines and
// encoding/csv both do: the "\n" terminator and one "\r" before it (or
// before end of input) are dropped. tooLong reports a line whose bytes
// up to the terminator reach maxLineBytes.
func cutLine(data []byte) (line, rest []byte, tooLong bool) {
	line, rest, _ = bytes.Cut(data, newline)
	return bytes.TrimSuffix(line, cr), rest, len(line) >= maxLineBytes
}

var (
	newline = []byte{'\n'}
	cr      = []byte{'\r'}
)

// cutCell is bytes.Cut for a one-byte separator, the per-cell hot call;
// more reports whether another cell follows.
func cutCell(s []byte, sep byte) (cell, rest []byte, more bool) {
	if i := bytes.IndexByte(s, sep); i >= 0 {
		return s[:i], s[i+1:], true
	}
	return s, nil, false
}

// parseCSV reads the cruise format: header
// time,latitude,longitude,<name [unit]>..., then data records. A file
// without a '"' byte has no quoted field, so its records are its lines
// and its fields are comma splits: parseCSVUnquoted summarises it
// directly, and declines — never rejects — a file with anything to
// report. Every other file, and every error, goes through encoding/csv,
// which stays the definition of the format and the source of the error
// text.
func parseCSV(rel string, data []byte) (*catalog.Feature, error) {
	if bytes.IndexByte(data, '"') < 0 {
		if f := parseCSVUnquoted(data); f != nil {
			return f, nil
		}
	}
	return parseCSVRecords(rel, data)
}

// csvAccumulator checks a cruise header record and starts the
// accumulator for its variable columns.
func csvAccumulator(rel string, header []string) (*accumulator, error) {
	if len(header) < 4 {
		return nil, fmt.Errorf("scan: %s: header too short (%d columns)", rel, len(header))
	}
	if !strings.EqualFold(header[0], "time") {
		return nil, fmt.Errorf("scan: %s: first column %q, want time", rel, header[0])
	}
	names := make([]string, 0, len(header)-3)
	units := make([]string, 0, len(header)-3)
	for _, cell := range header[3:] {
		name, unit := splitNameUnit(cell)
		names = append(names, name)
		units = append(units, unit)
	}
	return newAccumulator(names, units), nil
}

// cellValue reads one trimmed variable cell of a .csv or .obs row: ok is
// false for a cell that is not a number, present is false for an empty
// one and for the "NaN"/"inf" spellings strconv accepts.
func cellValue(cell []byte) (v float64, present, ok bool) {
	if len(cell) == 0 {
		return 0, false, true
	}
	v, err := strconv.ParseFloat(string(cell), 64)
	return v, finite(v), err == nil
}

// parseCSVUnquoted summarises a quote-free cruise file, reproducing what
// encoding/csv does with one: blank lines are skipped, a single "\r"
// before the line end is dropped, and every record has the header's
// field count. It returns nil when the file has anything an error would
// describe, leaving the description to parseCSVRecords.
func parseCSVUnquoted(data []byte) *catalog.Feature {
	var acc *accumulator
	for len(data) > 0 {
		var line []byte
		line, data, _ = cutLine(data)
		if len(line) == 0 {
			continue
		}
		if acc == nil {
			var err error
			if acc, err = csvAccumulator("", strings.Split(string(line), ",")); err != nil {
				return nil
			}
			continue
		}
		stamp, cells, _ := cutCell(line, ',')
		latCell, cells, _ := cutCell(cells, ',')
		lonCell, cells, more := cutCell(cells, ',')
		at, err := time.Parse(time.RFC3339, string(stamp))
		lat, err1 := strconv.ParseFloat(string(latCell), 64)
		lon, err2 := strconv.ParseFloat(string(lonCell), 64)
		if err != nil || err1 != nil || err2 != nil || !finite(lat) || !finite(lon) {
			return nil
		}
		values, present := acc.row(len(acc.vars))
		for i := range values {
			if !more {
				return nil // fewer fields than the header
			}
			var cell []byte
			cell, cells, more = cutCell(cells, ',')
			var ok bool
			if values[i], present[i], ok = cellValue(bytes.TrimSpace(cell)); !ok {
				return nil
			}
		}
		if more {
			return nil // more fields than the header
		}
		acc.observe(at, geo.Point{Lat: lat, Lon: lon}, values, present)
	}
	if acc == nil {
		return nil
	}
	return acc.feature()
}

// parseCSVRecords is the general cruise parser, over encoding/csv.
func parseCSVRecords(rel string, data []byte) (*catalog.Feature, error) {
	r := csv.NewReader(bytes.NewReader(data))
	header, err := r.Read()
	if err != nil {
		return nil, fmt.Errorf("scan: %s: header: %w", rel, err)
	}
	acc, err := csvAccumulator(rel, header)
	if err != nil {
		return nil, err
	}
	for line := 2; ; line++ {
		rec, err := r.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("scan: %s line %d: %w", rel, line, err)
		}
		at, err := time.Parse(time.RFC3339, rec[0])
		if err != nil {
			return nil, fmt.Errorf("scan: %s line %d: bad time %q", rel, line, rec[0])
		}
		lat, err1 := strconv.ParseFloat(rec[1], 64)
		lon, err2 := strconv.ParseFloat(rec[2], 64)
		if err1 != nil || err2 != nil || !finite(lat) || !finite(lon) {
			return nil, fmt.Errorf("scan: %s line %d: bad coordinates", rel, line)
		}
		values, present := acc.row(len(acc.vars))
		for i := 0; i < len(values) && 3+i < len(rec); i++ {
			cell := strings.TrimSpace(rec[3+i])
			var ok bool
			if values[i], present[i], ok = cellValue([]byte(cell)); !ok {
				return nil, fmt.Errorf("scan: %s line %d: bad value %q", rel, line, cell)
			}
		}
		acc.observe(at, geo.Point{Lat: lat, Lon: lon}, values, present)
	}
	return acc.feature(), nil
}

// splitNameUnit parses "name [unit]" header cells.
func splitNameUnit(cell string) (string, string) {
	cell = strings.TrimSpace(cell)
	open := strings.LastIndexByte(cell, '[')
	if open < 0 || !strings.HasSuffix(cell, "]") {
		return cell, ""
	}
	name := strings.TrimSpace(cell[:open])
	unit := strings.TrimSpace(cell[open+1 : len(cell)-1])
	if name == "" {
		return cell, ""
	}
	return name, unit
}

// parseOBS reads the station format: "#key: value" headers with
// tab-separated #fields and #units lines, then tab-separated rows of
// unix seconds and values. Location is fixed in the header.
func parseOBS(rel string, data []byte) (*catalog.Feature, error) {
	var (
		lat, lon float64
		haveLat  bool
		haveLon  bool
		names    []string
		units    []string
		acc      *accumulator
		lineNo   int
	)
	for len(data) > 0 {
		line, rest, tooLong := cutLine(data)
		if tooLong {
			return nil, fmt.Errorf("scan: %s: %w", rel, bufio.ErrTooLong)
		}
		data = rest
		lineNo++
		if len(line) == 0 {
			continue
		}
		if line[0] == '#' {
			body := string(line[1:])
			switch {
			case strings.HasPrefix(body, "station:"):
				// Station id retained in the path; nothing to record.
			case strings.HasPrefix(body, "lat:"):
				v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(body, "lat:")), 64)
				if err != nil || !finite(v) {
					return nil, fmt.Errorf("scan: %s line %d: bad lat", rel, lineNo)
				}
				lat, haveLat = v, true
			case strings.HasPrefix(body, "lon:"):
				v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(body, "lon:")), 64)
				if err != nil || !finite(v) {
					return nil, fmt.Errorf("scan: %s line %d: bad lon", rel, lineNo)
				}
				lon, haveLon = v, true
			case strings.HasPrefix(body, "fields:"):
				names = splitTabList(strings.TrimPrefix(body, "fields:"))
			case strings.HasPrefix(body, "units:"):
				units = splitTabList(strings.TrimPrefix(body, "units:"))
			}
			continue
		}
		if acc == nil {
			if len(names) == 0 {
				return nil, fmt.Errorf("scan: %s: data before #fields header", rel)
			}
			if !haveLat || !haveLon {
				return nil, fmt.Errorf("scan: %s: missing #lat/#lon headers", rel)
			}
			acc = newAccumulator(names, units)
		}
		stamp, cells, more := cutCell(line, '\t')
		secs, err := strconv.ParseInt(string(stamp), 10, 64)
		if err != nil || secs < minUnixSec || secs > maxUnixSec {
			return nil, fmt.Errorf("scan: %s line %d: bad timestamp %q", rel, lineNo, stamp)
		}
		// A row is read against the #fields in force at this line, which
		// a late header may have changed; cells beyond them are ignored.
		values, present := acc.row(len(names))
		for i := 0; i < len(values) && more; i++ {
			var cell []byte
			cell, cells, more = cutCell(cells, '\t')
			cell = bytes.TrimSpace(cell)
			var ok bool
			if values[i], present[i], ok = cellValue(cell); !ok {
				return nil, fmt.Errorf("scan: %s line %d: bad value %q", rel, lineNo, cell)
			}
		}
		acc.observe(time.Unix(secs, 0).UTC(), geo.Point{Lat: lat, Lon: lon}, values, present)
	}
	if acc == nil {
		if len(names) == 0 {
			return nil, fmt.Errorf("scan: %s: no #fields header", rel)
		}
		acc = newAccumulator(names, units)
	}
	return acc.feature(), nil
}

func splitTabList(s string) []string {
	parts := strings.Split(s, "\t")
	var out []string
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseJSONL reads the AUV format: a {"type":"header"} line then
// {"type":"obs"} lines. An observation line in exactly the shape the
// platforms write is read by observeCanonical; every other line —
// headers, and any obs line observeCanonical does not fully recognise —
// is decoded by decodeJSONLine with encoding/json, which stays the
// definition of the format and the only source of its errors.
func parseJSONL(rel string, data []byte) (*catalog.Feature, error) {
	var (
		acc    *accumulator
		lineNo int
	)
	for len(data) > 0 {
		line, rest, tooLong := cutLine(data)
		if tooLong {
			return nil, fmt.Errorf("scan: %s: %w", rel, bufio.ErrTooLong)
		}
		data = rest
		lineNo++
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		if acc != nil && acc.observeCanonical(line) {
			continue
		}
		var err error
		if acc, err = decodeJSONLine(rel, lineNo, line, acc); err != nil {
			return nil, err
		}
	}
	if acc == nil {
		return nil, fmt.Errorf("scan: %s: missing header line", rel)
	}
	return acc.feature(), nil
}

// decodeJSONLine decodes one AUV line of either type with encoding/json
// and returns the accumulator in force after it: a header line starts a
// new one, an obs line feeds acc.
func decodeJSONLine(rel string, lineNo int, line []byte, acc *accumulator) (*accumulator, error) {
	var probe struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(line, &probe); err != nil {
		return nil, fmt.Errorf("scan: %s line %d: %w", rel, lineNo, err)
	}
	switch probe.Type {
	case "header":
		var hdr struct {
			Fields []struct {
				Name string `json:"name"`
				Unit string `json:"unit"`
			} `json:"fields"`
		}
		if err := json.Unmarshal(line, &hdr); err != nil {
			return nil, fmt.Errorf("scan: %s line %d: header: %w", rel, lineNo, err)
		}
		names := make([]string, len(hdr.Fields))
		units := make([]string, len(hdr.Fields))
		for i, f := range hdr.Fields {
			names[i] = f.Name
			units[i] = f.Unit
		}
		return newAccumulator(names, units), nil
	case "obs":
		if acc == nil {
			return nil, fmt.Errorf("scan: %s line %d: obs before header", rel, lineNo)
		}
		var rec struct {
			Time   time.Time `json:"time"`
			Lat    float64   `json:"lat"`
			Lon    float64   `json:"lon"`
			Values []float64 `json:"values"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("scan: %s line %d: obs: %w", rel, lineNo, err)
		}
		acc.observe(rec.Time, geo.Point{Lat: rec.Lat, Lon: rec.Lon}, rec.Values, nil)
		return acc, nil
	}
	return nil, fmt.Errorf("scan: %s line %d: unknown record type %q", rel, lineNo, probe.Type)
}

// The fixed text of a canonical observation line, between its values.
var (
	obsOpen   = []byte(`{"type":"obs","time":"`)
	obsLat    = []byte(`,"lat":`)
	obsLon    = []byte(`,"lon":`)
	obsValues = []byte(`,"values":[`)
)

// observeCanonical observes line if it is exactly
//
//	{"type":"obs","time":"T","lat":N,"lon":N,"values":[N,...]}
//
// with these keys once each in this order, no whitespace, T free of
// escapes and non-ASCII bytes and accepted by the time.Time text decoder
// encoding/json itself reaches, and every N in the strict JSON number
// grammar and float64's range. Anything else is declined (false, nothing
// observed), never rejected: the caller hands the line to encoding/json.
func (a *accumulator) observeCanonical(line []byte) bool {
	var (
		at     time.Time
		p      geo.Point
		values = a.values[:0]
	)
	rest, found := bytes.CutPrefix(line, obsOpen)
	end := bytes.IndexByte(rest, '"')
	if !found || end < 0 {
		return false
	}
	for _, c := range rest[:end] {
		if c < 0x20 || c >= 0x80 || c == '\\' {
			return false
		}
	}
	if at.UnmarshalText(rest[:end]) != nil {
		return false
	}
	if rest, found = bytes.CutPrefix(rest[end+1:], obsLat); !found {
		return false
	}
	if p.Lat, rest, found = jsonNumber(rest); !found {
		return false
	}
	if rest, found = bytes.CutPrefix(rest, obsLon); !found {
		return false
	}
	if p.Lon, rest, found = jsonNumber(rest); !found {
		return false
	}
	if rest, found = bytes.CutPrefix(rest, obsValues); !found {
		return false
	}
	for first := true; len(rest) > 0 && rest[0] != ']'; first = false {
		if !first {
			if rest[0] != ',' {
				return false
			}
			rest = rest[1:]
		}
		var v float64
		if v, rest, found = jsonNumber(rest); !found {
			return false
		}
		values = append(values, v)
	}
	a.values = values // keep what append grew
	if string(rest) != "]}" {
		return false
	}
	a.observe(at, p, values, nil)
	return true
}

// jsonNumber reads a leading JSON number (RFC 8259: no "+", no leading
// zeros, digits on both sides of ".", no hex, inf or nan) off b. ok is
// false when b does not start with one or float64 cannot hold it.
func jsonNumber(b []byte) (v float64, rest []byte, ok bool) {
	i := 0
	digits := func() bool { // consumes a run of digits; false if empty
		start := i
		for i < len(b) && b[i]-'0' <= 9 {
			i++
		}
		return i > start
	}
	if len(b) > 0 && b[0] == '-' {
		i++
	}
	if first := i; !digits() || b[first] == '0' && i > first+1 {
		return 0, b, false
	}
	if i < len(b) && b[i] == '.' {
		if i++; !digits() {
			return 0, b, false
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return 0, b, false
		}
	}
	v, err := strconv.ParseFloat(string(b[:i]), 64)
	return v, b[i:], err == nil
}
