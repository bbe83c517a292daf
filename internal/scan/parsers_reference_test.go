package scan

// The three format parsers exactly as they stood before the single-pass
// kernels in parsers.go replaced them, kept as the oracle for
// FuzzParseMatchesReference and TestGeneratedArchiveParsesIdentically:
// for any bytes the kernels must return the same feature or the same
// error string. Only identifiers are renamed (ref prefix); finite and
// the unix-second bounds are shared with parsers.go.

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"metamess/internal/catalog"
	"metamess/internal/geo"
)

// refAccumulator builds a feature's summary in one pass over observations.
type refAccumulator struct {
	bbox   geo.BBox
	trange geo.TimeRange
	rows   int
	vars   []refVarAcc
}

type refVarAcc struct {
	name, unit string
	min, max   float64
	count      int
}

func newRefAccumulator(names, units []string) *refAccumulator {
	a := &refAccumulator{bbox: geo.EmptyBBox()}
	for i, n := range names {
		u := ""
		if i < len(units) {
			u = units[i]
		}
		a.vars = append(a.vars, refVarAcc{name: n, unit: u})
	}
	return a
}

func (a *refAccumulator) observe(at time.Time, p geo.Point, values []float64, present []bool) {
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

func (a *refAccumulator) feature() *catalog.Feature {
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

// refParseCSV reads the cruise format: header
// time,latitude,longitude,<name [unit]>..., then data records.
func refParseCSV(rel string, data []byte) (*catalog.Feature, error) {
	r := csv.NewReader(bytes.NewReader(data))
	header, err := r.Read()
	if err != nil {
		return nil, fmt.Errorf("scan: %s: header: %w", rel, err)
	}
	if len(header) < 4 {
		return nil, fmt.Errorf("scan: %s: header too short (%d columns)", rel, len(header))
	}
	if !strings.EqualFold(header[0], "time") {
		return nil, fmt.Errorf("scan: %s: first column %q, want time", rel, header[0])
	}
	names := make([]string, 0, len(header)-3)
	units := make([]string, 0, len(header)-3)
	for _, cell := range header[3:] {
		name, unit := refSplitNameUnit(cell)
		names = append(names, name)
		units = append(units, unit)
	}
	acc := newRefAccumulator(names, units)
	for line := 2; ; line++ {
		rec, err := r.Read()
		if err != nil {
			if err.Error() == "EOF" || refErrIsEOF(err) {
				break
			}
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
		values := make([]float64, len(names))
		present := make([]bool, len(names))
		for i := 0; i < len(names) && 3+i < len(rec); i++ {
			cell := strings.TrimSpace(rec[3+i])
			if cell == "" || cell == "NaN" {
				continue
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, fmt.Errorf("scan: %s line %d: bad value %q", rel, line, cell)
			}
			if !finite(v) {
				continue // "inf"/"nan" spellings: missing, like the NaN text
			}
			values[i] = v
			present[i] = true
		}
		acc.observe(at, geo.Point{Lat: lat, Lon: lon}, values, present)
	}
	return acc.feature(), nil
}

// refSplitNameUnit parses "name [unit]" header cells.
func refSplitNameUnit(cell string) (string, string) {
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

func refErrIsEOF(err error) bool { return strings.Contains(err.Error(), "EOF") }

// refParseOBS reads the station format: "#key: value" headers with
// tab-separated #fields and #units lines, then tab-separated rows of
// unix seconds and values. Location is fixed in the header.
func refParseOBS(rel string, data []byte) (*catalog.Feature, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	var (
		lat, lon float64
		haveLat  bool
		haveLon  bool
		names    []string
		units    []string
		acc      *refAccumulator
		lineNo   int
	)
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			body := strings.TrimPrefix(line, "#")
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
				names = refSplitTabList(strings.TrimPrefix(body, "fields:"))
			case strings.HasPrefix(body, "units:"):
				units = refSplitTabList(strings.TrimPrefix(body, "units:"))
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
			acc = newRefAccumulator(names, units)
		}
		cells := strings.Split(line, "\t")
		secs, err := strconv.ParseInt(cells[0], 10, 64)
		if err != nil || secs < minUnixSec || secs > maxUnixSec {
			return nil, fmt.Errorf("scan: %s line %d: bad timestamp %q", rel, lineNo, cells[0])
		}
		values := make([]float64, len(names))
		present := make([]bool, len(names))
		for i := 0; i < len(names) && 1+i < len(cells); i++ {
			cell := strings.TrimSpace(cells[1+i])
			if cell == "" {
				continue
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, fmt.Errorf("scan: %s line %d: bad value %q", rel, lineNo, cell)
			}
			if !finite(v) {
				continue // non-finite spellings count as missing
			}
			values[i] = v
			present[i] = true
		}
		acc.observe(time.Unix(secs, 0).UTC(), geo.Point{Lat: lat, Lon: lon}, values, present)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scan: %s: %w", rel, err)
	}
	if acc == nil {
		if len(names) == 0 {
			return nil, fmt.Errorf("scan: %s: no #fields header", rel)
		}
		acc = newRefAccumulator(names, units)
	}
	return acc.feature(), nil
}

func refSplitTabList(s string) []string {
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

// refParseJSONL reads the AUV format: a {"type":"header"} line then
// {"type":"obs"} lines.
func refParseJSONL(rel string, data []byte) (*catalog.Feature, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	var acc *refAccumulator
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
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
			if err := json.Unmarshal([]byte(line), &hdr); err != nil {
				return nil, fmt.Errorf("scan: %s line %d: header: %w", rel, lineNo, err)
			}
			names := make([]string, len(hdr.Fields))
			units := make([]string, len(hdr.Fields))
			for i, f := range hdr.Fields {
				names[i] = f.Name
				units[i] = f.Unit
			}
			acc = newRefAccumulator(names, units)
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
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				return nil, fmt.Errorf("scan: %s line %d: obs: %w", rel, lineNo, err)
			}
			acc.observe(rec.Time, geo.Point{Lat: rec.Lat, Lon: rec.Lon}, rec.Values, nil)
		default:
			return nil, fmt.Errorf("scan: %s line %d: unknown record type %q", rel, lineNo, probe.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scan: %s: %w", rel, err)
	}
	if acc == nil {
		return nil, fmt.Errorf("scan: %s: missing header line", rel)
	}
	return acc.feature(), nil
}
