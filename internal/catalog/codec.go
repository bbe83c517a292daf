package catalog

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"metamess/internal/geo"
	"metamess/internal/jsonenc"
)

// The record kernel: a hand-written encoder and decoder for the JSON
// payload of a record line (and for the POST /publish body, which
// carries features in the same encoding). encoding/json stays the
// definition of the format and the fallback. The decoder handles the
// canonical form — what json.Marshal writes: keys once each in struct
// order, omitempty keys optional, no whitespace, strings free of
// anything json.Marshal would escape — and the encoder writes strings
// and floats with the shared internal/jsonenc primitives. Both produce
// exactly what encoding/json would: byte-identical payloads,
// reflect.DeepEqual values. On anything else the kernel declines (ok
// false), never rejects: the caller runs encoding/json, which either
// handles the input or supplies the error.
// FuzzRecordCodecMatchesReference holds that contract.

// kernelDeclines counts the payloads the kernel handed back to
// encoding/json, so tests can tell when the fast path stops being taken.
var kernelDeclines atomic.Int64

// appendPayload appends rec's payload to dst as json.Marshal(rec) would
// write it, or returns dst unchanged and false.
func appendPayload(dst []byte, rec *logRecord) ([]byte, bool) {
	e := encoder{b: dst}
	e.raw(`{"op":`).str(rec.Op)
	if rec.Feature != nil {
		e.raw(`,"feature":`).feature(rec.Feature)
	}
	if rec.Gen != 0 {
		e.raw(`,"gen":`)
		e.b = strconv.AppendUint(e.b, rec.Gen, 10)
	}
	if len(rec.Changed) > 0 {
		e.raw(`,"changed":`).array(len(rec.Changed), func(i int) { e.feature(rec.Changed[i]) })
	}
	if len(rec.Removed) > 0 {
		e.raw(`,"removed":`).strs(rec.Removed)
	}
	if len(rec.Sidecar) > 0 {
		e.raw(`,"sidecar":`).rawJSON(rec.Sidecar)
	}
	if e.raw(`}`); e.bad {
		kernelDeclines.Add(1)
		return dst, false
	}
	return e.b, true
}

// parsePayload decodes a record payload into rec as json.Unmarshal
// would, or leaves rec zero and returns false.
func parsePayload(payload []byte, rec *logRecord) bool {
	d := decoder{b: payload}
	rec.Op = d.want(`{"op":`).str()
	if d.lit(`,"feature":`) {
		rec.Feature = d.feature()
	}
	if d.lit(`,"gen":`) {
		rec.Gen = d.uint()
	}
	if d.lit(`,"changed":`) {
		rec.Changed = list(&d, d.feature)
	}
	if d.lit(`,"removed":`) {
		rec.Removed = list(&d, d.str)
	}
	if d.lit(`,"sidecar":`) {
		rec.Sidecar = d.rawJSONRest()
	}
	if !d.want(`}`).done() {
		*rec = logRecord{}
		return false
	}
	return true
}

// DecodePublishBody is the kernel for a POST /publish body,
// {"features":[...],"remove":[...]} with both keys optional (the
// metamess.PublishRequest wire form): it returns what json.Unmarshal
// would fill the two fields with, or ok false when the caller must run
// json.Unmarshal itself.
func DecodePublishBody(data []byte) (features []*Feature, remove []string, ok bool) {
	d := decoder{b: data}
	if d.want(`{`).lit(`"features":`) {
		features = list(&d, d.feature)
		if d.lit(`,"remove":`) {
			remove = list(&d, d.str)
		}
	} else if d.lit(`"remove":`) {
		remove = list(&d, d.str)
	}
	if !d.want(`}`).done() {
		return nil, nil, false
	}
	return features, remove, true
}

// encoder appends one payload; bad, once set, declines it.
type encoder struct {
	b   []byte
	bad bool
}

func (e *encoder) raw(s string) *encoder {
	e.b = append(e.b, s...)
	return e
}

// array writes n elements, elem(i) writing each.
func (e *encoder) array(n int, elem func(i int)) {
	e.raw(`[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			e.raw(`,`)
		}
		elem(i)
	}
	e.raw(`]`)
}

// str writes s as json.Marshal does, escapes included.
func (e *encoder) str(s string) { e.b = jsonenc.AppendString(e.b, s) }

func (e *encoder) strs(ss []string) { e.array(len(ss), func(i int) { e.str(ss[i]) }) }

// float writes f as json.Marshal does, declining NaN and ±Inf so
// json.Marshal reports them.
func (e *encoder) float(f float64) {
	var ok bool
	e.b, ok = jsonenc.AppendFloat(e.b, f)
	e.bad = e.bad || !ok
}

func (e *encoder) int(v int64) { e.b = strconv.AppendInt(e.b, v, 10) }

// time writes t with Time.MarshalJSON, declining what it refuses (a
// year outside [0,9999], a zone hour past 23) so json.Marshal reports it.
func (e *encoder) time(t time.Time) {
	b, err := t.MarshalJSON()
	e.bad = e.bad || err != nil
	e.b = append(e.b, b...)
}

// rawJSON writes a RawMessage as json.Marshal does — compacted, and
// declined when it is not valid JSON or holds a byte the HTML escaping
// would rewrite.
func (e *encoder) rawJSON(m json.RawMessage) {
	buf := bytes.NewBuffer(e.b)
	if json.Compact(buf, m) != nil {
		e.bad = true
		return
	}
	if v := buf.Bytes()[len(e.b):]; bytes.ContainsAny(v, "<>&") ||
		bytes.Contains(v, []byte("\u2028")) || bytes.Contains(v, []byte("\u2029")) {
		e.bad = true
	}
	e.b = buf.Bytes()
}

func (e *encoder) feature(f *Feature) {
	if f == nil {
		e.bad = true
		return
	}
	e.raw(`{"id":`).str(f.ID)
	e.raw(`,"path":`).str(f.Path)
	e.raw(`,"source":`).str(f.Source)
	e.raw(`,"format":`).str(f.Format)
	if b := f.BBox; b.IsEmpty() {
		e.raw(`,"bbox":null`)
	} else {
		e.raw(`,"bbox":{"minLat":`).float(b.MinLat)
		e.raw(`,"minLon":`).float(b.MinLon)
		e.raw(`,"maxLat":`).float(b.MaxLat)
		e.raw(`,"maxLon":`).float(b.MaxLon)
		e.raw(`}`)
	}
	e.raw(`,"time":{"start":`).time(f.Time.Start)
	e.raw(`,"end":`).time(f.Time.End)
	if f.Variables == nil {
		e.raw(`},"variables":null`)
	} else {
		e.raw(`},"variables":`).array(len(f.Variables), func(i int) { e.variable(&f.Variables[i]) })
	}
	e.raw(`,"rowCount":`).int(int64(f.RowCount))
	e.raw(`,"bytes":`).int(f.Bytes)
	e.raw(`,"scannedAt":`).time(f.ScannedAt)
	e.raw(`,"modTime":`).time(f.ModTime) // omitempty never omits a struct
	if f.ContentHash != "" {
		e.raw(`,"contentHash":`).str(f.ContentHash)
	}
	e.raw(`}`)
}

func (e *encoder) variable(v *VarFeature) {
	e.raw(`{"rawName":`).str(v.RawName)
	e.raw(`,"name":`).str(v.Name)
	if v.Unit != "" {
		e.raw(`,"unit":`).str(v.Unit)
	}
	if v.CanonicalUnit != "" {
		e.raw(`,"canonicalUnit":`).str(v.CanonicalUnit)
	}
	e.raw(`,"range":{"min":`).float(v.Range.Min)
	e.raw(`,"max":`).float(v.Range.Max)
	e.raw(`},"count":`).int(int64(v.Count))
	if v.Excluded {
		e.raw(`,"excluded":true`)
	}
	if len(v.Contexts) > 0 {
		e.raw(`,"contexts":`).strs(v.Contexts)
	}
	if v.Parent != "" {
		e.raw(`,"parent":`).str(v.Parent)
	}
	e.raw(`}`)
}

// decoder reads one canonical payload off b; bad, once set, declines
// it and turns every later read into a no-op.
type decoder struct {
	b   []byte
	bad bool
}

// lit consumes s if the input starts with it.
func (d *decoder) lit(s string) bool {
	if d.bad || len(d.b) < len(s) || string(d.b[:len(s)]) != s {
		return false
	}
	d.b = d.b[len(s):]
	return true
}

// want consumes s or declines.
func (d *decoder) want(s string) *decoder {
	if !d.lit(s) {
		d.bad = true
	}
	return d
}

// done reports whether the whole input was read without declining; a
// decline is counted.
func (d *decoder) done() bool {
	if d.bad || len(d.b) != 0 {
		kernelDeclines.Add(1)
		return false
	}
	return true
}

// span reads a string token whose bytes are its value — no escape, no
// control byte, valid UTF-8 — and returns them without the quotes.
func (d *decoder) span() []byte {
	if !d.want(`"`).bad {
		ascii := true
		for i, c := range d.b {
			switch {
			case c == '"':
				s := d.b[:i]
				d.b, d.bad = d.b[i+1:], !ascii && !utf8.Valid(s)
				return s
			case c < 0x20 || c == '\\':
				d.bad = true
				return nil
			case c >= utf8.RuneSelf:
				ascii = false
			}
		}
	}
	d.bad = true
	return nil
}

func (d *decoder) str() string { return string(d.span()) }

// number reads one token of the JSON number grammar (RFC 8259: no '+',
// no leading zero, digits on both sides of '.', no hex, Inf or NaN), the
// text encoding/json hands to strconv.
func (d *decoder) number() []byte {
	b, i := d.b, 0
	digits := func() bool {
		start := i
		for i < len(b) && b[i]-'0' <= 9 {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	first := i
	ok := digits() && (b[first] != '0' || i == first+1)
	if ok && i < len(b) && b[i] == '.' {
		i++
		ok = digits()
	}
	if ok && i < len(b) && b[i]|0x20 == 'e' {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		ok = digits()
	}
	if d.bad || !ok {
		d.bad = true
		return nil
	}
	d.b = b[i:]
	return b[:i]
}

func (d *decoder) float() float64 {
	v, err := strconv.ParseFloat(string(d.number()), 64)
	d.bad = d.bad || err != nil
	return v
}

// int reads an integer of the given bit size; a fraction or exponent
// declines, as encoding/json refuses them for integer fields.
func (d *decoder) int(bits int) int64 {
	v, err := strconv.ParseInt(string(d.number()), 10, bits)
	d.bad = d.bad || err != nil
	return v
}

func (d *decoder) uint() uint64 {
	v, err := strconv.ParseUint(string(d.number()), 10, 64)
	d.bad = d.bad || err != nil
	return v
}

// time reads a time through (*time.Time).UnmarshalJSON, the strict
// RFC 3339 parser encoding/json hands the same token to.
func (d *decoder) time() (t time.Time) {
	tok := d.b
	if s := d.span(); !d.bad && t.UnmarshalJSON(tok[:len(s)+2]) != nil {
		d.bad = true
	}
	return t
}

// maxNesting is encoding/json's nesting limit.
const maxNesting = 10000

// rawJSONRest reads the sidecar, the last key of a record: everything
// but the closing brace, which must be one valid JSON value with no
// surrounding whitespace and, since json.Valid counts nesting from the
// sidecar rather than from the record, shallow enough for encoding/json.
func (d *decoder) rawJSONRest() json.RawMessage {
	n := len(d.b) - 1
	if d.bad || n < 1 || d.b[n] != '}' {
		d.bad = true
		return nil
	}
	v := d.b[:n]
	if strings.IndexByte(" \t\n\r", v[0]) >= 0 || strings.IndexByte(" \t\n\r", v[n-1]) >= 0 || !json.Valid(v) ||
		n >= maxNesting && bytes.Count(v, []byte("["))+bytes.Count(v, []byte("{")) >= maxNesting {
		d.bad = true
		return nil
	}
	d.b = d.b[n:]
	return append(json.RawMessage(nil), v...)
}

func (d *decoder) bbox() (b geo.BBox) {
	if d.lit(`null`) {
		return geo.EmptyBBox()
	}
	b.MinLat = d.want(`{"minLat":`).float()
	b.MinLon = d.want(`,"minLon":`).float()
	b.MaxLat = d.want(`,"maxLat":`).float()
	b.MaxLon = d.want(`,"maxLon":`).float()
	d.want(`}`)
	return b
}

func (d *decoder) feature() *Feature {
	f := new(Feature)
	f.ID = d.want(`{"id":`).str()
	f.Path = d.want(`,"path":`).str()
	f.Source = d.want(`,"source":`).str()
	f.Format = d.want(`,"format":`).str()
	f.BBox = d.want(`,"bbox":`).bbox()
	f.Time.Start = d.want(`,"time":{"start":`).time()
	f.Time.End = d.want(`,"end":`).time()
	f.Variables = list(d.want(`},"variables":`), d.variable)
	f.RowCount = int(d.want(`,"rowCount":`).int(strconv.IntSize))
	f.Bytes = d.want(`,"bytes":`).int(64)
	f.ScannedAt = d.want(`,"scannedAt":`).time()
	f.ModTime = d.want(`,"modTime":`).time()
	if d.lit(`,"contentHash":`) {
		f.ContentHash = d.str()
	}
	d.want(`}`)
	return f
}

func (d *decoder) variable() (v VarFeature) {
	v.RawName = d.want(`{"rawName":`).str()
	v.Name = d.want(`,"name":`).str()
	if d.lit(`,"unit":`) {
		v.Unit = d.str()
	}
	if d.lit(`,"canonicalUnit":`) {
		v.CanonicalUnit = d.str()
	}
	v.Range.Min = d.want(`,"range":{"min":`).float()
	v.Range.Max = d.want(`,"max":`).float()
	v.Count = int(d.want(`},"count":`).int(strconv.IntSize))
	if d.lit(`,"excluded":`) {
		if v.Excluded = d.lit(`true`); !v.Excluded {
			d.want(`false`)
		}
	}
	if d.lit(`,"contexts":`) {
		v.Contexts = list(d, d.str)
	}
	if d.lit(`,"parent":`) {
		v.Parent = d.str()
	}
	d.want(`}`)
	return v
}

// list reads null or an array of elem as encoding/json fills a slice —
// null is nil, [] is empty but not nil — into a slice of exactly the
// decoded length, never longer than the one encoding/json grows.
func list[T any](d *decoder, elem func() T) []T {
	if d.lit(`null`) {
		return nil
	}
	var buf [8]T
	s := buf[:0]
	if !d.want(`[`).lit(`]`) {
		for {
			s = append(s, elem())
			if d.bad || !d.lit(`,`) {
				break
			}
		}
		d.want(`]`)
	}
	return append(make([]T, 0, len(s)), s...)
}
