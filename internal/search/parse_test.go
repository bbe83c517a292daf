package search

import (
	"testing"
	"testing/quick"
	"time"
)

func TestParsePosterExample(t *testing.T) {
	// The poster's example information need, verbatim in spirit.
	q, err := ParseQuery(`near 45.5,-124.4 in mid-2010 with temperature between 5 and 10`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Location == nil || q.Location.Lat != 45.5 || q.Location.Lon != -124.4 {
		t.Errorf("location = %v", q.Location)
	}
	if q.Time == nil {
		t.Fatal("no time range")
	}
	if q.Time.Start.Month() != time.May || q.Time.End.Month() != time.August {
		t.Errorf("mid-2010 = %v", *q.Time)
	}
	if q.Time.Start.Year() != 2010 {
		t.Errorf("year = %d", q.Time.Start.Year())
	}
	if len(q.Terms) != 1 || q.Terms[0].Name != "temperature" {
		t.Fatalf("terms = %+v", q.Terms)
	}
	if q.Terms[0].Range == nil || q.Terms[0].Range.Min != 5 || q.Terms[0].Range.Max != 10 {
		t.Errorf("range = %v", q.Terms[0].Range)
	}
}

func TestParseClauses(t *testing.T) {
	q, err := ParseQuery(`from 2010-05-01 to 2010-08-01 with salinity with "sea surface temperature" top 5`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Time == nil || q.Time.Start.Day() != 1 || q.Time.End.Month() != time.August {
		t.Errorf("time = %v", q.Time)
	}
	if len(q.Terms) != 2 || q.Terms[1].Name != "sea surface temperature" {
		t.Errorf("terms = %+v", q.Terms)
	}
	if q.K != 5 {
		t.Errorf("K = %d", q.K)
	}
}

func TestParseYearQualifiers(t *testing.T) {
	cases := map[string][2]time.Month{
		"in 2011":       {time.January, time.December},
		"in early-2011": {time.January, time.April},
		"in mid-2011":   {time.May, time.August},
		"in late-2011":  {time.September, time.December},
	}
	for src, want := range cases {
		q, err := ParseQuery(src + " with salinity")
		if err != nil {
			t.Errorf("%s: %v", src, err)
			continue
		}
		if q.Time.Start.Month() != want[0] || q.Time.End.Month() != want[1] {
			t.Errorf("%s = %v..%v", src, q.Time.Start, q.Time.End)
		}
	}
}

func TestParseConnectives(t *testing.T) {
	q, err := ParseQuery(`near 46.2,-123.8 and with salinity and with turbidity`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Terms) != 2 {
		t.Errorf("terms = %+v", q.Terms)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                               // empty query fails validation
		"near",                           // missing coordinates
		"near notapoint",                 // bad coordinates
		"near 99,200 with x",             // out-of-range coordinates
		"from 2010-05-01 with x",         // from without to
		"from yesterday to 2010-08-01",   // bad date
		"in",                             // missing year
		"in soon-2010",                   // unknown qualifier
		"in 99999",                       // silly year
		"with",                           // missing name
		"with temp between 5",            // incomplete between
		"with temp between five and ten", // non-numeric bounds
		"with x between 5 and inf",       // infinite bound
		"with x between -Inf and 5",      //
		"with x between nan and 5",       // NaN bound
		"with x between 5 and NaN",       //
		"top",                            // missing count
		"top zero",                       // bad count
		"top -3 with x",                  // non-positive count
		`with "unterminated`,             // quote
		"frobnicate the catalog",         // unknown token
	}
	for _, src := range bad {
		if _, err := ParseQuery(src); err == nil {
			t.Errorf("ParseQuery(%q) should fail", src)
		}
	}
}

func TestParseNeverPanics(t *testing.T) {
	f := func(s string) bool {
		if len(s) > 120 {
			s = s[:120]
		}
		_, _ = ParseQuery(s)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzParseQuery holds the parser to the query contract: it never
// panics, and whatever it accepts passes Validate with finite, ordered
// term bounds — the scorer's range fit and the response cache key both
// assume them.
func FuzzParseQuery(f *testing.F) {
	for _, seed := range []string{
		`near 45.5,-124.4 in mid-2010 with temperature between 5 and 10`,
		`from 2010-05-01 to 2010-08-01 with salinity with "sea surface temperature" top 5`,
		`with salinity between 5 and inf`,
		`with salinity between nan and 5`,
		`with salinity between -1e308 and 1e308`,
		`with salinity between 0x1p-2 and 1_000`,
		`near 46.2,-123.8 and with salinity and with turbidity`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := ParseQuery(src)
		if err != nil {
			return
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("ParseQuery(%q) accepted a query Validate rejects: %v", src, err)
		}
		for _, term := range q.Terms {
			if r := term.Range; r != nil && !(finite(r.Min) && finite(r.Max) && r.Min <= r.Max) {
				t.Fatalf("ParseQuery(%q): term %q range %v", src, term.Name, *r)
			}
		}
	})
}

func TestParsedQueryRunsAgainstCatalog(t *testing.T) {
	c := testCatalog(t)
	s := New(c, DefaultOptions())
	q, err := ParseQuery(`near 46.19,-123.83 in mid-2010 with water_temperature between 5 and 10 top 3`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].Feature.Path != "near.obs" {
		t.Errorf("results = %+v", res)
	}
}
