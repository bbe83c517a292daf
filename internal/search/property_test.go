package search

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"metamess/internal/catalog"
	"metamess/internal/geo"
)

// TestScoreBoundsProperty checks that every score a query can produce
// stays in [0,1] for arbitrary feature geometry.
func TestScoreBoundsProperty(t *testing.T) {
	base := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	f := func(lat, lon float64, latOff, lonOff float64, dayOff int16, lo, hi float64) bool {
		clampf := func(v, a, b float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return a
			}
			return math.Mod(math.Abs(v), b-a) + a
		}
		pLat := clampf(lat, -80, 80)
		pLon := clampf(lon, -170, 170)
		fLat := clampf(pLat+math.Mod(latOff, 5), -85, 85)
		fLon := clampf(pLon+math.Mod(lonOff, 5), -175, 175)
		vLo := clampf(lo, -1000, 1000)
		vHi := clampf(hi, -1000, 1000)
		if vHi < vLo {
			vLo, vHi = vHi, vLo
		}
		feat := &catalog.Feature{
			ID:   catalog.IDForPath("p.obs"),
			Path: "p.obs", Source: "s", Format: "obs",
			BBox: geo.NewBBox(geo.Point{Lat: fLat, Lon: fLon}, geo.Point{Lat: fLat, Lon: fLon}),
			Time: geo.NewTimeRange(base.AddDate(0, 0, int(dayOff)%2000), base.AddDate(0, 0, int(dayOff)%2000+10)),
			Variables: []catalog.VarFeature{{
				RawName: "v", Name: "v",
				Range: geo.NewValueRange(vLo, vHi), Count: 10,
			}},
		}
		s := New(served(t, 0, feat), DefaultOptions())
		loc := geo.Point{Lat: pLat, Lon: pLon}
		tr := geo.NewTimeRange(base, base.AddDate(0, 0, 30))
		qr := geo.NewValueRange(0, 10)
		res, err := s.Search(Query{
			Location: &loc,
			Time:     &tr,
			Terms:    []Term{{Name: "v", Range: &qr}},
		})
		if err != nil {
			return false
		}
		for _, r := range res {
			if r.Score < 0 || r.Score > 1+1e-9 || math.IsNaN(r.Score) {
				return false
			}
			if r.Space < 0 || r.Space > 1+1e-9 || r.Time < 0 || r.Time > 1+1e-9 ||
				r.Vars < 0 || r.Vars > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestScoreMonotoneInDistance verifies that, all else equal, a farther
// dataset never outranks a nearer one.
func TestScoreMonotoneInDistance(t *testing.T) {
	tr := june2010
	dists := []float64{0.0, 0.2, 0.5, 1.0, 2.0, 5.0}
	var feats []*catalog.Feature
	for i, d := range dists {
		feats = append(feats, mkFeature(pathN(i), geo.Point{Lat: astoria.Lat + d, Lon: astoria.Lon}, tr,
			v("salinity", 0, 30)))
	}
	s := New(served(t, 0, feats...), DefaultOptions())
	res, err := s.Search(Query{Location: &astoria, Terms: []Term{{Name: "salinity"}}, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(dists) {
		t.Fatalf("results = %d", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i-1].Score < res[i].Score {
			t.Errorf("rank %d score %.4f < rank %d score %.4f", i-1, res[i-1].Score, i, res[i].Score)
		}
	}
	// The nearest dataset is first.
	want := catalog.IDForPath(pathN(0))
	if res[0].Feature.ID != want {
		t.Errorf("top hit = %s, want the co-located dataset", res[0].Feature.Path)
	}
}

// TestMoreVariableMatchesScoreHigher verifies the variable dimension
// aggregates across terms.
func TestMoreVariableMatchesScoreHigher(t *testing.T) {
	both := mkFeature("both.obs", astoria, june2010, v("salinity", 0, 30), v("turbidity", 0, 50))
	one := mkFeature("one.obs", astoria, june2010, v("salinity", 0, 30))
	s := New(served(t, 0, both, one), DefaultOptions())
	res, err := s.Search(Query{Terms: []Term{{Name: "salinity"}, {Name: "turbidity"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Feature.Path != "both.obs" {
		t.Fatalf("results = %+v", res)
	}
	if res[0].Score <= res[1].Score {
		t.Error("two-term match should beat one-term match")
	}
}

func BenchmarkSearchLinear1000(b *testing.B) {
	names := []string{"water_temperature", "salinity", "turbidity", "dissolved_oxygen"}
	var feats []*catalog.Feature
	for i := 0; i < 1000; i++ {
		p := geo.Point{Lat: 45.8 + float64(i%80)*0.01, Lon: -124.3 + float64(i%150)*0.01}
		feats = append(feats, mkFeature(pathN(i), p, june2010, v(names[i%len(names)], 0, 30)))
	}
	s := New(served(b, 0, feats...), linearOpts())
	q := Query{Location: &astoria, Time: &june2010, Terms: []Term{{Name: "salinity"}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Search(q); err != nil {
			b.Fatal(err)
		}
	}
}

func linearOpts() Options {
	o := DefaultOptions()
	o.UseIndex = false
	return o
}

func BenchmarkParseQuery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ParseQuery(`near 45.5,-124.4 in mid-2010 with temperature between 5 and 10`); err != nil {
			b.Fatal(err)
		}
	}
}
