package search

import (
	"math"
	"strings"
	"testing"
	"time"

	"metamess/internal/catalog"
	"metamess/internal/geo"
	"metamess/internal/semdiv"
	"metamess/internal/vocab"
)

var (
	astoria  = geo.Point{Lat: 46.19, Lon: -123.83}
	portland = geo.Point{Lat: 45.52, Lon: -122.68}
	june2010 = geo.NewTimeRange(
		time.Date(2010, 6, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2010, 6, 30, 0, 0, 0, 0, time.UTC))
)

// mkFeature builds a feature near a point with given vars.
func mkFeature(path string, at geo.Point, tr geo.TimeRange, vars ...catalog.VarFeature) *catalog.Feature {
	return &catalog.Feature{
		ID:     catalog.IDForPath(path),
		Path:   path,
		Source: "stations",
		Format: "obs",
		BBox: geo.BBox{
			MinLat: at.Lat - 0.01, MinLon: at.Lon - 0.01,
			MaxLat: at.Lat + 0.01, MaxLon: at.Lon + 0.01,
		},
		Time:      tr,
		Variables: vars,
		RowCount:  100,
		Bytes:     1000,
	}
}

func v(name string, min, max float64) catalog.VarFeature {
	return catalog.VarFeature{
		RawName: name, Name: name,
		Range: geo.ValueRange{Min: min, Max: max}, Count: 100,
	}
}

// served publishes feats, upserted in order as a working catalog takes
// them, into a fresh served catalog of the given shard count (0 =
// default) with one ApplyDelta.
func served(t testing.TB, shards int, feats ...*catalog.Feature) *catalog.Catalog {
	t.Helper()
	w := catalog.NewWorking()
	for _, f := range feats {
		if err := w.Upsert(f); err != nil {
			t.Fatal(err)
		}
	}
	c := catalog.NewSharded(shards)
	if _, err := c.ApplyDelta(c.DiffTo(w)); err != nil {
		t.Fatal(err)
	}
	return c
}

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	feats := []*catalog.Feature{
		mkFeature("near.obs", astoria, june2010, v("water_temperature", 5, 10), v("salinity", 10, 30)),
		mkFeature("far.obs", portland, june2010, v("water_temperature", 5, 10)),
		mkFeature("late.obs", astoria,
			geo.NewTimeRange(
				time.Date(2011, 6, 1, 0, 0, 0, 0, time.UTC),
				time.Date(2011, 6, 30, 0, 0, 0, 0, time.UTC)),
			v("water_temperature", 15, 22)),
		mkFeature("novar.obs", astoria, june2010, v("turbidity", 0, 50)),
	}
	return served(t, 0, feats...)
}

func TestSearchRanksNearnessFirst(t *testing.T) {
	c := testCatalog(t)
	s := New(c, DefaultOptions())
	// The poster's example query: observations near a point in mid-2010
	// with temperature between 5-10C.
	res, err := s.Search(Query{
		Location: &astoria,
		Time:     &june2010,
		Terms:    []Term{{Name: "water_temperature", Range: &geo.ValueRange{Min: 5, Max: 10}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
	if res[0].Feature.Path != "near.obs" {
		t.Errorf("top hit = %s, want near.obs", res[0].Feature.Path)
	}
	// The perfect hit scores near 1 on every dimension.
	if res[0].Score < 0.95 {
		t.Errorf("top score = %.3f, want ~1", res[0].Score)
	}
	// far.obs matches variable+time but is ~100km away: lower score.
	var farScore, nearScore float64
	for _, r := range res {
		switch r.Feature.Path {
		case "near.obs":
			nearScore = r.Score
		case "far.obs":
			farScore = r.Score
		}
	}
	if farScore >= nearScore {
		t.Errorf("far (%.3f) should score below near (%.3f)", farScore, nearScore)
	}
}

func TestSearchTimeGapLowersScore(t *testing.T) {
	c := testCatalog(t)
	s := New(c, DefaultOptions())
	res, err := s.Search(Query{Location: &astoria, Time: &june2010})
	if err != nil {
		t.Fatal(err)
	}
	scores := map[string]float64{}
	for _, r := range res {
		scores[r.Feature.Path] = r.Score
	}
	if scores["late.obs"] >= scores["near.obs"] {
		t.Errorf("year-late dataset (%.3f) should rank below in-period (%.3f)",
			scores["late.obs"], scores["near.obs"])
	}
}

func TestSearchValueRangeFit(t *testing.T) {
	c := testCatalog(t)
	s := New(c, DefaultOptions())
	// Query 5-10C: late.obs observed 15-22C (disjoint) must score below
	// near.obs (5-10C, exact cover).
	res, err := s.Search(Query{
		Terms: []Term{{Name: "water_temperature", Range: &geo.ValueRange{Min: 5, Max: 10}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	scores := map[string]float64{}
	for _, r := range res {
		scores[r.Feature.Path] = r.Score
	}
	if scores["late.obs"] >= scores["near.obs"] {
		t.Errorf("disjoint range (%.3f) should score below covering range (%.3f)",
			scores["late.obs"], scores["near.obs"])
	}
}

func TestSearchKLimitsAndOrdering(t *testing.T) {
	c := testCatalog(t)
	s := New(c, DefaultOptions())
	res, err := s.Search(Query{Location: &astoria, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("K=2 returned %d", len(res))
	}
	if res[0].Score < res[1].Score {
		t.Error("results not sorted by score")
	}
}

func TestSearchEmptyAndInvalidQueries(t *testing.T) {
	s := New(testCatalog(t), DefaultOptions())
	if _, err := s.Search(Query{}); err == nil {
		t.Error("empty query accepted")
	}
	bad := geo.Point{Lat: 99, Lon: 0}
	if _, err := s.Search(Query{Location: &bad}); err == nil {
		t.Error("invalid location accepted")
	}
	if _, err := s.Search(Query{Terms: []Term{{}}}); err == nil {
		t.Error("empty term accepted")
	}
	r := geo.EmptyBBox()
	if _, err := s.Search(Query{Region: &r}); err == nil {
		t.Error("empty region accepted")
	}
	for _, vr := range []geo.ValueRange{
		{Min: 5, Max: math.Inf(1)},
		{Min: math.Inf(-1), Max: 5},
		{Min: math.NaN(), Max: 5},
	} {
		if _, err := s.Search(Query{Terms: []Term{{Name: "salinity", Range: &vr}}}); err == nil {
			t.Errorf("non-finite term range %v accepted", vr)
		}
	}
	// A reversed range would score differently from the same range in
	// order; geo.NewValueRange orders it, a hand-built one is refused.
	for _, vr := range []geo.ValueRange{
		{Min: 10, Max: 5},
		{Min: 0, Max: -1e-9},
	} {
		if _, err := s.Search(Query{Terms: []Term{{Name: "water_temperature", Range: &vr}}}); err == nil {
			t.Errorf("reversed term range %v accepted", vr)
		}
	}
	point := geo.ValueRange{Min: 7, Max: 7}
	if _, err := s.Search(Query{Terms: []Term{{Name: "water_temperature", Range: &point}}}); err != nil {
		t.Errorf("one-value range refused: %v", err)
	}
}

func TestSearchRegionQuery(t *testing.T) {
	c := testCatalog(t)
	s := New(c, DefaultOptions())
	region := geo.BBox{MinLat: 46, MinLon: -124.2, MaxLat: 46.4, MaxLon: -123.4}
	res, err := s.Search(Query{Region: &region})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].Feature.Path == "far.obs" {
		t.Errorf("region query top hit = %v", res)
	}
}

func TestSearchIndexVsLinearScanAgree(t *testing.T) {
	c := testCatalog(t)
	q := Query{
		Location: &astoria,
		Terms:    []Term{{Name: "water_temperature"}},
	}
	withIdx := New(c, Options{UseIndex: true})
	noIdx := New(c, Options{UseIndex: false})
	a, err := withIdx.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := noIdx.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("index %d vs scan %d results", len(a), len(b))
	}
	for i := range a {
		if a[i].Feature.ID != b[i].Feature.ID || a[i].Score != b[i].Score {
			t.Errorf("rank %d differs: %s/%.3f vs %s/%.3f",
				i, a[i].Feature.Path, a[i].Score, b[i].Feature.Path, b[i].Score)
		}
	}
}

func TestSearchExcludedVariablesInvisible(t *testing.T) {
	f := mkFeature("qa.obs", astoria, june2010, v("salinity", 10, 30))
	f.Variables = append(f.Variables, catalog.VarFeature{
		RawName: "qa_level", Name: "qa_level", Excluded: true, Count: 10,
		Range: geo.ValueRange{Min: 0, Max: 4},
	})
	c := served(t, 0, f)
	s := New(c, DefaultOptions())
	res, err := s.Search(Query{Terms: []Term{{Name: "qa_level"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("excluded variable matched: %v", res)
	}
	// But the summary page still shows it (detailed dataset view).
	sum := Summarize(f)
	if len(sum.Excluded) != 1 || sum.Excluded[0].Name != "qa_level" {
		t.Errorf("summary excluded = %+v", sum.Excluded)
	}
}

func TestSearchWithKnowledgeExpander(t *testing.T) {
	c := testCatalog(t)
	k, err := semdiv.NewKnowledge(vocab.Standard())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Expander = NewKnowledgeExpander(func() *semdiv.Knowledge { return k })
	s := New(c, opts)

	// "wtemp" is a curated synonym of water_temperature.
	res, err := s.Search(Query{Terms: []Term{{Name: "wtemp"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("synonym query found nothing")
	}
	if res[0].TermScores[0].MatchedAs != "water_temperature" {
		t.Errorf("matched as %q", res[0].TermScores[0].MatchedAs)
	}

	// Bare "temperature" expands across contexts and still matches.
	res, err = s.Search(Query{Terms: []Term{{Name: "temperature"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("bare base query found nothing")
	}

	// Abbreviation: SST resolves to water_temperature.
	res, err = s.Search(Query{Terms: []Term{{Name: "SST"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("abbreviation query found nothing")
	}

	// Without the expander, the synonym query finds nothing.
	plain := New(c, DefaultOptions())
	res, err = plain.Search(Query{Terms: []Term{{Name: "wtemp"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("unexpanded synonym matched: %v", res)
	}
}

func TestSearchHierarchyParentMatch(t *testing.T) {
	f := mkFeature("optics.obs", astoria, june2010, v("fluores375", 0, 100))
	f.Variables[0].Parent = "fluorescence"
	c := served(t, 0, f)
	s := New(c, DefaultOptions())
	res, err := s.Search(Query{Terms: []Term{{Name: "fluorescence"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("parent query results = %d", len(res))
	}
	if res[0].Vars != 0.8 {
		t.Errorf("parent match weight = %.2f, want 0.8", res[0].Vars)
	}
	if !strings.Contains(res[0].TermScores[0].MatchedAs, "child of") {
		t.Errorf("matchedAs = %q", res[0].TermScores[0].MatchedAs)
	}
}

// TestScoreTermFirstOccurrenceDecides pins how a feature whose raw
// variables were wrangled to one name scores: the first variable with
// the name decides, even when it is excluded or fits the queried range
// worse; a later copy never scores by name.
func TestScoreTermFirstOccurrenceDecides(t *testing.T) {
	s := New(catalog.New(), DefaultOptions())
	qr := geo.NewValueRange(10, 20)
	et := expandedTerm{
		term:       Term{Name: "salinity", Range: &qr},
		expansions: []Expansion{{Name: "salinity", Weight: 1}},
	}
	fits := v("salinity", 10, 20)
	far := v("salinity", 100, 110)
	far.RawName = "sal_far"
	hidden := fits
	hidden.RawName, hidden.Excluded = "sal_hidden", true
	for _, c := range []struct {
		name string
		vars []catalog.VarFeature
		want float64
	}{
		{"excluded first", []catalog.VarFeature{hidden, fits}, 0},
		{"out of range first", []catalog.VarFeature{far, fits}, rangeFit(qr, far.Range)},
		{"fitting first", []catalog.VarFeature{fits, far}, 1},
	} {
		f := mkFeature("dup.obs", astoria, june2010, c.vars...)
		if got := s.scoreTerm(f, et, false).Score; got != c.want {
			t.Errorf("%s: score %v, want %v", c.name, got, c.want)
		}
		if first, _ := f.Variable("salinity"); first.RawName != c.vars[0].RawName {
			t.Errorf("%s: Feature.Variable returned %q, want the first copy", c.name, first.RawName)
		}
	}
}

func TestExpanderWeightsAndDedup(t *testing.T) {
	k, err := semdiv.NewKnowledge(vocab.Standard())
	if err != nil {
		t.Fatal(err)
	}
	e := NewKnowledgeExpander(func() *semdiv.Knowledge { return k })
	exps := e.Expand("temperature")
	names := map[string]float64{}
	for _, x := range exps {
		names[x.Name] = x.Weight
	}
	if names["water_temperature"] != 0.9 || names["air_temperature"] != 0.9 {
		t.Errorf("context expansions = %v", names)
	}
	if names["temperature"] != 1 {
		t.Errorf("original term weight = %v", names["temperature"])
	}
	// Sorted by weight desc.
	for i := 1; i < len(exps); i++ {
		if exps[i-1].Weight < exps[i].Weight {
			t.Error("expansions not sorted by weight")
		}
	}
	// Single-context base keeps full weight.
	for _, x := range e.Expand("humidity") {
		if x.Name == "relative_humidity" && x.Weight != 1 {
			t.Errorf("single-context weight = %v", x.Weight)
		}
	}
}

func TestRangeFit(t *testing.T) {
	cases := []struct {
		query, observed  geo.ValueRange
		wantMin, wantMax float64
	}{
		{geo.ValueRange{Min: 5, Max: 10}, geo.ValueRange{Min: 0, Max: 20}, 1, 1},       // covered
		{geo.ValueRange{Min: 5, Max: 10}, geo.ValueRange{Min: 7.5, Max: 20}, 0.5, 0.5}, // half overlap
		{geo.ValueRange{Min: 5, Max: 10}, geo.ValueRange{Min: 50, Max: 60}, 0, 0.1},    // far disjoint
	}
	for _, c := range cases {
		got := rangeFit(c.query, c.observed)
		if got < c.wantMin-1e-9 || got > c.wantMax+1e-9 {
			t.Errorf("rangeFit(%v, %v) = %.3f, want in [%.2f,%.2f]",
				c.query, c.observed, got, c.wantMin, c.wantMax)
		}
	}
	// Point query.
	if got := rangeFit(geo.ValueRange{Min: 7, Max: 7}, geo.ValueRange{Min: 5, Max: 10}); got != 1 {
		t.Errorf("contained point fit = %.3f", got)
	}
}

func TestSummaryRender(t *testing.T) {
	f := mkFeature("stations/2010/s1.obs", astoria, june2010,
		v("water_temperature", 5.2, 18.9), v("salinity", 3, 30))
	f.Variables[0].RawName = "ATastn"
	f.Variables[0].CanonicalUnit = "degC"
	f.Variables[0].Contexts = []string{"water"}
	f.Variables = append(f.Variables, catalog.VarFeature{
		RawName: "qa_level", Name: "qa_level", Excluded: true, Count: 5,
		Range: geo.ValueRange{Min: 0, Max: 4}, Unit: "1",
	})
	sum := Summarize(f)
	if len(sum.Searchable) != 2 || len(sum.Excluded) != 1 {
		t.Fatalf("summary split = %d/%d", len(sum.Searchable), len(sum.Excluded))
	}
	page := string(AppendSummaryPage(nil, f))
	for _, want := range []string{
		"stations/2010/s1.obs",
		"water_temperature [degC]",
		"raw: ATastn",
		"qa_level",
		"[excluded from search]",
		"contexts: water",
		"2 searchable, 1 excluded",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("summary page missing %q:\n%s", want, page)
		}
	}
}

func BenchmarkSearch1000(b *testing.B) {
	names := []string{"water_temperature", "salinity", "turbidity", "dissolved_oxygen"}
	var feats []*catalog.Feature
	for i := 0; i < 1000; i++ {
		p := geo.Point{Lat: 45.8 + float64(i%80)*0.01, Lon: -124.3 + float64(i%150)*0.01}
		feats = append(feats, mkFeature(pathN(i), p, june2010, v(names[i%len(names)], 0, 30), v(names[(i+1)%len(names)], 0, 30)))
	}
	s := New(served(b, 0, feats...), DefaultOptions())
	q := Query{Location: &astoria, Time: &june2010, Terms: []Term{{Name: "salinity"}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Search(q); err != nil {
			b.Fatal(err)
		}
	}
}

func pathN(i int) string {
	return "bench/" + string(rune('a'+i%26)) + "/" + time.Unix(int64(i), 0).UTC().Format("20060102150405") + ".obs"
}
