package semdiv

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"metamess/internal/table"
	"metamess/internal/vocab"
)

func classifier(t *testing.T) *Classifier {
	t.Helper()
	k, err := NewKnowledge(vocab.Standard())
	if err != nil {
		t.Fatal(err)
	}
	return NewClassifier(k)
}

func TestClassifyCleanNames(t *testing.T) {
	c := classifier(t)
	for _, name := range []string{"water_temperature", "salinity", "dissolved_oxygen"} {
		f := c.Classify(name)
		if f.Category != CatClean {
			t.Errorf("Classify(%q) = %s (%s), want clean", name, f.Category, f.Evidence)
		}
	}
}

func TestClassifyMinorVariations(t *testing.T) {
	c := classifier(t)
	// Table 1 row 1: air_temperature, air_temperatrue, airtemp.
	cases := map[string]string{
		"air_temperatrue": "air_temperature", // transposition
		"salinityy":       "salinity",        // insertion
		"turbidty":        "turbidity",       // deletion
	}
	for raw, want := range cases {
		f := c.Classify(raw)
		if f.Category != CatMinorVariation {
			t.Errorf("Classify(%q) = %s (%s), want minor-variation", raw, f.Category, f.Evidence)
			continue
		}
		if f.Canonical != want {
			t.Errorf("Classify(%q).Canonical = %q, want %q", raw, f.Canonical, want)
		}
	}
}

func TestClassifySynonyms(t *testing.T) {
	c := classifier(t)
	cases := map[string]string{
		"airtemp":                 "air_temperature", // curated synonym
		"sea surface temperature": "water_temperature",
		"salt":                    "salinity",
	}
	for raw, want := range cases {
		f := c.Classify(raw)
		if f.Category != CatSynonym {
			t.Errorf("Classify(%q) = %s (%s), want synonym", raw, f.Category, f.Evidence)
			continue
		}
		if f.Canonical != want {
			t.Errorf("Classify(%q).Canonical = %q, want %q", raw, f.Canonical, want)
		}
	}
}

func TestClassifyAbbreviations(t *testing.T) {
	c := classifier(t)
	// Table 1 row 3: MWHLA expands to its full variable name.
	cases := map[string]string{
		"MWHLA":  "wind_speed",
		"ATastn": "air_temperature",
		"SST":    "water_temperature",
		"RH":     "relative_humidity",
	}
	for raw, want := range cases {
		f := c.Classify(raw)
		if f.Category != CatAbbreviation {
			t.Errorf("Classify(%q) = %s (%s), want abbreviation", raw, f.Category, f.Evidence)
			continue
		}
		if f.Canonical != want {
			t.Errorf("Classify(%q).Canonical = %q, want %q", raw, f.Canonical, want)
		}
	}
}

func TestClassifyExcessive(t *testing.T) {
	c := classifier(t)
	// Table 1 row 4: quality assurance variables like qa_level.
	for _, raw := range []string{"qa_level", "qc_salinity", "flag_temp", "salinity_qc", "oxygen_flag"} {
		f := c.Classify(raw)
		if f.Category != CatExcessive {
			t.Errorf("Classify(%q) = %s (%s), want excessive", raw, f.Category, f.Evidence)
		}
	}
}

func TestClassifyAmbiguous(t *testing.T) {
	c := classifier(t)
	// Table 1 row 5: temp — temporary or temperature?
	f := c.Classify("temp")
	if f.Category != CatAmbiguous {
		t.Fatalf("Classify(temp) = %s (%s), want ambiguous", f.Category, f.Evidence)
	}
	if len(f.Candidates) != 2 {
		t.Errorf("candidates = %v", f.Candidates)
	}
	found := false
	for _, cand := range f.Candidates {
		if cand == "temperature" {
			found = true
		}
	}
	if !found {
		t.Errorf("temperature missing from candidates %v", f.Candidates)
	}
}

func TestClassifySourceContext(t *testing.T) {
	c := classifier(t)
	// Table 1 row 6: bare "temperature" is air or water depending on source.
	f := c.Classify("temperature")
	if f.Category != CatSourceContext {
		t.Fatalf("Classify(temperature) = %s (%s), want source-context", f.Category, f.Evidence)
	}
	if len(f.Contexts) < 2 {
		t.Errorf("contexts = %v, want at least [air water]", f.Contexts)
	}
	// A single-context base resolves directly: "humidity" only occurs in air.
	f = c.Classify("humidity")
	if f.Category != CatSynonym || f.Canonical != "relative_humidity" {
		t.Errorf("Classify(humidity) = %s -> %q (%s)", f.Category, f.Canonical, f.Evidence)
	}
}

func TestClassifyMultiLevel(t *testing.T) {
	c := classifier(t)
	// Table 1 row 7: fluores375/fluores400 vs fluorescence. The canonical
	// vocabulary already contains fluores375, so test an unseen member.
	f := c.Classify("fluores_410")
	if f.Category != CatMultiLevel {
		t.Fatalf("Classify(fluores_410) = %s (%s), want multi-level", f.Category, f.Evidence)
	}
	if f.GroupParent != "fluorescence" {
		t.Errorf("GroupParent = %q, want fluorescence", f.GroupParent)
	}
}

func TestClassifyUnknown(t *testing.T) {
	c := classifier(t)
	f := c.Classify("zqxwv_widget_frobnication")
	if f.Category != CatUnknown {
		t.Errorf("Classify = %s (%s), want unknown", f.Category, f.Evidence)
	}
	f = c.Classify("   ")
	if f.Category != CatUnknown {
		t.Errorf("blank name = %s, want unknown", f.Category)
	}
}

func TestClassifyAllOrder(t *testing.T) {
	c := classifier(t)
	raws := []string{"salinity", "qa_level", "MWHLA"}
	fs := c.ClassifyAll(raws)
	if len(fs) != 3 {
		t.Fatalf("len = %d", len(fs))
	}
	for i, raw := range raws {
		if fs[i].RawName != raw {
			t.Errorf("order broken at %d: %q", i, fs[i].RawName)
		}
	}
}

func TestCategoriesAndApproaches(t *testing.T) {
	cats := Categories()
	if len(cats) != 7 {
		t.Fatalf("Categories = %d, want 7 (Table 1 rows)", len(cats))
	}
	for _, c := range cats {
		if c.Approach() == "" {
			t.Errorf("category %s has no approach", c)
		}
	}
	if CatClean.Approach() != "none needed" {
		t.Error("clean approach wrong")
	}
	if !strings.Contains(CatUnknown.Approach(), "discover") {
		t.Error("unknown should route to discovery")
	}
}

func TestResolvePlan(t *testing.T) {
	c := classifier(t)
	raws := []string{
		"air_temperatrue",   // minor variation -> translate
		"airtemp",           // synonym -> translate
		"MWHLA",             // abbreviation -> translate
		"qa_level",          // excessive -> exclude
		"temp",              // ambiguous -> curator queue
		"temperature",       // source-context -> links + queue
		"fluores_410",       // multi-level -> group
		"water_temperature", // clean -> nothing
		"total_mystery_9x",  // unknown -> curator queue
	}
	plan := Resolve(c.ClassifyAll(raws))

	if got := plan.Translations["air_temperatrue"]; got != "air_temperature" {
		t.Errorf("translation = %q", got)
	}
	if got := plan.Translations["MWHLA"]; got != "wind_speed" {
		t.Errorf("abbrev translation = %q", got)
	}
	if len(plan.Exclusions) != 1 || plan.Exclusions[0] != "qa_level" {
		t.Errorf("exclusions = %v", plan.Exclusions)
	}
	if len(plan.CuratorQueue) != 3 { // temp, temperature, total_mystery_9x
		t.Errorf("curator queue = %d entries: %+v", len(plan.CuratorQueue), plan.CuratorQueue)
	}
	if ctxs := plan.ContextLinks["temperature"]; len(ctxs) < 2 {
		t.Errorf("context links = %v", ctxs)
	}
	if members := plan.Groups["fluorescence"]; len(members) != 1 || members[0] != "fluores_410" {
		t.Errorf("groups = %v", plan.Groups)
	}
}

func TestTranslationOpAppliesToGrid(t *testing.T) {
	c := classifier(t)
	raws := []string{"airtemp", "MWHLA", "salinityy"}
	plan := Resolve(c.ClassifyAll(raws))
	op := plan.TranslationOp("field")
	if op == nil {
		t.Fatal("nil translation op")
	}
	grid := table.MustNew("field")
	for _, r := range raws {
		_ = grid.AppendRow(r)
	}
	res, err := op.Apply(grid)
	if err != nil {
		t.Fatal(err)
	}
	if res.CellsChanged != 3 {
		t.Errorf("changed = %d, want 3", res.CellsChanged)
	}
	want := []string{"air_temperature", "wind_speed", "salinity"}
	for i, w := range want {
		if got, _ := grid.Cell(i, "field"); got != w {
			t.Errorf("row %d = %q, want %q", i, got, w)
		}
	}
}

func TestTranslationOpEmpty(t *testing.T) {
	p := &Plan{Translations: map[string]string{}}
	if op := p.TranslationOp("field"); op != nil {
		t.Error("empty plan should produce nil op")
	}
}

func TestApplyDecisions(t *testing.T) {
	c := classifier(t)
	plan := Resolve(c.ClassifyAll([]string{"temp", "total_mystery_9x", "level"}))
	if len(plan.CuratorQueue) != 3 {
		t.Fatalf("queue = %d", len(plan.CuratorQueue))
	}
	err := plan.ApplyDecisions([]Decision{
		{RawName: "temp", Action: ClarifyTo, Target: "water_temperature"},
		{RawName: "total_mystery_9x", Action: Hide},
		{RawName: "level", Action: LeaveAsIs},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Translations["temp"]; got != "water_temperature" {
		t.Errorf("clarified translation = %q", got)
	}
	hidden := false
	for _, e := range plan.Exclusions {
		if e == "total_mystery_9x" {
			hidden = true
		}
	}
	if !hidden {
		t.Errorf("hide decision not applied: %v", plan.Exclusions)
	}
	if len(plan.CuratorQueue) != 0 {
		t.Errorf("queue not drained: %+v", plan.CuratorQueue)
	}
}

func TestApplyDecisionsErrors(t *testing.T) {
	c := classifier(t)
	plan := Resolve(c.ClassifyAll([]string{"temp"}))
	if err := plan.ApplyDecisions([]Decision{{RawName: "nope", Action: Hide}}); err == nil {
		t.Error("decision for unqueued name accepted")
	}
	if err := plan.ApplyDecisions([]Decision{{RawName: "temp", Action: ClarifyTo}}); err == nil {
		t.Error("clarify without target accepted")
	}
	if err := plan.ApplyDecisions([]Decision{{RawName: "temp", Action: DecisionAction(99)}}); err == nil {
		t.Error("unknown action accepted")
	}
	// Partial decisions leave the rest queued.
	plan = Resolve(c.ClassifyAll([]string{"temp", "level"}))
	if err := plan.ApplyDecisions([]Decision{{RawName: "temp", Action: Hide}}); err != nil {
		t.Fatal(err)
	}
	if len(plan.CuratorQueue) != 1 || plan.CuratorQueue[0].RawName != "level" {
		t.Errorf("queue = %+v", plan.CuratorQueue)
	}
}

func TestSummaryCountsEveryCategory(t *testing.T) {
	c := classifier(t)
	raws := []string{
		"air_temperatrue", "airtemp", "MWHLA", "qa_level", "temp",
		"temperature", "fluores_410", "water_temperature", "mystery_xx_yy",
	}
	sum := Summary(c.ClassifyAll(raws))
	for _, cat := range Categories() {
		if sum[cat] == 0 {
			t.Errorf("category %s has zero findings; corpus should exercise all 7", cat)
		}
	}
	if sum[CatClean] != 1 || sum[CatUnknown] != 1 {
		t.Errorf("clean=%d unknown=%d", sum[CatClean], sum[CatUnknown])
	}
}

func TestNewKnowledgeSeedsEverything(t *testing.T) {
	k, err := NewKnowledge(vocab.Standard())
	if err != nil {
		t.Fatal(err)
	}
	if k.Synonyms.Len() == 0 || len(k.Abbrevs) == 0 {
		t.Error("knowledge not seeded")
	}
	if len(k.Contexts.Names()) < 2 {
		t.Errorf("contexts = %v, want several", k.Contexts.Names())
	}
	if got := k.Contexts.TaxonomiesOf("temperature"); len(got) < 2 {
		t.Errorf("temperature contexts = %v", got)
	}
}

func BenchmarkClassify(b *testing.B) {
	k, err := NewKnowledge(vocab.Standard())
	if err != nil {
		b.Fatal(err)
	}
	c := NewClassifier(k)
	names := []string{"air_temperatrue", "airtemp", "MWHLA", "qa_level", "temp", "salinity"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Classify(names[i%len(names)])
	}
}

// TestClassifyMemoEqualsFreshClassifier checks the memo is invisible:
// for names of every category, a long-lived classifier answers like a
// classifier built for that one question — on the first call and on the
// memoized second — and handing out a finding never exposes the memo.
func TestClassifyMemoEqualsFreshClassifier(t *testing.T) {
	k, err := NewKnowledge(vocab.Standard())
	if err != nil {
		t.Fatal(err)
	}
	names := []string{
		"water_temperature", "Water Temperature", "air_temperatrue", "airtemp", "MWHLA",
		"qa_level", "temp", "temperature", "fluores375", "fluorescence_410", "salinityy",
		"zzz_unheard_of", "", "  ", "sea surface temperature", "turbidty",
	}
	shared := NewClassifier(k)
	categories := map[Category]bool{}
	for pass := 0; pass < 2; pass++ {
		for _, n := range names {
			want := NewClassifier(k).Classify(n)
			got := shared.Classify(n)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d: Classify(%q) = %+v, fresh classifier says %+v", pass, n, got, want)
			}
			categories[got.Category] = true
			// Scribble on the returned slices: the next answer must not care.
			for i := range got.Contexts {
				got.Contexts[i] = "scribbled"
			}
			for i := range got.Candidates {
				got.Candidates[i] = "scribbled"
			}
		}
	}
	for _, c := range []Category{CatSourceContext, CatAmbiguous} {
		if !categories[c] {
			t.Errorf("no %s name in the list: the aliasing check did not run", c)
		}
	}

	// A changed threshold is a different question: the memo must not
	// answer it.
	if f := shared.Classify("salinityy"); f.Category != CatMinorVariation {
		t.Fatalf("salinityy = %s, want minor-variation", f.Category)
	}
	shared.MinorVariationThreshold = 0.99
	if f := shared.Classify("salinityy"); f.Category == CatMinorVariation {
		t.Error("raised threshold still answered from the memo")
	}
}

// TestClassifierRetainBoundsTheMemo checks the publish-time prune: the
// memo shrinks to the retained names once it has outgrown them, and a
// pruned name is simply classified again.
func TestClassifierRetainBoundsTheMemo(t *testing.T) {
	c := classifier(t)
	for i := 0; i < 50; i++ {
		c.Classify(fmt.Sprintf("historic_name_%d", i))
	}
	before := c.Classify("airtemp")
	keep := []string{"airtemp", "salinity", "never_classified"}
	c.Retain(keep)
	if len(c.memo) > len(keep) {
		t.Errorf("memo holds %d entries after Retain(%d names)", len(c.memo), len(keep))
	}
	if _, ok := c.memo["airtemp"]; !ok {
		t.Error("Retain dropped a retained name")
	}
	if after := c.Classify("historic_name_7"); after.Category != CatUnknown {
		t.Errorf("re-classified pruned name = %s", after.Category)
	}
	if after := c.Classify("airtemp"); !reflect.DeepEqual(after, before) {
		t.Errorf("retained finding changed: %+v vs %+v", after, before)
	}
}
