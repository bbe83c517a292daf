package core

import (
	"reflect"
	"testing"

	"metamess/internal/catalog"
	"metamess/internal/obs"
	"metamess/internal/semdiv"
	"metamess/internal/synonym"
)

// classifyProbe is a chain component that records what the context's
// classifier says about one name at its position in the chain.
type classifyProbe struct {
	name string
	got  *semdiv.Finding
}

func (classifyProbe) Name() string { return "classify-probe" }

func (p classifyProbe) Run(ctx *Context) (StepReport, error) {
	*p.got = ctx.Classifier().Classify(p.name)
	return StepReport{}, nil
}

// TestContextClassifierEqualsFreshClassifier runs the full chain over a
// generated archive and checks that, for every name the archive ever
// showed (raw and wrangled), the context's memoizing classifier answers
// like a classifier built for that one question — first call and
// memoized second call.
func TestContextClassifierEqualsFreshClassifier(t *testing.T) {
	ctx, _ := newTestContext(t, 40, 7)
	if _, err := NewProcess("full", DefaultChain()...).Run(ctx); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	ctx.Working.ForEach(func(f *catalog.Feature) {
		for _, v := range f.Variables {
			names[v.RawName] = true
			names[v.Name] = true
		}
	})
	if len(names) < 30 {
		t.Fatalf("archive produced only %d names", len(names))
	}
	for pass := 0; pass < 2; pass++ {
		for n := range names {
			want := semdiv.NewClassifier(ctx.Curation().Knowledge).Classify(n)
			if got := ctx.Classifier().Classify(n); !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d: context classifier says %+v for %q, a fresh one %+v", pass, got, n, want)
			}
		}
	}
}

// TestContextClassifierFollowsKnowledge checks every way knowledge moves
// is honoured by the very next classification: a curator's synonym
// published through Curate between runs, and a table merged by
// AddExternalMetadata in the middle of a run.
func TestContextClassifierFollowsKnowledge(t *testing.T) {
	ctx, _ := newTestContext(t, 8, 3)
	p := NewProcess("full", DefaultChain()...)
	if _, err := p.Run(ctx); err != nil {
		t.Fatal(err)
	}
	const direct, merged = "curator_named_this_wt", "partner_site_wtemp"
	for _, n := range []string{direct, merged} {
		if f := ctx.Classifier().Classify(n); f.Category != semdiv.CatUnknown {
			t.Fatalf("%q = %s before any curation", n, f.Category)
		}
	}

	// Between runs: the curator adds a synonym.
	if _, err := ctx.Curate(func(next *Curation) error {
		return next.Knowledge.Synonyms.Add("water_temperature", direct)
	}); err != nil {
		t.Fatal(err)
	}
	if f := ctx.Classifier().Classify(direct); f.Category != semdiv.CatSynonym || f.Canonical != "water_temperature" {
		t.Errorf("after a curated synonym add, %q = %s -> %q", direct, f.Category, f.Canonical)
	}

	// Mid-run: the probe before the merge must still see the old
	// knowledge, the probe right after it the new.
	ext := synonym.NewTable()
	if err := ext.Add("water_temperature", merged); err != nil {
		t.Fatal(err)
	}
	var before, after semdiv.Finding
	chain := NewProcess("merge",
		ScanArchive{}, KnownTransforms{},
		classifyProbe{name: merged, got: &before},
		AddExternalMetadata{Tables: []*synonym.Table{ext}},
		classifyProbe{name: merged, got: &after},
	)
	if _, err := chain.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if before.Category != semdiv.CatUnknown {
		t.Errorf("before the merge %q = %s", merged, before.Category)
	}
	if after.Category != semdiv.CatSynonym || after.Canonical != "water_temperature" {
		t.Errorf("right after the merge %q = %s -> %q", merged, after.Category, after.Canonical)
	}
}

// messByWalk is the mess metric computed the slow way — a walk over
// every feature — as the oracle for the tally-driven messOf.
func messByWalk(c *catalog.Working, k *semdiv.Knowledge) MessReport {
	cls := semdiv.NewClassifier(k)
	counts, excluded, grouped := map[string]int{}, map[string]bool{}, map[string]bool{}
	c.ForEach(func(f *catalog.Feature) {
		for _, v := range f.Variables {
			counts[v.Name]++
			excluded[v.Name] = excluded[v.Name] || v.Excluded
			grouped[v.Name] = grouped[v.Name] || v.Parent != ""
		}
	})
	r := MessReport{}
	total, wrangled := 0, 0
	for name, n := range counts {
		r.DistinctNames++
		total += n
		switch f := cls.Classify(name); {
		case f.Category == semdiv.CatClean:
			r.CanonicalNames++
			wrangled += n
		case excluded[name]:
			r.ExcludedNames++
			wrangled += n
		case f.Category == semdiv.CatMultiLevel && grouped[name]:
			r.GroupedNames++
			wrangled += n
		default:
			r.UnresolvedNames++
		}
	}
	if total > 0 {
		r.OccurrenceCoverage = float64(wrangled) / float64(total)
	}
	return r
}

// TestMessFromTallyEqualsWalk checks every mess figure a run reports —
// before, after each step, after — against the feature walk.
func TestMessFromTallyEqualsWalk(t *testing.T) {
	ctx, _ := newTestContext(t, 30, 11)
	var walked []MessReport
	var chain []Component
	for _, comp := range DefaultChain() {
		chain = append(chain, comp, messWalkProbe{out: &walked})
	}
	messStage := obs.Default().Histogram("dnh_wrangle_stage_duration_seconds",
		"Wrangle component pass wall time in seconds.", obs.DurationBuckets, "stage", "mess")
	observed := messStage.Count()
	rep, err := NewProcess("probed", chain...).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MessDuration <= 0 || rep.MessDuration > rep.Duration {
		t.Errorf("MessDuration = %v of a %v run", rep.MessDuration, rep.Duration)
	}
	if n := messStage.Count() - observed; n != 1 {
		t.Errorf("the run observed the mess stage %d times, want once", n)
	}
	for i, w := range walked {
		// Step 2i is the component, step 2i+1 the probe that walked.
		if got := rep.Steps[2*i].MessAfter; got != w {
			t.Errorf("after %s: mess from tally %+v, from walk %+v", rep.Steps[2*i].Component, got, w)
		}
	}
	if rep.MessAfter != walked[len(walked)-1] {
		t.Errorf("final mess %+v, walk %+v", rep.MessAfter, walked[len(walked)-1])
	}
	if rep.MessAfter.GroupedNames == 0 || rep.MessAfter.ExcludedNames == 0 {
		t.Errorf("archive exercises no grouped or excluded names: %+v", rep.MessAfter)
	}
}

// messWalkProbe appends the walked mess of the working catalog.
type messWalkProbe struct{ out *[]MessReport }

func (messWalkProbe) Name() string { return "mess-walk-probe" }

func (p messWalkProbe) Run(ctx *Context) (StepReport, error) {
	*p.out = append(*p.out, messByWalk(ctx.Working, ctx.Curation().Knowledge))
	return StepReport{}, nil
}

// funcProbe is a chain component that runs itself against the context.
type funcProbe func(*Context)

func (funcProbe) Name() string { return "func-probe" }

func (p funcProbe) Run(ctx *Context) (StepReport, error) {
	p(ctx)
	return StepReport{}, nil
}

// TestCurationMidRunWidensTheRun: a curation change in the middle of a
// delta-scoped run marks the rest of the run full, since a new synonym
// or rule can change features the scan saw as clean.
func TestCurationMidRunWidensTheRun(t *testing.T) {
	ctx, _ := newTestContext(t, 8, 3)
	if _, err := NewProcess("full", DefaultChain()...).Run(ctx); err != nil {
		t.Fatal(err)
	}
	ext := synonym.NewTable()
	if err := ext.Add("water_temperature", "partner_site_wtemp"); err != nil {
		t.Fatal(err)
	}
	var before, after bool
	chain := NewProcess("merge",
		ScanArchive{},
		funcProbe(func(c *Context) { before = c.fullRun() }),
		AddExternalMetadata{Tables: []*synonym.Table{ext}},
		funcProbe(func(c *Context) { after = c.fullRun() }),
	)
	if _, err := chain.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if before || !after {
		t.Fatalf("full run before the merge %v, after it %v; want false, true", before, after)
	}
}
