package validate

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"metamess/internal/catalog"
	"metamess/internal/geo"
	"metamess/internal/semdiv"
	"metamess/internal/units"
	"metamess/internal/vocab"
)

func mkFeat(path, format string, vars ...catalog.VarFeature) *catalog.Feature {
	return &catalog.Feature{
		ID:     catalog.IDForPath(path),
		Path:   path,
		Source: "stations",
		Format: format,
		BBox:   geo.BBox{MinLat: 46, MinLon: -124, MaxLat: 46.1, MaxLon: -123.9},
		Time: geo.NewTimeRange(
			time.Date(2010, 6, 1, 0, 0, 0, 0, time.UTC),
			time.Date(2010, 6, 2, 0, 0, 0, 0, time.UTC)),
		Variables: vars,
	}
}

func mkVar(name string, min, max float64) catalog.VarFeature {
	return catalog.VarFeature{
		RawName: name, Name: name, Unit: "degC",
		Range: geo.ValueRange{Min: min, Max: max}, Count: 10,
	}
}

func ctxWith(t *testing.T, feats ...*catalog.Feature) *Context {
	t.Helper()
	c := catalog.NewWorking()
	for _, f := range feats {
		if err := c.Upsert(f); err != nil {
			t.Fatal(err)
		}
	}
	k, err := semdiv.NewKnowledge(vocab.Standard())
	if err != nil {
		t.Fatal(err)
	}
	return &Context{Catalog: c, Knowledge: k, Units: units.NewRegistry()}
}

func TestSameTypeDirectory(t *testing.T) {
	ctx := ctxWith(t,
		mkFeat("stations/2010/a.obs", "obs", mkVar("salinity", 0, 30)),
		mkFeat("stations/2010/b.obs", "obs", mkVar("salinity", 0, 30)),
	)
	if got := (SameTypeDirectory{}).Run(ctx); len(got) != 0 {
		t.Errorf("uniform directory flagged: %v", got)
	}
	// Mix a CSV into the obs directory.
	bad := mkFeat("stations/2010/c.csv", "csv", mkVar("salinity", 0, 30))
	if err := ctx.Catalog.Upsert(bad); err != nil {
		t.Fatal(err)
	}
	got := (SameTypeDirectory{}).Run(ctx)
	if len(got) != 1 || got[0].Severity != Error {
		t.Fatalf("mixed directory findings = %v", got)
	}
	if !strings.Contains(got[0].Detail, "stations/2010") {
		t.Errorf("finding does not name the directory: %s", got[0].Detail)
	}
}

func TestSynonymCoverage(t *testing.T) {
	ctx := ctxWith(t,
		mkFeat("a.obs", "obs",
			mkVar("salinity", 0, 30),       // clean
			mkVar("airtemp", 0, 20),        // known synonym -> warning (not yet resolved)
			mkVar("zz_mystery_name", 0, 1), // unknown -> warning
		),
	)
	got := (SynonymCoverage{}).Run(ctx)
	if len(got) != 2 {
		t.Fatalf("findings = %v", got)
	}
	for _, f := range got {
		if f.Severity != Warning {
			t.Errorf("default severity = %v, want warning", f.Severity)
		}
	}
	strict := (SynonymCoverage{AsError: true}).Run(ctx)
	for _, f := range strict {
		if f.Severity != Error {
			t.Errorf("strict severity = %v, want error", f.Severity)
		}
	}
	// Excessive variables are exempt.
	ex := ctxWith(t, mkFeat("b.obs", "obs", mkVar("qa_level", 0, 4)))
	if got := (SynonymCoverage{}).Run(ex); len(got) != 0 {
		t.Errorf("excessive name flagged: %v", got)
	}
	// Missing knowledge is itself an error.
	noK := &Context{Catalog: catalog.NewWorking()}
	if got := (SynonymCoverage{}).Run(noK); len(got) != 1 || got[0].Severity != Error {
		t.Errorf("missing knowledge findings = %v", got)
	}
}

func TestExpectedDatasets(t *testing.T) {
	ctx := ctxWith(t, mkFeat("stations/2010/a.obs", "obs", mkVar("salinity", 0, 30)))
	ctx.ExpectedPaths = []string{"stations/2010/a.obs", "stations/2010/missing.obs"}
	got := (ExpectedDatasets{}).Run(ctx)
	if len(got) != 1 || got[0].Severity != Error {
		t.Fatalf("findings = %v", got)
	}
	if got[0].Dataset != "stations/2010/missing.obs" {
		t.Errorf("dataset = %q", got[0].Dataset)
	}
}

func TestUnitsResolved(t *testing.T) {
	f := mkFeat("a.obs", "obs", mkVar("salinity", 0, 30))
	f.Variables[0].Unit = "furlongs"
	ctx := ctxWith(t, f)
	got := (UnitsResolved{}).Run(ctx)
	if len(got) != 1 || !strings.Contains(got[0].Detail, "furlongs") {
		t.Fatalf("findings = %v", got)
	}
	// Each unknown unit is reported once even when repeated.
	f2 := mkFeat("b.obs", "obs", mkVar("turbidity", 0, 30))
	f2.Variables[0].Unit = "furlongs"
	_ = ctx.Catalog.Upsert(f2)
	if got := (UnitsResolved{}).Run(ctx); len(got) != 1 {
		t.Errorf("duplicate unit reported twice: %v", got)
	}
	// No registry: check is a no-op.
	ctx.Units = nil
	if got := (UnitsResolved{}).Run(ctx); got != nil {
		t.Error("nil registry should disable the check")
	}
}

func TestPlausibleRanges(t *testing.T) {
	// salinity typical is [0,34]; 500 is wildly out.
	ctx := ctxWith(t, mkFeat("a.obs", "obs", mkVar("salinity", 0, 500)))
	got := (PlausibleRanges{Slack: 0.5}).Run(ctx)
	if len(got) != 1 || got[0].Severity != Error {
		t.Fatalf("findings = %v", got)
	}
	// Within slack: fine.
	ok := ctxWith(t, mkFeat("b.obs", "obs", mkVar("salinity", 0, 40)))
	if got := (PlausibleRanges{Slack: 0.5}).Run(ok); len(got) != 0 {
		t.Errorf("in-slack range flagged: %v", got)
	}
	// Unknown names are skipped (coverage check owns those).
	unk := ctxWith(t, mkFeat("c.obs", "obs", mkVar("mystery", -1e9, 1e9)))
	if got := (PlausibleRanges{Slack: 0.5}).Run(unk); len(got) != 0 {
		t.Errorf("unknown name flagged: %v", got)
	}
}

func TestRunAggregatesAndReportCounts(t *testing.T) {
	f := mkFeat("stations/a.obs", "obs", mkVar("salinity", 0, 500), mkVar("zz_unknown", 0, 1))
	ctx := ctxWith(t, f)
	ctx.ExpectedPaths = []string{"ghost.obs"}
	report := Run(ctx, DefaultChecks()...)
	if len(report.ChecksRun) != 5 {
		t.Errorf("checks run = %v", report.ChecksRun)
	}
	if report.Errors() < 2 { // plausible-range + expected-dataset
		t.Errorf("errors = %d, findings = %v", report.Errors(), report.Findings)
	}
	if report.Warnings() < 1 { // coverage warning for zz_unknown
		t.Errorf("warnings = %d", report.Warnings())
	}
	if report.OK() {
		t.Error("report with errors is OK")
	}
	clean := ctxWith(t, mkFeat("stations/b.obs", "obs", mkVar("salinity", 0, 30)))
	if rep := Run(clean, DefaultChecks()...); !rep.OK() {
		t.Errorf("clean catalog not OK: %+v", rep.Findings)
	}
}

// TestMemoMatchesRun drives a catalog through random upserts and
// deletes and requires Memo.Run, told only which IDs changed, to return
// exactly the report Run computes from scratch — findings in order —
// including when an unresolved unit's first dataset goes away, a
// directory's formats mix and unmix, and the memo is asked for a full
// pass or handed a different check suite.
func TestMemoMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	ctx := ctxWith(t)
	ctx.ExpectedPaths = []string{"d0/f3"}
	feature := func(i int) *catalog.Feature {
		format := []string{"obs", "obs", "csv"}[rng.Intn(3)]
		f := mkFeat(fmt.Sprintf("d%d/f%d", i%3, i), format,
			mkVar("salinity", 0, []float64{30, 500}[rng.Intn(2)]),
			mkVar("water_temperature", 0, 20))
		f.Variables[0].Unit = []string{"PSU", "furlongs", "parsecs", ""}[rng.Intn(4)]
		return f
	}
	memo := &Memo{}
	checks := DefaultChecks()
	for step := 0; step < 300; step++ {
		var changed []string
		for k := 0; k < 1+rng.Intn(3); k++ {
			f := feature(rng.Intn(20))
			changed = append(changed, f.ID)
			if rng.Intn(3) == 0 {
				ctx.Catalog.Delete(f.ID)
			} else if err := ctx.Catalog.Upsert(f); err != nil {
				t.Fatal(err)
			}
		}
		all := rng.Intn(20) == 0
		if rng.Intn(30) == 0 {
			checks = []Check{PlausibleRanges{Slack: 0.1}, UnitsResolved{}}
		} else if rng.Intn(30) == 0 {
			checks = DefaultChecks()
		}
		got := memo.Run(ctx, changed, all, checks...)
		if want := Run(ctx, checks...); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: memo report\n%+v\nRun report\n%+v", step, got, want)
		}
	}
}

func TestSeverityString(t *testing.T) {
	if Warning.String() != "warning" || Error.String() != "error" {
		t.Error("severity strings wrong")
	}
}
