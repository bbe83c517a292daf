package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"metamess/internal/archive"
	"metamess/internal/catalog"
	"metamess/internal/refine"
	"metamess/internal/scan"
	"metamess/internal/semdiv"
	"metamess/internal/synonym"
	"metamess/internal/table"
	"metamess/internal/vocab"
)

// newTestContext generates an archive and a ready context.
func newTestContext(t testing.TB, datasets int, seed int64) (*Context, *archive.Manifest) {
	t.Helper()
	root := t.TempDir()
	m, err := archive.Generate(root, archive.DefaultGenConfig(datasets, seed))
	if err != nil {
		t.Fatal(err)
	}
	k, err := semdiv.NewKnowledge(vocab.Standard())
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(k, scan.Config{Root: root})
	t.Cleanup(ctx.Close)
	return ctx, m
}

func TestFullChainReducesMess(t *testing.T) {
	ctx, m := newTestContext(t, 30, 42)
	p := NewProcess("full", DefaultChain()...)
	report, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Steps) != len(p.Components) {
		t.Fatalf("steps = %d, want %d", len(report.Steps), len(p.Components))
	}
	if ctx.Working.Len() != len(m.Datasets) {
		t.Errorf("working catalog = %d datasets, want %d", ctx.Working.Len(), len(m.Datasets))
	}
	if ctx.Published.Len() != len(m.Datasets) {
		t.Errorf("published catalog = %d datasets, want %d", ctx.Published.Len(), len(m.Datasets))
	}
	// The chain's whole point: coverage rises substantially.
	if report.MessAfter.OccurrenceCoverage <= report.MessBefore.OccurrenceCoverage {
		t.Errorf("coverage did not improve: %.3f -> %.3f",
			report.MessBefore.OccurrenceCoverage, report.MessAfter.OccurrenceCoverage)
	}
	if report.MessAfter.OccurrenceCoverage < 0.9 {
		t.Errorf("final coverage = %.3f, want >= 0.9", report.MessAfter.OccurrenceCoverage)
	}
	// Coverage never decreases across steps.
	prev := report.MessBefore.OccurrenceCoverage
	for _, s := range report.Steps {
		if s.MessAfter.OccurrenceCoverage < prev-1e-9 {
			t.Errorf("step %s decreased coverage: %.3f -> %.3f",
				s.Component, prev, s.MessAfter.OccurrenceCoverage)
		}
		prev = s.MessAfter.OccurrenceCoverage
	}
	if len(p.History) != 1 {
		t.Errorf("history = %d runs", len(p.History))
	}
}

func TestChainResolvesGroundTruth(t *testing.T) {
	ctx, m := newTestContext(t, 30, 7)
	p := NewProcess("full", DefaultChain()...)
	if _, err := p.Run(ctx); err != nil {
		t.Fatal(err)
	}
	// Score against the generator's ground truth: translatable categories
	// must overwhelmingly land on their canonical names.
	truth := m.ByPath()
	total, correct := 0, 0
	for _, f := range ctx.Published.Snapshot().All() {
		d := truth[f.Path]
		for i, v := range f.Variables {
			want := d.Vars[i]
			switch want.Category {
			case semdiv.CatSynonym, semdiv.CatAbbreviation, semdiv.CatMinorVariation:
				total++
				if v.Name == want.Canonical {
					correct++
				}
			case semdiv.CatExcessive:
				if !v.Excluded {
					t.Errorf("%s: excessive %q not excluded", f.Path, v.RawName)
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no translatable mess generated")
	}
	accuracy := float64(correct) / float64(total)
	if accuracy < 0.90 {
		t.Errorf("translation accuracy = %.3f (%d/%d), want >= 0.90 (residual errors concentrate in the inherently confusable fluoresNNN family)", accuracy, correct, total)
	}
}

func TestRerunIsIdempotentAndIncremental(t *testing.T) {
	ctx, _ := newTestContext(t, 15, 13)
	p := NewProcess("full", DefaultChain()...)
	r1, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	before := ctx.Published.Generation()
	snapshot := ctx.Working.VariableNameCounts()

	r2, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Incremental: nothing re-parsed.
	if r2.Steps[0].Counters["parsed"] != 0 {
		t.Errorf("rerun parsed %d files, want 0", r2.Steps[0].Counters["parsed"])
	}
	if r2.Steps[0].Counters["skippedUnchanged"] != ctx.Working.Len() {
		t.Errorf("rerun skipped %d, want %d", r2.Steps[0].Counters["skippedUnchanged"], ctx.Working.Len())
	}
	// Idempotent: names unchanged.
	after := ctx.Working.VariableNameCounts()
	if len(snapshot) != len(after) {
		t.Fatalf("rerun changed distinct names: %d -> %d", len(snapshot), len(after))
	}
	for i := range snapshot {
		if snapshot[i] != after[i] {
			t.Errorf("rerun changed name %v -> %v", snapshot[i], after[i])
		}
	}
	if r2.MessAfter != r1.MessAfter {
		t.Errorf("rerun changed mess: %+v vs %+v", r2.MessAfter, r1.MessAfter)
	}
	// A no-op rerun publishes an empty delta: the generation — and with
	// it every generation-keyed cache downstream — must survive.
	if got := ctx.Published.Generation(); got != before {
		t.Errorf("no-op rerun moved the published generation: %d -> %d", before, got)
	}
	last := r2.Steps[len(r2.Steps)-1]
	if last.Counters["changed"] != 0 || last.Counters["generationStable"] != 1 {
		t.Errorf("no-op publish counters = %v", last.Counters)
	}
	// Delta-aware components sat the rerun out.
	for _, st := range r2.Steps {
		switch st.Component {
		case "known-transforms", "generate-hierarchies":
			if st.Counters["featuresProcessed"] != 0 || st.Counters["featuresSkipped"] != ctx.Working.Len() {
				t.Errorf("%s on no-op rerun processed %d, skipped %d (want 0/%d)",
					st.Component, st.Counters["featuresProcessed"], st.Counters["featuresSkipped"], ctx.Working.Len())
			}
		case "discover-transforms":
			if st.Counters["skipped"] != 1 {
				t.Errorf("discover-transforms did not skip on no-op rerun: %v", st.Counters)
			}
		case "perform-discovered":
			if st.Counters["rules"] > 0 && st.Counters["skipped"] != 1 {
				t.Errorf("perform-discovered did not skip on no-op rerun: %v", st.Counters)
			}
		}
	}
}

func TestCuratorImprovementLoop(t *testing.T) {
	ctx, _ := newTestContext(t, 30, 99)
	p := NewProcess("full", DefaultChain()...)
	r1, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	unresolved1 := r1.MessAfter.UnresolvedNames
	if unresolved1 == 0 {
		t.Skip("archive produced no residual mess at this seed")
	}
	// Curatorial activity 3: add the unresolved names to the synonym
	// table, and rule on source-context names (simulating a curator
	// consulting the ground truth).
	cls := semdiv.NewClassifier(ctx.Curation().Knowledge)
	if _, err := ctx.Curate(func(next *Curation) error {
		for _, vc := range ctx.Working.VariableNameCounts() {
			switch f := cls.Classify(vc.Value); f.Category {
			case semdiv.CatUnknown, semdiv.CatAmbiguous:
				if err := next.Knowledge.Synonyms.Add("water_velocity", vc.Value); err != nil {
					t.Logf("curation skip %q: %v", vc.Value, err)
				}
			case semdiv.CatSourceContext:
				next.PendingDecisions = append(next.PendingDecisions,
					semdiv.Decision{RawName: vc.Value, Action: semdiv.ClarifyTo, Target: "water_temperature"})
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	r2, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r2.MessAfter.UnresolvedNames >= unresolved1 {
		t.Errorf("improvement did not reduce unresolved: %d -> %d",
			unresolved1, r2.MessAfter.UnresolvedNames)
	}
}

func TestCuratorDecisionsFlowThroughChain(t *testing.T) {
	ctx, _ := newTestContext(t, 21, 5)
	p := NewProcess("full", DefaultChain()...)
	if _, err := p.Run(ctx); err != nil {
		t.Fatal(err)
	}
	// Find an ambiguous name in the catalog (the generator injects "temp").
	hasTemp := false
	for _, vc := range ctx.Working.VariableNameCounts() {
		if vc.Value == "temp" {
			hasTemp = true
		}
	}
	if !hasTemp {
		t.Skip("no ambiguous name at this seed")
	}
	ctx.Curate(func(next *Curation) error {
		next.PendingDecisions = []semdiv.Decision{{RawName: "temp", Action: semdiv.ClarifyTo, Target: "water_temperature"}}
		return nil
	})
	if _, err := p.Run(ctx); err != nil {
		t.Fatal(err)
	}
	for _, vc := range ctx.Working.VariableNameCounts() {
		if vc.Value == "temp" {
			t.Error("clarified name still present after decision")
		}
	}
	if ctx.Curation().PendingDecisions != nil {
		t.Error("decisions not consumed")
	}
}

func TestValidateGatesPublish(t *testing.T) {
	ctx, m := newTestContext(t, 9, 3)
	ctx.ExpectedPaths = []string{"stations/never/exists.obs"}
	chain := []Component{
		ScanArchive{},
		KnownTransforms{},
		Validate{}, // strict: errors abort
		Publish{},
	}
	p := NewProcess("gated", chain...)
	_, err := p.Run(ctx)
	if err == nil {
		t.Fatal("chain should fail on validation errors")
	}
	if !strings.Contains(err.Error(), "validation failed") {
		t.Errorf("error = %v", err)
	}
	if ctx.Published.Len() != 0 {
		t.Error("publish ran despite failed validation")
	}
	if ctx.LastValidation == nil || ctx.LastValidation.OK() {
		t.Error("validation report not recorded")
	}
	// Fix the expectation: chain completes and publishes.
	ctx.ExpectedPaths = []string{m.Datasets[0].Path}
	if _, err := p.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if ctx.Published.Len() == 0 {
		t.Error("publish did not run after validation passed")
	}
}

func TestDiscoveredRulesExportable(t *testing.T) {
	ctx, _ := newTestContext(t, 30, 42)
	p := NewProcess("full", DefaultChain()...)
	if _, err := p.Run(ctx); err != nil {
		t.Fatal(err)
	}
	rules := ctx.Curation().DiscoveredRules
	if len(rules) == 0 {
		t.Skip("no rules discovered at this seed")
	}
	data, err := refine.ExportJSON(rules)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "core/mass-edit") {
		t.Error("exported rules missing mass-edit op")
	}
	back, err := refine.ImportJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rules) {
		t.Errorf("round trip = %d rules, want %d", len(back), len(rules))
	}
}

func TestAddExternalMetadataComponent(t *testing.T) {
	ctx, _ := newTestContext(t, 6, 1)
	ext := synonym.NewTable()
	if err := ext.Add("water_temperature", "exotic_wt_name"); err != nil {
		t.Fatal(err)
	}
	comp := AddExternalMetadata{Tables: []*synonym.Table{ext}}
	step, err := comp.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if step.Counters["tablesMerged"] != 1 {
		t.Errorf("counters = %v", step.Counters)
	}
	if !ctx.Curation().Knowledge.Synonyms.Covers("exotic_wt_name") {
		t.Error("external table not merged")
	}
	// Missing file path fails loudly.
	bad := AddExternalMetadata{TablePaths: []string{"/does/not/exist.csv"}}
	if _, err := bad.Run(ctx); err == nil {
		t.Error("missing external table accepted")
	}
}

func TestMessMetric(t *testing.T) {
	ctx, _ := newTestContext(t, 9, 2)
	empty := Mess(ctx.Working, ctx.Curation().Knowledge)
	if empty.DistinctNames != 0 || empty.OccurrenceCoverage != 0 {
		t.Errorf("empty mess = %+v", empty)
	}
	if _, err := NewProcess("scan", ScanArchive{}).Run(ctx); err != nil {
		t.Fatal(err)
	}
	raw := Mess(ctx.Working, ctx.Curation().Knowledge)
	if raw.DistinctNames == 0 {
		t.Fatal("no names after scan")
	}
	if raw.CanonicalNames+raw.UnresolvedNames+raw.ExcludedNames+raw.GroupedNames != raw.DistinctNames {
		t.Errorf("mess partitions do not sum: %+v", raw)
	}
	if Mess(nil, nil).DistinctNames != 0 {
		t.Error("nil mess should be zero")
	}
}

func TestProcessStopsAtFailingComponent(t *testing.T) {
	ctx, _ := newTestContext(t, 3, 1)
	ctx.ScanConfig.Root = "/nonexistent/archive/root"
	p := NewProcess("broken", DefaultChain()...)
	report, err := p.Run(ctx)
	if err == nil {
		t.Fatal("missing archive root should fail the chain")
	}
	if len(report.Steps) != 0 {
		t.Errorf("failed first step still recorded %d steps", len(report.Steps))
	}
	if len(p.History) != 0 {
		t.Error("failed run recorded in history")
	}
}

func BenchmarkFullChain30(b *testing.B) {
	ctx, _ := newTestContext(b, 30, 42)
	p := NewProcess("bench", DefaultChain()...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDeltaRerunProcessesOnlyChurn modifies one file between runs and
// checks the delta machinery end to end: one re-parse, delta-scoped
// component passes, a one-feature publish, and a moved generation.
func TestDeltaRerunProcessesOnlyChurn(t *testing.T) {
	ctx, m := newTestContext(t, 18, 21)
	p := NewProcess("full", DefaultChain()...)
	if _, err := p.Run(ctx); err != nil {
		t.Fatal(err)
	}
	genBefore := ctx.Published.Generation()

	target := filepath.Join(ctx.ScanConfig.Root, m.Datasets[2].Path)
	data, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(target, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(3 * time.Second)
	if err := os.Chtimes(target, future, future); err != nil {
		t.Fatal(err)
	}

	r2, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	scanStep := r2.Steps[0]
	if scanStep.Counters["parsed"] != 1 || scanStep.Counters["changed"] != 1 {
		t.Fatalf("churn scan counters = %v", scanStep.Counters)
	}
	if got, want := scanStep.Counters["bytesParsed"], len(data)+1; got != want {
		t.Fatalf("bytesParsed = %d, want the rewritten file's %d", got, want)
	}
	if scanStep.Counters["fullReprocess"] != 0 {
		t.Fatalf("churn rerun went full: %v", scanStep.Counters)
	}
	for _, st := range r2.Steps {
		if st.Component == "known-transforms" && st.Counters["featuresProcessed"] != 1 {
			t.Errorf("known-transforms processed %d features, want 1 (counters %v)",
				st.Counters["featuresProcessed"], st.Counters)
		}
	}
	last := r2.Steps[len(r2.Steps)-1]
	if last.Counters["changed"] != 1 || last.Counters["unchanged"] != ctx.Published.Len()-1 {
		t.Errorf("publish counters = %v", last.Counters)
	}
	if ctx.Published.Generation() == genBefore {
		t.Error("real churn must move the published generation")
	}
}

// TestKnowledgeChangeForcesFullReprocess curates the knowledge between
// runs and checks the moved version falls the chain back to a full pass
// — including features the scan skipped.
func TestKnowledgeChangeForcesFullReprocess(t *testing.T) {
	ctx, _ := newTestContext(t, 12, 13)
	p := NewProcess("full", DefaultChain()...)
	if _, err := p.Run(ctx); err != nil {
		t.Fatal(err)
	}
	version := ctx.Curation().Version
	if _, err := ctx.Curate(func(next *Curation) error {
		return next.Knowledge.Synonyms.Add("water_temperature", "brand_new_alias")
	}); err != nil {
		t.Fatal(err)
	}
	r2, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Curation().Version == version {
		t.Fatal("curated knowledge change did not move the version")
	}
	if r2.Steps[0].Counters["fullReprocess"] != 1 {
		t.Fatalf("knowledge change did not force full reprocess: %v", r2.Steps[0].Counters)
	}
	for _, st := range r2.Steps {
		if st.Component == "known-transforms" && st.Counters["featuresSkipped"] != 0 {
			t.Errorf("full run skipped %d features", st.Counters["featuresSkipped"])
		}
	}
	// Third run with nothing new: incremental again.
	r3, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Steps[0].Counters["fullReprocess"] != 0 {
		t.Errorf("epoch did not settle after publish: %v", r3.Steps[0].Counters)
	}
}

// TestDeletionRetractsFromPublished removes an archive file and checks
// the vanished dataset leaves both catalogs — the leak the pre-delta
// write path had ("files removed linger in the catalog forever").
func TestDeletionRetractsFromPublished(t *testing.T) {
	ctx, m := newTestContext(t, 10, 7)
	p := NewProcess("full", DefaultChain()...)
	if _, err := p.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(ctx.ScanConfig.Root, m.Datasets[0].Path)); err != nil {
		t.Fatal(err)
	}
	r2, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Steps[0].Counters["removed"] != 1 {
		t.Fatalf("scan counters = %v", r2.Steps[0].Counters)
	}
	last := r2.Steps[len(r2.Steps)-1]
	if last.Counters["retracted"] != 1 {
		t.Fatalf("publish counters = %v", last.Counters)
	}
	id := catalog.IDForPath(m.Datasets[0].Path)
	if _, ok := ctx.Working.Get(id); ok {
		t.Error("deleted dataset still in working catalog")
	}
	if _, ok := ctx.Published.Snapshot().ByID(id); ok {
		t.Error("deleted dataset still in published catalog")
	}
	if ctx.Published.Len() != len(m.Datasets)-1 {
		t.Errorf("published len = %d, want %d", ctx.Published.Len(), len(m.Datasets)-1)
	}
}

// failAfterScan is a component that errors, aborting the chain between
// ScanArchive and Publish.
type failAfterScan struct{}

func (failAfterScan) Name() string { return "fail-after-scan" }
func (failAfterScan) Run(*Context) (StepReport, error) {
	return StepReport{}, fmt.Errorf("transient failure")
}

// servedNameCounts tallies the variable names the published catalog
// serves.
func servedNameCounts(ctx *Context) []table.ValueCount {
	w := catalog.NewWorking()
	w.SeedFrom(ctx.Published.Snapshot())
	return w.VariableNameCounts()
}

// TestAbortedRunDoesNotStrandDirtyFeatures reproduces the mid-chain
// failure hazard: run N re-parses a churned file into Working (raw
// names) and then aborts before Publish; run N+1's scan sees the file
// stat-unchanged. The carried-dirty set must keep the feature in the
// delta so it is transformed before publishing — otherwise raw,
// unwrangled metadata would reach the served catalog.
func TestAbortedRunDoesNotStrandDirtyFeatures(t *testing.T) {
	ctx, m := newTestContext(t, 15, 31)
	p := NewProcess("full", DefaultChain()...)
	if _, err := p.Run(ctx); err != nil {
		t.Fatal(err)
	}
	namesBefore := servedNameCounts(ctx)

	// Churn one file (names unchanged, content changed), then run a
	// chain that scans and aborts.
	target := filepath.Join(ctx.ScanConfig.Root, m.Datasets[3].Path)
	data, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(target, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(3 * time.Second)
	if err := os.Chtimes(target, future, future); err != nil {
		t.Fatal(err)
	}
	broken := NewProcess("broken", ScanArchive{}, failAfterScan{})
	if _, err := broken.Run(ctx); err == nil {
		t.Fatal("broken chain should fail")
	}

	// Recovery run: the scan reports nothing parsed, but the stranded
	// feature must be carried into the delta and fully re-wrangled.
	r, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	scanStep := r.Steps[0]
	if scanStep.Counters["parsed"] != 0 {
		t.Fatalf("recovery run re-parsed: %v", scanStep.Counters)
	}
	if scanStep.Counters["carriedOver"] != 1 {
		t.Fatalf("stranded feature not carried over: %v", scanStep.Counters)
	}
	for _, st := range r.Steps {
		if st.Component == "known-transforms" && st.Counters["featuresProcessed"] != 1 {
			t.Fatalf("carried feature not processed by %s: %v", st.Component, st.Counters)
		}
	}
	// The published name multiset must be unchanged: a stranded raw
	// feature would leak messy names into the served catalog.
	namesAfter := servedNameCounts(ctx)
	if len(namesBefore) != len(namesAfter) {
		t.Fatalf("published distinct names changed: %d -> %d", len(namesBefore), len(namesAfter))
	}
	for i := range namesBefore {
		if namesBefore[i] != namesAfter[i] {
			t.Errorf("published names diverged: %v -> %v", namesBefore[i], namesAfter[i])
		}
	}
	// Once published, the pending set is consumed: the next run carries
	// nothing.
	r2, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Steps[0].Counters["carriedOver"] != 0 {
		t.Fatalf("pending set not cleared after publish: %v", r2.Steps[0].Counters)
	}
}

// TestUnitAliasChangeForcesFullReprocess guards the package doc's
// promise that "unit aliases" added between runs move the curation's
// version: the unit registry is part of the curation.
func TestUnitAliasChangeForcesFullReprocess(t *testing.T) {
	ctx, _ := newTestContext(t, 8, 41)
	p := NewProcess("full", DefaultChain()...)
	if _, err := p.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Curate(func(next *Curation) error {
		return next.Units.AddAlias("curator_degrees", next.Units.Symbols()[0])
	}); err != nil {
		t.Fatal(err)
	}
	r2, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Steps[0].Counters["fullReprocess"] != 1 {
		t.Fatalf("unit alias change did not force full reprocess: %v", r2.Steps[0].Counters)
	}
}

// TestScopeStaysBounded: pushes on a node that never wrangles grow the
// validation/publish scope only to half the working catalog; past that
// the scope is every feature, and the next completed run resets it.
func TestScopeStaysBounded(t *testing.T) {
	ctx, _ := newTestContext(t, 8, 5)
	p := NewProcess("full", DefaultChain()...)
	if _, err := p.Run(ctx); err != nil {
		t.Fatal(err)
	}
	for i, n := 0, 2*ctx.Working.Len(); i < n; i++ {
		f := fahrenheitFeature(fmt.Sprintf("push/%d.obs", i))
		if _, _, _, err := ctx.PublishDirect([]*catalog.Feature{f}, nil); err != nil {
			t.Fatal(err)
		}
		if len(ctx.scoped) > ctx.Working.Len()/2+1 {
			t.Fatalf("push %d: scope holds %d IDs of a %d-feature catalog", i, len(ctx.scoped), ctx.Working.Len())
		}
	}
	if ids, all := ctx.scope(); !all {
		t.Fatalf("scope after pushes past half the catalog = %d IDs, want every feature", len(ids))
	}
	if _, err := p.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if ctx.scopeAll || len(ctx.scoped) != 0 {
		t.Fatalf("completed run left scope all=%v ids=%d", ctx.scopeAll, len(ctx.scoped))
	}
}
