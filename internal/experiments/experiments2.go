package experiments

import (
	"fmt"
	"path"
	"path/filepath"
	"time"

	"metamess/internal/archive"
	"metamess/internal/catalog"
	"metamess/internal/cluster"
	"metamess/internal/core"
	"metamess/internal/geo"
	"metamess/internal/metrics"
	"metamess/internal/refine"
	"metamess/internal/scan"
	"metamess/internal/search"
	"metamess/internal/semdiv"
	"metamess/internal/table"
	"metamess/internal/validate"
	"metamess/internal/vocab"
	"metamess/internal/workload"
)

// Figure3WranglingChain reproduces the wrangling-process figure: the
// mess metric after every chain stage, plus full-run vs incremental
// rerun cost.
func Figure3WranglingChain(dir string, datasets int, seed int64) (*Table, error) {
	m, err := archive.Generate(dir, archive.DefaultGenConfig(datasets, seed))
	if err != nil {
		return nil, err
	}
	_ = m
	k, err := semdiv.NewKnowledge(vocab.Standard())
	if err != nil {
		return nil, err
	}
	ctx := core.NewContext(k, scan.Config{Root: dir})
	defer ctx.Close() // a second run arms the walker's change feed
	p := core.NewProcess("figure3", core.DefaultChain()...)

	firstStart := time.Now()
	report, err := p.Run(ctx)
	if err != nil {
		return nil, err
	}
	firstDuration := time.Since(firstStart)

	t := &Table{
		ID:     "F3",
		Title:  "The metadata wrangling process: mess after each component",
		Header: []string{"stage", "distinct", "canonical", "excluded", "unresolved", "coverage", "duration"},
	}
	row := func(stage string, mr core.MessReport, d time.Duration) []string {
		return []string{
			stage,
			fmt.Sprintf("%d", mr.DistinctNames),
			fmt.Sprintf("%d", mr.CanonicalNames),
			fmt.Sprintf("%d", mr.ExcludedNames),
			fmt.Sprintf("%d", mr.UnresolvedNames),
			fmt.Sprintf("%.3f", mr.OccurrenceCoverage),
			d.Round(time.Microsecond).String(),
		}
	}
	t.Rows = append(t.Rows, row("(before)", report.MessBefore, 0))
	for _, s := range report.Steps {
		t.Rows = append(t.Rows, row(s.Component, s.MessAfter, s.Duration))
	}

	rerunStart := time.Now()
	rerun, err := p.Run(ctx)
	if err != nil {
		return nil, err
	}
	rerunDuration := time.Since(rerunStart)
	t.Notes = append(t.Notes,
		fmt.Sprintf("full run %v; incremental rerun %v (%.1fx faster; %d files re-parsed)",
			firstDuration.Round(time.Millisecond), rerunDuration.Round(time.Millisecond),
			float64(firstDuration)/float64(rerunDuration),
			rerun.Steps[0].Counters["parsed"]))
	return t, nil
}

// Figure4Discovery reproduces the Google-Refine figure: clustering
// methods over the messy corpus at several mess levels, scoring the
// generated mass-edit rules against ground truth, and verifying that
// exported JSON rules replay identically.
func Figure4Discovery(dirs []string, messScales []float64, datasets int, seed int64) (*Table, error) {
	if len(dirs) != len(messScales) {
		return nil, fmt.Errorf("experiments: need one dir per mess scale")
	}
	methods := []cluster.Method{
		cluster.Fingerprint(),
		cluster.NGramFingerprint(1),
		cluster.Phonetic(),
		cluster.Levenshtein(0.84),
		cluster.JaroWinkler(0.93),
	}
	t := &Table{
		ID:     "F4",
		Title:  "Discovering transformations (Refine-style clustering)",
		Header: []string{"mess", "method", "clusters", "edits", "precision", "recall", "replay"},
	}
	for i, scale := range messScales {
		cfg := archive.DefaultGenConfig(datasets, seed)
		cfg.Mess = archive.DefaultMess().Scale(scale)
		m, err := archive.Generate(dirs[i], cfg)
		if err != nil {
			return nil, err
		}
		canonical := m.CanonicalFor()
		corpus := workload.Corpus(m)
		// The discovery target: raw forms whose canonical differs.
		target := 0
		for _, ln := range corpus {
			if ln.Canonical != ln.Raw && ln.Category != semdiv.CatExcessive {
				target++
			}
		}
		grid := gridFromCorpus(corpus)
		gridCounts, err := grid.ValueCounts("field")
		if err != nil {
			return nil, err
		}
		for _, method := range methods {
			clusters := method.Cluster(gridCounts)
			op := cluster.ToMassEdit("field", clusters, "")
			edits, correct := 0, 0
			if op != nil {
				for _, e := range op.Edits {
					for _, from := range e.From {
						edits++
						want := canonical[from]
						got := canonical[e.To]
						if got == "" {
							got = e.To
						}
						if want == got {
							correct++
						}
					}
				}
			}
			conf := metrics.ConfusionCounts{TP: correct, FP: edits - correct, FN: target - correct}
			replay := "n/a"
			if op != nil {
				ok, err := replayIdentical(op, grid)
				if err != nil {
					return nil, err
				}
				replay = fmt.Sprintf("%v", ok)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("x%.1f", scale),
				method.Name(),
				fmt.Sprintf("%d", len(clusters)),
				fmt.Sprintf("%d", edits),
				fmt.Sprintf("%.2f", conf.Precision()),
				fmt.Sprintf("%.2f", conf.Recall()),
				replay,
			})
		}
	}
	t.Notes = append(t.Notes,
		"precision: generated edits folding a raw form onto a form with the same ground-truth canonical",
		"recall: fraction of all messy raw forms correctly folded; replay: export->import->reapply is identical")
	return t, nil
}

// gridFromCorpus builds a one-column grid with each raw name appearing
// once per corpus entry.
func gridFromCorpus(corpus []workload.LabeledName) *table.Table {
	grid := table.MustNew("field")
	for _, ln := range corpus {
		// A fixed single-column schema cannot produce a width error.
		_ = grid.AppendRow(ln.Raw)
	}
	return grid
}

// replayIdentical exports the rule to JSON, re-imports it, applies both
// to clones of the grid, and compares.
func replayIdentical(op *refine.MassEdit, grid *table.Table) (bool, error) {
	data, err := refine.ExportJSON([]refine.Operation{op})
	if err != nil {
		return false, err
	}
	back, err := refine.ImportJSON(data)
	if err != nil {
		return false, err
	}
	a := grid.Clone()
	b := grid.Clone()
	if _, err := op.Apply(a); err != nil {
		return false, err
	}
	if _, err := back[0].Apply(b); err != nil {
		return false, err
	}
	return a.Equal(b), nil
}

// Figure5DatasetSummary reproduces the dataset-summary-page figure as a
// completeness audit over every published dataset.
func Figure5DatasetSummary(dir string, datasets int, seed int64) (*Table, error) {
	ctx, m, err := buildWrangled(dir, datasets, seed)
	if err != nil {
		return nil, err
	}
	truth := m.ByPath()
	var total, varsShown, exclShown, ctxShown, parentShown, rangesOK int
	var exclTotal, ctxTotal int
	for _, f := range ctx.Published.Snapshot().All() {
		total++
		sum := search.Summarize(f)
		d := truth[f.Path]
		shown := make(map[string]bool)
		for _, v := range sum.Searchable {
			shown[v.RawName] = true
		}
		for _, v := range sum.Excluded {
			shown[v.RawName] = true
		}
		allShown := true
		for _, vt := range d.Vars {
			if !shown[vt.Raw] {
				allShown = false
			}
		}
		if allShown {
			varsShown++
		}
		for _, vt := range d.Vars {
			if vt.Category == semdiv.CatExcessive {
				exclTotal++
				for _, v := range sum.Excluded {
					if v.RawName == vt.Raw {
						exclShown++
						break
					}
				}
			}
		}
		for _, v := range append(append([]search.SummaryVar{}, sum.Searchable...), sum.Excluded...) {
			if len(v.Contexts) > 0 {
				ctxShown++
			}
			if v.Parent != "" {
				parentShown++
			}
			if v.Range != "" && v.Count > 0 {
				rangesOK++
			}
		}
		ctxTotal += len(sum.Searchable) + len(sum.Excluded)

	}
	t := &Table{
		ID:     "F5",
		Title:  "Dataset summary pages: completeness audit",
		Header: []string{"measure", "value"},
		Rows: [][]string{
			{"datasets summarized", fmt.Sprintf("%d", total)},
			{"pages showing every harvested variable", fmt.Sprintf("%d/%d", varsShown, total)},
			{"excessive variables shown as excluded", fmt.Sprintf("%d/%d", exclShown, exclTotal)},
			{"variable lines with observed ranges", fmt.Sprintf("%d/%d", rangesOK, ctxTotal)},
			{"variable lines with context links", fmt.Sprintf("%d", ctxShown)},
			{"variable lines with hierarchy parents", fmt.Sprintf("%d", parentShown)},
		},
	}
	t.Notes = append(t.Notes, "summaries render from catalog features only; raw data never re-read")
	return t, nil
}

// AblationCuratorLoop reproduces curatorial activity 3: iterations of
// "inspect the residual, extend the synonym table, rerun" until the mess
// converges.
func AblationCuratorLoop(dir string, datasets int, seed int64, maxIters int) (*Table, error) {
	m, err := archive.Generate(dir, archive.DefaultGenConfig(datasets, seed))
	if err != nil {
		return nil, err
	}
	canonical := m.CanonicalFor()
	k, err := semdiv.NewKnowledge(vocab.Standard())
	if err != nil {
		return nil, err
	}
	ctx := core.NewContext(k, scan.Config{Root: dir})
	defer ctx.Close() // a second run arms the walker's change feed
	p := core.NewProcess("curator-loop", core.DefaultChain()...)

	t := &Table{
		ID:     "A1",
		Title:  "Curator improvement loop: coverage per iteration",
		Header: []string{"iteration", "unresolved", "coverage", "synonyms-added"},
	}
	for iter := 1; iter <= maxIters; iter++ {
		report, err := p.Run(ctx)
		if err != nil {
			return nil, err
		}
		// Curate: map every unresolved name using ground truth (the
		// curator knows the archive).
		added := 0
		cls := semdiv.NewClassifier(ctx.Curation().Knowledge)
		ctx.Curate(func(next *core.Curation) error {
			for _, vc := range ctx.Working.VariableNameCounts() {
				f := cls.Classify(vc.Value)
				if f.Category != semdiv.CatUnknown && f.Category != semdiv.CatAmbiguous {
					continue
				}
				canon := canonical[vc.Value]
				if canon == "" || canon == vc.Value {
					continue
				}
				if err := next.Knowledge.Synonyms.Add(canon, vc.Value); err == nil {
					added++
				}
			}
			return nil
		})
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", iter),
			fmt.Sprintf("%d", report.MessAfter.UnresolvedNames),
			fmt.Sprintf("%.3f", report.MessAfter.OccurrenceCoverage),
			fmt.Sprintf("%d", added),
		})
		if report.MessAfter.UnresolvedNames == 0 || added == 0 {
			break
		}
	}
	t.Notes = append(t.Notes, "each iteration: run chain, add ground-truth synonyms for the residual, rerun")
	return t, nil
}

// AblationValidation injects one fault per check and verifies detection.
func AblationValidation(dir string, seed int64) (*Table, error) {
	ctx, m, err := buildWrangled(dir, 9, seed)
	if err != nil {
		return nil, err
	}
	cur := ctx.Curation()
	t := &Table{
		ID:     "A2",
		Title:  "Validation checks: fault injection",
		Header: []string{"fault", "check", "detected"},
	}
	injectAndCheck := func(fault string, checkName string, mutate func(c *catalog.Working), vctxMod func(v *validate.Context)) error {
		c := ctx.Working.Clone()
		if mutate != nil {
			mutate(c)
		}
		vctx := &validate.Context{Catalog: c, Knowledge: cur.Knowledge, Units: cur.Units}
		if vctxMod != nil {
			vctxMod(vctx)
		}
		report := validate.Run(vctx, validate.DefaultChecks()...)
		detected := false
		for _, f := range report.Findings {
			if f.Check == checkName {
				detected = true
				break
			}
		}
		t.Rows = append(t.Rows, []string{fault, checkName, fmt.Sprintf("%v", detected)})
		return nil
	}

	// Fault 1: a CSV dropped into a directory holding obs files. The
	// intruder lands beside an actual stations dataset so the directory
	// genuinely mixes types.
	var stationsDir string
	for _, d := range m.Datasets {
		if d.Source == "stations" {
			stationsDir = path.Dir(filepath.ToSlash(d.Path))
			break
		}
	}
	if stationsDir == "" {
		return nil, fmt.Errorf("experiments: archive has no stations datasets")
	}
	intruderPath := stationsDir + "/intruder.csv"
	if err := injectAndCheck("mixed file type in stations dir", "same-type-directory", func(c *catalog.Working) {
		f := &catalog.Feature{
			ID: catalog.IDForPath(intruderPath), Path: intruderPath,
			Source: "stations", Format: "csv",
			BBox:      geo.BBox{MinLat: 46, MinLon: -124, MaxLat: 46.1, MaxLon: -123.9},
			Time:      m.Datasets[0].Time,
			Variables: []catalog.VarFeature{{RawName: "salinity", Name: "salinity", Count: 1}},
		}
		_ = c.Upsert(f)
	}, nil); err != nil {
		return nil, err
	}
	// Fault 2: an uncovered variable name.
	if err := injectAndCheck("uncovered variable name", "synonym-coverage", func(c *catalog.Working) {
		c.MutateVariables(func(f *catalog.Feature) bool {
			f.Variables[0].Name = "zz_unintelligible_name"
			return true
		})
	}, nil); err != nil {
		return nil, err
	}
	// Fault 3: expected dataset missing.
	if err := injectAndCheck("expected dataset missing", "expected-datasets", nil, func(v *validate.Context) {
		v.ExpectedPaths = []string{"stations/2099/never.obs"}
	}); err != nil {
		return nil, err
	}
	// Fault 4: unknown unit string.
	if err := injectAndCheck("unknown unit string", "units-resolved", func(c *catalog.Working) {
		c.MutateVariables(func(f *catalog.Feature) bool {
			f.Variables[0].Unit = "cubits per fortnight"
			f.Variables[0].CanonicalUnit = ""
			return true
		})
	}, nil); err != nil {
		return nil, err
	}
	// Fault 5: physically implausible range.
	if err := injectAndCheck("implausible value range", "plausible-ranges", func(c *catalog.Working) {
		c.MutateVariables(func(f *catalog.Feature) bool {
			for i := range f.Variables {
				if f.Variables[i].Name == "salinity" {
					f.Variables[i].Range = geo.ValueRange{Min: 0, Max: 5000}
					return true
				}
			}
			return false
		})
	}, nil); err != nil {
		return nil, err
	}
	return t, nil
}

// AblationScoring drops one query dimension at a time and measures the
// retrieval-quality impact — each dimension of the poster's ranked
// search must carry weight.
func AblationScoring(dir string, datasets, queries int, seed int64) (*Table, error) {
	ctx, m, err := buildWrangled(dir, datasets, seed)
	if err != nil {
		return nil, err
	}
	judged, err := workload.Queries(m, queries, seed+1, workload.DefaultRelevance(), false)
	if err != nil {
		return nil, err
	}
	s := search.New(ctx.Published, search.DefaultOptions())

	variants := []struct {
		name   string
		mutate func(q search.Query) search.Query
	}{
		{"full query (space+time+vars)", func(q search.Query) search.Query { return q }},
		{"no location", func(q search.Query) search.Query { q.Location = nil; return q }},
		{"no time", func(q search.Query) search.Query { q.Time = nil; return q }},
		{"no variables", func(q search.Query) search.Query { q.Terms = nil; return q }},
	}
	t := &Table{
		ID:     "A3",
		Title:  "Scoring ablation: drop one query dimension",
		Header: []string{"query form", "P@5", "NDCG@10", "mean-score"},
	}
	for _, v := range variants {
		var p5s, ndcgs, scores []float64
		for _, j := range judged {
			res, err := s.Search(v.mutate(j.Query))
			if err != nil {
				return nil, err
			}
			ids := workload.RankedIDs(res)
			p5s = append(p5s, metrics.PrecisionAtK(ids, j.Relevant, 5))
			ndcgs = append(ndcgs, metrics.NDCGAtK(ids, j.Relevant, 10))
			scores = appendScores(scores, res)
		}
		t.Rows = append(t.Rows, []string{
			v.name,
			fmt.Sprintf("%.3f", metrics.Mean(p5s)),
			fmt.Sprintf("%.3f", metrics.Mean(ndcgs)),
			fmt.Sprintf("%.4f", metrics.Mean(scores)),
		})
	}
	t.Notes = append(t.Notes, "relevance requires variable+location+time, so every dropped dimension costs quality")
	return t, nil
}
