// Package experiments reproduces every exhibit of the poster as a
// measurable experiment: the Table-1 semantic-diversity taxonomy and the
// five figures, plus the ablations DESIGN.md calls out. Each runner
// returns a formatted table whose shape must satisfy the poster's
// qualitative claims.
package experiments

import (
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"metamess/internal/archive"
	"metamess/internal/catalog"
	"metamess/internal/core"
	"metamess/internal/metrics"
	"metamess/internal/scan"
	"metamess/internal/search"
	"metamess/internal/semdiv"
	"metamess/internal/vocab"
	"metamess/internal/workload"
)

// Table is a formatted experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(t.Header, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	w.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// buildWrangled generates an archive, runs the full chain, and returns
// the context plus manifest.
func buildWrangled(dir string, datasets int, seed int64) (*core.Context, *archive.Manifest, error) {
	m, err := archive.Generate(dir, archive.DefaultGenConfig(datasets, seed))
	if err != nil {
		return nil, nil, err
	}
	k, err := semdiv.NewKnowledge(vocab.Standard())
	if err != nil {
		return nil, nil, err
	}
	ctx := core.NewContext(k, scan.Config{Root: dir})
	p := core.NewProcess("experiment", core.DefaultChain()...)
	if _, err := p.Run(ctx); err != nil {
		return nil, nil, err
	}
	return ctx, m, nil
}

// buildRaw generates an archive and scans it with no wrangling at all:
// the baseline catalog whose variable names are the mess as harvested.
func buildRaw(dir string, datasets int, seed int64) (*catalog.Catalog, *archive.Manifest, error) {
	m, err := archive.Generate(dir, archive.DefaultGenConfig(datasets, seed))
	if err != nil {
		return nil, nil, err
	}
	w := catalog.NewWorking()
	if _, err := scan.New(scan.Config{Root: dir}).ScanInto(w); err != nil {
		return nil, nil, err
	}
	c := catalog.New()
	if _, err := c.ApplyDelta(c.DiffTo(w)); err != nil {
		return nil, nil, err
	}
	return c, m, nil
}

// Table1SemanticDiversity reproduces the poster's Table 1: inject every
// category at known rates, classify, and apply each category's approach.
// Columns: injected count, detection precision/recall, and the fraction
// of findings whose prescribed resolution succeeded against ground truth.
func Table1SemanticDiversity(dir string, datasets int, seed int64) (*Table, error) {
	cfg := archive.DefaultGenConfig(datasets, seed)
	cfg.Mess = archive.DefaultMess().Scale(1.5) // heavier mess: exercise every row
	m, err := archive.Generate(dir, cfg)
	if err != nil {
		return nil, err
	}
	k, err := semdiv.NewKnowledge(vocab.Standard())
	if err != nil {
		return nil, err
	}
	cls := semdiv.NewClassifier(k)
	corpus := workload.Corpus(m)

	type tally struct {
		injected int
		conf     metrics.ConfusionCounts
		resolved int
		resTotal int
	}
	tallies := make(map[semdiv.Category]*tally)
	for _, c := range semdiv.Categories() {
		tallies[c] = &tally{}
	}

	var findings []semdiv.Finding
	for _, ln := range corpus {
		f := cls.Classify(ln.Raw)
		findings = append(findings, f)
		if tl, ok := tallies[ln.Category]; ok {
			tl.injected++
			if f.Category == ln.Category {
				tl.conf.TP++
			} else {
				tl.conf.FN++
			}
		}
		if tl, ok := tallies[f.Category]; ok && f.Category != ln.Category {
			tl.conf.FP++
		}
	}
	plan := semdiv.Resolve(findings)
	queued := make(map[string]bool)
	for _, f := range plan.CuratorQueue {
		queued[f.RawName] = true
	}
	grouped := make(map[string]bool)
	for _, members := range plan.Groups {
		for _, m := range members {
			grouped[m] = true
		}
	}
	excluded := make(map[string]bool)
	for _, e := range plan.Exclusions {
		excluded[e] = true
	}
	for _, ln := range corpus {
		tl, ok := tallies[ln.Category]
		if !ok {
			continue
		}
		tl.resTotal++
		switch ln.Category {
		case semdiv.CatMinorVariation, semdiv.CatSynonym, semdiv.CatAbbreviation:
			if plan.Translations[ln.Raw] == ln.Canonical {
				tl.resolved++
			}
		case semdiv.CatExcessive:
			if excluded[ln.Raw] {
				tl.resolved++
			}
		case semdiv.CatAmbiguous:
			if queued[ln.Raw] {
				tl.resolved++ // exposed to the curator, per Table 1
			}
		case semdiv.CatSourceContext:
			if len(plan.ContextLinks[ln.Raw]) >= 2 {
				tl.resolved++
			}
		case semdiv.CatMultiLevel:
			if grouped[ln.Raw] {
				tl.resolved++
			}
		}
	}

	t := &Table{
		ID:     "T1",
		Title:  "Categories of semantic diversity: injection, detection, resolution",
		Header: []string{"category", "approach", "injected", "det-precision", "det-recall", "resolved"},
	}
	for _, c := range semdiv.Categories() {
		tl := tallies[c]
		resolved := "n/a"
		if tl.resTotal > 0 {
			resolved = fmt.Sprintf("%.2f", float64(tl.resolved)/float64(tl.resTotal))
		}
		t.Rows = append(t.Rows, []string{
			string(c), c.Approach(),
			fmt.Sprintf("%d", tl.injected),
			fmt.Sprintf("%.2f", tl.conf.Precision()),
			fmt.Sprintf("%.2f", tl.conf.Recall()),
			resolved,
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("corpus: %d distinct raw names from %d datasets (mess x1.5, seed %d); minor-variation threshold %g",
			len(corpus), datasets, seed, cls.MinorVariationThreshold))
	return t, nil
}

// Figure1RankedSearch reproduces the search-interface figure as a
// retrieval-quality and latency experiment: the same judged queries run
// against the raw (unwrangled) catalog and the wrangled catalog, with
// and without the index. The poster's claim — wrangling stops messy
// names from hiding data — shows up as the recall gap.
func Figure1RankedSearch(dirRaw, dirWrangled string, datasets, queries int, seed int64) (*Table, error) {
	rawCat, m, err := buildRaw(dirRaw, datasets, seed)
	if err != nil {
		return nil, err
	}
	ctx, _, err := buildWrangled(dirWrangled, datasets, seed)
	if err != nil {
		return nil, err
	}
	// Quality workload: variable-only queries, so a dataset is only found
	// through its names — the axis wrangling improves. Latency workload:
	// full location+time+variable queries, the interactive case.
	varJudged, err := workload.VariableQueries(m, queries, seed+1, false)
	if err != nil {
		return nil, err
	}
	fullJudged, err := workload.Queries(m, queries, seed+2, workload.DefaultRelevance(), false)
	if err != nil {
		return nil, err
	}

	expander := search.NewKnowledgeExpander(func() *semdiv.Knowledge { return ctx.Curation().Knowledge })
	configs := []struct {
		name string
		s    *search.Searcher
	}{
		{"raw catalog, exact match", search.New(rawCat, search.DefaultOptions())},
		{"raw catalog + expander", search.New(rawCat, withExpander(expander))},
		{"wrangled catalog", search.New(ctx.Published, search.DefaultOptions())},
		{"wrangled + expander", search.New(ctx.Published, withExpander(expander))},
		{"wrangled, linear scan", search.New(ctx.Published, linearScan())},
	}

	t := &Table{
		ID:     "F1",
		Title:  "Ranked search over location/time/variables (Data Near Here)",
		Header: []string{"configuration", "P@5", "recall", "NDCG@10", "mean-score", "mean-latency"},
	}
	for _, cfg := range configs {
		var p5s, recalls, ndcgs, scores []float64
		for _, j := range varJudged {
			res, err := cfg.s.Search(j.Query)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", cfg.name, err)
			}
			ids := workload.RankedIDs(res)
			p5s = append(p5s, metrics.PrecisionAtK(ids, j.Relevant, 5))
			recalls = append(recalls, metrics.RecallAtK(ids, j.Relevant, len(ids)+len(j.Relevant)))
			ndcgs = append(ndcgs, metrics.NDCGAtK(ids, j.Relevant, 10))
			scores = appendScores(scores, res)
		}
		var total time.Duration
		for _, j := range fullJudged {
			start := time.Now()
			if _, err := cfg.s.Search(j.Query); err != nil {
				return nil, fmt.Errorf("%s: %w", cfg.name, err)
			}
			total += time.Since(start)
		}
		t.Rows = append(t.Rows, []string{
			cfg.name,
			fmt.Sprintf("%.3f", metrics.Mean(p5s)),
			fmt.Sprintf("%.3f", metrics.Mean(recalls)),
			fmt.Sprintf("%.3f", metrics.Mean(ndcgs)),
			fmt.Sprintf("%.4f", metrics.Mean(scores)),
			(total / time.Duration(len(fullJudged))).Round(time.Microsecond).String(),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"%d datasets; quality over %d variable-only queries (relevance: dataset carries the canonical variable); latency over %d full space+time+variable queries",
		datasets, len(varJudged), len(fullJudged)))
	return t, nil
}

// appendScores appends the scores of a ranking's hits. Their mean is
// the exhibits' view of the scoring function itself: precision, recall
// and NDCG see only the order of the hits, which survives most changes
// to a weight or a scale.
func appendScores(scores []float64, res []search.Result) []float64 {
	for _, r := range res {
		scores = append(scores, r.Score)
	}
	return scores
}

func withExpander(e search.Expander) search.Options {
	o := search.DefaultOptions()
	o.Expander = e
	return o
}

func linearScan() search.Options {
	o := search.DefaultOptions()
	o.UseIndex = false
	return o
}

// Figure2CatalogBuild reproduces the IR-architecture figure as the
// scan-once-summarize measurement: throughput and the feature-vs-raw
// size ratio across archive sizes.
func Figure2CatalogBuild(dirs []string, sizes []int, seed int64) (*Table, error) {
	if len(dirs) != len(sizes) {
		return nil, fmt.Errorf("experiments: need one dir per size")
	}
	t := &Table{
		ID:     "F2",
		Title:  "Catalog build: scan once, summarize into features",
		Header: []string{"datasets", "raw-bytes", "feature-bytes", "ratio", "scan-time", "datasets/sec"},
	}
	for i, n := range sizes {
		dir := dirs[i]
		if _, err := archive.Generate(dir, archive.DefaultGenConfig(n, seed)); err != nil {
			return nil, err
		}
		w := catalog.NewWorking()
		start := time.Now()
		res, err := scan.New(scan.Config{Root: dir}).ScanInto(w)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		c := catalog.New()
		if _, err := c.ApplyDelta(c.DiffTo(w)); err != nil {
			return nil, err
		}
		snapPath := dir + "/catalog.snapshot"
		if err := catalog.Save(snapPath, c); err != nil {
			return nil, err
		}
		st, err := os.Stat(snapPath)
		if err != nil {
			return nil, err
		}
		featBytes := st.Size()
		ratio := float64(res.Stats.BytesParsed) / float64(featBytes)
		persec := float64(res.Stats.Parsed) / elapsed.Seconds()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", res.Stats.BytesParsed),
			fmt.Sprintf("%d", featBytes),
			fmt.Sprintf("%.1fx", ratio),
			elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", persec),
		})
	}
	t.Notes = append(t.Notes, "features summarize datasets scanned once; ratio = raw/feature bytes")
	return t, nil
}
