// Oceansearch: the full "Data Near Here" scenario on a larger archive —
// demonstrates how wrangling changes retrieval. The same variable query
// runs against (a) a catalog of raw harvested names and (b) the wrangled
// catalog, and the example prints the recall difference against the
// generator's ground truth.
package main

import (
	"fmt"
	"log"
	"os"
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

func main() {
	root, err := os.MkdirTemp("", "metamess-ocean-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)

	m, err := archive.Generate(root, archive.DefaultGenConfig(90, 7))
	if err != nil {
		log.Fatal(err)
	}

	// Raw catalog: scan only, names as harvested.
	scanned := catalog.NewWorking()
	if _, err := scan.New(scan.Config{Root: root}).ScanInto(scanned); err != nil {
		log.Fatal(err)
	}
	raw := catalog.New()
	if _, err := raw.ApplyDelta(raw.DiffTo(scanned)); err != nil {
		log.Fatal(err)
	}

	// Wrangled catalog: the full chain.
	k, err := semdiv.NewKnowledge(vocab.Standard())
	if err != nil {
		log.Fatal(err)
	}
	ctx := core.NewContext(k, scan.Config{Root: root})
	if _, err := core.NewProcess("ocean", core.DefaultChain()...).Run(ctx); err != nil {
		log.Fatal(err)
	}

	// 30 variable-only queries with ground-truth relevance.
	judged, err := workload.VariableQueries(m, 30, 99, false)
	if err != nil {
		log.Fatal(err)
	}

	score := func(name string, s *search.Searcher) {
		var recalls, p5s []float64
		start := time.Now()
		for _, j := range judged {
			res, err := s.Search(j.Query)
			if err != nil {
				log.Fatal(err)
			}
			ids := workload.RankedIDs(res)
			recalls = append(recalls, metrics.RecallAtK(ids, j.Relevant, len(ids)+len(j.Relevant)))
			p5s = append(p5s, metrics.PrecisionAtK(ids, j.Relevant, 5))
		}
		perQuery := time.Since(start) / time.Duration(len(judged))
		fmt.Printf("%-28s recall=%.3f  P@5=%.3f  %8s/query\n",
			name, metrics.Mean(recalls), metrics.Mean(p5s), perQuery.Round(time.Microsecond))
	}

	fmt.Printf("archive: %d datasets, %d distinct raw names, %d canonical variables\n\n",
		raw.Len(), len(scanned.DistinctVariableNames()), len(vocab.Standard()))
	fmt.Println("querying by canonical variable name:")
	score("raw catalog (exact match)", search.New(raw, search.DefaultOptions()))

	opts := search.DefaultOptions()
	opts.Expander = search.NewKnowledgeExpander(func() *semdiv.Knowledge { return ctx.Curation().Knowledge })
	score("raw catalog + expander", search.New(raw, opts))
	score("wrangled catalog", search.New(ctx.Published, search.DefaultOptions()))
	score("wrangled + expander", search.New(ctx.Published, opts))

	// Same rankings, different read path: "wrangled catalog" above went
	// through the snapshot planner; the ablation scores every feature.
	linear := search.DefaultOptions()
	linear.UseIndex = false
	fmt.Println("\nread-path ablation (identical rankings to the indexed runs above):")
	score("linear-scan ablation", search.New(ctx.Published, linear))

	fmt.Println("\nmessy names hide data from exact matching; wrangling (or query")
	fmt.Println("expansion over curated knowledge) recovers it — the poster's thesis.")
}
