// Command wrangle runs the metadata wrangling process over an archive:
// scan, known transformations, transformation discovery, hierarchy
// generation, validation, publish. It prints the per-stage mess
// reduction and can persist the published catalog and the discovered
// rule file.
//
// Usage:
//
//	wrangle -archive /tmp/archive -catalog /tmp/catalog.snapshot -rules /tmp/rules.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"metamess"
	"metamess/internal/catalog"
	"metamess/internal/core"
	"metamess/internal/refine"
	"metamess/internal/scan"
	"metamess/internal/semdiv"
	"metamess/internal/vocab"
)

func main() {
	archiveRoot := flag.String("archive", "", "archive root directory (required)")
	dirs := flag.String("dirs", "", "comma-separated subdirectories to scan (default: all)")
	catalogOut := flag.String("catalog", "", "write the published catalog snapshot here")
	rulesOut := flag.String("rules", "", "write discovered transformation rules (JSON) here")
	strict := flag.Bool("strict", false, "fail (and skip publish) on validation errors")
	configPath := flag.String("config", "", "JSON process config (curator-authored chain)")
	flag.Parse()

	if *archiveRoot == "" {
		fmt.Fprintln(os.Stderr, "wrangle: -archive is required")
		flag.Usage()
		os.Exit(2)
	}
	if *configPath != "" {
		if err := runConfigured(*configPath, *archiveRoot, *dirs, *catalogOut, *rulesOut); err != nil {
			fmt.Fprintln(os.Stderr, "wrangle:", err)
			os.Exit(1)
		}
		return
	}
	cfg := metamess.Config{ArchiveRoot: *archiveRoot, StrictValidation: *strict}
	if *dirs != "" {
		cfg.Dirs = strings.Split(*dirs, ",")
	}
	sys, err := metamess.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wrangle:", err)
		os.Exit(1)
	}
	rep, err := sys.Wrangle()
	if err != nil {
		fmt.Fprintln(os.Stderr, "wrangle:", err)
		for _, f := range sys.Validation() {
			fmt.Fprintln(os.Stderr, "  ", f)
		}
		os.Exit(1)
	}

	fmt.Printf("wrangled %d datasets in %v\n", rep.Datasets, rep.Duration.Round(1e6))
	fmt.Printf("coverage: %.3f -> %.3f (%d distinct names, %d unresolved)\n",
		rep.CoverageBefore, rep.CoverageAfter, rep.DistinctNames, rep.UnresolvedNames)
	fmt.Println("stages:")
	for _, s := range rep.Steps {
		fmt.Printf("  %-22s coverage=%.3f %v\n", s.Component, s.Coverage, s.Counters)
	}
	if rep.ValidationErrors+rep.ValidationWarnings > 0 {
		fmt.Printf("validation: %d errors, %d warnings\n", rep.ValidationErrors, rep.ValidationWarnings)
	}
	if queue := sys.CuratorQueue(); len(queue) > 0 {
		fmt.Println("curator queue:")
		for _, q := range queue {
			fmt.Println("  ", q)
		}
	}
	if *catalogOut != "" {
		if err := sys.SaveCatalog(*catalogOut); err != nil {
			fmt.Fprintln(os.Stderr, "wrangle:", err)
			os.Exit(1)
		}
		fmt.Println("catalog snapshot written to", *catalogOut)
	}
	if *rulesOut != "" {
		rules, err := sys.ExportRules()
		if err != nil {
			fmt.Fprintln(os.Stderr, "wrangle:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*rulesOut, rules, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "wrangle:", err)
			os.Exit(1)
		}
		fmt.Println("discovered rules written to", *rulesOut)
	}
}

// runConfigured runs a curator-authored process config through the
// internal chain machinery directly.
func runConfigured(configPath, archiveRoot, dirs, catalogOut, rulesOut string) error {
	data, err := os.ReadFile(configPath)
	if err != nil {
		return err
	}
	cfg, err := core.ParseProcessConfig(data)
	if err != nil {
		return err
	}
	p, err := cfg.Build()
	if err != nil {
		return err
	}
	k, err := semdiv.NewKnowledge(vocab.Standard())
	if err != nil {
		return err
	}
	scanCfg := scan.Config{Root: archiveRoot}
	if dirs != "" {
		scanCfg.Dirs = strings.Split(dirs, ",")
	}
	ctx := core.NewContext(k, scanCfg)
	report, err := p.Run(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("process %q: %d datasets, coverage %.3f -> %.3f in %v\n",
		p.Name, ctx.Published.Len(),
		report.MessBefore.OccurrenceCoverage, report.MessAfter.OccurrenceCoverage,
		report.Duration.Round(1e6))
	for _, s := range report.Steps {
		fmt.Printf("  %-22s coverage=%.3f %v\n", s.Component, s.MessAfter.OccurrenceCoverage, s.Counters)
	}
	if catalogOut != "" {
		if err := catalog.Save(catalogOut, ctx.Published); err != nil {
			return err
		}
		fmt.Println("catalog snapshot written to", catalogOut)
	}
	if rulesOut != "" {
		rules, err := refine.ExportJSON(ctx.Curation().DiscoveredRules)
		if err != nil {
			return err
		}
		if err := os.WriteFile(rulesOut, rules, 0o644); err != nil {
			return err
		}
		fmt.Println("discovered rules written to", rulesOut)
	}
	return nil
}
