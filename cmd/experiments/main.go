// Command experiments regenerates every exhibit of the poster — Table 1,
// the five figures, and the three ablations — and prints the result
// tables.
//
// Usage:
//
//	experiments [-only T1,F1] [-datasets 60] [-queries 40] [-seed 42]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"metamess/internal/experiments"
)

func main() {
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	datasets := flag.Int("datasets", 60, "archive size per experiment")
	queries := flag.Int("queries", 40, "query count for retrieval experiments")
	seed := flag.Int64("seed", 42, "deterministic seed")
	flag.Parse()

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	selected := func(id string) bool { return len(want) == 0 || want[id] }

	var tmpDirs []string
	tmp := func() string {
		d, err := os.MkdirTemp("", "metamess-exp-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		tmpDirs = append(tmpDirs, d)
		return d
	}
	defer func() {
		for _, d := range tmpDirs {
			os.RemoveAll(d)
		}
	}()

	type runner struct {
		id  string
		run func() (*experiments.Table, error)
	}
	runners := []runner{
		{"T1", func() (*experiments.Table, error) {
			return experiments.Table1SemanticDiversity(tmp(), *datasets, *seed)
		}},
		{"F1", func() (*experiments.Table, error) {
			return experiments.Figure1RankedSearch(tmp(), tmp(), *datasets, *queries, *seed)
		}},
		{"F2", func() (*experiments.Table, error) {
			return experiments.Figure2CatalogBuild(
				[]string{tmp(), tmp(), tmp()}, []int{*datasets / 3, *datasets, *datasets * 3}, *seed)
		}},
		{"F3", func() (*experiments.Table, error) {
			return experiments.Figure3WranglingChain(tmp(), *datasets, *seed)
		}},
		{"F4", func() (*experiments.Table, error) {
			return experiments.Figure4Discovery(
				[]string{tmp(), tmp(), tmp()}, []float64{0.5, 1.0, 2.0}, *datasets, *seed)
		}},
		{"F5", func() (*experiments.Table, error) {
			return experiments.Figure5DatasetSummary(tmp(), *datasets, *seed)
		}},
		{"A1", func() (*experiments.Table, error) {
			return experiments.AblationCuratorLoop(tmp(), *datasets, *seed, 5)
		}},
		{"A2", func() (*experiments.Table, error) {
			return experiments.AblationValidation(tmp(), *seed)
		}},
		{"A3", func() (*experiments.Table, error) {
			return experiments.AblationScoring(tmp(), *datasets, *queries, *seed)
		}},
	}
	for _, r := range runners {
		if !selected(r.id) {
			continue
		}
		tab, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", r.id, err)
			os.Exit(1)
		}
		fmt.Println(tab.String())
	}
}
