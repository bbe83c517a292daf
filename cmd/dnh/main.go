// Command dnh is the "Data Near Here" search CLI: ranked search over a
// wrangled metadata catalog by location, time period, and variables.
//
// Usage:
//
//	dnh -archive /tmp/archive -lat 45.5 -lon -124.4 \
//	    -from 2010-05-01 -to 2010-08-01 -var "temperature:5:10" -k 5
//
// Variables take the form name[:min[:max]]. Pass -catalog to search a
// previously saved snapshot without re-wrangling the archive, or -data
// to search a dnhd data directory (checkpoint + publish journal): the
// catalog is recovered by replay, and if -archive is also given the
// CLI reconciles it against the archive with a delta-scoped wrangle
// before searching — the warm-restart path, priced at churn.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"metamess"
)

type varFlags []metamess.VariableTerm

func (v *varFlags) String() string { return fmt.Sprint(*v) }

func (v *varFlags) Set(s string) error {
	parts := strings.Split(s, ":")
	term := metamess.VariableTerm{Name: parts[0]}
	if term.Name == "" {
		return fmt.Errorf("empty variable name")
	}
	if len(parts) > 1 && parts[1] != "" {
		f, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return fmt.Errorf("bad min %q", parts[1])
		}
		term.Min = &f
	}
	if len(parts) > 2 && parts[2] != "" {
		f, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return fmt.Errorf("bad max %q", parts[2])
		}
		term.Max = &f
	}
	*v = append(*v, term)
	return nil
}

func main() {
	archiveRoot := flag.String("archive", "", "archive root (wrangled before searching)")
	catalogPath := flag.String("catalog", "", "published catalog snapshot (skips wrangling)")
	dataDir := flag.String("data", "", "dnhd data directory (catalog recovered from checkpoint + journal)")
	lat := flag.Float64("lat", 0, "query latitude")
	lon := flag.Float64("lon", 0, "query longitude")
	hasLoc := flag.Bool("near", false, "use -lat/-lon as the query location")
	from := flag.String("from", "", "period start (YYYY-MM-DD)")
	to := flag.String("to", "", "period end (YYYY-MM-DD)")
	k := flag.Int("k", 10, "result count")
	workers := flag.Int("workers", 0, "parallel search workers (0 = all cores)")
	shards := flag.Int("shards", 0, "snapshot shards for publish segments and scatter-gather search (0 = all cores)")
	showSummary := flag.Bool("summary", false, "print the full dataset summary page per hit")
	textQuery := flag.String("q", "", `textual query, e.g. "near 45.5,-124.4 in mid-2010 with temperature between 5 and 10"`)
	var vars varFlags
	flag.Var(&vars, "var", "variable term name[:min[:max]] (repeatable)")
	flag.Parse()

	if *archiveRoot == "" && *catalogPath == "" && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "dnh: one of -archive, -catalog, or -data is required")
		flag.Usage()
		os.Exit(2)
	}
	if *catalogPath != "" && *dataDir != "" {
		// A load is a journaled publish: it would write into the data
		// directory, possibly a running daemon's.
		fmt.Fprintln(os.Stderr, "dnh: -catalog and -data are mutually exclusive (the data directory is the catalog)")
		os.Exit(2)
	}
	root := *archiveRoot
	if root == "" {
		// A throwaway root satisfies config validation; the snapshot or
		// data directory supplies the catalog.
		root = os.TempDir()
	}
	sys, err := metamess.New(metamess.Config{
		ArchiveRoot:    root,
		SearchWorkers:  *workers,
		SnapshotShards: *shards,
		DataDir:        *dataDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dnh:", err)
		os.Exit(1)
	}
	defer sys.Close()
	switch {
	case *catalogPath != "":
		if err := sys.LoadCatalog(*catalogPath); err != nil {
			fmt.Fprintln(os.Stderr, "dnh:", err)
			os.Exit(1)
		}
	case *archiveRoot == "":
		// -data only: search the recovered catalog as-is.
	default:
		// Cold wrangle, or — with -data holding recovered state — a
		// delta-scoped reconciliation against the archive.
		if _, err := sys.Wrangle(); err != nil {
			fmt.Fprintln(os.Stderr, "dnh:", err)
			os.Exit(1)
		}
	}

	var hits []metamess.Hit
	if *textQuery != "" {
		hits, err = sys.SearchText(*textQuery)
	} else {
		q := metamess.Query{Variables: vars, K: *k}
		if *hasLoc {
			q.Near = &metamess.LatLon{Lat: *lat, Lon: *lon}
		}
		if *from != "" {
			t, perr := time.Parse("2006-01-02", *from)
			if perr != nil {
				fmt.Fprintln(os.Stderr, "dnh: bad -from:", perr)
				os.Exit(2)
			}
			q.From = t
		}
		if *to != "" {
			t, perr := time.Parse("2006-01-02", *to)
			if perr != nil {
				fmt.Fprintln(os.Stderr, "dnh: bad -to:", perr)
				os.Exit(2)
			}
			q.To = t
		}
		hits, err = sys.Search(q)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dnh:", err)
		os.Exit(1)
	}
	if len(hits) == 0 {
		fmt.Println("no datasets found")
		return
	}
	for i, h := range hits {
		fmt.Printf("%2d. %.3f  %s\n", i+1, h.Score, h.Path)
		for _, m := range h.MatchedVariables {
			fmt.Printf("      matched %s\n", m)
		}
		if *showSummary {
			for _, line := range strings.Split(strings.TrimRight(h.Summary, "\n"), "\n") {
				fmt.Println("      " + line)
			}
		}
	}
}
