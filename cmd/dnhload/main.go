// Command dnhload replays a query workload against a running dnhd,
// concurrently, and reports serving throughput and latency percentiles.
//
//	dnhload -addr http://127.0.0.1:8080 -manifest /tmp/archive/manifest.json
//
// Queries are derived from the archive's ground-truth manifest. The cold
// phase replays -n distinct queries (mostly cache misses); the hot phase
// replays the first of them -n times (the first request misses, the rest
// hit the generation-keyed cache). Both phases' workload.LoadStats are
// printed as one JSON object to stdout (or -out), and dnhload exits 1 if
// any request failed.
//
// The serving benchmark, with its own in-process daemon, oracles and
// metric bounds, is bench/: bash bench/run.sh --workload
// search-cold|search-hot.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"

	"metamess/internal/archive"
	"metamess/internal/server"
	"metamess/internal/workload"
)

// report is the printed JSON object.
type report struct {
	Cold workload.LoadStats `json:"cold"`
	Hot  workload.LoadStats `json:"hot"`
}

func main() {
	addr := flag.String("addr", "", "base URL of a running dnhd (required)")
	manifestPath := flag.String("manifest", "", "archive manifest.json the queries are derived from (required)")
	out := flag.String("out", "", "write the JSON report here (empty = stdout)")
	n := flag.Int("n", 400, "requests per phase")
	conc := flag.Int("c", 8, "concurrent requests")
	seed := flag.Int64("seed", 42, "workload seed")
	flag.Parse()
	if *addr == "" || *manifestPath == "" {
		fmt.Fprintln(os.Stderr, "dnhload: -addr and -manifest are required")
		flag.Usage()
		os.Exit(2)
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	fatal := func(err error) {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
	m, err := archive.ReadManifest(*manifestPath)
	if err != nil {
		fatal(err)
	}
	queries, err := workload.Queries(m, *n, *seed, workload.DefaultRelevance(), false)
	if err != nil {
		fatal(err)
	}
	coldReqs := make([]workload.HTTPRequest, len(queries))
	for i, j := range queries {
		body, err := json.Marshal(server.RequestFromQuery(j.Query))
		if err != nil {
			fatal(err)
		}
		coldReqs[i] = workload.HTTPRequest{Method: http.MethodPost, URL: *addr + "/search", Body: body}
	}
	hotReqs := make([]workload.HTTPRequest, len(coldReqs))
	for i := range hotReqs {
		hotReqs[i] = coldReqs[0]
	}

	ctx := context.Background()
	opts := workload.LoadOptions{Concurrency: *conc}
	var rep report
	logger.Info("cold phase", "requests", len(coldReqs), "concurrency", *conc)
	if rep.Cold, err = workload.Replay(ctx, coldReqs, opts); err != nil {
		fatal(err)
	}
	logger.Info("hot phase", "requests", len(hotReqs), "concurrency", *conc)
	if rep.Hot, err = workload.Replay(ctx, hotReqs, opts); err != nil {
		fatal(err)
	}

	body, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	body = append(body, '\n')
	if *out == "" {
		os.Stdout.Write(body)
	} else if err := os.WriteFile(*out, body, 0o644); err != nil {
		fatal(err)
	}
	logger.Info("done",
		"coldQPS", rep.Cold.QPS, "coldP50Ms", rep.Cold.P50Ms, "coldP99Ms", rep.Cold.P99Ms, "coldErrors", rep.Cold.Errors,
		"hotQPS", rep.Hot.QPS, "hotP50Ms", rep.Hot.P50Ms, "hotP99Ms", rep.Hot.P99Ms, "hotErrors", rep.Hot.Errors)
	if rep.Cold.Errors+rep.Hot.Errors > 0 {
		os.Exit(1)
	}
}
