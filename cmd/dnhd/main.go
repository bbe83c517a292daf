// Command dnhd is the "Data Near Here" daemon: it wrangles (or loads)
// a metadata catalog once, then serves ranked search over HTTP until
// stopped — the long-lived service the one-shot dnh CLI is not.
//
// Usage:
//
//	dnhd -archive /data/archive -addr :8080 -rewrangle 15m
//	dnhd -archive /data/archive -data /var/dnh -addr :8080
//	dnhd -catalog /var/dnh/catalog.json -addr :8080
//	dnhd -follow http://leader:8080 -data /var/replica -addr :8081
//
// With -data the daemon is durable: every publish is journaled (fsync
// policy per -fsync), a background compactor folds the journal into a
// checkpoint, and a restart recovers the catalog and its generation
// from the data directory — serving traffic immediately, then
// reconciling against the archive with a delta-scoped wrangle that
// costs O(churn while down) instead of a cold re-wrangle.
//
// With -follow the daemon is a read replica: instead of wrangling it
// tails the leader's publish journal (GET /journal/tail on the leader,
// long-polled), applies each generation-stamped delta, and serves
// searches with the full cache/admission/observability stack at the
// leader's generations. A follower that falls behind the leader's
// retained journals (e.g. down across a compaction) bootstraps from
// the leader's checkpoint automatically. With -data the follower
// journals what it applies, so a restart resumes from its last applied
// generation instead of re-downloading the world; a durable follower
// also serves /journal/tail itself, so replicas can chain. /readyz
// reports 503 once the follower is more than -max-lag generations
// behind; /stats and /metrics expose lag in generations and seconds.
// Clients needing read-your-writes send X-Min-Generation: N and either
// get an answer at generation >= N or a 412 naming the current one.
//
// Per-client rate limiting (-rate-limit, -rate-burst) refuses clients
// past their token budget with 429 + an accurate Retry-After before
// they can occupy an admission queue position; clients are keyed by
// X-Client-Id when present, else client IP.
//
// Push ingest: POST /publish accepts a batched feature delta from a
// live producer — validated, journaled, and replicated exactly like a
// wrangled publish, with zero filesystem stat calls. -max-publish caps
// the body size (negative disables the endpoint); followers never mount
// it — writes go to the leader and arrive here through the tail.
//
// Endpoints: POST /search, POST /publish, GET /search/text?q=...,
// GET /dataset/{path},
// GET /curator/queue, GET /healthz (liveness), GET /readyz (readiness:
// 503 while shedding), GET /stats, GET /metrics (Prometheus text
// format), GET /debug/slowlog, GET /debug/wrangletrace.
//
// Overload: -max-inflight bounds concurrent searches; excess requests
// wait up to -queue-wait in a bounded FIFO (-queue-depth), then are
// shed with 429 + Retry-After. Identical cold queries collapse into one
// execution (followers get the leader's bytes, X-Dnhd-Cache:
// collapsed). For -stale-window after a publish, still-warm queries are
// answered from the previous generation's cache (X-Dnhd-Cache: stale,
// X-Dnhd-Generation reports the serving generation) while a background
// flight warms the new one. -request-timeout (tightened per request by
// an X-Deadline-Ms header) bounds each search; on expiry the response
// is a 200 with partial:true and X-Dnhd-Partial: 1, never cached.
//
// Observability: any search request carrying ?debug=trace or an
// "X-Trace: 1" header returns its span tree inline (and bypasses the
// query cache); -trace-sample N additionally traces 1 in N ordinary
// requests for the stage histograms. Queries slower than
// -slow-threshold land in the /debug/slowlog ring buffer and the
// structured log. Logs are structured key=value lines on stderr
// (log/slog).
//
// Signals: SIGHUP triggers an immediate background re-wrangle — or, in
// -catalog mode, reloads the catalog file, which moves the generation
// only if content changed; in -follow mode, an immediate tail retry —
// while searches keep serving the old snapshot
// until the new one publishes; SIGINT and SIGTERM drain in-flight
// requests for up to -drain, then exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // profiling handlers, served only when -pprof is set
	"os"
	"os/signal"
	"syscall"
	"time"

	"metamess"
	"metamess/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	archiveRoot := flag.String("archive", "", "archive root (wrangled before serving)")
	catalogPath := flag.String("catalog", "", "published catalog snapshot (skips wrangling)")
	rewrangle := flag.Duration("rewrangle", 0, "background re-wrangle interval (0 = SIGHUP only)")
	cacheSize := flag.Int("cache", server.DefaultCacheSize, "query cache entries (negative disables)")
	shards := flag.Int("shards", 0, "snapshot shards for publish segments and scatter-gather search (0 = all cores)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
	dataDir := flag.String("data", "", "data directory for the durable publish journal + checkpoint (enables warm restart)")
	fsync := flag.String("fsync", "always", "journal fsync policy: always, group, or none")
	groupWindow := flag.Duration("fsync-window", 0, "group-commit fsync window under -fsync group (0 = 50ms)")
	compactRatio := flag.Float64("compact-ratio", 0, "compact when journal exceeds ratio x checkpoint size (0 = 1.0)")
	traceSample := flag.Int("trace-sample", 0, "trace 1 in N search requests for the stage histograms (0 = forced traces only)")
	slowThreshold := flag.Duration("slow-threshold", server.DefaultSlowThreshold, "slow-query log threshold (negative disables)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty disables)")
	maxInFlight := flag.Int("max-inflight", 0, "admission limit on concurrent searches (0 = unbounded)")
	queueDepth := flag.Int("queue-depth", 0, "admission wait-queue depth past the in-flight limit (0 = 2x the limit, negative = no queue)")
	queueWait := flag.Duration("queue-wait", 0, "longest a queued search waits for a slot before shedding (0 = 50ms)")
	requestTimeout := flag.Duration("request-timeout", 0, "per-search deadline; exceeding it returns partial results (0 = none)")
	staleWindow := flag.Duration("stale-window", 5*time.Second, "serve previous-generation cache entries this long after a publish while revalidating (0 = disabled)")
	follow := flag.String("follow", "", "run as a read replica tailing this leader URL (e.g. http://leader:8080)")
	maxLag := flag.Uint64("max-lag", 0, "follower /readyz reports 503 past this many generations behind the leader (0 = 16)")
	rateLimit := flag.Float64("rate-limit", 0, "per-client search budget in requests/second (0 = unlimited)")
	rateBurst := flag.Int("rate-burst", 0, "per-client token-bucket burst (0 = 2x -rate-limit)")
	maxPublish := flag.Int64("max-publish", 0, "POST /publish body cap in bytes (0 = 8 MiB, negative disables the endpoint)")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	fatal := func(err error) {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
	if *archiveRoot == "" && *catalogPath == "" && *dataDir == "" && *follow == "" {
		fmt.Fprintln(os.Stderr, "dnhd: one of -archive, -catalog, -data, or -follow is required")
		flag.Usage()
		os.Exit(2)
	}
	if *catalogPath != "" && *dataDir != "" {
		fmt.Fprintln(os.Stderr, "dnhd: -catalog and -data are mutually exclusive (the data directory is the catalog)")
		os.Exit(2)
	}
	if *follow != "" && (*archiveRoot != "" || *catalogPath != "") {
		fmt.Fprintln(os.Stderr, "dnhd: -follow is mutually exclusive with -archive and -catalog (a replica's catalog comes from its leader)")
		os.Exit(2)
	}
	root := *archiveRoot
	if root == "" {
		// A throwaway root satisfies config validation; the snapshot or
		// data directory supplies the catalog.
		root = os.TempDir()
	}
	sys, err := metamess.New(metamess.Config{
		ArchiveRoot:     root,
		SnapshotShards:  *shards,
		DataDir:         *dataDir,
		SyncPolicy:      *fsync,
		SyncGroupWindow: *groupWindow,
		CompactRatio:    *compactRatio,
	})
	if err != nil {
		fatal(err)
	}
	defer sys.Close()
	fromCatalog := *catalogPath != "" && *archiveRoot == ""
	if *archiveRoot == "" && *rewrangle > 0 {
		// There is no archive to wrangle — a scheduled run would scan the
		// throwaway root and publish an empty catalog over the loaded one.
		logger.Warn("-rewrangle ignored without -archive (SIGHUP reloads the catalog instead)")
		*rewrangle = 0
	}
	var rep *server.Replicator
	switch {
	case *follow != "":
		rep, err = server.NewReplicator(server.ReplicaConfig{
			Leader: *follow,
			Sys:    sys,
			MaxLag: *maxLag,
			Logger: logger,
		})
		if err != nil {
			fatal(err)
		}
		if sys.Durable() && sys.DatasetCount() > 0 {
			logger.Info("recovered "+*dataDir+"; resuming tail of "+*follow,
				"datasets", sys.DatasetCount(), "generation", sys.SnapshotGeneration())
		} else {
			logger.Info("following " + *follow)
		}
	case *catalogPath != "":
		if err := sys.LoadCatalog(*catalogPath); err != nil {
			fatal(err)
		}
		logger.Info("loaded catalog "+*catalogPath, "datasets", sys.DatasetCount())
	case *archiveRoot == "":
		// -data only: serve the recovered catalog as-is.
		logger.Info("recovered "+*dataDir,
			"datasets", sys.DatasetCount(), "generation", sys.SnapshotGeneration())
	default:
		if sys.Durable() && sys.DatasetCount() > 0 {
			logger.Info("recovered "+*dataDir+"; reconciling against "+root,
				"datasets", sys.DatasetCount(), "generation", sys.SnapshotGeneration())
		}
		// Cold start: a full wrangle. Warm restart: the recovered catalog
		// seeds the scan, so this reconciliation run re-parses only the
		// files that changed while the daemon was down.
		start := time.Now()
		rep, err := sys.Wrangle()
		if err != nil {
			fatal(err)
		}
		mode := "wrangled"
		if rep.Delta.Unchanged > 0 && !rep.Delta.FullReprocess {
			mode = "reconciled"
		}
		logger.Info(mode+" "+root,
			"datasets", rep.Datasets,
			"coverage", rep.CoverageAfter,
			"added", rep.Delta.Added,
			"changed", rep.Delta.Changed,
			"removed", rep.Delta.Removed,
			"duration", time.Since(start))
		if _, err := sys.CompactIfNeeded(); err != nil {
			logger.Error("compact failed", "err", err)
		}
	}

	pubBytes := *maxPublish
	if rep != nil && pubBytes >= 0 {
		// A follower's catalog mirrors its leader; a direct publish here
		// would fork the replica. Writes go to the leader and arrive
		// through the journal tail.
		if pubBytes > 0 {
			logger.Warn("-max-publish ignored on a follower (publish to the leader)")
		}
		pubBytes = -1
	}
	srv, err := server.New(server.Config{
		Sys:             sys,
		CacheSize:       *cacheSize,
		RewrangleEvery:  *rewrangle,
		TraceSample:     *traceSample,
		SlowThreshold:   *slowThreshold,
		Logger:          logger,
		MaxInFlight:     *maxInFlight,
		QueueDepth:      *queueDepth,
		QueueWait:       *queueWait,
		RequestTimeout:  *requestTimeout,
		StaleWindow:     *staleWindow,
		RateLimit:       *rateLimit,
		RateBurst:       *rateBurst,
		MaxPublishBytes: pubBytes,
		Replica:         rep,
	})
	if err != nil {
		fatal(err)
	}
	if rep != nil {
		rep.Start()
	}
	// Handle signals before announcing the address: a SIGTERM or SIGHUP
	// sent as soon as the serving line appears must not meet the default
	// action, which kills the process without a drain.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGHUP, syscall.SIGINT, syscall.SIGTERM)
	bound, err := srv.Start(*addr)
	if err != nil {
		fatal(err)
	}
	logger.Info("serving on "+bound.String(), "generation", sys.SnapshotGeneration())

	if *pprofAddr != "" {
		// The pprof handlers register on http.DefaultServeMux at import;
		// serving that mux on a separate listener keeps profiling off the
		// public API address (bind it to localhost).
		go func() {
			logger.Info("pprof on " + *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Error("pprof", "err", err)
			}
		}()
	}

	for sig := range sigs {
		if sig == syscall.SIGHUP {
			if rep != nil {
				// A healthy follower is always tailing; the kick cuts an
				// error backoff short after, say, a leader restart.
				logger.Info("SIGHUP: kicking replication tail")
				rep.Kick()
				continue
			}
			if fromCatalog {
				// Reload the snapshot file; it publishes atomically and
				// moves the generation only if content changed, so the
				// query cache is invalidated just like by a wrangled
				// publish.
				if err := sys.LoadCatalog(*catalogPath); err != nil {
					logger.Error("SIGHUP: reload "+*catalogPath, "err", err)
				} else {
					logger.Info("SIGHUP: reloaded catalog "+*catalogPath,
						"datasets", sys.DatasetCount(), "generation", sys.SnapshotGeneration())
				}
				continue
			}
			logger.Info("SIGHUP: scheduling re-wrangle")
			srv.Rewrangle()
			continue
		}
		logger.Info("draining", "signal", sig.String(), "timeout", *drain)
		if rep != nil {
			// Stop applying before draining: no replicated publish races
			// the journal close below.
			rep.Stop()
		}
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		err := srv.Shutdown(ctx)
		cancel()
		// Shutdown has stopped the rewrangler, so no publish races this:
		// flush and close the journal before the process exits.
		if cerr := sys.Close(); cerr != nil {
			logger.Error("close journal", "err", cerr)
		}
		if err != nil {
			logger.Error("shutdown", "err", err)
			os.Exit(1)
		}
		logger.Info("bye")
		return
	}
}
