package server

import (
	"bytes"
	"net/http"
	"strconv"
	"time"

	"metamess/internal/obs"
	"metamess/internal/search"
)

// Read-path metric families in the process-wide registry. Stage
// histograms are fed from each executed query's obs.QueryObs footprint
// after the search returns — the executor itself only accumulates
// nanosecond counters, so the search hot path never touches the
// registry.
var (
	searchStageParse = obs.Default().Histogram("dnh_search_stage_duration_seconds",
		"Search stage wall time in seconds.", obs.DurationBuckets, "stage", "parse")
	searchStagePlan = obs.Default().Histogram("dnh_search_stage_duration_seconds",
		"Search stage wall time in seconds.", obs.DurationBuckets, "stage", "plan")
	searchStageScatter = obs.Default().Histogram("dnh_search_stage_duration_seconds",
		"Search stage wall time in seconds.", obs.DurationBuckets, "stage", "scatter")
	searchStageMerge = obs.Default().Histogram("dnh_search_stage_duration_seconds",
		"Search stage wall time in seconds.", obs.DurationBuckets, "stage", "merge")
	searchStageExplain = obs.Default().Histogram("dnh_search_stage_duration_seconds",
		"Search stage wall time in seconds.", obs.DurationBuckets, "stage", "explain")
	searchStageHits = obs.Default().Histogram("dnh_search_stage_duration_seconds",
		"Search stage wall time in seconds.", obs.DurationBuckets, "stage", "hits")
	tracesForced = obs.Default().Counter("dnh_traces_total",
		"Traced requests by mode.", "mode", "forced")
	tracesSampled = obs.Default().Counter("dnh_traces_total",
		"Traced requests by mode.", "mode", "sampled")
	slowQueries = obs.Default().Counter("dnh_slow_queries_total",
		"Queries at or above the slow-query threshold.")
)

// beginQuery builds the request's observability footprint: every search
// gets a pooled QueryObs (stage timings and shard counts always
// accumulate — they feed the histograms and the slow-query log), and a
// trace is attached when the client forces one (?debug=trace or
// X-Trace: 1) or the sampler picks the request.
func (s *Server) beginQuery(r *http.Request) *obs.QueryObs {
	qo := obs.GetQueryObs()
	if r.URL.Query().Get("debug") == "trace" || r.Header.Get("X-Trace") == "1" {
		qo.Forced = true
		qo.Trace = obs.NewTrace()
		tracesForced.Inc()
	} else if s.sampler.Sample() {
		qo.Trace = obs.NewTrace()
		tracesSampled.Inc()
	}
	if qo.Trace != nil {
		qo.Root = qo.Trace.Start(-1, "search")
	}
	return qo
}

// endQuery recycles the footprint and its trace (span trees rendered
// for the response were deep-copied by Tree, so pooling is safe).
func (s *Server) endQuery(qo *obs.QueryObs) {
	obs.ReleaseTrace(qo.Trace)
	obs.PutQueryObs(qo)
}

// observeStages feeds one executed search's stage timings into the
// histograms. Parse is observed separately (once per request, not per
// generation-race attempt).
func observeStages(qo *obs.QueryObs) {
	searchStagePlan.ObserveSeconds(qo.PlanNs)
	searchStageScatter.ObserveSeconds(qo.ScatterNs)
	searchStageMerge.ObserveSeconds(qo.MergeNs)
	searchStageExplain.ObserveSeconds(qo.ExplainNs)
	searchStageHits.ObserveSeconds(qo.HitsNs)
}

// noteSlow records the finished request into the slow-query log when it
// crossed the threshold, and mirrors it to the structured log. The
// fast path is one nil/threshold check.
func (s *Server) noteSlow(start time.Time, key string, gen uint64, qo *obs.QueryObs, cacheHit bool) {
	wallMs := float64(time.Since(start).Nanoseconds()) / 1e6
	if !s.slow.Slow(wallMs) {
		return
	}
	slowQueries.Inc()
	e := obs.SlowEntry{
		Time:       time.Now().UTC().Format(time.RFC3339),
		Query:      key,
		Generation: gen,
		WallMs:     wallMs,
		CacheHit:   cacheHit,
		Traced:     qo.Trace != nil,
		Tiers:      qo.TiersRun,
		ShardSkew:  qo.Skew(),
	}
	if len(qo.ShardCandidates) > 0 {
		e.ShardCandidates = append([]int32(nil), qo.ShardCandidates...)
		e.ShardPruned = append([]int32(nil), qo.ShardPruned...)
	}
	for _, st := range [...]struct {
		name string
		ns   int64
	}{
		{"parse", qo.ParseNs},
		{"plan", qo.PlanNs},
		{"scatter", qo.ScatterNs},
		{"merge", qo.MergeNs},
		{"explain", qo.ExplainNs},
		{"hits", qo.HitsNs},
	} {
		if st.ns > 0 {
			e.Stages = append(e.Stages, obs.StageMs{Stage: st.name, Ms: float64(st.ns) / 1e6})
		}
	}
	s.slow.Record(e)
	s.logger.Warn("slow query",
		"query", key,
		"wallMs", wallMs,
		"generation", gen,
		"tiers", qo.TiersRun,
		"shardSkew", e.ShardSkew,
		"cacheHit", cacheHit)
}

// handleMetrics serves the Prometheus text exposition: the process-wide
// registry (search/wrangle/publish/journal stage families) followed by
// this server instance's own registry.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	obs.Default().WritePrometheus(&buf)
	s.tel.reg.WritePrometheus(&buf)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}

// registerGauges exposes every point-in-time value through the server's
// registry as a callback evaluated at scrape time. The values stay
// where they live — the admission gate, the limiter, the catalog, the
// replicator — and /stats reads those same sources. Families of a
// disabled gate or limiter still render, at zero, so dashboards and
// alerts can be written before the first incident; durability and
// replication families exist only on nodes that have the subsystem.
func (s *Server) registerGauges() {
	reg := s.tel.reg
	flag := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	reg.GaugeFunc("dnh_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.tel.start).Seconds() })
	reg.GaugeFunc("dnh_cache_entries", "Query-cache resident entries.",
		func() float64 { return float64(s.cache.Len()) })
	reg.GaugeFunc("dnh_admission_in_flight", "Searches holding an admission slot.",
		func() float64 { return float64(s.adm.inFlight()) })
	reg.GaugeFunc("dnh_admission_queued", "Searches waiting for an admission slot.",
		func() float64 { return float64(s.adm.queueLen()) })
	reg.GaugeFunc("dnh_admission_limit", "Configured in-flight search limit (0 = unlimited).",
		func() float64 { return float64(s.adm.limit()) })
	reg.GaugeFunc("dnh_ratelimit_clients", "Clients with a resident rate-limit bucket.",
		func() float64 { return float64(s.limiter.clients()) })
	reg.GaugeFunc("dnh_search_pool_hits_total", "Query-scratch pool reuses.",
		func() float64 { hits, _ := search.PoolStats(); return float64(hits) })
	reg.GaugeFunc("dnh_search_pool_misses_total", "Query-scratch pool fresh allocations.",
		func() float64 { _, misses := search.PoolStats(); return float64(misses) })
	reg.GaugeFunc("dnh_snapshot_generation", "Published snapshot generation.",
		func() float64 { return float64(s.sys.SnapshotGeneration()) })
	reg.GaugeFunc("dnh_datasets", "Datasets in the published catalog.",
		func() float64 { return float64(s.sys.DatasetCount()) })
	// The shard count is fixed for the life of a catalog.
	for i := range s.sys.SnapshotShardSizes() {
		reg.GaugeFunc("dnh_snapshot_shard_features", "Features per snapshot shard.",
			func() float64 { return float64(s.sys.SnapshotShardSizes()[i]) }, "shard", strconv.Itoa(i))
	}
	reg.GaugeFunc("dnh_slowlog_entries", "Slow-query log resident entries.",
		func() float64 { return float64(s.slow.Len()) })

	if s.sys.Durable() {
		// Journal bytes since the last checkpoint are exactly the warm
		// restart's replay backlog — the lag a replica would have to
		// catch up.
		reg.GaugeFunc("dnh_journal_lag_bytes", "Journal bytes not yet folded into the checkpoint (replay backlog).",
			func() float64 { ds, _ := s.sys.Durability(); return float64(ds.JournalBytes) })
		reg.GaugeFunc("dnh_checkpoint_size_bytes", "Checkpoint size on disk.",
			func() float64 { ds, _ := s.sys.Durability(); return float64(ds.CheckpointBytes) })
		reg.GaugeFunc("dnh_store_degraded", "1 while the durable store refuses appends after a journal error.",
			func() float64 { ds, _ := s.sys.Durability(); return flag(ds.Degraded) })
	}

	if rep := s.replica; rep != nil {
		reg.GaugeFunc("dnh_replica_lag_generations", "Generations this follower is behind its leader.",
			func() float64 { gens, _ := rep.Lag(); return float64(gens) })
		reg.GaugeFunc("dnh_replica_lag_seconds", "Seconds since this follower was last caught up.",
			func() float64 { _, secs := rep.Lag(); return secs })
		reg.GaugeFunc("dnh_replica_applied_total", "Replicated records applied from the leader's journal.",
			func() float64 { return float64(rep.applied.Load()) })
		reg.GaugeFunc("dnh_replica_resyncs_total", "Checkpoint bootstraps after falling behind the journals.",
			func() float64 { return float64(rep.resyncs.Load()) })
		reg.GaugeFunc("dnh_replica_connected", "1 while the last leader exchange succeeded.",
			func() float64 { return flag(rep.connected.Load()) })
	}
}

// SlowlogResponse is the /debug/slowlog body.
type SlowlogResponse struct {
	ThresholdMs float64         `json:"thresholdMs"`
	Count       int             `json:"count"`
	Total       uint64          `json:"total"`
	Slowest     []obs.SlowEntry `json:"slowest"`
}

func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	entries := s.slow.Entries()
	if entries == nil {
		entries = []obs.SlowEntry{}
	}
	writeJSON(w, http.StatusOK, SlowlogResponse{
		ThresholdMs: s.slow.ThresholdMs(),
		Count:       s.slow.Len(),
		Total:       s.slow.Total(),
		Slowest:     entries,
	})
}

func (s *Server) handleWrangleTrace(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"trace": s.rew.trace()})
}
