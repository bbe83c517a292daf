package server

import (
	"net/http"
	"time"

	"metamess"
	"metamess/internal/search"
)

// StatsResponse is the /stats body.
type StatsResponse struct {
	UptimeSec  float64         `json:"uptimeSec"`
	Datasets   int             `json:"datasets"`
	Generation uint64          `json:"generation"`
	InFlight   int64           `json:"inFlight"`
	Shards     ShardStats      `json:"shards"`
	Endpoints  []EndpointStats `json:"endpoints"`
	Cache      CacheStats      `json:"cache"`
	Search     SearchStats     `json:"search"`
	Overload   OverloadStats   `json:"overload"`
	Rewrangle  RewrangleStats  `json:"rewrangle"`
	// Ingest reports push-publish activity (POST /publish).
	Ingest IngestStats `json:"ingest"`
	// Durability reports the publish journal + checkpoint store; absent
	// when the system runs without a data directory.
	Durability *metamess.DurabilityStats `json:"durability,omitempty"`
	// Replication reports follower state (lag, applied records,
	// resyncs); absent on nodes not following a leader.
	Replication *ReplicaStats `json:"replication,omitempty"`
}

// SearchStats reports query-execution efficiency: scratch-pool reuse
// counters from internal/search and the number of searches that
// actually ran against the catalog (cache hits excluded).
type SearchStats struct {
	PoolHits    uint64 `json:"poolHits"`
	PoolMisses  uint64 `json:"poolMisses"`
	SearchesRun uint64 `json:"searchesRun"`
}

// ShardStats reports the published snapshot's partitioning: how many
// shards the catalog is hashed across and how many features each holds
// (sizes sum to Datasets). A skewed Sizes histogram means one shard
// dominates publish patching and scatter-gather tail latency.
type ShardStats struct {
	Count int   `json:"count"`
	Sizes []int `json:"sizes"`
}

// OverloadStats is the admission/overload row in /stats: the gate's
// configuration and live occupancy, plus the degraded-mode serving
// counters (sheds, collapsed flights, stale serves, partial results).
type OverloadStats struct {
	MaxInFlight    int     `json:"maxInFlight"` // 0 = admission disabled
	QueueDepth     int     `json:"queueDepth,omitempty"`
	QueueWaitMs    float64 `json:"queueWaitMs,omitempty"`
	InFlight       int64   `json:"inFlight"`
	Queued         int64   `json:"queued"`
	PeakInFlight   int64   `json:"peakInFlight"`
	Admitted       uint64  `json:"admitted"`
	Waited         uint64  `json:"waited"` // admitted after queuing
	Shed           uint64  `json:"shed"`
	ShedQueueFull  uint64  `json:"shedQueueFull"`
	ShedTimeout    uint64  `json:"shedTimeout"`
	ShedClientGone uint64  `json:"shedClientGone"`
	// Queue-full shed decision time measured inside the gate — what the
	// shed itself cost the server, excluding network and client
	// scheduling. Timeout sheds are excluded: they cost the configured
	// wait by design.
	ShedDecisionMeanUs float64 `json:"shedDecisionMeanUs,omitempty"`
	ShedDecisionMaxUs  float64 `json:"shedDecisionMaxUs,omitempty"`
	Shedding           bool    `json:"shedding"`
	Collapsed          uint64  `json:"collapsedFlights"`
	StaleServed        uint64  `json:"staleServed"`
	Revalidations      uint64  `json:"revalidations"`
	PartialResults     uint64  `json:"partialResults"`
	// RetryAfterSec is the Retry-After an overload shed would carry right
	// now, derived from the observed drain rate.
	RetryAfterSec int `json:"retryAfterSec,omitempty"`
	// Per-client rate limiting (0/absent when -rate-limit is off).
	RateLimitPerSec  float64 `json:"rateLimitPerSec,omitempty"`
	RateLimited      uint64  `json:"rateLimited"`
	RateLimitClients int     `json:"rateLimitClients,omitempty"`
	// Read-your-writes: X-Min-Generation requests that had to wait, and
	// those answered 412 because the generation never arrived in time.
	MinGenWaits uint64 `json:"minGenWaits"`
	MinGenStale uint64 `json:"minGenStale"`
}

func (s *Server) overloadStats() OverloadStats {
	st := OverloadStats{
		Collapsed:      s.tel.collapsed.Value(),
		StaleServed:    s.tel.staleServed.Value(),
		Revalidations:  s.tel.revalidations.Value(),
		PartialResults: s.tel.partials.Value(),
		RateLimited:    s.tel.ratelimitShed.Value(),
		MinGenWaits:    s.tel.minGenWaits.Value(),
		MinGenStale:    s.tel.minGenStale.Value(),
	}
	if l := s.limiter; l != nil {
		st.RateLimitPerSec = l.rate
		st.RateLimitClients = l.clients()
	}
	if a := s.adm; a != nil {
		st.MaxInFlight = a.max
		st.QueueDepth = a.depth
		st.QueueWaitMs = float64(a.wait) / float64(time.Millisecond)
		st.InFlight = a.inFlight()
		st.Queued = a.queued.Load()
		st.PeakInFlight = a.peakInFlight.Load()
		st.Admitted = s.tel.admitted.Value()
		st.Waited = s.tel.waited.Value()
		st.ShedQueueFull = s.tel.shed[shedQueueFull].Value()
		st.ShedTimeout = s.tel.shed[shedWaitTimeout].Value()
		st.ShedClientGone = s.tel.shed[shedClientGone].Value()
		st.Shed = st.ShedQueueFull + st.ShedTimeout + st.ShedClientGone
		if st.ShedQueueFull > 0 {
			st.ShedDecisionMeanUs = float64(a.shedFullSumNs.Load()) / float64(st.ShedQueueFull) / 1e3
			st.ShedDecisionMaxUs = float64(a.shedFullMaxNs.Load()) / 1e3
		}
		st.Shedding = a.shedding()
		st.RetryAfterSec = a.retryAfterSeconds()
	}
	return st
}

// IngestStats is the push-publish row in /stats.
type IngestStats struct {
	// Publishes counts accepted POST /publish batches; Stable counts the
	// subset whose delta was empty (replays — generation unchanged).
	Publishes uint64 `json:"publishes"`
	Stable    uint64 `json:"stable,omitempty"`
	// Rejected counts batches refused with no state change.
	Rejected uint64 `json:"rejected,omitempty"`
	// Features counts features actually upserted by accepted publishes.
	Features uint64 `json:"features"`
}

func (s *Server) ingestStats() IngestStats {
	return IngestStats{
		Publishes: s.tel.publishes.Value(),
		Stable:    s.tel.publishStable.Value(),
		Rejected:  s.tel.publishRejected.Value(),
		Features:  s.tel.publishFeatures.Value(),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	hits, misses := s.tel.cacheHits.Value(), s.tel.cacheMisses.Value()
	cache := CacheStats{
		Hits:    hits,
		Misses:  misses,
		Entries: s.cache.Len(),
		Stale:   s.tel.staleServed.Value(),
	}
	if hits+misses > 0 {
		cache.HitRate = float64(hits) / float64(hits+misses)
	}
	sizes := s.sys.SnapshotShardSizes()
	poolHits, poolMisses := search.PoolStats()
	resp := StatsResponse{
		UptimeSec:  time.Since(s.tel.start).Seconds(),
		Datasets:   s.sys.DatasetCount(),
		Generation: s.sys.SnapshotGeneration(),
		InFlight:   s.tel.inFlight.Value(),
		Shards:     ShardStats{Count: len(sizes), Sizes: sizes},
		Endpoints:  s.tel.snapshotEndpoints(),
		Cache:      cache,
		Search:     SearchStats{PoolHits: poolHits, PoolMisses: poolMisses, SearchesRun: s.tel.searchesRun.Value()},
		Overload:   s.overloadStats(),
		Rewrangle:  s.rew.stats(),
		Ingest:     s.ingestStats(),
	}
	if ds, ok := s.sys.Durability(); ok {
		resp.Durability = &ds
	}
	if s.replica != nil {
		rs := s.replica.Stats()
		resp.Replication = &rs
	}
	writeJSON(w, http.StatusOK, resp)
}

// EndpointStats is one endpoint's row in the /stats response.
type EndpointStats struct {
	Endpoint string  `json:"endpoint"`
	Requests uint64  `json:"requests"`
	Errors   uint64  `json:"errors"`
	MeanMs   float64 `json:"meanMs"`
	P50Ms    float64 `json:"p50Ms"`
	P90Ms    float64 `json:"p90Ms"`
	P99Ms    float64 `json:"p99Ms"`
	// Buckets is the cumulative latency histogram: Buckets[i] requests
	// finished within obs.DurationBuckets[i] seconds (last entry = all).
	Buckets []uint64 `json:"buckets"`
}

// CacheStats reports query-cache effectiveness. Stale counts
// previous-generation bytes served during the stale-while-revalidate
// window (not part of the hit/miss ratio: a stale serve is a miss at
// the current generation answered from the previous one).
type CacheStats struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	Entries int     `json:"entries"`
	HitRate float64 `json:"hitRate"`
	Stale   uint64  `json:"stale"`
}

// snapshotEndpoints renders the per-endpoint rows, in registration
// order.
func (t *telemetry) snapshotEndpoints() []EndpointStats {
	out := make([]EndpointStats, 0, len(endpointNames))
	for _, name := range endpointNames {
		e := t.endpoints[name]
		row := EndpointStats{Endpoint: name, Requests: e.requests.Value(), Errors: e.errors.Value()}
		var sum float64
		row.Buckets, sum = e.duration.Cumulative()
		if n := row.Buckets[len(row.Buckets)-1]; n > 0 {
			row.MeanMs = sum / float64(n) * 1000
			row.P50Ms = e.duration.Quantile(0.50) * 1000
			row.P90Ms = e.duration.Quantile(0.90) * 1000
			row.P99Ms = e.duration.Quantile(0.99) * 1000
		}
		out = append(out, row)
	}
	return out
}
