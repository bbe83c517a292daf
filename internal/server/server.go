// Package server is the "Data Near Here" serving layer: a long-lived
// HTTP JSON API over a wrangled metamess.System, so the catalog is
// wrangled once and queried continuously instead of per-process.
//
// Endpoints:
//
//	POST /search          structured query (SearchRequest JSON body)
//	POST /publish         push-ingest a batch of feature deltas
//	GET  /search/text?q=  textual query ("near 45.5,-124.4 in mid-2010 ...")
//	GET  /dataset/{path}  rendered summary page for an archive path
//	GET  /curator/queue   names awaiting a curator decision
//	GET  /healthz         liveness + catalog size and generation
//	GET  /stats           serving metrics (counts, latency, cache, rewrangle)
//	GET  /metrics         Prometheus text exposition (internal/obs)
//	GET  /debug/slowlog   the N slowest recent queries past the threshold
//	GET  /debug/wrangletrace  the last wrangle run's span tree
//
// Search responses are cached in an LRU keyed by (normalized query,
// snapshot generation): a publish bumps the generation, so stale
// entries are invalidated by construction. A background rewrangler can
// re-run the pipeline on an interval or on demand (SIGHUP) while
// searches keep serving the previous snapshot.
//
// Every search carries an obs.QueryObs through its context: stage
// timings and per-shard candidate counts always feed the /metrics
// histograms and the slow-query log, and a span tree is attached when
// the request forces one (?debug=trace or X-Trace: 1 — returned inline
// in the response, bypassing the cache) or the configured sampler picks
// it.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"metamess"
	"metamess/internal/obs"
)

// Endpoint labels used by the metrics registry.
const (
	epSearch      = "/search"
	epSearchText  = "/search/text"
	epDataset     = "/dataset"
	epCurator     = "/curator/queue"
	epHealthz     = "/healthz"
	epReadyz      = "/readyz"
	epStats       = "/stats"
	epMetrics     = "/metrics"
	epDebug       = "/debug"
	epJournal     = "/journal"
	epPublish     = "/publish"
	endpointOther = "other"
)

var endpointNames = []string{epSearch, epSearchText, epDataset, epCurator, epHealthz, epReadyz, epStats, epMetrics, epDebug, epJournal, epPublish, endpointOther}

// DefaultCacheSize is the query-cache capacity when Config leaves it 0.
const DefaultCacheSize = 512

// DefaultSlowThreshold is the slow-query threshold when Config leaves
// it 0; negative disables the slow-query log.
const DefaultSlowThreshold = 250 * time.Millisecond

// DefaultSlowLogSize is the slow-query ring capacity when Config leaves
// it 0.
const DefaultSlowLogSize = 64

// Config configures a Server.
type Config struct {
	// Sys is the wrangled (or catalog-loaded) system to serve. Required.
	Sys *metamess.System
	// CacheSize caps the query-result cache entry count; 0 means
	// DefaultCacheSize, negative disables caching.
	CacheSize int
	// RewrangleEvery re-runs the wrangling pipeline on this interval;
	// 0 disables the timer (Rewrangle/SIGHUP kicks still work).
	RewrangleEvery time.Duration
	// TraceSample traces 1 in N searches into the aggregate trace
	// machinery (forced ?debug=trace requests are always traced);
	// 0 disables sampling.
	TraceSample int
	// SlowThreshold is the wall-time floor for the slow-query log; 0
	// means DefaultSlowThreshold, negative disables the log.
	SlowThreshold time.Duration
	// SlowLogSize caps the slow-query ring; 0 means DefaultSlowLogSize.
	SlowLogSize int
	// MaxInFlight caps concurrently executing search requests; past it
	// requests queue briefly (QueueDepth/QueueWait) and are then shed
	// with 429 + Retry-After. 0 disables admission control. Only the
	// search endpoints are gated — health, readiness, and metrics always
	// answer.
	MaxInFlight int
	// QueueDepth is how many over-limit searches may wait for a slot;
	// 0 means 2*MaxInFlight, negative disables the wait queue.
	QueueDepth int
	// QueueWait bounds how long a queued search waits before being shed;
	// 0 means DefaultQueueWait.
	QueueWait time.Duration
	// RequestTimeout is the per-search execution budget. A search that
	// exhausts it (or the client's X-Deadline-Ms, whichever is smaller)
	// stops mid-scatter and returns the results gathered so far with
	// Partial: true — HTTP 200, never cached. 0 disables the server-side
	// budget (client deadlines are always honored).
	RequestTimeout time.Duration
	// RateLimit caps each client's sustained search rate
	// (requests/second), keyed by X-Client-Id or client IP; over-budget
	// requests are shed with 429 and an accurate Retry-After before they
	// can take an admission-queue position. 0 disables per-client
	// limiting.
	RateLimit float64
	// RateBurst is the token-bucket burst per client (0 = 2×RateLimit,
	// minimum 1).
	RateBurst int
	// Replica, when set, marks this server as a follower: /readyz gates
	// on its lag, and /stats + /metrics expose its replication state.
	// The caller owns the replicator's lifecycle (Start/Stop).
	Replica *Replicator
	// MaxPublishBytes caps a POST /publish request body; larger bodies
	// are refused with 413 before decoding. 0 means
	// DefaultMaxPublishBytes, negative disables the endpoint (405-free:
	// the route simply is not mounted — push-less deployments expose no
	// write surface).
	MaxPublishBytes int64
	// StaleWindow enables stale-while-revalidate: for this long after a
	// publish bumps the generation, a miss at the new generation may be
	// served the previous generation's cached bytes (X-Dnhd-Cache:
	// stale, generation header set to the bytes' generation) while one
	// background flight warms the new entry. 0 disables — every miss
	// after a publish pays the cold executor run.
	StaleWindow time.Duration
	// Logger receives serving and rewrangle logs; nil discards them.
	Logger *slog.Logger
}

// Server is the dnhd HTTP service.
type Server struct {
	sys     *metamess.System
	cache   *queryCache
	tel     *telemetry
	rew     *rewrangler
	logger  *slog.Logger
	sampler *obs.Sampler
	slow    *obs.SlowLog
	httpSrv *http.Server

	adm             *admission
	limiter         *rateLimiter
	replica         *Replicator
	maxPublishBytes int64
	flights         flightGroup
	reqTimeout      time.Duration
	staleWindow     time.Duration
	// revalSem bounds concurrent background revalidation flights; warms
	// past the bound are skipped (the next stale hit re-triggers them),
	// so a publish over a hot cache cannot stampede the executor.
	revalSem chan struct{}

	// Generation-transition tracking for stale-while-revalidate: when a
	// search observes a generation different from the last one noted,
	// the previous generation and the switch time are recorded — the
	// staleness bound is measured from when this server first *saw* the
	// new generation, which is within one request of the publish.
	genMu       sync.Mutex
	curGen      uint64
	prevGen     uint64
	genSwitched time.Time
}

// New wires a server; call Start (or mount Handler yourself) to serve.
func New(cfg Config) (*Server, error) {
	if cfg.Sys == nil {
		return nil, fmt.Errorf("server: Config.Sys is required")
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	size := cfg.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	slowThreshold := cfg.SlowThreshold
	if slowThreshold == 0 {
		slowThreshold = DefaultSlowThreshold
	}
	slowSize := cfg.SlowLogSize
	if slowSize == 0 {
		slowSize = DefaultSlowLogSize
	}
	maxPublish := cfg.MaxPublishBytes
	if maxPublish == 0 {
		maxPublish = DefaultMaxPublishBytes
	}
	if cfg.Replica != nil {
		// A follower's catalog is a replica of the leader's journal; a
		// direct publish would fork it. The endpoint exists only on
		// leaders, whatever the configuration says.
		maxPublish = -1
	}
	tel := newTelemetry()
	s := &Server{
		sys:     cfg.Sys,
		cache:   newQueryCache(size),
		tel:     tel,
		rew:     newRewrangler(cfg.Sys, cfg.RewrangleEvery, logger),
		logger:  logger,
		sampler: obs.NewSampler(cfg.TraceSample),
		// NewSlowLog returns nil (log disabled, all methods inert) when
		// the threshold went negative.
		slow:            obs.NewSlowLog(slowSize, float64(slowThreshold)/float64(time.Millisecond)),
		adm:             newAdmission(cfg.MaxInFlight, cfg.QueueDepth, cfg.QueueWait, tel),
		limiter:         newRateLimiter(cfg.RateLimit, cfg.RateBurst),
		replica:         cfg.Replica,
		maxPublishBytes: maxPublish,
		reqTimeout:      cfg.RequestTimeout,
		staleWindow:     cfg.StaleWindow,
		revalSem:        make(chan struct{}, maxRevalidations),
		curGen:          cfg.Sys.SnapshotGeneration(),
	}
	s.registerGauges()
	return s, nil
}

// maxRevalidations bounds concurrent background cache warms.
const maxRevalidations = 4

// Handler returns the instrumented route tree.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /search", s.handleQuery(decodeBody))
	mux.HandleFunc("GET /search/text", s.handleQuery(decodeText))
	mux.HandleFunc("GET /dataset/{path...}", s.handleDataset)
	mux.HandleFunc("GET /curator/queue", s.handleCuratorQueue)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/slowlog", s.handleSlowlog)
	mux.HandleFunc("GET /debug/wrangletrace", s.handleWrangleTrace)
	mux.HandleFunc("GET /journal/tail", s.handleJournalTail)
	mux.HandleFunc("GET /journal/checkpoint", s.handleJournalCheckpoint)
	if s.maxPublishBytes > 0 {
		mux.HandleFunc("POST /publish", s.handlePublish)
	}
	return s.instrument(mux)
}

// Start listens on addr, launches the rewrangle scheduler, and serves
// in the background; the returned address is concrete (useful with
// ":0"). Use Shutdown to stop.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s.rew.start()
	s.httpSrv = &http.Server{Handler: s.Handler()}
	go func() {
		if err := s.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.logger.Error("server: serve", "err", err)
		}
	}()
	return ln.Addr(), nil
}

// Shutdown drains in-flight requests (bounded by ctx), refuses new
// ones, and stops the rewrangle scheduler, waiting for a run in
// progress — so by the time it returns no publish can still be racing
// the journal, and the owner may safely Close the system (dnhd does).
// Safe only after Start.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.httpSrv.Shutdown(ctx)
	s.rew.stopAndWait()
	return err
}

// Rewrangle schedules an immediate background re-wrangle (the SIGHUP
// path). It returns without waiting for the run.
func (s *Server) Rewrangle() { s.rew.Kick() }

// --- handlers --------------------------------------------------------

func (s *Server) handleDataset(w http.ResponseWriter, r *http.Request) {
	path := r.PathValue("path")
	summary, err := s.sys.DatasetSummary(path)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"path": path, "summary": summary})
}

func (s *Server) handleCuratorQueue(w http.ResponseWriter, r *http.Request) {
	queue := s.sys.CuratorQueue()
	if queue == nil {
		queue = []string{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(queue), "queue": queue})
}

// handleHealthz is liveness: the process is up and can read its
// snapshot. It answers 200 even while shedding — restarting a merely
// overloaded instance would only make the overload worse. Routing
// decisions belong to /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"datasets":   s.sys.DatasetCount(),
		"generation": s.sys.SnapshotGeneration(),
	})
}

// ReadyzResponse is the /readyz body — the load-balancer drain signal.
type ReadyzResponse struct {
	Status      string `json:"status"` // "ready", "shedding", or "lagging"
	Shedding    bool   `json:"shedding"`
	InFlight    int64  `json:"inFlight"`
	Queued      int64  `json:"queued"`
	MaxInFlight int    `json:"maxInFlight,omitempty"`
	QueueDepth  int    `json:"queueDepth,omitempty"`
	// Replication is present on followers: /readyz answers 503 while the
	// replica has never caught up or is beyond its MaxLag.
	Replication *ReplicaStats `json:"replication,omitempty"`
}

// handleReadyz is readiness: 503 while the admission gate is shedding
// (queue at capacity now, or a shed within the last few seconds), so a
// balancer drains a saturated instance before more users see 429s — or,
// on a follower, while replication has never caught up or lags beyond
// -max-lag. Never gated by admission itself.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resp := ReadyzResponse{Status: "ready", InFlight: s.adm.inFlight()}
	if s.adm != nil {
		resp.Queued = s.adm.queued.Load()
		resp.MaxInFlight = s.adm.max
		resp.QueueDepth = s.adm.depth
	}
	status := http.StatusOK
	if s.adm.shedding() {
		resp.Status = "shedding"
		resp.Shedding = true
		status = http.StatusServiceUnavailable
	}
	if s.replica != nil {
		rs := s.replica.Stats()
		resp.Replication = &rs
		if !rs.Ready {
			resp.Status = "lagging"
			status = http.StatusServiceUnavailable
		}
	}
	writeJSON(w, status, resp)
}

// --- instrumentation -------------------------------------------------

// endpointLabel maps a request path to its metrics label.
func endpointLabel(path string) string {
	switch {
	case path == epSearch:
		return epSearch
	case path == epSearchText:
		return epSearchText
	case strings.HasPrefix(path, epDataset+"/"):
		return epDataset
	case path == epCurator:
		return epCurator
	case path == epHealthz:
		return epHealthz
	case path == epReadyz:
		return epReadyz
	case path == epStats:
		return epStats
	case path == epMetrics:
		return epMetrics
	case path == epDebug || strings.HasPrefix(path, epDebug+"/"):
		return epDebug
	case path == epJournal || strings.HasPrefix(path, epJournal+"/"):
		return epJournal
	case path == epPublish:
		return epPublish
	}
	return endpointOther
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.tel.inFlight.Add(1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		// Deferred so a panicking handler (recovered by net/http) still
		// releases the gauge and records its request.
		defer func() {
			s.tel.inFlight.Add(-1)
			s.tel.observe(endpointLabel(r.URL.Path), rec.status, time.Since(start))
		}()
		next.ServeHTTP(rec, r)
	})
}

// --- response helpers ------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSONBytes(w, status, body)
}

func writeJSONBytes(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSONBytes(w, status, errorBody(msg))
}

// errorBody renders the {"error": msg} body every refusal carries.
func errorBody(msg string) []byte {
	body, _ := json.Marshal(map[string]string{"error": msg}) // a map of strings cannot fail to marshal
	return body
}
