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
	"strconv"
	"strings"
	"sync"
	"time"

	"metamess"
	"metamess/internal/obs"
	"metamess/internal/search"
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
	mux.HandleFunc("POST /search", s.handleSearch)
	mux.HandleFunc("GET /search/text", s.handleSearchText)
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

// --- wire types ------------------------------------------------------

// SearchRequest is the JSON body of POST /search, mirroring
// metamess.Query.
type SearchRequest struct {
	Near      *LatLon    `json:"near,omitempty"`
	From      time.Time  `json:"from,omitzero"`
	To        time.Time  `json:"to,omitzero"`
	Variables []Variable `json:"variables,omitempty"`
	K         int        `json:"k,omitempty"`
}

// LatLon is a WGS84 coordinate on the wire.
type LatLon struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
}

// Variable is one queried variable, optionally range-constrained.
type Variable struct {
	Name string   `json:"name"`
	Min  *float64 `json:"min,omitempty"`
	Max  *float64 `json:"max,omitempty"`
}

// SearchResponse is the body of both search endpoints.
type SearchResponse struct {
	// Generation identifies the published snapshot the ranking was
	// computed from.
	Generation uint64         `json:"generation"`
	Count      int            `json:"count"`
	Hits       []metamess.Hit `json:"hits"`
	// Partial marks a response whose deadline (RequestTimeout or the
	// client's X-Deadline-Ms) expired mid-search: Hits holds whatever
	// the scatter had gathered and ranked by then. Partial responses are
	// HTTP 200 and are never cached.
	Partial bool `json:"partial,omitempty"`
	// Trace is the request's span tree, present only when the client
	// forced tracing (?debug=trace / X-Trace: 1).
	Trace *obs.SpanTree `json:"trace,omitempty"`
}

// RequestFromQuery converts an internal workload query into the wire
// request the load generator replays against /search.
func RequestFromQuery(q search.Query) SearchRequest {
	req := SearchRequest{K: q.K}
	if q.Location != nil {
		req.Near = &LatLon{Lat: q.Location.Lat, Lon: q.Location.Lon}
	}
	if q.Time != nil {
		req.From, req.To = q.Time.Start, q.Time.End
	}
	for _, t := range q.Terms {
		v := Variable{Name: t.Name}
		if t.Range != nil {
			lo, hi := t.Range.Min, t.Range.Max
			v.Min, v.Max = &lo, &hi
		}
		req.Variables = append(req.Variables, v)
	}
	return req
}

func (req SearchRequest) toQuery() metamess.Query {
	q := metamess.Query{From: req.From, To: req.To, K: req.K}
	if req.Near != nil {
		q.Near = &metamess.LatLon{Lat: req.Near.Lat, Lon: req.Near.Lon}
	}
	for _, v := range req.Variables {
		q.Variables = append(q.Variables, metamess.VariableTerm{Name: v.Name, Min: v.Min, Max: v.Max})
	}
	return q
}

// --- handlers --------------------------------------------------------

// admitSearch runs the pre-execution gates in front of a search
// endpoint, cheapest-refusal first: the per-client rate limit (one hot
// client must not take queue positions from the rest), then the
// read-your-writes wait (X-Min-Generation — waiting must not hold an
// admission slot), then the admission gate. A refused request is
// answered here — 429/412 with headers, no parsing and no executor
// work — and false returned.
func (s *Server) admitSearch(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	if wait, limited := s.limiter.take(clientKey(r), time.Now()); limited {
		s.tel.ratelimitShed.Inc()
		w.Header().Set("Retry-After", retryAfterHeader(wait))
		writeError(w, http.StatusTooManyRequests, "client rate limit exceeded, retry later")
		return nil, false
	}
	if !s.awaitMinGeneration(w, r) {
		return nil, false
	}
	release, reason := s.adm.acquire(r.Context())
	if reason == shedNone {
		return release, true
	}
	// Retry-After tracks the observed drain rate: backlog × mean
	// service time / slots, not a hardcoded guess.
	w.Header().Set("Retry-After", strconv.Itoa(s.adm.retryAfterSeconds()))
	writeError(w, http.StatusTooManyRequests, "server overloaded ("+reason.String()+"), retry later")
	return nil, false
}

// DefaultMinGenWait bounds how long an X-Min-Generation request waits
// for replication (or a local publish) to reach the demanded generation
// when the request carries no deadline of its own.
const DefaultMinGenWait = 2 * time.Second

// awaitMinGeneration implements read-your-writes: a client that just
// wrote through the leader sends the publish's generation in
// X-Min-Generation, and a follower holds the search until its replica
// catches up — up to the request's deadline (X-Deadline-Ms /
// RequestTimeout, else DefaultMinGenWait) — or answers 412 with the
// generation it does have, so the client can retry or fall back to the
// leader. Runs before the admission gate: a waiting request must not
// hold a slot. On a leader the demanded generation is usually already
// current and this is one atomic load.
func (s *Server) awaitMinGeneration(w http.ResponseWriter, r *http.Request) bool {
	h := r.Header.Get("X-Min-Generation")
	if h == "" {
		return true
	}
	min, err := strconv.ParseUint(h, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad X-Min-Generation: "+err.Error())
		return false
	}
	if s.sys.SnapshotGeneration() >= min {
		return true
	}
	s.tel.minGenWaits.Inc()
	ctx, cancel := s.requestContext(r)
	defer cancel()
	if _, bounded := ctx.Deadline(); !bounded {
		var cancelWait context.CancelFunc
		ctx, cancelWait = context.WithTimeout(ctx, DefaultMinGenWait)
		defer cancelWait()
	}
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	for {
		if s.sys.SnapshotGeneration() >= min {
			return true
		}
		select {
		case <-ticker.C:
		case <-ctx.Done():
			gen := s.sys.SnapshotGeneration()
			s.tel.minGenStale.Inc()
			w.Header().Set("X-Dnhd-Generation", strconv.FormatUint(gen, 10))
			writeJSON(w, http.StatusPreconditionFailed, map[string]any{
				"error":      fmt.Sprintf("generation %d not yet available", min),
				"generation": gen,
			})
			return false
		}
	}
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admitSearch(w, r)
	if !ok {
		return
	}
	defer release()
	var req SearchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	qo := s.beginQuery(r)
	defer s.endQuery(qo)
	s.serveSearch(w, r, req, qo)
}

func (s *Server) handleSearchText(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admitSearch(w, r)
	if !ok {
		return
	}
	defer release()
	text := r.URL.Query().Get("q")
	if text == "" {
		writeError(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	qo := s.beginQuery(r)
	defer s.endQuery(qo)
	// Parse once, then feed the same structured path /search uses: the
	// parsed form validates early, executes without a second parse, and
	// normalizes the cache key — textual variants of one query (spacing,
	// clause order) and their structured equivalent share an entry.
	tr, root := qo.Tracer()
	t0 := time.Now()
	pid := tr.Start(root, "parse")
	iq, err := search.ParseQuery(text)
	tr.End(pid)
	qo.ParseNs = time.Since(t0).Nanoseconds()
	searchStageParse.ObserveSeconds(qo.ParseNs)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.serveSearch(w, r, RequestFromQuery(iq), qo)
}

// requestContext derives the search's execution budget: the smaller of
// the server-wide RequestTimeout and the client's X-Deadline-Ms header
// (milliseconds of remaining budget; 0 means already expired). With
// neither, the request context passes through unchanged.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	budget := s.reqTimeout
	bounded := budget > 0
	if h := r.Header.Get("X-Deadline-Ms"); h != "" {
		if ms, err := strconv.ParseInt(h, 10, 64); err == nil && ms >= 0 {
			// ms == 0 is a real (already expired) budget, not "unset" —
			// the deterministic way to ask for an immediate partial.
			if d := time.Duration(ms) * time.Millisecond; !bounded || d < budget {
				budget = d
			}
			bounded = true
		}
	}
	if !bounded {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), budget)
}

// serveSearch runs the overload-hardened search path shared by both
// search endpoints. Re-marshaling the decoded request normalizes field
// order, whitespace, and unknown fields out of the cache key. The
// layers, cheapest first:
//
//  1. cache hit at the current generation — served as before;
//  2. stale-while-revalidate — within StaleWindow of a publish, the
//     previous generation's cached bytes are served immediately
//     (X-Dnhd-Cache: stale, X-Dnhd-Generation labels the bytes) while
//     one background flight warms the new generation's entry;
//  3. singleflight — concurrent identical misses elect one leader to
//     run the executor; followers get the leader's bytes verbatim
//     (X-Dnhd-Cache: collapsed).
//
// Forced-trace requests bypass all three: a cached or shared body has
// no trace to return, and a body with an inline trace must not be
// served to untraced clients.
func (s *Server) serveSearch(w http.ResponseWriter, r *http.Request, req SearchRequest, qo *obs.QueryObs) {
	keyBytes, err := json.Marshal(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := string(keyBytes)
	q := req.toQuery()
	ctx, cancel := s.requestContext(r)
	defer cancel()
	ctx = obs.WithQuery(ctx, qo)
	start := time.Now()

	gen := s.sys.SnapshotGeneration()
	s.noteGeneration(gen)
	if qo.Forced {
		out := s.executeSearch(ctx, q, key, qo)
		s.serveOutcome(w, out, out.cacheState)
		s.noteSlow(start, key, out.generation, qo, false)
		return
	}

	tr, root := qo.Tracer()
	cid := tr.Start(root, "cache_lookup")
	cached, ok := s.cache.Get(gen, key)
	tr.End(cid)
	if ok {
		s.tel.cacheHits.Inc()
		w.Header().Set("X-Dnhd-Cache", "hit")
		w.Header().Set("X-Dnhd-Generation", strconv.FormatUint(gen, 10))
		writeJSONBytes(w, http.StatusOK, cached)
		s.noteSlow(start, key, gen, qo, true)
		return
	}
	if prev, ok := s.staleSource(gen); ok {
		if staleBody, ok := s.cache.Get(prev, key); ok {
			s.tel.staleServed.Inc()
			s.startRevalidate(gen, key, q)
			w.Header().Set("X-Dnhd-Cache", "stale")
			w.Header().Set("X-Dnhd-Generation", strconv.FormatUint(prev, 10))
			writeJSONBytes(w, http.StatusOK, staleBody)
			s.noteSlow(start, key, prev, qo, true)
			return
		}
	}

	fk := flightKey{generation: gen, query: key}
	f, leader := s.flights.join(fk)
	if leader {
		var out searchOutcome
		// finish in a deferred call so a panicking executor (recovered
		// by net/http) still releases the followers — with the default
		// 500 outcome rather than a hang.
		out = searchOutcome{status: http.StatusInternalServerError, body: []byte(`{"error":"search failed"}`), cacheState: "miss"}
		func() {
			defer func() { s.flights.finish(fk, f, out) }()
			out = s.executeSearch(ctx, q, key, qo)
		}()
		s.serveOutcome(w, out, out.cacheState)
		s.noteSlow(start, key, out.generation, qo, false)
		return
	}
	select {
	case <-f.done:
		s.tel.collapsed.Inc()
		s.serveOutcome(w, f.out, "collapsed")
	case <-ctx.Done():
		// The follower's own deadline expired while the leader was still
		// working: answer with an empty partial rather than holding the
		// connection for bytes the client no longer has time for.
		s.tel.partials.Inc()
		out := partialOutcome(gen, nil)
		s.serveOutcome(w, out, "timeout")
	}
	s.noteSlow(start, key, gen, qo, false)
}

// serveOutcome writes one executed (or shared) search outcome.
func (s *Server) serveOutcome(w http.ResponseWriter, out searchOutcome, cacheState string) {
	w.Header().Set("X-Dnhd-Cache", cacheState)
	w.Header().Set("X-Dnhd-Generation", strconv.FormatUint(out.generation, 10))
	if out.partial {
		w.Header().Set("X-Dnhd-Partial", "1")
	}
	writeJSONBytes(w, out.status, out.body)
}

// partialOutcome renders an empty partial response labeled with gen.
func partialOutcome(gen uint64, hits []metamess.Hit) searchOutcome {
	body, err := json.Marshal(SearchResponse{Generation: gen, Count: len(hits), Hits: hits, Partial: true})
	if err != nil {
		return searchOutcome{status: http.StatusInternalServerError, body: []byte(`{"error":"marshal failed"}`), generation: gen}
	}
	return searchOutcome{status: http.StatusOK, body: body, cacheState: "miss", partial: true, generation: gen}
}

// executeSearch runs the executor with the generation-race retry loop
// and renders the outcome. The generation is read before the search and
// re-checked after: if a publish landed in between, the attempt is
// retried (so the response's generation label is exact and a cache
// entry keyed G never holds data from a later snapshot); with publishes
// landing faster than searches finish, the last attempt is served
// unlabeled-safe — generation 0 — and uncached. A deadline that expires
// mid-scatter yields the results gathered so far with Partial: true,
// HTTP 200, never cached. qo may be nil (background revalidation).
func (s *Server) executeSearch(ctx context.Context, q metamess.Query, key string, qo *obs.QueryObs) searchOutcome {
	tr, root := qo.Tracer()
	forced := qo != nil && qo.Forced
	var lastBody []byte
	for attempt := 0; attempt < 3; attempt++ {
		gen := s.sys.SnapshotGeneration()
		// A generation-race retry re-runs the executor; zero the stage
		// counters so histograms and the slow log see the attempt that
		// produced the response, not a sum across attempts.
		if attempt > 0 {
			qo.ResetStages()
		}
		hits, partial, err := s.sys.SearchPartialContext(ctx, q)
		if err != nil {
			body, merr := json.Marshal(map[string]string{"error": err.Error()})
			if merr != nil {
				body = []byte(`{"error":"bad query"}`)
			}
			return searchOutcome{status: http.StatusBadRequest, body: body, cacheState: "miss", generation: gen}
		}
		s.tel.searchesRun.Inc()
		if qo != nil {
			observeStages(qo)
		}
		if partial {
			s.tel.partials.Inc()
			resp := SearchResponse{Generation: gen, Count: len(hits), Hits: hits, Partial: true}
			if forced {
				tr.Attr(root, "generation", int64(gen))
				tr.End(root)
				resp.Trace = tr.Tree()
			}
			body, merr := json.Marshal(resp)
			if merr != nil {
				return searchOutcome{status: http.StatusInternalServerError, body: []byte(`{"error":"marshal failed"}`), generation: gen}
			}
			state := "miss"
			if forced {
				state = "bypass"
			}
			return searchOutcome{status: http.StatusOK, body: body, cacheState: state, partial: true, generation: gen}
		}
		if s.sys.SnapshotGeneration() != gen {
			// A publish raced the search; the snapshot it used is
			// ambiguous. Retry against the fresh generation.
			var merr error
			if lastBody, merr = json.Marshal(SearchResponse{Count: len(hits), Hits: hits}); merr != nil {
				return searchOutcome{status: http.StatusInternalServerError, body: []byte(`{"error":"marshal failed"}`)}
			}
			continue
		}
		resp := SearchResponse{Generation: gen, Count: len(hits), Hits: hits}
		if forced {
			tr.Attr(root, "generation", int64(gen))
			tr.End(root)
			resp.Trace = tr.Tree()
			body, merr := json.Marshal(resp)
			if merr != nil {
				return searchOutcome{status: http.StatusInternalServerError, body: []byte(`{"error":"marshal failed"}`), generation: gen}
			}
			return searchOutcome{status: http.StatusOK, body: body, cacheState: "bypass", generation: gen}
		}
		body, merr := json.Marshal(resp)
		if merr != nil {
			return searchOutcome{status: http.StatusInternalServerError, body: []byte(`{"error":"marshal failed"}`), generation: gen}
		}
		if s.cache.enabled() {
			s.tel.cacheMisses.Inc()
		}
		s.cache.Put(gen, key, body)
		return searchOutcome{status: http.StatusOK, body: body, cacheState: "miss", generation: gen}
	}
	return searchOutcome{status: http.StatusOK, body: lastBody, cacheState: "miss"}
}

// --- stale-while-revalidate ------------------------------------------

// noteGeneration records generation transitions as the serving path
// observes them.
func (s *Server) noteGeneration(gen uint64) {
	if s.staleWindow <= 0 {
		return
	}
	s.genMu.Lock()
	if gen != s.curGen {
		s.prevGen = s.curGen
		s.curGen = gen
		s.genSwitched = time.Now()
	}
	s.genMu.Unlock()
}

// staleSource returns the generation whose cached bytes may be served
// in place of a cold miss at gen: the previous generation, within
// StaleWindow of the switch.
func (s *Server) staleSource(gen uint64) (uint64, bool) {
	if s.staleWindow <= 0 {
		return 0, false
	}
	s.genMu.Lock()
	defer s.genMu.Unlock()
	if s.prevGen == 0 || gen != s.curGen {
		return 0, false
	}
	if time.Since(s.genSwitched) > s.staleWindow {
		return 0, false
	}
	return s.prevGen, true
}

// startRevalidate kicks one background flight to warm (gen, key). The
// flight group guarantees at most one warm per entry; revalSem bounds
// warms across entries — past it the warm is skipped and the next
// stale hit tries again.
func (s *Server) startRevalidate(gen uint64, key string, q metamess.Query) {
	select {
	case s.revalSem <- struct{}{}:
	default:
		return
	}
	fk := flightKey{generation: gen, query: key}
	f, leader := s.flights.join(fk)
	if !leader {
		<-s.revalSem
		return
	}
	s.tel.revalidations.Inc()
	go func() {
		defer func() { <-s.revalSem }()
		timeout := s.reqTimeout
		if timeout <= 0 {
			timeout = 30 * time.Second
		}
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		out := searchOutcome{status: http.StatusInternalServerError, body: []byte(`{"error":"search failed"}`), cacheState: "miss"}
		func() {
			defer func() {
				recover() // a panicking warm must still release joiners
				s.flights.finish(fk, f, out)
			}()
			out = s.executeSearch(ctx, q, key, nil)
		}()
	}()
}

// --- replication (leader side) ---------------------------------------

// maxTailWait caps a tail request's long-poll hold, so a dead follower
// cannot pin a connection indefinitely.
const maxTailWait = 30 * time.Second

// handleJournalTail streams journal frames to a follower:
// GET /journal/tail?from=<gen>&wait_ms=<hold>&max_bytes=<cap>. The
// response body is raw checksummed journal lines for every record past
// from; X-Dnhd-Generation carries the leader's current generation, and
// X-Dnhd-Resync: 1 (empty body) tells a follower whose from predates
// the journals' reach to bootstrap from /journal/checkpoint instead.
// With wait_ms, an empty tail long-polls until a publish lands or the
// hold expires. Any durable node can serve tails — a durable follower
// journals leader-stamped records, so chaining followers off followers
// works unchanged.
func (s *Server) handleJournalTail(w http.ResponseWriter, r *http.Request) {
	if !s.sys.Durable() {
		writeError(w, http.StatusNotFound, "journal tailing requires a durable node (-data)")
		return
	}
	q := r.URL.Query()
	var from uint64
	if raw := q.Get("from"); raw != "" {
		var err error
		if from, err = strconv.ParseUint(raw, 10, 64); err != nil {
			writeError(w, http.StatusBadRequest, "bad from parameter: "+err.Error())
			return
		}
	}
	var wait time.Duration
	if raw := q.Get("wait_ms"); raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, "bad wait_ms parameter")
			return
		}
		if wait = time.Duration(ms) * time.Millisecond; wait > maxTailWait {
			wait = maxTailWait
		}
	}
	var maxBytes int64
	if raw := q.Get("max_bytes"); raw != "" {
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad max_bytes parameter")
			return
		}
		maxBytes = n
	}
	frames, gen, resync, err := s.sys.JournalTail(from, maxBytes)
	if err == nil && len(frames) == 0 && !resync && wait > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), wait)
		s.sys.AwaitPublish(ctx, from)
		cancel()
		frames, gen, resync, err = s.sys.JournalTail(from, maxBytes)
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.tel.tailsServed.Inc()
	w.Header().Set("X-Dnhd-Generation", strconv.FormatUint(gen, 10))
	if resync {
		w.Header().Set("X-Dnhd-Resync", "1")
	}
	w.Header().Set("Content-Type", "application/x-dnh-journal")
	w.WriteHeader(http.StatusOK)
	w.Write(frames)
}

// handleJournalCheckpoint streams the on-disk checkpoint — the
// follower bootstrap download behind the resync signal.
func (s *Server) handleJournalCheckpoint(w http.ResponseWriter, r *http.Request) {
	rc, err := s.sys.CheckpointReader()
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/x-dnh-checkpoint")
	w.WriteHeader(http.StatusOK)
	io.Copy(w, rc)
}

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
	writeJSON(w, status, map[string]string{"error": msg})
}
