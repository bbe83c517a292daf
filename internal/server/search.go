package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"metamess"
	"metamess/internal/jsonenc"
	"metamess/internal/obs"
	"metamess/internal/search"
)

// The read path of both search endpoints, top to bottom in execution
// order: gate → decode → key → lookup → execute → render → write.

// --- wire types ------------------------------------------------------

// SearchRequest is the JSON body of POST /search. It is the facade
// query itself — metamess.Query carries the wire tags — so a decoded
// request is executed, and re-marshaled into its cache key, without a
// conversion.
type SearchRequest = metamess.Query

// LatLon is a WGS84 coordinate on the wire.
type LatLon = metamess.LatLon

// Variable is one queried variable, optionally range-constrained.
type Variable = metamess.VariableTerm

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

// RequestFromQuery converts an internal search query into the wire
// request — the inverse of the facade's query conversion. /search/text
// uses it on the parsed text, the load generators on workload queries.
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

// --- gate ------------------------------------------------------------

// admit runs the pre-execution gates in front of the search and publish
// endpoints, cheapest-refusal first: the per-client rate limit (one hot
// client must not take queue positions from the rest), then — for
// searches, awaitGen — the read-your-writes wait (X-Min-Generation;
// waiting must not hold an admission slot, and a publish IS the write
// that gate orders reads after), then the admission gate. A refused
// request is answered here — 429/412 with headers, no body parsing and
// no executor work — and false returned.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, awaitGen bool) (release func(), ok bool) {
	if wait, limited := s.limiter.take(clientKey(r), time.Now()); limited {
		s.tel.ratelimitShed.Inc()
		w.Header().Set("Retry-After", retryAfterHeader(wait))
		writeError(w, http.StatusTooManyRequests, "client rate limit exceeded, retry later")
		return nil, false
	}
	if awaitGen && !s.awaitMinGeneration(w, r) {
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
// leader. On a leader the demanded generation is usually already
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

// --- decode ----------------------------------------------------------

// maxSearchBodyBytes caps a POST /search body — more than 100× the
// largest query any workload or test sends; past it the request is
// refused with 413 instead of being buffered.
const maxSearchBodyBytes = 64 << 10

// handleQuery builds the handler both search endpoints share — the read
// path as one straight line: gate, open the request's observability
// footprint, decode (the one step that differs), key, lookup, write,
// note a slow one. A request that does not decode is answered 400 — 413
// when its body ran past maxSearchBodyBytes. The key is the decoded
// request re-marshaled, which normalizes field order, whitespace, and
// unknown fields out of it.
func (s *Server) handleQuery(decode func(http.ResponseWriter, *http.Request, *obs.QueryObs) (SearchRequest, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		release, ok := s.admit(w, r, true)
		if !ok {
			return
		}
		defer release()
		qo := s.beginQuery(r)
		defer s.endQuery(qo)
		req, err := decode(w, r, qo)
		if err != nil {
			status := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			writeError(w, status, err.Error())
			return
		}
		keyBytes, err := json.Marshal(req)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		key := string(keyBytes)
		ctx, cancel := s.requestContext(r)
		defer cancel()
		start := time.Now()

		out := s.lookup(obs.WithQuery(ctx, qo), req, key, qo)

		w.Header().Set("X-Dnhd-Cache", out.cacheState)
		w.Header().Set("X-Dnhd-Generation", strconv.FormatUint(out.generation, 10))
		if out.partial {
			w.Header().Set("X-Dnhd-Partial", "1")
		}
		writeJSONBytes(w, out.status, out.body)
		s.noteSlow(start, key, out.generation, qo, out.cacheState == "hit" || out.cacheState == "stale")
	}
}

// decodeBody reads the structured query of POST /search. The whole body
// must be one JSON value, as for POST /publish: trailing bytes are a bad
// request, not ignored.
func decodeBody(w http.ResponseWriter, r *http.Request, _ *obs.QueryObs) (SearchRequest, error) {
	var req SearchRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSearchBodyBytes))
	if err == nil {
		err = json.Unmarshal(body, &req)
	}
	if err != nil {
		return req, fmt.Errorf("bad request body: %w", err)
	}
	return req, nil
}

// decodeText parses the q parameter of GET /search/text into the same
// structured request /search decodes: the parsed form validates early,
// executes without a second parse, and normalizes the cache key —
// textual variants of one query (spacing, clause order) and their
// structured equivalent share an entry.
func decodeText(_ http.ResponseWriter, r *http.Request, qo *obs.QueryObs) (SearchRequest, error) {
	text := r.URL.Query().Get("q")
	if text == "" {
		return SearchRequest{}, errors.New("missing q parameter")
	}
	tr, root := qo.Tracer()
	t0 := time.Now()
	pid := tr.Start(root, "parse")
	iq, err := search.ParseQuery(text)
	tr.End(pid)
	qo.ParseNs = time.Since(t0).Nanoseconds()
	searchStageParse.ObserveSeconds(qo.ParseNs)
	if err != nil {
		return SearchRequest{}, err
	}
	return RequestFromQuery(iq), nil
}

// --- lookup ---------------------------------------------------------

// lookup is the overload-hardened ladder in front of the executor. The
// layers, cheapest first:
//
//  1. cache hit at the current generation;
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
// served to untraced clients. The outcome's cacheState is the
// X-Dnhd-Cache value to serve it with.
func (s *Server) lookup(ctx context.Context, req SearchRequest, key string, qo *obs.QueryObs) (out searchOutcome) {
	gen := s.sys.SnapshotGeneration()
	staleGen := s.noteGeneration(gen)
	if qo.Forced {
		return s.executeSearch(ctx, req, key, qo)
	}

	tr, root := qo.Tracer()
	cid := tr.Start(root, "cache_lookup")
	cached, ok := s.cache.Get(gen, key)
	tr.End(cid)
	if ok {
		s.tel.cacheHits.Inc()
		return searchOutcome{status: http.StatusOK, body: cached, cacheState: "hit", generation: gen}
	}
	if staleGen != 0 {
		if staleBody, ok := s.cache.Get(staleGen, key); ok {
			s.tel.staleServed.Inc()
			s.startRevalidate(gen, key, req)
			return searchOutcome{status: http.StatusOK, body: staleBody, cacheState: "stale", generation: staleGen}
		}
	}

	fk := queryKey{generation: gen, query: key}
	f, leader := s.flights.join(fk)
	if leader {
		return s.flights.lead(fk, f, func() searchOutcome { return s.executeSearch(ctx, req, key, qo) })
	}
	select {
	case <-f.done:
		s.tel.collapsed.Inc()
		out = f.out
		out.cacheState = "collapsed"
	case <-ctx.Done():
		// The follower's own deadline expired while the leader was still
		// working: answer with an empty partial rather than holding the
		// connection for bytes the client no longer has time for.
		s.tel.partials.Inc()
		out = render(gen, nil, true, nil)
		out.cacheState = "timeout"
	}
	return out
}

// --- execute, render -------------------------------------------------

// executeSearch runs the executor with the generation-race retry loop
// and renders the outcome. The generation is read before the search and
// re-checked after: if a publish landed in between, the attempt is
// retried (so the response's generation label is exact and a cache
// entry keyed G never holds data from a later snapshot); with publishes
// landing faster than searches finish, the last attempt is served
// unlabeled-safe — generation 0 — and uncached. A deadline that expires
// mid-scatter yields the results gathered so far with Partial: true,
// HTTP 200, never cached. qo may be nil (background revalidation).
func (s *Server) executeSearch(ctx context.Context, req SearchRequest, key string, qo *obs.QueryObs) searchOutcome {
	var lastHits []metamess.Hit
	for attempt := 0; attempt < 3; attempt++ {
		gen := s.sys.SnapshotGeneration()
		// A generation-race retry re-runs the executor; zero the stage
		// counters so histograms and the slow log see the attempt that
		// produced the response, not a sum across attempts.
		if attempt > 0 {
			qo.ResetStages()
		}
		hits, partial, err := s.sys.SearchPartialContext(ctx, req)
		if err != nil {
			return searchOutcome{status: http.StatusBadRequest, body: errorBody(err.Error()), cacheState: "miss", generation: gen}
		}
		s.tel.searchesRun.Inc()
		if qo != nil {
			observeStages(qo)
		}
		if !partial && s.sys.SnapshotGeneration() != gen {
			// A publish raced the search; the snapshot it used is
			// ambiguous. Retry against the fresh generation.
			lastHits = hits
			continue
		}
		var trace *obs.SpanTree
		if qo != nil && qo.Forced {
			tr, root := qo.Tracer()
			tr.Attr(root, "generation", int64(gen))
			tr.End(root)
			trace = tr.Tree()
		}
		out := render(gen, hits, partial, trace)
		switch {
		case partial:
			s.tel.partials.Inc()
		case trace == nil && out.status == http.StatusOK:
			if s.cache.enabled() {
				s.tel.cacheMisses.Inc()
			}
			s.cache.Put(gen, key, out.body)
		}
		return out
	}
	return render(0, lastHits, false, nil)
}

// render encodes the one response shape every search path answers
// with; nothing else on the read path encodes a SearchResponse. Hits is
// always an array on the wire, never null. A response carrying an
// inline trace is labeled "bypass": it skipped the cache and the flight
// group, and must never enter either.
//
// appendResponse writes the body into a pooled scratch buffer, and the
// outcome gets an exact-size copy, so a cached body holds no spare
// capacity. The kernel declines exactly where json.Marshal of the
// SearchResponse would fail, and that is a 500.
func render(gen uint64, hits []metamess.Hit, partial bool, trace *obs.SpanTree) searchOutcome {
	out := searchOutcome{status: http.StatusOK, cacheState: "miss", partial: partial, generation: gen}
	if trace != nil {
		out.cacheState = "bypass"
	}
	scratch := bodyPool.Get().(*[]byte)
	buf, ok := appendResponse((*scratch)[:0], gen, hits, partial, trace)
	if ok {
		out.body = make([]byte, len(buf))
		copy(out.body, buf)
	}
	if cap(buf) <= maxPooledBody {
		*scratch = buf
		bodyPool.Put(scratch)
	}
	if !ok {
		return searchOutcome{status: http.StatusInternalServerError, body: errorBody("marshal failed"), cacheState: out.cacheState, generation: gen}
	}
	return out
}

// bodyPool recycles render's scratch buffers, which saves a cold render
// its largest scratch allocation (about 11 KB for ten hits); one that
// grew past maxPooledBody (a response of hundreds of hits) is dropped
// instead.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 256 << 10

// appendResponse is the response kernel: it appends exactly what
// json.Marshal writes for the SearchResponse of these fields, or returns
// false where json.Marshal would fail — a NaN or ±Inf score — or the
// trace does not marshal. The trace is rare (forced requests only) and
// goes through json.Marshal.
func appendResponse(dst []byte, gen uint64, hits []metamess.Hit, partial bool, trace *obs.SpanTree) ([]byte, bool) {
	dst = strconv.AppendUint(append(dst, `{"generation":`...), gen, 10)
	dst = strconv.AppendInt(append(dst, `,"count":`...), int64(len(hits)), 10)
	dst = append(dst, `,"hits":[`...)
	for i := range hits {
		h := &hits[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonenc.AppendString(append(dst, `{"path":`...), h.Path)
		var ok bool
		if dst, ok = jsonenc.AppendFloat(append(dst, `,"score":`...), h.Score); !ok {
			return dst, false
		}
		sep := `,"matchedVariables":[`
		for _, m := range h.MatchedVariables {
			dst, sep = jsonenc.AppendString(append(dst, sep...), m), ","
		}
		if len(h.MatchedVariables) > 0 {
			dst = append(dst, ']')
		}
		dst = append(jsonenc.AppendString(append(dst, `,"summary":`...), h.Summary), '}')
	}
	dst = append(dst, ']')
	if partial {
		dst = append(dst, `,"partial":true`...)
	}
	if trace != nil {
		t, err := json.Marshal(trace)
		if err != nil {
			return dst, false
		}
		dst = append(append(dst, `,"trace":`...), t...)
	}
	return append(dst, '}'), true
}

// --- stale-while-revalidate ------------------------------------------

// noteGeneration records generation transitions as the serving path
// observes them, and returns the generation whose cached bytes may be
// served in place of a cold miss at gen: the previous generation,
// within StaleWindow of the switch (0 = none).
func (s *Server) noteGeneration(gen uint64) (staleGen uint64) {
	if s.staleWindow <= 0 {
		return 0
	}
	s.genMu.Lock()
	defer s.genMu.Unlock()
	if gen != s.curGen {
		s.prevGen, s.curGen, s.genSwitched = s.curGen, gen, time.Now()
	}
	if time.Since(s.genSwitched) > s.staleWindow {
		return 0
	}
	return s.prevGen
}

// startRevalidate kicks one background flight to warm (gen, key). The
// flight group guarantees at most one warm per entry; revalSem bounds
// warms across entries — past it the warm is skipped and the next
// stale hit tries again.
func (s *Server) startRevalidate(gen uint64, key string, req SearchRequest) {
	select {
	case s.revalSem <- struct{}{}:
	default:
		return
	}
	fk := queryKey{generation: gen, query: key}
	f, leader := s.flights.join(fk)
	if !leader {
		<-s.revalSem
		return
	}
	s.tel.revalidations.Inc()
	go func() {
		defer func() { <-s.revalSem }()
		// lead has already released the joiners of a warm that panicked;
		// nothing waits on this goroutine, so the panic ends here.
		defer func() {
			if p := recover(); p != nil {
				s.logger.Error("server: revalidation panicked", "panic", p)
			}
		}()
		timeout := s.reqTimeout
		if timeout <= 0 {
			timeout = 30 * time.Second
		}
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		s.flights.lead(fk, f, func() searchOutcome { return s.executeSearch(ctx, req, key, nil) })
	}()
}
