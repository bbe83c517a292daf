package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"metamess/internal/obs"
	"metamess/internal/search"
	"metamess/internal/server"
	"metamess/internal/workload"
)

// Nominal op rates on the reference host (2 cores, 5 000 datasets); a
// run's fixed op count is rate × -seconds.
const (
	coldOpsPerSecond = 1500
	hotOpsPerSecond  = 24000
	// coldWarm queries, none of them a timed one, are replayed before
	// timing in every life: more than the default 512-entry response
	// cache holds, so every timed op pays an eviction, as in steady state.
	coldWarm = 600
	// hotKeys is the hot working set: half the default 512-entry cache.
	hotKeys = 256
	// zipfS skews the hot key popularity.
	zipfS = 1.1
	// searchLadderPerSecond sizes the ladder sample (2 000 ops at the
	// default -seconds 10).
	searchLadderPerSecond = 200
)

// searchLoad is the two read workloads. Cold: every op is a distinct
// query, so the working set is far larger than the cache and each op
// runs the whole read path. Hot: Zipf draws over hotKeys warmed
// queries, so the search core does nothing and an op is the handler
// stack plus a cache lookup.
type searchLoad struct {
	hot bool

	queries []search.Query // the timed phase's distinct queries
	bodies  [][]byte
	warm    [][]byte // cold: the warm-up queries
	order   []int    // hot: the Zipf draw sequence into bodies
	first   [][]byte // hot: each key's first (cold) response in this life
	gen     string   // hot: generation header of those responses
	seen    map[string]bool
}

func (s *searchLoad) seedArchive(*bench) error { return nil }

// inputs derives the workload's queries from the seed, once per run.
func (s *searchLoad) inputs(b *bench) error {
	s.seen = map[string]bool{}
	m, seed := b.rig.manifest, b.cfg.seed
	var err error
	if s.hot {
		total, _ := b.opCount(hotOpsPerSecond)
		s.order = workload.ZipfIndices(total+b.ladderOps(searchLadderPerSecond), hotKeys, zipfS, seed+2)
		s.queries, s.bodies, err = genQueries(m, hotKeys, seed+1, s.seen)
		return err
	}
	total, _ := b.opCount(coldOpsPerSecond)
	if s.queries, s.bodies, err = genQueries(m, total, seed+1, s.seen); err != nil {
		return err
	}
	_, s.warm, err = genQueries(m, min(coldWarm, total), seed+2, s.seen)
	return err
}

func (s *searchLoad) prepare(ctx context.Context, b *bench) error {
	if s.bodies == nil {
		if err := s.inputs(b); err != nil {
			return err
		}
	}
	if s.hot {
		// Warm every key; the cold response is the reference the timed
		// hits must reproduce byte for byte.
		s.first = make([][]byte, hotKeys)
		var buf bytes.Buffer
		for i, body := range s.bodies {
			status, hdr, _, err := b.rig.post(ctx, "/search", body, &buf)
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("warm key %d: status %d: %v", i, status, err)
			}
			s.first[i] = append([]byte(nil), buf.Bytes()...)
			s.gen = hdr.Get("X-Dnhd-Generation")
		}
		return nil
	}
	_, failed, _, _ := b.drive(ctx, "/search", len(s.warm), maxClients, func(i int) []byte { return s.warm[i] }, okStatus, nil)
	if failed > 0 {
		return fmt.Errorf("%d of %d warm-up searches failed", failed, len(s.warm))
	}
	return ctx.Err()
}

// okStatus is the in-loop response check: anything beyond status and a
// body is checked outside the timed region.
func okStatus(_ int, status int, _ http.Header, body []byte) bool {
	return status == http.StatusOK && len(body) > 0
}

// drive replays n requests closed-loop from the given number of client
// goroutines: each sends its next request when its previous response
// has been read. It returns every op's latency (indexed like the
// requests), the failures, and the block's wall and CPU time. A non-nil
// starts receives each op's start time (traced blocks).
func (b *bench) drive(ctx context.Context, path string, n, clients int, body func(i int) []byte,
	check func(i, status int, hdr http.Header, body []byte) bool, starts []time.Time) (lat []time.Duration, failed int, wall, cpu time.Duration) {

	lat = make([]time.Duration, n)
	var next, bad atomic.Int64
	var wg sync.WaitGroup
	cpu0, t0 := cpuTime(), time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if starts != nil {
					starts[i] = time.Now()
				}
				status, hdr, d, err := b.rig.post(ctx, path, body(i), &buf)
				lat[i] = d
				if err != nil || !check(i, status, hdr, buf.Bytes()) {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return lat, int(bad.Load()), time.Since(t0), cpuTime() - cpu0
}

func (s *searchLoad) timed(ctx context.Context, b *bench, ph *phase, first, n int) error {
	rate := float64(coldOpsPerSecond)
	if s.hot {
		rate = hotOpsPerSecond
	}
	_, perBlock := b.opCount(rate)
	for blk := first; blk < first+n; blk++ {
		off := blk * perBlock
		body := func(i int) []byte { return s.bodies[off+i] }
		check := okStatus
		if s.hot {
			body = func(i int) []byte { return s.bodies[s.order[off+i]] }
			check = func(i, status int, hdr http.Header, resp []byte) bool {
				return status == http.StatusOK && hdr.Get("X-Dnhd-Cache") == "hit" &&
					len(resp) == len(s.first[s.order[off+i]])
			}
		}
		traced := b.tracedBlock(blk)
		var starts []time.Time
		if traced {
			starts = make([]time.Time, perBlock)
		}
		lat, failed, wall, cpu := b.drive(ctx, "/search", perBlock, maxClients, body, check, starts)
		if err := ctx.Err(); err != nil {
			return err
		}
		for i, at := range starts {
			b.addSpan("client.op", "", off+i, at, lat[i])
		}
		ph.failed += failed
		ph.addBlock(lat, perBlock, wall, cpu, traced)
	}
	return nil
}

func (s *searchLoad) verify(ctx context.Context, b *bench) error {
	r := b.rig
	// Probe queries: the HTTP hits must equal the facade's.
	var buf bytes.Buffer
	for i, q := range b.probes {
		body, err := json.Marshal(server.RequestFromQuery(q))
		if err != nil {
			return err
		}
		status, _, _, err := r.post(ctx, "/search", body, &buf)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("probe %d: status %d: %v", i, status, err)
		}
		var resp server.SearchResponse
		if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
			return err
		}
		want, partial, err := r.sys.SearchPartialContext(ctx, facadeQuery(q))
		if err != nil || partial {
			return fmt.Errorf("probe %d: facade partial=%v err=%v", i, partial, err)
		}
		if len(want) == 0 {
			b.failf("probe %d ranks nothing", i)
		}
		if resp.Count != len(want) || !reflect.DeepEqual(resp.Hits, want) {
			b.failf("probe %d: HTTP hits differ from System.SearchPartialContext", i)
		}
	}
	if !s.hot {
		if ratio := b.vals["server.cache_hit_ratio"]; ratio >= 0.02 {
			b.failf("search-cold cache hit ratio %.4f, want < 0.02", ratio)
		}
		return nil
	}
	// Hot: the generation never moved, so every key must still answer
	// with exactly its first cold response.
	for i, body := range s.bodies {
		status, hdr, _, err := r.post(ctx, "/search", body, &buf)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("hot key %d: status %d: %v", i, status, err)
		}
		if hdr.Get("X-Dnhd-Generation") != s.gen || !bytes.Equal(buf.Bytes(), s.first[i]) {
			b.failf("hot key %d: response differs from its first cold response", i)
		}
	}
	if ratio := b.vals["server.cache_hit_ratio"]; ratio < 0.999 {
		b.failf("search-hot cache hit ratio %.4f, want 1", ratio)
	}
	return nil
}

// ladderChunks splits a ladder sample: the rungs take turns chunk by
// chunk, so a slow spell on the host lands on every rung alike instead
// of on the one rung whose pass it happened to hit.
const ladderChunks = 10

// chunkBounds returns the [lo, hi) ranges of ladderChunks near-equal
// chunks of n ops.
func chunkBounds(n int) [][2]int {
	var out [][2]int
	for c := 0; c < ladderChunks; c++ {
		if lo, hi := c*n/ladderChunks, (c+1)*n/ladderChunks; hi > lo {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// ladder times the same single-client sample at four rungs — full
// HTTP, the handler on a recorder, the facade, the facade with the
// search core's own stage clock attached — plus proxies for the
// handler's decode and encode: the benchmark's own json.Decode and
// json.Marshal of the public wire types, since the server exposes no span
// around its own. They estimate the codec's share of the handler; a change
// to the server's codec moves server.handler_ms and lands in
// server.self_ms, not in these two. Each rung makes
// its own pass over a chunk of the sample, so a query's second and
// third executions find the CPU caches as cold as its first did.
func (s *searchLoad) ladder(ctx context.Context, b *bench) error {
	r := b.rig
	n := b.ladderOps(searchLadderPerSecond)
	handler := r.srv.Handler()
	queries, bodies := make([]search.Query, n), make([][]byte, n)
	if s.hot {
		total, _ := b.opCount(hotOpsPerSecond)
		for i, k := range s.order[total : total+n] {
			queries[i], bodies[i] = s.queries[k], s.bodies[k]
		}
	} else {
		var err error
		if queries, bodies, err = genQueries(r.manifest, n, b.cfg.seed+3, s.seen); err != nil {
			return err
		}
		// The recorder rung needs the sample cold a second time: a second
		// server over the same system has its own, empty, cache.
		srv2, err := server.New(server.Config{Sys: r.sys})
		if err != nil {
			return err
		}
		handler = srv2.Handler()
	}

	httpMs, handlerMs := make([]float64, n), make([]float64, n)
	decodeMs, facadeMs, encodeMs := make([]float64, n), make([]float64, n), make([]float64, n)
	var stages stageSamples
	var respBytes int
	var buf bytes.Buffer
	gen := r.sys.SnapshotGeneration()
	for _, c := range chunkBounds(n) {
		if err := ctx.Err(); err != nil {
			return err
		}
		lo, hi := c[0], c[1]
		for i := lo; i < hi; i++ {
			t0 := time.Now()
			status, _, d, err := r.post(ctx, "/search", bodies[i], &buf)
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("ladder http %d: status %d: %v", i, status, err)
			}
			b.addSpan("http", "", i, t0, d)
			httpMs[i] = ms(d)
			respBytes += buf.Len()
		}
		for i := lo; i < hi; i++ {
			req := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(bodies[i]))
			rec := httptest.NewRecorder()
			handlerMs[i] = ms(b.timeCall("server.handler", "http", i, func() { handler.ServeHTTP(rec, req) }))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("ladder handler %d: status %d", i, rec.Code)
			}
		}
		for i := lo; i < hi; i++ {
			var req server.SearchRequest
			var err error
			decodeMs[i] = ms(b.timeCall("server.decode", "server.handler", i, func() {
				err = json.NewDecoder(bytes.NewReader(bodies[i])).Decode(&req)
			}))
			if err != nil {
				return err
			}
		}
		if s.hot {
			continue // a hit never reaches the facade or the encoder
		}
		for i := lo; i < hi; i++ {
			fq := facadeQuery(queries[i])
			var resp server.SearchResponse
			var err error
			facadeMs[i] = ms(b.timeCall("metamess.search", "server.handler", i, func() {
				resp.Hits, _, err = r.sys.SearchPartialContext(ctx, fq)
			}))
			if err != nil {
				return err
			}
			resp.Generation, resp.Count = gen, len(resp.Hits)
			encodeMs[i] = ms(b.timeCall("server.encode", "server.handler", i, func() {
				_, err = json.Marshal(resp)
			}))
			if err != nil {
				return err
			}
		}
		if err := b.coreStages(ctx, queries[lo:hi], lo, &stages); err != nil {
			return err
		}
	}
	v := b.vals
	v["http.resp_bytes_per_op"] = float64(respBytes) / float64(n)
	v["server.handler_ms"] = median(handlerMs)
	v["server.decode_ms"] = median(decodeMs)
	v["http.self_ms"] = clamp0(median(httpMs) - v["server.handler_ms"])
	if s.hot {
		v["server.self_ms"] = clamp0(v["server.handler_ms"] - v["server.decode_ms"])
		b.closeLedger(median(httpMs))
		return nil
	}
	stages.report(v)
	v["metamess.search_ms"] = median(facadeMs)
	v["server.encode_ms"] = median(encodeMs)
	v["metamess.hits_self_ms"] = clamp0(v["metamess.search_ms"] - v["search.core_ms"])
	v["server.self_ms"] = clamp0(v["server.handler_ms"] - v["metamess.search_ms"] - v["server.decode_ms"] - v["server.encode_ms"])
	b.closeLedger(median(httpMs))
	b.checkLedger(n)
	return nil
}

func clamp0(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// stageSamples collects the search core's per-query stage times.
type stageSamples struct {
	expand, plan, scatter, merge, explain, core []float64
	candidates, results                         int64
}

// coreStages runs the queries through the facade with an obs.QueryObs
// and a trace attached, the way the server's X-Trace: 1 path does, and
// collects the search core's stage times and candidate counts. The
// executor's plan counter includes term expansion; the expand span
// separates the two. op is the first query's index in the sample.
func (b *bench) coreStages(ctx context.Context, queries []search.Query, op int, acc *stageSamples) error {
	for i, q := range queries {
		qo := obs.GetQueryObs()
		qo.Trace = obs.NewTrace()
		qo.Root = qo.Trace.Start(-1, "search")
		t0 := time.Now()
		hits, _, err := b.rig.sys.SearchPartialContext(obs.WithQuery(ctx, qo), facadeQuery(q))
		d := time.Since(t0)
		qo.Trace.End(qo.Root)
		if err != nil {
			return err
		}
		b.addSpan("metamess.search.traced", "server.handler", op+i, t0, d)
		var expandUs int64
		if tree := qo.Trace.Tree(); tree != nil {
			for _, c := range tree.Children {
				at := t0.Add(time.Duration(c.StartUs) * time.Microsecond)
				b.addSpan("search."+c.Name, "metamess.search.traced", op+i, at, time.Duration(c.DurUs)*time.Microsecond)
				if c.Name == "expand" {
					expandUs += c.DurUs
				}
			}
		}
		expand := float64(expandUs) / 1e3
		acc.expand = append(acc.expand, expand)
		acc.plan = append(acc.plan, clamp0(float64(qo.PlanNs)/1e6-expand))
		acc.scatter = append(acc.scatter, float64(qo.ScatterNs)/1e6)
		acc.merge = append(acc.merge, float64(qo.MergeNs)/1e6)
		acc.explain = append(acc.explain, float64(qo.ExplainNs)/1e6)
		acc.core = append(acc.core, float64(qo.PlanNs+qo.ScatterNs+qo.MergeNs+qo.ExplainNs)/1e6)
		acc.candidates += qo.TotalCandidates()
		acc.results += int64(len(hits))
		obs.ReleaseTrace(qo.Trace)
		obs.PutQueryObs(qo)
	}
	return nil
}

func (acc *stageSamples) report(v map[string]float64) {
	v["search.expand_ms"] = median(acc.expand)
	v["search.plan_ms"] = median(acc.plan)
	v["search.scatter_ms"] = median(acc.scatter)
	v["search.merge_ms"] = median(acc.merge)
	v["search.explain_ms"] = median(acc.explain)
	v["search.core_ms"] = median(acc.core)
	if acc.results > 0 {
		v["search.candidates_per_result"] = float64(acc.candidates) / float64(acc.results)
	}
}
