// Package obs is the serving stack's zero-dependency observability
// layer: structured tracing (a pooled span tree, off by default,
// sampled or forced per request), a hand-rolled Prometheus text-format
// metrics registry, and a slow-query ring buffer. It measures how the
// system runs; internal/metrics, by contrast, scores how well the
// ranking retrieves (precision/recall/NDCG) offline.
//
// The tracing API is built to be free when disabled: every method is
// nil-receiver-safe and returns before touching the clock, so
// instrumented code calls tr.Start/tr.End unconditionally and a
// disabled path costs one nil check — no allocations, no time.Now.
// Traces and per-query footprints (QueryObs) are recycled through
// sync.Pools, so an enabled trace allocates only while its span slice
// grows toward steady state.
package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpanAttrs is the inline attribute capacity per span; the span
// taxonomy needs at most shard/tier/candidates/scored/pruned, so
// attributes never allocate.
const maxSpanAttrs = 5

// Attr is one span attribute (integer-valued by design: counts,
// indexes, generations).
type Attr struct {
	Key string
	Val int64
}

type span struct {
	name   string
	parent int32
	start  time.Duration // offset from the trace's t0
	dur    time.Duration // -1 until End
	nattrs uint8
	attrs  [maxSpanAttrs]Attr
}

// Trace is one request's span tree, stored flat (parent-indexed) and
// guarded by a mutex so scatter workers can record spans concurrently.
// Contention only exists when tracing is on; the disabled path never
// reaches the lock.
type Trace struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

var tracePool sync.Pool

// NewTrace returns a pooled, empty trace clocked from now.
func NewTrace() *Trace {
	t, _ := tracePool.Get().(*Trace)
	if t == nil {
		t = &Trace{}
	}
	t.t0 = time.Now()
	return t
}

// ReleaseTrace recycles a trace. The caller must have rendered (Tree)
// whatever it needs first.
func ReleaseTrace(t *Trace) {
	if t == nil {
		return
	}
	for i := range t.spans {
		t.spans[i] = span{}
	}
	t.spans = t.spans[:0]
	tracePool.Put(t)
}

// Start opens a span under parent (-1 = root) and returns its id.
// Nil-safe: a nil trace returns -1 without reading the clock.
func (t *Trace) Start(parent int32, name string) int32 {
	if t == nil {
		return -1
	}
	at := time.Since(t.t0)
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, start: at, dur: -1})
	t.mu.Unlock()
	return id
}

// End closes a span. Nil-safe; ids from a nil trace (-1) are ignored.
func (t *Trace) End(id int32) {
	if t == nil || id < 0 {
		return
	}
	at := time.Since(t.t0)
	t.mu.Lock()
	if int(id) < len(t.spans) {
		sp := &t.spans[id]
		sp.dur = at - sp.start
	}
	t.mu.Unlock()
}

// Record adds a span that already ran — from start, for d — under
// parent and returns its id: the form for work timed by a layer no
// trace reaches. Nil-safe.
func (t *Trace) Record(parent int32, name string, start time.Time, d time.Duration) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, start: start.Sub(t.t0), dur: d})
	t.mu.Unlock()
	return id
}

// Attr attaches an integer attribute to a span (first maxSpanAttrs
// stick). Nil-safe.
func (t *Trace) Attr(id int32, key string, v int64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	if int(id) < len(t.spans) {
		sp := &t.spans[id]
		if sp.nattrs < maxSpanAttrs {
			sp.attrs[sp.nattrs] = Attr{Key: key, Val: v}
			sp.nattrs++
		}
	}
	t.mu.Unlock()
}

// SpanTree is the JSON rendering of a trace: the root span with its
// children nested, durations in microseconds.
type SpanTree struct {
	Name     string           `json:"name"`
	StartUs  int64            `json:"startUs"`
	DurUs    int64            `json:"durUs"`
	Attrs    map[string]int64 `json:"attrs,omitempty"`
	Children []*SpanTree      `json:"children,omitempty"`
}

// Tree renders the trace as a nested span tree (nil when the trace is
// nil or empty). Spans never ended render with the elapsed time so far.
func (t *Trace) Tree() *SpanTree {
	if t == nil {
		return nil
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == 0 {
		return nil
	}
	nodes := make([]*SpanTree, len(t.spans))
	var root *SpanTree
	for i := range t.spans {
		sp := &t.spans[i]
		dur := sp.dur
		if dur < 0 {
			dur = now - sp.start
		}
		n := &SpanTree{
			Name:    sp.name,
			StartUs: sp.start.Microseconds(),
			DurUs:   dur.Microseconds(),
		}
		if sp.nattrs > 0 {
			n.Attrs = make(map[string]int64, sp.nattrs)
			for _, a := range sp.attrs[:sp.nattrs] {
				n.Attrs[a.Key] = a.Val
			}
		}
		nodes[i] = n
		if sp.parent >= 0 && int(sp.parent) < len(nodes) {
			p := nodes[sp.parent]
			p.Children = append(p.Children, n)
		} else if root == nil {
			root = n
		}
	}
	return root
}

// Sampler decides which untraced requests get a trace anyway: 1 in N,
// round-robin off an atomic counter. A nil sampler (or N <= 0) never
// samples.
type Sampler struct {
	n uint64
	c atomic.Uint64
}

// NewSampler returns a 1-in-n sampler (n <= 0 disables sampling).
func NewSampler(n int) *Sampler {
	if n <= 0 {
		return nil
	}
	return &Sampler{n: uint64(n)}
}

// Sample reports whether this request should be traced.
func (s *Sampler) Sample() bool {
	if s == nil {
		return false
	}
	return s.c.Add(1)%s.n == 0
}

// QueryObs is one query's observability footprint, threaded through the
// search executor via the request context. The stage counters and
// per-shard candidate counts are always recorded when a QueryObs is
// attached (the serving layer always attaches one — they feed the stage
// histograms and the slow-query log, allocation-free); Trace is non-nil
// only for sampled or forced requests. Library callers that never
// attach one (benchmarks, the facade's plain Search) pay a single
// context lookup and nothing else.
type QueryObs struct {
	// Trace is the span sink for this query; nil when not traced.
	Trace *Trace
	// Root is the trace span search-internal spans parent under.
	Root int32
	// Forced marks a per-request trace (?debug=trace / X-Trace: 1):
	// the span tree is returned inline and the response bypasses the
	// cache.
	Forced bool

	// ParseNs is the text-query parse time, recorded once per request
	// by the serving layer (not reset between search attempts).
	ParseNs int64
	// Per-stage wall time, nanoseconds, accumulated by the executor.
	PlanNs, ScatterNs, MergeNs, ExplainNs int64
	// HitsNs is the facade's rendering of the ranked results into hits
	// (summary pages and match explanations), after the executor.
	HitsNs int64
	// TiersRun is the deepest widening tier executed, 1-based
	// (widenings = TiersRun - 1).
	TiersRun int32
	// ShardCandidates counts the candidates examined (scored) per
	// shard; parallel shard workers write disjoint slots.
	ShardCandidates []int32
	// ShardPruned counts, per shard, the examined candidates whose
	// scoring stopped early because their score bound fell below the
	// running top-K; same slot discipline.
	ShardPruned []int32
}

var queryObsPool sync.Pool

// GetQueryObs returns a pooled, reset footprint.
func GetQueryObs() *QueryObs {
	q, _ := queryObsPool.Get().(*QueryObs)
	if q == nil {
		q = &QueryObs{Root: -1}
	}
	return q
}

// PutQueryObs resets and recycles a footprint. The caller releases the
// trace separately (ReleaseTrace).
func PutQueryObs(q *QueryObs) {
	if q == nil {
		return
	}
	q.Trace = nil
	q.Root = -1
	q.Forced = false
	q.ParseNs = 0
	q.ResetStages()
	q.ShardCandidates = q.ShardCandidates[:0]
	q.ShardPruned = q.ShardPruned[:0]
	queryObsPool.Put(q)
}

// Tracer returns the attached trace and its root span id; (nil, -1)
// when untraced or q is nil, so call sites need no branching.
func (q *QueryObs) Tracer() (*Trace, int32) {
	if q == nil || q.Trace == nil {
		return nil, -1
	}
	return q.Trace, q.Root
}

// ResetStages zeroes the stage counters (per search attempt; the
// serving layer retries generation races). Nil-safe.
func (q *QueryObs) ResetStages() {
	if q == nil {
		return
	}
	q.PlanNs, q.ScatterNs, q.MergeNs, q.ExplainNs, q.HitsNs = 0, 0, 0, 0, 0
	q.TiersRun = 0
	clear(q.ShardCandidates)
	clear(q.ShardPruned)
}

// SizeShards sizes the per-shard candidate and pruned counters,
// reusing pooled capacity. Nil-safe.
func (q *QueryObs) SizeShards(n int) {
	if q == nil {
		return
	}
	q.ShardCandidates = zeroed(q.ShardCandidates, n)
	q.ShardPruned = zeroed(q.ShardPruned, n)
}

func zeroed(c []int32, n int) []int32 {
	if cap(c) < n {
		return make([]int32, n)
	}
	c = c[:n]
	clear(c)
	return c
}

// AddShardCandidates credits n examined candidates to shard si.
// Nil-safe; parallel callers must own distinct si.
func (q *QueryObs) AddShardCandidates(si, n int) {
	if q == nil || si < 0 || si >= len(q.ShardCandidates) {
		return
	}
	q.ShardCandidates[si] += int32(n)
}

// AddShardPruned credits n pruned candidates to shard si. Nil-safe;
// parallel callers must own distinct si.
func (q *QueryObs) AddShardPruned(si, n int) {
	if q == nil || si < 0 || si >= len(q.ShardPruned) {
		return
	}
	q.ShardPruned[si] += int32(n)
}

// NoteTier records that widening tier ti (0-based) executed. Nil-safe;
// called from the barrier goroutine only.
func (q *QueryObs) NoteTier(ti int) {
	if q == nil {
		return
	}
	if t := int32(ti + 1); t > q.TiersRun {
		q.TiersRun = t
	}
}

// TotalCandidates sums the per-shard examined counts.
func (q *QueryObs) TotalCandidates() int64 {
	if q == nil {
		return 0
	}
	return sumCounts(q.ShardCandidates)
}

// TotalPruned sums the per-shard pruned counts.
func (q *QueryObs) TotalPruned() int64 {
	if q == nil {
		return 0
	}
	return sumCounts(q.ShardPruned)
}

func sumCounts(c []int32) int64 {
	var s int64
	for _, n := range c {
		s += int64(n)
	}
	return s
}

// Skew is the max/mean ratio of per-shard examined counts — 1.0 is
// perfectly balanced, N means one shard did N× the average. Zero when
// nothing was examined or the snapshot has one shard.
func (q *QueryObs) Skew() float64 {
	if q == nil || len(q.ShardCandidates) < 2 {
		return 0
	}
	var sum, max int64
	for _, c := range q.ShardCandidates {
		sum += int64(c)
		if int64(c) > max {
			max = int64(c)
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(q.ShardCandidates))
	return float64(max) / mean
}

type queryObsKey struct{}

// WithQuery attaches a footprint to the context for the executor to
// find.
func WithQuery(ctx context.Context, q *QueryObs) context.Context {
	return context.WithValue(ctx, queryObsKey{}, q)
}

// QueryFromContext returns the attached footprint, or nil. The nil path
// is one interface lookup — cheap enough for every query.
func QueryFromContext(ctx context.Context) *QueryObs {
	q, _ := ctx.Value(queryObsKey{}).(*QueryObs)
	return q
}
