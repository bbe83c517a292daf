package obs

import (
	"context"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestTraceTreeNesting(t *testing.T) {
	tr := NewTrace()
	root := tr.Start(-1, "search")
	plan := tr.Start(root, "plan")
	sp := tr.Start(plan, "shard-plan")
	tr.Attr(sp, "shard", 3)
	tr.End(sp)
	tr.End(plan)
	scatter := tr.Start(root, "scatter")
	tr.End(scatter)
	tr.Attr(root, "generation", 7)
	tr.End(root)

	tree := tr.Tree()
	if tree == nil || tree.Name != "search" {
		t.Fatalf("root = %+v, want search", tree)
	}
	if got := tree.Attrs["generation"]; got != 7 {
		t.Fatalf("generation attr = %d, want 7", got)
	}
	if len(tree.Children) != 2 || tree.Children[0].Name != "plan" || tree.Children[1].Name != "scatter" {
		t.Fatalf("children = %+v, want [plan scatter]", tree.Children)
	}
	pc := tree.Children[0].Children
	if len(pc) != 1 || pc[0].Name != "shard-plan" || pc[0].Attrs["shard"] != 3 {
		t.Fatalf("plan children = %+v, want one shard-plan with shard=3", pc)
	}
	// Direct children are sequential phases: their durations must fit
	// inside the root's.
	var sum int64
	for _, c := range tree.Children {
		sum += c.DurUs
	}
	if sum > tree.DurUs+1 { // +1 for microsecond truncation
		t.Fatalf("phase durations %dus exceed root %dus", sum, tree.DurUs)
	}
	ReleaseTrace(tr)
}

func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	id := tr.Start(-1, "x")
	if id != -1 {
		t.Fatalf("nil Start = %d, want -1", id)
	}
	tr.End(id)
	tr.Attr(id, "k", 1)
	if tr.Tree() != nil {
		t.Fatal("nil Tree should be nil")
	}
	ReleaseTrace(tr)

	var q *QueryObs
	qtr, root := q.Tracer()
	if qtr != nil || root != -1 {
		t.Fatalf("nil Tracer = (%v, %d), want (nil, -1)", qtr, root)
	}
	q.ResetStages()
	q.SizeShards(4)
	q.AddShardCandidates(0, 10)
	q.NoteTier(2)
	if q.TotalCandidates() != 0 || q.Skew() != 0 {
		t.Fatal("nil QueryObs should report zeros")
	}
	var s *Sampler
	if s.Sample() {
		t.Fatal("nil sampler sampled")
	}
	var l *SlowLog
	if l.Slow(1e9) || l.Len() != 0 || l.Total() != 0 || l.Entries() != nil || l.ThresholdMs() != 0 {
		t.Fatal("nil slowlog should be inert")
	}
	l.Record(SlowEntry{})
}

func TestDisabledTraceAllocFree(t *testing.T) {
	var tr *Trace
	q := GetQueryObs()
	q.SizeShards(2)
	allocs := testing.AllocsPerRun(100, func() {
		id := tr.Start(-1, "x")
		tr.Attr(id, "k", 1)
		tr.End(id)
		q.AddShardCandidates(0, 5)
		q.NoteTier(0)
	})
	if allocs != 0 {
		t.Fatalf("disabled-path allocs = %v, want 0", allocs)
	}
	PutQueryObs(q)
}

func TestQueryObsContextAndPool(t *testing.T) {
	if QueryFromContext(context.Background()) != nil {
		t.Fatal("empty context should carry no QueryObs")
	}
	q := GetQueryObs()
	q.SizeShards(3)
	q.AddShardCandidates(1, 42)
	ctx := WithQuery(context.Background(), q)
	if got := QueryFromContext(ctx); got != q {
		t.Fatalf("round-trip = %p, want %p", got, q)
	}
	if q.TotalCandidates() != 42 {
		t.Fatalf("total = %d, want 42", q.TotalCandidates())
	}
	PutQueryObs(q)
	q2 := GetQueryObs()
	if q2.Trace != nil || q2.Root != -1 || q2.Forced || q2.TotalCandidates() != 0 {
		t.Fatalf("pooled QueryObs not reset: %+v", q2)
	}
	PutQueryObs(q2)
}

func TestSkew(t *testing.T) {
	q := GetQueryObs()
	defer PutQueryObs(q)
	q.SizeShards(4)
	for i := 0; i < 4; i++ {
		q.AddShardCandidates(i, 10)
	}
	if got := q.Skew(); got != 1 {
		t.Fatalf("balanced skew = %v, want 1", got)
	}
	q.ResetStages()
	q.AddShardCandidates(0, 40)
	if got := q.Skew(); got != 4 {
		t.Fatalf("one-hot skew = %v, want 4", got)
	}
}

func TestSampler(t *testing.T) {
	s := NewSampler(3)
	hits := 0
	for i := 0; i < 30; i++ {
		if s.Sample() {
			hits++
		}
	}
	if hits != 10 {
		t.Fatalf("1-in-3 over 30 = %d hits, want 10", hits)
	}
	if NewSampler(0) != nil {
		t.Fatal("NewSampler(0) should be nil (disabled)")
	}
}

// expositionLine matches the three legal line shapes of the Prometheus
// text format: HELP, TYPE, and a sample with optional labels.
var expositionLine = regexp.MustCompile(
	`^(# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*` +
		`|# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)` +
		`|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? [0-9eE.+-]+(e[+-][0-9]+)?)$`)

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_requests_total", "Requests served.", "endpoint", "search")
	c.Add(5)
	if c2 := r.Counter("t_requests_total", "Requests served.", "endpoint", "search"); c2 != c {
		t.Fatal("get-or-create returned a different counter")
	}
	r.Counter("t_requests_total", "Requests served.", "endpoint", "stats").Inc()
	r.Gauge("t_generation", "Snapshot generation.").Set(9)
	r.GaugeFunc("t_lag_bytes", "Journal lag.", func() float64 { return 123.5 })
	h := r.Histogram("t_stage_seconds", "Stage duration.", []float64{0.001, 0.01, 0.1}, "stage", "plan")
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(5) // lands in +Inf

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()

	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !expositionLine.MatchString(line) && !strings.Contains(line, "+Inf") {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
	for _, want := range []string{
		"# TYPE t_requests_total counter",
		`t_requests_total{endpoint="search"} 5`,
		`t_requests_total{endpoint="stats"} 1`,
		"t_generation 9",
		"t_lag_bytes 123.5",
		"# TYPE t_stage_seconds histogram",
		`t_stage_seconds_bucket{stage="plan",le="0.001"} 1`,
		`t_stage_seconds_bucket{stage="plan",le="0.01"} 1`,
		`t_stage_seconds_bucket{stage="plan",le="0.1"} 2`,
		`t_stage_seconds_bucket{stage="plan",le="+Inf"} 3`,
		`t_stage_seconds_count{stage="plan"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Families are sorted by name.
	gi := strings.Index(out, "t_generation")
	ri := strings.Index(out, "t_requests_total")
	si := strings.Index(out, "t_stage_seconds")
	if !(gi < ri && ri < si) {
		t.Errorf("families not sorted: gen@%d req@%d stage@%d", gi, ri, si)
	}
}

func TestHistogramObserveSeconds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_dur_seconds", "d", DurationBuckets)
	h.ObserveSeconds((2 * time.Millisecond).Nanoseconds())
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1", h.Count())
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), `le="0.0025"} 1`) {
		t.Fatalf("2ms observation missing from 2.5ms bucket:\n%s", b.String())
	}
}

// TestHistogramQuantileNearestRank pins the ceil(q·n) rank convention.
// The floor convention reads rank 148 for p99 over 150 observations and
// rank 9 over 10, missing a tail that sits in a higher bucket — the
// cases marked "floor: 1" below.
func TestHistogramQuantileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		name string
		obs  map[float64]int // observed value → how many
		q    float64
		want float64
	}{
		{"empty", nil, 0.99, 0},
		{"n=1 p50", map[float64]int{0.5: 1}, 0.50, 1},
		{"n=1 p99", map[float64]int{3: 1}, 0.99, 4},
		{"n=10 p90", map[float64]int{0.5: 9, 1.5: 1}, 0.90, 1},
		{"n=10 p99", map[float64]int{0.5: 9, 1.5: 1}, 0.99, 2}, // floor: 1
		{"n=150 p50", map[float64]int{0.5: 148, 3: 2}, 0.50, 1},
		{"n=150 p99", map[float64]int{0.5: 148, 3: 2}, 0.99, 4}, // floor: 1
		{"all in +Inf", map[float64]int{100: 7}, 0.50, 8},
	} {
		h := NewRegistry().Histogram("t_q", "q", []float64{1, 2, 4})
		n := 0
		for v, k := range tc.obs {
			for range k {
				h.Observe(v)
			}
			n += k
		}
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("%s: Quantile(%v) = %v, want %v", tc.name, tc.q, got, tc.want)
		}
		counts, _ := h.Cumulative()
		if len(counts) != 4 || counts[3] != uint64(n) || h.Count() != uint64(n) {
			t.Errorf("%s: Cumulative = %v, Count = %d, want %d observations in 4 buckets", tc.name, counts, h.Count(), n)
		}
	}
}

func TestGaugeFuncReRegisterReplaces(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("t_g", "g", func() float64 { return 1 })
	r.GaugeFunc("t_g", "g", func() float64 { return 2 })
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), "t_g 2") {
		t.Fatalf("re-registered GaugeFunc not replaced:\n%s", b.String())
	}
}

func TestSlowLogRing(t *testing.T) {
	l := NewSlowLog(3, 10)
	if l.Slow(5) {
		t.Fatal("5ms should be under a 10ms threshold")
	}
	if !l.Slow(10) {
		t.Fatal("10ms should cross a 10ms threshold")
	}
	for i := 1; i <= 5; i++ {
		l.Record(SlowEntry{Query: "q", WallMs: float64(10 * i)})
	}
	if l.Len() != 3 || l.Total() != 5 {
		t.Fatalf("len=%d total=%d, want 3/5", l.Len(), l.Total())
	}
	got := l.Entries()
	if len(got) != 3 || got[0].WallMs != 50 || got[1].WallMs != 40 || got[2].WallMs != 30 {
		t.Fatalf("entries = %+v, want 50/40/30 (recent three, slowest first)", got)
	}
	if NewSlowLog(0, 10) != nil || NewSlowLog(3, 0) != nil {
		t.Fatal("disabled slowlog should be nil")
	}
}
