package obs

import "sync"

// StageMs is one named stage's share of a slow query's wall time.
type StageMs struct {
	Stage string  `json:"stage"`
	Ms    float64 `json:"ms"`
}

// SlowEntry is one slow query as kept by the ring: the normalized query
// (the cache key, so identical queries collapse to one shape), the
// snapshot generation it ran against, wall time, the per-stage summary,
// and the shard-balance picture.
type SlowEntry struct {
	Time            string    `json:"time"` // RFC3339
	Query           string    `json:"query"`
	Generation      uint64    `json:"generation"`
	WallMs          float64   `json:"wallMs"`
	Stages          []StageMs `json:"stages,omitempty"`
	ShardCandidates []int32   `json:"shardCandidates,omitempty"`
	ShardPruned     []int32   `json:"shardPruned,omitempty"`
	ShardSkew       float64   `json:"shardSkew,omitempty"`
	Tiers           int32     `json:"tiers,omitempty"`
	CacheHit        bool      `json:"cacheHit,omitempty"`
	Traced          bool      `json:"traced,omitempty"`
}

// SlowLog is a fixed-size ring of the most recent queries that crossed
// the threshold. The threshold check is lock-free (immutable field);
// fast queries never touch the mutex, and slow ones pay one short
// critical section — by definition a rounding error on their latency.
// It keeps the most recent N slow queries, not the N slowest ever: a
// burst of regressions is visible immediately instead of being masked
// by historical outliers.
type SlowLog struct {
	thresholdMs float64 // immutable after construction
	mu          sync.Mutex
	ring        []SlowEntry
	n           int // entries populated, ≤ len(ring)
	next        int
	total       uint64
}

// NewSlowLog returns a ring of size entries recording queries at or
// above thresholdMs. size <= 0 or thresholdMs <= 0 disables the log
// (returns nil; all methods are nil-safe).
func NewSlowLog(size int, thresholdMs float64) *SlowLog {
	if size <= 0 || thresholdMs <= 0 {
		return nil
	}
	return &SlowLog{thresholdMs: thresholdMs, ring: make([]SlowEntry, size)}
}

// ThresholdMs returns the recording threshold (0 when disabled).
func (l *SlowLog) ThresholdMs() float64 {
	if l == nil {
		return 0
	}
	return l.thresholdMs
}

// Slow reports whether wallMs crosses the threshold — the lock-free
// fast-path check callers make before building an entry.
func (l *SlowLog) Slow(wallMs float64) bool {
	return l != nil && wallMs >= l.thresholdMs
}

// Record stores e, evicting the oldest entry when full.
func (l *SlowLog) Record(e SlowEntry) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.ring[l.next] = e
	l.next = (l.next + 1) % len(l.ring)
	if l.n < len(l.ring) {
		l.n++
	}
	l.total++
	l.mu.Unlock()
}

// Entries returns a copy of the retained entries, slowest first.
func (l *SlowLog) Entries() []SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := make([]SlowEntry, 0, l.n)
	start := (l.next - l.n + len(l.ring)) % len(l.ring)
	for i := 0; i < l.n; i++ {
		out = append(out, l.ring[(start+i)%len(l.ring)])
	}
	l.mu.Unlock()
	// Slowest first; stable order for equal times comes from ring order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].WallMs > out[j-1].WallMs; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Len returns how many entries are retained right now.
func (l *SlowLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Total returns how many slow queries have been recorded since start
// (including evicted ones).
func (l *SlowLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}
