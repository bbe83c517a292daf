package server

import (
	"net/http"
	"sync"
)

// queryKey identifies one search's response bytes: the normalized query
// under one snapshot generation. The cache and the flight group are both
// keyed on it, and publishes bump the generation, so neither can leak a
// previous snapshot's bytes into the next one's key space.
type queryKey struct {
	generation uint64
	query      string
}

// searchOutcome is one executed search rendered to the wire: what the
// leader writes is exactly what followers and the cache get.
type searchOutcome struct {
	status int
	body   []byte
	// cacheState is the X-Dnhd-Cache header the leader serves with
	// ("miss" or "bypass"); followers serve "collapsed" instead.
	cacheState string
	partial    bool
	generation uint64
}

// flight is one in-progress search execution shared by all concurrent
// requests for the same queryKey. done is closed exactly once, after
// out is set; followers read out only after done, so no lock is needed
// on the result itself.
type flight struct {
	done chan struct{}
	out  searchOutcome
}

// flightGroup collapses concurrent identical cold queries: the first
// request for a key becomes the leader and runs the executor once;
// every request that joins before the leader finishes waits on the
// flight and is served the leader's bytes verbatim. A hand-rolled
// singleflight — the module has no dependencies to lean on.
type flightGroup struct {
	mu sync.Mutex
	m  map[queryKey]*flight
}

// join returns the in-progress flight for key, creating one (and
// electing the caller leader) if none exists.
func (g *flightGroup) join(key queryKey) (f *flight, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f := g.m[key]; f != nil {
		return f, false
	}
	if g.m == nil {
		g.m = make(map[queryKey]*flight)
	}
	f = &flight{done: make(chan struct{})}
	g.m[key] = f
	return f, true
}

// finish publishes the leader's outcome and releases the followers.
// The key is deleted first, so requests arriving after finish start a
// fresh flight instead of reading a completed one (the cache, not the
// flight map, is the steady-state fast path).
func (g *flightGroup) finish(key queryKey, f *flight, out searchOutcome) {
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	f.out = out
	close(f.done)
}

// lead runs the executor as the flight's leader and publishes its
// outcome. finish is deferred so a panicking executor still releases
// the followers — with the 500 outcome rather than a hang — before the
// panic continues up to whoever recovers it (net/http on the serving
// path).
func (g *flightGroup) lead(key queryKey, f *flight, run func() searchOutcome) (out searchOutcome) {
	out = searchOutcome{status: http.StatusInternalServerError, body: errorBody("search failed"), cacheState: "miss"}
	defer func() { g.finish(key, f, out) }()
	return run()
}
