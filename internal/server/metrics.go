package server

import (
	"time"

	"metamess/internal/obs"
)

// telemetry is the server's one metrics store: a private obs.Registry
// (several servers share a process in tests and benchmarks, so
// per-instance families stay out of obs.Default()) plus the handles
// resolved from it once at construction. The request path only ever
// touches the handles — a map read and atomic adds, never the registry
// lock. /metrics renders the registry as Prometheus text; /stats reads
// the same handles into its JSON structs. It measures the HTTP layer
// itself and is distinct from internal/metrics, which scores IR quality
// (precision/recall) offline.
type telemetry struct {
	reg       *obs.Registry
	start     time.Time
	inFlight  *obs.Gauge
	endpoints map[string]endpointHandles

	cacheHits, cacheMisses *obs.Counter
	// searchesRun counts searches actually executed against the catalog
	// (cache hits excluded).
	searchesRun *obs.Counter
	// Overload counters: follower responses served from a collapsed
	// flight, previous-generation bytes served during the stale window,
	// background cache warms started, deadline-expired partial responses,
	// and requests refused by the per-client token bucket (before the
	// admission gate, so never among its sheds).
	collapsed, staleServed, revalidations, partials, ratelimitShed *obs.Counter
	// The admission gate's outcomes, registered whether or not a gate is
	// configured so the families render at zero; shed is indexed by
	// shedReason.
	admitted, waited *obs.Counter
	shed             [shedClientGone + 1]*obs.Counter
	// Read-your-writes counters: searches that waited for X-Min-Generation
	// to arrive, and waits that expired into a 412.
	minGenWaits, minGenStale *obs.Counter
	// tailsServed counts journal tail responses served to followers.
	tailsServed *obs.Counter
	// Push-ingest counters: accepted publishes (and how many arrived as
	// generation-stable replays), batches rejected before any state
	// change, and features upserted.
	publishes, publishStable, publishRejected, publishFeatures *obs.Counter
}

type endpointHandles struct {
	requests, errors *obs.Counter // errors: responses with status >= 400
	duration         *obs.Histogram
}

func newTelemetry() *telemetry {
	reg := obs.NewRegistry()
	t := &telemetry{
		reg:       reg,
		start:     time.Now(),
		inFlight:  reg.Gauge("dnh_http_in_flight", "Requests currently being served."),
		endpoints: make(map[string]endpointHandles, len(endpointNames)),

		cacheHits:       reg.Counter("dnh_cache_hits_total", "Query-cache hits."),
		cacheMisses:     reg.Counter("dnh_cache_misses_total", "Query-cache misses."),
		searchesRun:     reg.Counter("dnh_searches_total", "Searches executed against the catalog (cache hits excluded)."),
		collapsed:       reg.Counter("dnh_flights_collapsed_total", "Follower responses served from a singleflight leader's bytes."),
		staleServed:     reg.Counter("dnh_cache_stale_total", "Previous-generation cache bytes served during the stale window."),
		revalidations:   reg.Counter("dnh_cache_revalidations_total", "Background flights warming the new generation after a publish."),
		partials:        reg.Counter("dnh_search_partial_total", "Deadline-expired searches answered with partial results."),
		ratelimitShed:   reg.Counter("dnh_ratelimit_shed_total", "Search requests refused by the per-client rate limit."),
		admitted:        reg.Counter("dnh_admission_admitted_total", "Requests granted an admission slot."),
		waited:          reg.Counter("dnh_admission_waited_total", "Admitted requests that queued for their slot first."),
		minGenWaits:     reg.Counter("dnh_min_generation_waits_total", "Searches that waited for an X-Min-Generation to publish."),
		minGenStale:     reg.Counter("dnh_min_generation_stale_total", "X-Min-Generation waits that expired into 412."),
		tailsServed:     reg.Counter("dnh_journal_tail_total", "Journal tail responses served to followers."),
		publishes:       reg.Counter("dnh_publishes_total", "Accepted push publishes."),
		publishStable:   reg.Counter("dnh_publishes_stable_total", "Accepted publishes whose delta was empty (generation unchanged)."),
		publishRejected: reg.Counter("dnh_publish_rejected_total", "Publish batches refused with no state change."),
		publishFeatures: reg.Counter("dnh_publish_features_total", "Features upserted through push publishes."),
	}
	for r := shedQueueFull; r <= shedClientGone; r++ {
		t.shed[r] = reg.Counter("dnh_admission_shed_total", "Search requests shed with 429, by reason.", "reason", r.String())
	}
	for _, name := range endpointNames {
		t.endpoints[name] = endpointHandles{
			requests: reg.Counter("dnh_http_requests_total", "HTTP requests by endpoint.", "endpoint", name),
			errors:   reg.Counter("dnh_http_request_errors_total", "HTTP responses with status >= 400 by endpoint.", "endpoint", name),
			duration: reg.Histogram("dnh_http_request_duration_seconds", "HTTP request latency by endpoint.", obs.DurationBuckets, "endpoint", name),
		}
	}
	return t
}

// observe records one finished request.
func (t *telemetry) observe(endpoint string, status int, d time.Duration) {
	e, ok := t.endpoints[endpoint]
	if !ok {
		e = t.endpoints[endpointOther]
	}
	e.requests.Inc()
	if status >= 400 {
		e.errors.Inc()
	}
	e.duration.ObserveSeconds(d.Nanoseconds())
}
