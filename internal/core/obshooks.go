package core

import (
	"time"

	"metamess/internal/obs"
)

// Write-path metric families, registered at init so /metrics exposes
// them (at zero) from process start. Wrangles are rare relative to
// queries, so the per-stage histogram lookup's registry lock is
// harmless here.
var (
	wrangleRuns = obs.Default().Counter("dnh_wrangle_runs_total",
		"Completed wrangle (process chain) runs.")
	wrangleFailures = obs.Default().Counter("dnh_wrangle_failures_total",
		"Wrangle runs aborted by a component error.")
	applyDeltaSeconds = obs.Default().Histogram("dnh_publish_stage_duration_seconds",
		"Publish sub-stage wall time in seconds.", obs.DurationBuckets,
		"stage", "apply-delta")
	journalAppendSeconds = obs.Default().Histogram("dnh_publish_stage_duration_seconds",
		"Publish sub-stage wall time in seconds.", obs.DurationBuckets,
		"stage", "journal-append")
	// mergeSeconds times the segment merges inside apply-delta, observed
	// only by publishes that merged.
	mergeSeconds = obs.Default().Histogram("dnh_publish_stage_duration_seconds",
		"Publish sub-stage wall time in seconds.", obs.DurationBuckets,
		"stage", "merge")
)

// observeWrangleStage records one component pass into the per-stage
// wrangle histogram (stage = component name, e.g. scan, publish).
func observeWrangleStage(name string, d time.Duration) {
	obs.Default().Histogram("dnh_wrangle_stage_duration_seconds",
		"Wrangle component pass wall time in seconds.", obs.DurationBuckets,
		"stage", name).ObserveSeconds(d.Nanoseconds())
}
