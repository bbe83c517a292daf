package metamess

// The root benchmark suite regenerates every exhibit of the poster, one
// benchmark per table/figure (plus the DESIGN.md ablations). Each bench
// prints its experiment table once, then times repeated runs, so
//
//	go test -bench=. -benchmem
//
// both reproduces the paper's exhibits and measures the system.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"metamess/internal/archive"
	"metamess/internal/catalog"
	"metamess/internal/experiments"
	"metamess/internal/geo"
	"metamess/internal/scan"
	"metamess/internal/search"
)

// benchSizes keeps the bench suite fast enough for CI while large enough
// that the shapes (who wins, by what factor) are stable.
const (
	benchDatasets = 45
	benchQueries  = 25
	benchSeed     = 42
)

var printOnce sync.Map

func report(b *testing.B, tab *experiments.Table) {
	b.Helper()
	if _, done := printOnce.LoadOrStore(tab.ID, true); !done {
		b.Log("\n" + tab.String())
	}
}

// BenchmarkTable1SemanticDiversity regenerates the poster's Table 1:
// categories of semantic diversity, detection quality, and resolution
// success per category.
func BenchmarkTable1SemanticDiversity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Table1SemanticDiversity(b.TempDir(), benchDatasets, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		report(b, tab)
	}
}

// BenchmarkFigure1RankedSearch regenerates the "Data Near Here" search
// figure: retrieval quality and latency, raw vs wrangled catalog.
func BenchmarkFigure1RankedSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Figure1RankedSearch(b.TempDir(), b.TempDir(),
			benchDatasets, benchQueries, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		report(b, tab)
	}
}

// BenchmarkFigure2CatalogBuild regenerates the IR-architecture figure:
// scan-once summarization throughput and feature compression ratio.
func BenchmarkFigure2CatalogBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Figure2CatalogBuild(
			[]string{b.TempDir(), b.TempDir(), b.TempDir()},
			[]int{15, 45, 90}, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		report(b, tab)
	}
}

// BenchmarkFigure3WranglingChain regenerates the wrangling-process
// figure: per-stage mess reduction and incremental rerun cost.
func BenchmarkFigure3WranglingChain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Figure3WranglingChain(b.TempDir(), benchDatasets, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		report(b, tab)
	}
}

// BenchmarkFigure4Discovery regenerates the Google-Refine figure:
// transformation discovery precision/recall per method per mess level,
// and rule replay fidelity.
func BenchmarkFigure4Discovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Figure4Discovery(
			[]string{b.TempDir(), b.TempDir(), b.TempDir()},
			[]float64{0.5, 1.0, 2.0}, benchDatasets, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		report(b, tab)
	}
}

// BenchmarkFigure5DatasetSummary regenerates the dataset-summary-page
// figure: completeness audit of every rendered page.
func BenchmarkFigure5DatasetSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Figure5DatasetSummary(b.TempDir(), benchDatasets, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		report(b, tab)
	}
}

// BenchmarkAblationCuratorLoop measures curatorial activity 3: coverage
// convergence across improve-and-rerun iterations.
func BenchmarkAblationCuratorLoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.AblationCuratorLoop(b.TempDir(), benchDatasets, benchSeed, 5)
		if err != nil {
			b.Fatal(err)
		}
		report(b, tab)
	}
}

// BenchmarkAblationValidation measures curatorial activity 4: fault
// injection against the validation checks.
func BenchmarkAblationValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.AblationValidation(b.TempDir(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		report(b, tab)
	}
}

// BenchmarkAblationScoring measures the contribution of each query
// dimension to ranking quality.
func BenchmarkAblationScoring(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.AblationScoring(b.TempDir(), benchDatasets, benchQueries, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		report(b, tab)
	}
}

// BenchmarkWrangleWarm measures the delta-aware write path on the
// 2000-dataset archive: a steady-state re-wrangle with ~1% of the
// archive churned per iteration, reported against the cold
// wrangle-everything baseline measured during setup. The results (and
// the empty-delta generation-stability check) are written to
// BENCH_wrangle.json for the CI bench-smoke gate.
func BenchmarkWrangleWarm(b *testing.B) {
	const (
		datasets   = 2000
		churnFiles = 20 // ~1%
	)
	root := b.TempDir()
	m, err := archive.Generate(root, archive.DefaultGenConfig(datasets, benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	sys, err := New(Config{ArchiveRoot: root})
	if err != nil {
		b.Fatal(err)
	}
	coldStart := time.Now()
	if _, err := sys.Wrangle(); err != nil {
		b.Fatal(err)
	}
	coldNs := time.Since(coldStart).Nanoseconds()

	// Settle into steady state: wait out the racy-mtime window (files
	// were generated moments before the cold scan), let one warm run
	// hash-verify everything and refresh the scan stamps so later runs
	// trust stat fingerprints alone, then drive small churn rounds
	// until transformation discovery reaches its fixed point — each
	// newly discovered rule is a knowledge change that (correctly)
	// forces one full reprocess, and the steady state this benchmark
	// measures starts after the last of them.
	time.Sleep(3 * time.Second)
	if _, err := sys.Wrangle(); err != nil {
		b.Fatal(err)
	}
	settleChurn := filepath.Join(root, m.Datasets[0].Path)
	settled := false
	for tries := 0; tries < 8 && !settled; tries++ {
		appendDuplicateLastLine(b, settleChurn)
		rep, err := sys.Wrangle()
		if err != nil {
			b.Fatal(err)
		}
		settled = !rep.Delta.FullReprocess
	}
	if !settled {
		b.Fatal("wrangling never settled into incremental steady state")
	}

	// Acceptance check: an empty-delta re-wrangle must not move the
	// snapshot generation.
	genBefore := sys.SnapshotGeneration()
	noop, err := sys.Wrangle()
	if err != nil {
		b.Fatal(err)
	}
	generationStable := noop.Delta.GenerationStable && sys.SnapshotGeneration() == genBefore
	if !generationStable {
		b.Errorf("empty-delta re-wrangle moved the generation: %+v", noop.Delta)
	}

	var obsPaths []string
	for _, d := range m.Datasets {
		if string(d.Format) == "obs" {
			obsPaths = append(obsPaths, d.Path)
		}
	}
	if len(obsPaths) < churnFiles {
		b.Fatalf("archive has only %d OBS datasets", len(obsPaths))
	}

	b.ResetTimer()
	churned := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := 0; k < churnFiles; k++ {
			appendDuplicateLastLine(b, filepath.Join(root, obsPaths[churned%len(obsPaths)]))
			churned++
		}
		b.StartTimer()
		rep, err := sys.Wrangle()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Delta.FullReprocess {
			b.Fatal("warm run fell back to full reprocess")
		}
	}
	b.StopTimer()
	warmNs := b.Elapsed().Nanoseconds() / int64(b.N)
	speedup := float64(coldNs) / float64(warmNs)
	b.ReportMetric(speedup, "cold/warm")

	env := benchEnvironment()
	env["iters"] = b.N
	mergeBenchJSONAt(b, "BENCH_wrangle.json", nil, map[string]any{
		"benchmark": "BenchmarkWrangleWarm",
		"description": fmt.Sprintf(
			"Write-path comparison on a %d-dataset generated archive: 'cold' is the first Wrangle (parse everything, full transform chain, snapshot build); 'warm' is a steady-state re-wrangle after ~1%% of the archive (%d OBS files) changed — the parallel scanner stat-skips the rest, delta-aware components process only the dirty features, and Publish patches the served snapshot incrementally. An empty-delta re-wrangle must leave SnapshotGeneration() unchanged (generation-keyed caches survive no-op re-wrangles).",
			datasets, churnFiles),
		"generatedAt":                benchStamp(),
		"environment":                env,
		"datasets":                   datasets,
		"churnFilesPerIteration":     churnFiles,
		"coldNsPerOp":                coldNs,
		"warmNsPerOp":                warmNs,
		"speedup":                    speedup,
		"emptyDeltaGenerationStable": generationStable,
	})
}

// BenchmarkWarmRestart measures what the durable store exists for: the
// restart path. Setup builds a settled durable deployment over the
// 2000-dataset archive (journal + checkpoint in a data directory) and
// measures the cold baseline — a fresh process wrangling the whole
// archive from scratch. Each iteration then churns ~1% of the archive
// and performs a warm restart: OpenDurable (checkpoint-replay +
// journal-replay) plus the delta-scoped reconciliation wrangle. What
// the gate protects is that the restart reconciles instead of
// re-wrangling, so it asserts counts, exactly: the reconcile wrangle
// parses the churned files and nothing else, sees the whole archive,
// and does not fall back to a full reprocess. On time it asserts only
// that warm beats cold and that warmRestartNsPerOp is within 25 % of
// the figure committed in BENCH_wrangle.json; the cold/warm ratio is
// recorded, not thresholded, because a faster cold scan shrinks it
// without the restart path getting any worse. The exhibit lands in
// BENCH_wrangle.json under "warmRestart" with the verdict flags the CI
// bench smoke greps.
func BenchmarkWarmRestart(b *testing.B) {
	const (
		datasets   = 2000
		churnFiles = 20 // ~1%
	)
	root := b.TempDir()
	dataDir := b.TempDir()
	m, err := archive.Generate(root, archive.DefaultGenConfig(datasets, benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{ArchiveRoot: root, DataDir: dataDir}
	sys, err := OpenDurable(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Wrangle(); err != nil {
		b.Fatal(err)
	}
	// Settle exactly like BenchmarkWrangleWarm: wait out the racy-mtime
	// window, refresh scan stamps, and churn until rule discovery stops
	// forcing full reprocesses.
	time.Sleep(3 * time.Second)
	if _, err := sys.Wrangle(); err != nil {
		b.Fatal(err)
	}
	settleChurn := filepath.Join(root, m.Datasets[0].Path)
	settled := false
	for tries := 0; tries < 8 && !settled; tries++ {
		appendDuplicateLastLine(b, settleChurn)
		rep, err := sys.Wrangle()
		if err != nil {
			b.Fatal(err)
		}
		settled = !rep.Delta.FullReprocess
	}
	if !settled {
		b.Fatal("durable system never settled into incremental steady state")
	}
	// Fold the settle history into a checkpoint so the measured restarts
	// replay a realistic checkpoint + small journal, then "crash".
	if _, err := sys.CompactIfNeeded(); err != nil {
		b.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		b.Fatal(err)
	}

	// Cold baseline: what every restart cost before the journal existed.
	coldStart := time.Now()
	coldSys, err := New(Config{ArchiveRoot: root})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := coldSys.Wrangle(); err != nil {
		b.Fatal(err)
	}
	coldNs := time.Since(coldStart).Nanoseconds()

	var obsPaths []string
	for _, d := range m.Datasets {
		if string(d.Format) == "obs" {
			obsPaths = append(obsPaths, d.Path)
		}
	}
	if len(obsPaths) < churnFiles {
		b.Fatalf("archive has only %d OBS datasets", len(obsPaths))
	}

	committedWarmNs := committedWarmRestartNs()

	b.ResetTimer()
	churned := 0
	countsExact := true
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := 0; k < churnFiles; k++ {
			appendDuplicateLastLine(b, filepath.Join(root, obsPaths[churned%len(obsPaths)]))
			churned++
		}
		b.StartTimer()
		wsys, err := OpenDurable(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := wsys.Wrangle()
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if scan := rep.Steps[0].Counters; rep.Delta.FullReprocess ||
			scan["parsed"] != churnFiles || scan["filesSeen"] != datasets {
			countsExact = false
			b.Errorf("warm restart reconcile: parsed %d (want %d), filesSeen %d (want %d), fullReprocess %v (want false)",
				scan["parsed"], churnFiles, scan["filesSeen"], datasets, rep.Delta.FullReprocess)
		}
		// Housekeeping outside the timed region, as the daemon's
		// background compactor would do it: keep the journal bounded so
		// iteration N does not replay N publishes.
		if _, err := wsys.CompactIfNeeded(); err != nil {
			b.Fatal(err)
		}
		if err := wsys.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	warmNs := b.Elapsed().Nanoseconds() / int64(b.N)
	speedup := float64(coldNs) / float64(warmNs)
	b.ReportMetric(speedup, "cold/warm")
	withinCommitted := committedWarmNs == 0 || float64(warmNs) <= 1.25*committedWarmNs

	wrEnv := benchEnvironment()
	wrEnv["iters"] = b.N
	mergeBenchJSONAt(b, "BENCH_wrangle.json", []string{"warmRestart"}, map[string]any{
		"benchmark": "BenchmarkWarmRestart",
		"description": fmt.Sprintf(
			"Restart cost on a %d-dataset archive with ~1%% churn (%d OBS files) per restart: 'cold' is a fresh process wrangling the whole archive from scratch (the only restart path before the durable store); 'warm' is OpenDurable — checkpoint-replay + journal-replay restoring the published catalog, its generation, and the knowledge-epoch sidecar — followed by the delta-scoped reconciliation wrangle against the live archive. The gate is on what that wrangle does, not on a ratio: it parses exactly the churned files, sees every dataset, never falls back to a full reprocess (warmCountsExact), beats cold (warmFasterThanCold), and stays within 25%% of the previously committed warmRestartNsPerOp (warmWithinCommitted).",
			datasets, churnFiles),
		"generatedAt":          benchStamp(),
		"environment":          wrEnv,
		"datasets":             datasets,
		"churnFilesPerRestart": churnFiles,
		"coldRestartNsPerOp":   coldNs,
		"warmRestartNsPerOp":   warmNs,
		"speedup":              speedup,
		"warmCountsExact":      countsExact,
		"warmFasterThanCold":   speedup > 1,
		"warmWithinCommitted":  withinCommitted,
	})
	if speedup <= 1 {
		b.Errorf("warm restart (%d ns) is not faster than a cold re-wrangle (%d ns)", warmNs, coldNs)
	}
	if !withinCommitted {
		b.Errorf("warm restart %d ns/op is more than 25%% over the committed %d ns/op", warmNs, int64(committedWarmNs))
	}
}

// committedWarmRestartNs is warmRestart.warmRestartNsPerOp as committed
// in BENCH_wrangle.json (0 when absent). It is read once per process:
// the testing package calls a benchmark with a growing b.N, and every
// call rewrites the file.
var committedWarmRestartNs = sync.OnceValue(func() float64 {
	var doc struct {
		WarmRestart struct {
			WarmRestartNsPerOp float64 `json:"warmRestartNsPerOp"`
		} `json:"warmRestart"`
	}
	if data, err := os.ReadFile("BENCH_wrangle.json"); err == nil {
		_ = json.Unmarshal(data, &doc) // unparsable: no figure to hold to
	}
	return doc.WarmRestart.WarmRestartNsPerOp
})

// snapshotBenchCatalog builds a deterministic synthetic catalog large
// enough that the read-path shapes (indexed vs. linear, worker
// scaling) are stable.
func snapshotBenchCatalog(b *testing.B, n, shards int) *catalog.Catalog {
	b.Helper()
	c := catalog.NewSharded(shards)
	for i := 0; i < n; i++ {
		if err := c.Upsert(benchFeature(i, 0)); err != nil {
			b.Fatal(err)
		}
	}
	// Pre-build the snapshot so the publish cost stays out of the
	// per-query timings, as it does in the serving system.
	c.Snapshot()
	return c
}

// benchFeature fabricates the i-th deterministic bench feature; version
// perturbs its content (value ranges, temporal extent) without changing
// the identity, modelling an edited file for the publish benchmarks.
func benchFeature(i, version int) *catalog.Feature {
	names := []string{"water_temperature", "salinity", "turbidity", "dissolved_oxygen", "nitrate", "ph"}
	base := time.Date(2008, 1, 1, 0, 0, 0, 0, time.UTC)
	lat := 42 + float64(i%500)*0.02
	lon := -127 + float64((i*7)%600)*0.02
	path := fmt.Sprintf("bench/%04d.obs", i)
	return &catalog.Feature{
		ID:     catalog.IDForPath(path),
		Path:   path,
		Source: "stations",
		Format: "obs",
		BBox: geo.BBox{
			MinLat: lat - 0.01, MinLon: lon - 0.01,
			MaxLat: lat + 0.01, MaxLon: lon + 0.01,
		},
		Time: geo.NewTimeRange(
			base.AddDate(0, 0, (i+version)%1500),
			base.AddDate(0, 0, (i+version)%1500+14)),
		RowCount: 100 + version,
		Variables: []catalog.VarFeature{
			{RawName: names[i%len(names)], Name: names[i%len(names)],
				Range: geo.NewValueRange(float64(version), 30), Count: 100},
			{RawName: names[(i+1)%len(names)], Name: names[(i+1)%len(names)],
				Range: geo.NewValueRange(0, 30), Count: 100},
		},
	}
}

// searchAllocBudget is the steady-state allocation ceiling for the
// indexed single-worker query path, enforced here and grepped by CI:
// the interned term dictionary + compressed postings + pooled query
// scratch must hold at least a 5x cut from the pre-interning baseline
// (818 allocs / 230192 B per op on the same 5000-feature exhibit).
const (
	searchAllocBudget    = 160
	searchBytesBudget    = 46038
	searchBaselineAllocs = 818
	searchBaselineBytes  = 230192
	// multiWorkerTolerance bounds how much slower a multi-worker run may
	// be than the 1-worker path before the exhibit flags it. The clamp
	// (min of the request, work/parallelMinWork, and machine parallelism)
	// means extra configured workers must never cost more than noise —
	// on a 1-core host all worker counts degrade to the identical serial
	// path, so this margin is pure timing jitter.
	multiWorkerTolerance = 1.25
	// multiShardTolerance bounds the multi-shard scatter paths the same
	// way, but looser: an N-shard snapshot pays a structural per-shard
	// constant (N plans, N spatial/temporal candidate collections, the
	// gather heap) that a single-core recorder cannot amortize across
	// cores, so the bound only asserts the overhead stays modest, not
	// that sharding is free without parallel hardware.
	multiShardTolerance = 1.6
	// fanOutMinIters is the minimum per-variant iteration count before
	// the timing-based flags (multiWorkerNoSlower, speedups) are emitted:
	// a single-iteration smoke run (-benchtime 1x) is too noisy to judge
	// a 20% margin, so it records the raw entries and leaves the verdict
	// to a properly sized run. The allocation flags are exact at any N.
	fanOutMinIters = 10
)

// searchMeasure is one sub-benchmark's steady-state cost. Allocations
// are counted via MemStats deltas around the timed loop (after pool
// warm-up) because testing keeps its own counters private.
type searchMeasure struct {
	nsPerOp     int64
	allocsPerOp uint64
	bytesPerOp  uint64
	iters       int
}

func (m searchMeasure) entry(name string) map[string]any {
	return map[string]any{
		"name":          name,
		"ns_per_op":     m.nsPerOp,
		"allocs_per_op": m.allocsPerOp,
		"bytes_per_op":  m.bytesPerOp,
		"iters":         m.iters,
	}
}

// BenchmarkSnapshotSearch measures the snapshot read path: the indexed
// planner vs. the linear-scan ablation at 1/4/8 workers, plus the
// seed's copy-per-search behavior (deep-copying the catalog before
// every scan) for reference. Results are recorded in BENCH_search.json
// keyed by GOMAXPROCS (drive the matrix with -cpu 1,2,4,8), along with
// the allocation-budget and fan-out acceptance flags CI greps.
func BenchmarkSnapshotSearch(b *testing.B) {
	const n = 5000
	c := snapshotBenchCatalog(b, n, 1)
	loc := geo.Point{Lat: 45.5, Lon: -124.4}
	tr := geo.NewTimeRange(
		time.Date(2010, 5, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2010, 8, 1, 0, 0, 0, 0, time.UTC))
	vr := geo.NewValueRange(5, 10)
	q := search.Query{
		Location: &loc,
		Time:     &tr,
		Terms:    []search.Term{{Name: "salinity", Range: &vr}},
	}
	// The -cpu sweep happens per sub-benchmark: each b.Run leaf executes
	// once per -cpu value (plus calibration passes), while this parent
	// body and its post-processing run exactly once. So measurements are
	// captured inside the leaf, keyed by the GOMAXPROCS in effect for
	// that pass; a later pass at the same procs count (the measured run
	// after calibration) overwrites the earlier one.
	measured := map[int]map[string]searchMeasure{} // procs -> variant -> cost
	order := map[int][]string{}                    // procs -> variants in run order
	run := func(name string, opts search.Options, perIter func()) {
		b.Run(name, func(b *testing.B) {
			s := search.New(c, opts)
			// Warm the scratch pool and lazy snapshot state so the timed
			// region measures steady state, not first-query buildup.
			for i := 0; i < 3; i++ {
				if _, err := s.Search(q); err != nil {
					b.Fatal(err)
				}
			}
			var before, after runtime.MemStats
			b.ReportAllocs()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if perIter != nil {
					perIter()
				}
				if _, err := s.Search(q); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			procs := runtime.GOMAXPROCS(0)
			if measured[procs] == nil {
				measured[procs] = map[string]searchMeasure{}
			}
			if _, seen := measured[procs][name]; !seen {
				order[procs] = append(order[procs], name)
			}
			measured[procs][name] = searchMeasure{
				nsPerOp:     b.Elapsed().Nanoseconds() / int64(b.N),
				allocsPerOp: (after.Mallocs - before.Mallocs) / uint64(b.N),
				bytesPerOp:  (after.TotalAlloc - before.TotalAlloc) / uint64(b.N),
				iters:       b.N,
			}
		})
	}
	for _, w := range []int{1, 4, 8} {
		opts := search.DefaultOptions()
		opts.Workers = w
		run(fmt.Sprintf("indexed-%dw", w), opts, nil)
	}
	for _, w := range []int{1, 4, 8} {
		opts := search.DefaultOptions()
		opts.UseIndex = false
		opts.Workers = w
		run(fmt.Sprintf("linear-%dw", w), opts, nil)
	}
	seedOpts := search.DefaultOptions()
	seedOpts.UseIndex = false
	seedOpts.Workers = 1
	// The seed cloned every feature on each search (All()); reproduce
	// that cost on top of the scan.
	run("seed-copy-per-search", seedOpts, func() { _ = c.All() })

	if len(measured) == 0 {
		return // a -bench filter skipped every sub-benchmark
	}
	// One group per swept GOMAXPROCS value; the summary aggregates across
	// the sweep (flags are the AND of every group's verdict, ratios come
	// from the canonical serial measurement: the lowest qualifying procs).
	groups := map[string]any{}
	summary := map[string]any{"procsSwept": sortedProcs(measured)}
	allocsOK, haveAllocs := true, false
	noSlowerAll, haveTiming := true, false
	for _, procs := range sortedProcs(measured) {
		byName := measured[procs]
		entries := make([]map[string]any, 0, len(order[procs]))
		for _, name := range order[procs] {
			entries = append(entries, byName[name].entry(name))
		}
		group := map[string]any{"procs": procs, "entries": entries}
		if m1, ok := byName["indexed-1w"]; ok {
			within := m1.allocsPerOp <= searchAllocBudget && m1.bytesPerOp <= searchBytesBudget
			group["allocsWithinBudget"] = within
			allocsOK = allocsOK && within
			haveAllocs = true
			if !within {
				b.Errorf("procs=%d indexed-1w steady state: %d allocs / %d B per op, budget %d / %d",
					procs, m1.allocsPerOp, m1.bytesPerOp, searchAllocBudget, searchBytesBudget)
			}
			if m1.iters >= fanOutMinIters {
				noSlower := true
				for _, name := range []string{"indexed-4w", "indexed-8w"} {
					if m, ok := byName[name]; ok && float64(m.nsPerOp) > multiWorkerTolerance*float64(m1.nsPerOp) {
						noSlower = false
						b.Errorf("procs=%d %s is %.2fx the 1-worker latency, tolerance %.2fx",
							procs, name, float64(m.nsPerOp)/float64(m1.nsPerOp), multiWorkerTolerance)
					}
				}
				group["multiWorkerNoSlower"] = noSlower
				noSlowerAll = noSlowerAll && noSlower
				if !haveTiming {
					haveTiming = true
					summary["allocCutVsBaseline"] = round2(searchBaselineAllocs / float64(max(m1.allocsPerOp, 1)))
					summary["bytesCutVsBaseline"] = round2(searchBaselineBytes / float64(max(m1.bytesPerOp, 1)))
					if lin, ok := byName["linear-1w"]; ok {
						summary["indexed_vs_linear_speedup"] = round2(float64(lin.nsPerOp) / float64(m1.nsPerOp))
					}
					if seed, ok := byName["seed-copy-per-search"]; ok {
						summary["indexed_vs_seed_speedup"] = round2(float64(seed.nsPerOp) / float64(m1.nsPerOp))
					}
				}
			}
		}
		groups[procsKey(procs)] = group
	}
	if haveAllocs {
		summary["allocsWithinBudget"] = allocsOK
	}
	if haveTiming {
		summary["multiWorkerNoSlower"] = noSlowerAll
	}
	// "results" is replaced wholesale (not merged) so one invocation
	// defines the whole matrix and stale procs groups never linger.
	mergeBenchJSONAt(b, "BENCH_search.json", nil, map[string]any{
		"benchmark": "BenchmarkSnapshotSearch",
		"description": fmt.Sprintf(
			"Read-path comparison on a %d-feature synthetic catalog; query = location + time period + range-constrained variable term, K=10. 'indexed' is the snapshot planner — query terms resolve once through the per-shard interned term dictionary to compressed posting containers (sorted-array sparse / packed-bitmap dense), and all per-query scratch (candidate buffers, mark bitmaps, top-K heaps) comes from a sync.Pool, so steady state allocates only the response. 'linear' is the UseIndex=false full-scan ablation over the same snapshot; 'seed-copy-per-search' reproduces the seed's behavior of deep-copying every feature per query. All paths return byte-identical rankings (TestSnapshotParallelMatchesLinearScan). results holds one procs-N group per GOMAXPROCS value; run with -cpu 1,2,4,8 for the core-count matrix.", n),
		"generatedAt": benchStamp(),
		"environment": benchEnvironment(),
		"allocBudget": map[string]any{
			"allocsPerOp":         searchAllocBudget,
			"bytesPerOp":          searchBytesBudget,
			"baselineAllocsPerOp": searchBaselineAllocs,
			"baselineBytesPerOp":  searchBaselineBytes,
		},
		"multiWorkerTolerance": multiWorkerTolerance,
		"summary":              summary,
		"results":              groups,
	})
}

// sortedProcs returns the GOMAXPROCS values a sweep captured, ascending.
func sortedProcs[V any](m map[int]V) []int {
	procs := make([]int, 0, len(m))
	for p := range m {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	return procs
}

// round2 trims an exhibit ratio to two decimals.
func round2(x float64) float64 { return float64(int(x*100+0.5)) / 100 }

// benchStamp is the uniform generatedAt timestamp every exhibit writer
// uses, so each file (and each nested section) carries the same format.
func benchStamp() string { return time.Now().UTC().Format(time.RFC3339) }

// benchEnvironment describes the recording machine once, uniformly.
func benchEnvironment() map[string]any {
	return map[string]any{
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpus":       runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
	}
}

// procsKey labels a GOMAXPROCS sweep entry ("procs-4"). Passing
// -cpu 1,2,4,8 to go test re-runs every sub-benchmark once per value;
// measurements captured inside the leaves land under one key per value,
// so one invocation records the whole core-count matrix.
func procsKey(procs int) string { return fmt.Sprintf("procs-%d", procs) }

// mergeBenchJSONAt read-modify-writes a bench exhibit file: the keys of
// fields are merged into the JSON object at the nested key path `at`
// (nil = top level), creating intermediate objects as needed and
// preserving unrelated siblings. This is how benchmarks share one file
// (BenchmarkWrangleWarm, BenchmarkWarmRestart, and BenchmarkShardedPublish
// all land in BENCH_wrangle.json) and how per-GOMAXPROCS sweep passes
// accumulate side by side instead of overwriting each other.
func mergeBenchJSONAt(b *testing.B, path string, at []string, fields map[string]any) {
	b.Helper()
	doc := map[string]any{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			b.Logf("could not parse %s (rewriting): %v", path, err)
			doc = map[string]any{}
		}
	}
	node := doc
	for _, k := range at {
		child, ok := node[k].(map[string]any)
		if !ok {
			child = map[string]any{}
			node[k] = child
		}
		node = child
	}
	for k, v := range fields {
		node[k] = v
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		b.Logf("could not write %s: %v", path, err)
	}
}

// BenchmarkShardedSearch measures the scatter-gather read path at 1, 4,
// and 8 snapshot shards over the 5000-feature synthetic catalog, with
// one search worker per shard. Before timing, each shard count's
// ranking is checked byte-identical to the 1-shard baseline (the
// property TestShardedSearchMatchesSingleShard fuzzes at scale).
// Results extend BENCH_search.json under "sharded".
func BenchmarkShardedSearch(b *testing.B) {
	const n = 5000
	loc := geo.Point{Lat: 45.5, Lon: -124.4}
	tr := geo.NewTimeRange(
		time.Date(2010, 5, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2010, 8, 1, 0, 0, 0, 0, time.UTC))
	vr := geo.NewValueRange(5, 10)
	q := search.Query{
		Location: &loc,
		Time:     &tr,
		Terms:    []search.Term{{Name: "salinity", Range: &vr}},
	}

	baseOpts := search.DefaultOptions()
	baseOpts.Workers = 1
	baseline, err := search.New(snapshotBenchCatalog(b, n, 1), baseOpts).Search(q)
	if err != nil {
		b.Fatal(err)
	}

	shardCounts := []int{1, 4, 8}
	entryBy := map[int]map[int]map[string]any{} // procs -> shard count -> entry
	for _, sc := range shardCounts {
		c := snapshotBenchCatalog(b, n, sc)
		opts := search.DefaultOptions()
		opts.Workers = sc
		s := search.New(c, opts)
		got, err := s.Search(q)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(baseline) {
			b.Fatalf("shards=%d returned %d results, baseline %d", sc, len(got), len(baseline))
		}
		for i := range got {
			if got[i].Feature.ID != baseline[i].Feature.ID || got[i].Score != baseline[i].Score {
				b.Fatalf("shards=%d rank %d diverges from 1-shard baseline", sc, i)
			}
		}
		sc := sc
		b.Run(fmt.Sprintf("shards-%d", sc), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Search(q); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			procs := runtime.GOMAXPROCS(0) // per -cpu pass; calibration overwritten
			if entryBy[procs] == nil {
				entryBy[procs] = map[int]map[string]any{}
			}
			entryBy[procs][sc] = map[string]any{
				"shards":  sc,
				"workers": sc,
				"nsPerOp": b.Elapsed().Nanoseconds() / int64(b.N),
				"iters":   b.N,
			}
		})
	}
	if len(entryBy) == 0 {
		return // a -bench filter skipped every sub-benchmark
	}
	groups := map[string]any{}
	for _, procs := range sortedProcs(entryBy) {
		bySc := entryBy[procs]
		var entries []map[string]any
		for _, sc := range shardCounts {
			if bySc[sc] != nil {
				entries = append(entries, bySc[sc])
			}
		}
		group := map[string]any{"procs": procs, "entries": entries}
		if e1 := bySc[1]; e1 != nil && e1["iters"].(int) >= fanOutMinIters {
			ns1 := e1["nsPerOp"].(int64)
			noSlower := true
			for _, sc := range shardCounts {
				if e := bySc[sc]; e != nil && float64(e["nsPerOp"].(int64)) > multiShardTolerance*float64(ns1) {
					noSlower = false
					b.Errorf("procs=%d shards-%d is %.2fx the 1-shard latency, tolerance %.2fx",
						procs, sc, float64(e["nsPerOp"].(int64))/float64(ns1), multiShardTolerance)
				}
			}
			group["multiShardNoSlower"] = noSlower
		}
		groups[procsKey(procs)] = group
	}
	mergeBenchJSONAt(b, "BENCH_search.json", []string{"sharded"}, map[string]any{
		"benchmark": "BenchmarkShardedSearch",
		"description": fmt.Sprintf(
			"Scatter-gather search over a %d-feature catalog partitioned into N snapshot shards (one worker per shard, each running the full candidate-tier planner over its shard before a single merge heap gathers per-shard top-Ks). Rankings are byte-identical across shard counts — asserted here against the 1-shard baseline and fuzzed by TestShardedSearchMatchesSingleShard. results holds one procs-N group per GOMAXPROCS value (-cpu 1,2,4,8 for the matrix); on a single-CPU host the multi-shard numbers measure scatter overhead, not scaling, and multiShardNoSlower checks the adaptive fan-out clamp keeps that overhead bounded.", n),
		"generatedAt":         benchStamp(),
		"environment":         benchEnvironment(),
		"multiShardTolerance": multiShardTolerance,
		"results":             groups,
	})
}

// BenchmarkShardedPublish measures what the sharded snapshot exists
// for on the write path: a ~1% churn publish (20 changed features out
// of 2000) through ApplyDelta, at 1, 8, and 32 shards. Per iteration
// the benchmark counts, by pointer identity, how many shards of the
// successor snapshot were patched vs shared with the predecessor; with
// 32 shards and 20 changed features at least 12 shards are provably
// clean every round, and the run fails if any clean count comes back
// zero. Results extend BENCH_wrangle.json under "shardedPublish".
func BenchmarkShardedPublish(b *testing.B) {
	const (
		n     = 2000
		churn = 20 // ~1%
	)
	shardCounts := []int{1, 8, 32}
	entryBy := map[int]map[int]map[string]any{} // procs -> shard count -> entry
	for _, sc := range shardCounts {
		sc := sc
		c := snapshotBenchCatalog(b, n, sc)
		b.Run(fmt.Sprintf("shards-%d", sc), func(b *testing.B) {
			prev := c.Snapshot()
			patched, shared := 0, 0
			version := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				version++
				changed := make([]*catalog.Feature, churn)
				for k := range changed {
					changed[k] = benchFeature((i*churn+k)%n, version)
				}
				sort.Slice(changed, func(a, z int) bool { return changed[a].ID < changed[z].ID })
				b.StartTimer()
				if _, err := c.ApplyDelta(changed, nil); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				next := c.Snapshot()
				for si, sh := range next.Shards() {
					if sh == prev.Shards()[si] {
						shared++
					} else {
						patched++
					}
				}
				prev = next
				b.StartTimer()
			}
			b.StopTimer()
			// Pigeonhole floor: churn features can dirty at most churn
			// shards, so every publish must share at least sc-churn clean
			// shards; anything less means clean shards are being patched.
			if sc > churn && shared < (sc-churn)*b.N {
				b.Fatalf("shards=%d churn=%d: only %d clean shards shared over %d publishes, want ≥ %d",
					sc, churn, shared, b.N, (sc-churn)*b.N)
			}
			dirtyPerOp := float64(patched) / float64(b.N)
			b.ReportMetric(dirtyPerOp, "dirtyShards/op")
			procs := runtime.GOMAXPROCS(0) // per -cpu pass; calibration overwritten
			if entryBy[procs] == nil {
				entryBy[procs] = map[int]map[string]any{}
			}
			entryBy[procs][sc] = map[string]any{
				"shards":           sc,
				"churnFeatures":    churn,
				"nsPerOp":          b.Elapsed().Nanoseconds() / int64(b.N),
				"iters":            b.N,
				"dirtyShardsPerOp": dirtyPerOp,
				"cleanShardsPerOp": float64(shared) / float64(b.N),
			}
		})
	}
	if len(entryBy) == 0 {
		return // a -bench filter skipped every sub-benchmark
	}
	groups := map[string]any{}
	for _, procs := range sortedProcs(entryBy) {
		var entries []map[string]any
		for _, sc := range shardCounts {
			if entryBy[procs][sc] != nil {
				entries = append(entries, entryBy[procs][sc])
			}
		}
		groups[procsKey(procs)] = map[string]any{"procs": procs, "entries": entries}
	}
	mergeBenchJSONAt(b, "BENCH_wrangle.json", []string{"shardedPublish"}, map[string]any{
		"benchmark": "BenchmarkShardedPublish",
		"description": fmt.Sprintf(
			"Incremental publish of a ~1%%%% churn delta (%d of %d features) into an N-shard snapshot via ApplyDelta. The delta routes to shards by feature-ID hash; clean shards are shared with the predecessor snapshot by pointer (counted per iteration, asserted non-zero whenever shards > churn), and within a patched shard the interned posting containers of untouched terms are shared the same way, so patch cost tracks the dirty features' index footprint, not the catalog's. results holds one procs-N group per GOMAXPROCS value (-cpu 1,2,4,8 for the matrix).", churn, n),
		"generatedAt": benchStamp(),
		"environment": benchEnvironment(),
		"results":     groups,
	})
}

// pushBenchFeature builds one push-batch feature. Distinct from
// benchFeature: push batches clear wrangle-grade validation, so every
// variable range stays inside the vocabulary's plausible bounds, and
// the content hash varies with version so each publish is a real delta.
func pushBenchFeature(i, version int) *catalog.Feature {
	vars := []struct {
		name, unit string
		lo, hi     float64
	}{
		{"water_temperature", "C", 6, 18},
		{"salinity", "PSU", 2, 30},
		{"turbidity", "NTU", 1, 80},
		{"dissolved_oxygen", "mg/L", 3, 12},
	}
	v := vars[i%len(vars)]
	base := time.Date(2010, 6, 1, 0, 0, 0, 0, time.UTC)
	lat := 45 + float64(i%200)*0.01
	lon := -125 + float64((i*3)%200)*0.01
	path := fmt.Sprintf("push/%04d.csv", i)
	return &catalog.Feature{
		ID:     catalog.IDForPath(path),
		Path:   path,
		Source: "push",
		Format: "csv",
		BBox:   geo.BBox{MinLat: lat, MinLon: lon, MaxLat: lat + 0.05, MaxLon: lon + 0.05},
		Time: geo.NewTimeRange(
			base.AddDate(0, 0, i%90),
			base.AddDate(0, 0, i%90+1)),
		Variables: []catalog.VarFeature{{
			RawName: v.name, Name: v.name, Unit: v.unit,
			Range: geo.NewValueRange(v.lo, v.hi),
			Count: 24,
		}},
		RowCount:    24 + version,
		Bytes:       512,
		ScannedAt:   base,
		ModTime:     base.Add(time.Duration(version) * time.Second),
		ContentHash: fmt.Sprintf("%016x", uint64(i)<<32|uint64(version&0xffffffff)),
	}
}

// BenchmarkPushPublish measures the warm push-ingest cost: a producer
// re-publishing a batch whose content changed since the last publish.
// The timed path is PublishFeatures end to end — batch validation,
// wrangle-grade checks over a scratch catalog, delta trim against the
// served snapshot, sharded ApplyDelta, snapshot swap — and it must
// perform zero filesystem stat calls: push-fed deployments have no
// stat-call floor, which is the point of the connector refactor. The
// exhibit lands in BENCH_wrangle.json under "pushPublish" with the
// zeroStatCalls flag the CI bench smoke greps.
func BenchmarkPushPublish(b *testing.B) {
	const batch = 100
	sys, err := New(Config{ArchiveRoot: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	build := func(version int) *PublishRequest {
		req := &PublishRequest{Features: make([]*catalog.Feature, batch)}
		for i := range req.Features {
			req.Features[i] = pushBenchFeature(i, version)
		}
		return req
	}
	// Seed publish (the cold path), then two alternating versions: every
	// timed publish replaces the whole batch with changed content.
	if _, err := sys.PublishFeatures(build(0)); err != nil {
		b.Fatal(err)
	}
	reqs := [2]*PublishRequest{build(1), build(2)}
	gen0 := sys.SnapshotGeneration()
	stat0 := scan.StatCalls()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.PublishFeatures(reqs[i%2]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	statCalls := scan.StatCalls() - stat0
	genMoves := sys.SnapshotGeneration() - gen0
	if statCalls != 0 {
		b.Errorf("warm publish performed %d stat calls, want 0", statCalls)
	}
	if uint64(b.N) != genMoves {
		b.Errorf("%d publishes moved the generation %d times", b.N, genMoves)
	}
	mergeBenchJSONAt(b, "BENCH_wrangle.json", []string{"pushPublish"}, map[string]any{
		"benchmark": "BenchmarkPushPublish",
		"description": fmt.Sprintf(
			"Warm push-ingest cost: PublishFeatures re-publishing a %d-feature batch whose content changed since the last publish — batch validation, wrangle-grade checks, delta trim, sharded ApplyDelta, snapshot swap. The zeroStatCalls flag asserts the push path never touches the filesystem: unlike the walker, push-fed ingest has no stat-call floor.", batch),
		"generatedAt":          benchStamp(),
		"environment":          benchEnvironment(),
		"batchFeatures":        batch,
		"nsPerOp":              b.Elapsed().Nanoseconds() / int64(b.N),
		"iters":                b.N,
		"statCalls":            statCalls,
		"zeroStatCalls":        statCalls == 0,
		"generationPerPublish": genMoves == uint64(b.N),
	})
}
