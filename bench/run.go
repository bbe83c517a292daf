package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"syscall"
	"time"

	"metamess/internal/archive"
	"metamess/internal/catalog"
	"metamess/internal/geo"
	"metamess/internal/search"
	"metamess/internal/semdiv"
	"metamess/internal/server"
	"metamess/internal/vocab"
)

// maxClients caps the load generator's connections: the server and the
// generator share this process's cores, so more clients than cores would
// measure the generator's own queueing.
const maxClients = 2

// A run is several lives of one node. Each life starts the node from
// nothing (one setup_s sample), prepares it, runs blocksPerLife timed
// blocks, stops it and reopens its data directory restartsPerLife times
// (restart_s samples). Every time metric is therefore sampled from the
// first seconds of the run to the last, and reports its best sample: a
// slow spell of the host that covers a part of the run moves none of
// them, where a metric measured in one stretch of the run would depend
// on whether the spell met that stretch.
const (
	lives           = 4
	blocksPerLife   = 3
	restartsPerLife = 3
)

// probeCount is the number of probe queries the output checks rank.
const probeCount = 64

// config is one invocation's input.
type config struct {
	workload string
	seed     int64
	// seconds sizes the timed phase. Work is fixed, not time: each
	// workload's op count is seconds × its nominal rate on the reference
	// host, so two runs with equal arguments do identical work.
	seconds  float64
	trace    bool
	traceOut string
	// datasets is the generated archive's size: archiveDatasets, except in
	// the smoke test.
	datasets int
	// runDir is the directory the run makes for its archive and data
	// directories, and removes before it returns.
	runDir string
}

// result is what one run reports.
type result struct {
	ops, failed int
	correct     bool
	values      map[string]float64
	// failures are the output checks that did not hold.
	failures []string
	// addr is the loopback address the node listened on.
	addr string
}

// span is one traced interval, recorded by the benchmark around a call
// into the program and kept in memory until the run ends.
type span struct {
	name       string
	start, end time.Duration // since the run began
	parent     string        // the ladder rung that logically encloses it
	op         int
}

// load is one traffic shape (a workload). Every method but timed runs outside
// the timed region.
type load interface {
	// seedArchive adds input files before the first wrangle.
	seedArchive(b *bench) error
	// prepare preloads and warms a newly started node; it runs once in
	// every life.
	prepare(ctx context.Context, b *bench) error
	// timed runs blocks [first, first+n) of the fixed-work timed phase
	// and adds them to ph.
	timed(ctx context.Context, b *bench, ph *phase, first, n int) error
	// verify checks the program's outputs after the timed phase.
	verify(ctx context.Context, b *bench) error
	// ladder times the same ops rung by rung (traced runs only) and
	// writes the per-layer self times into b.vals.
	ladder(ctx context.Context, b *bench) error
}

func newLoad(name string) (load, error) {
	switch name {
	case "search-cold":
		return &searchLoad{}, nil
	case "search-hot":
		return &searchLoad{hot: true}, nil
	case "publish-steady":
		return &publishLoad{}, nil
	case "wrangle-churn":
		return &churnLoad{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want search-cold, search-hot, publish-steady or wrangle-churn)", name)
}

var workloadNames = []string{"search-cold", "search-hot", "publish-steady", "wrangle-churn"}

// bench is one run in progress.
type bench struct {
	cfg    config
	log    io.Writer
	rig    *rig
	t0     time.Time
	vals   map[string]float64
	probes []search.Query
	spans  []span
	// failures collects output-check mismatches; any makes the run
	// incorrect.
	failures []string
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.log, "dnhbench: "+format+"\n", args...)
}

func (b *bench) failf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.failures = append(b.failures, msg)
	b.logf("CHECK FAILED: %s", msg)
}

// opCount scales a workload's nominal rate to the requested size, in
// whole blocks.
func (b *bench) opCount(perSecond float64) (total, perBlock int) {
	perBlock = int(math.Round(perSecond * b.cfg.seconds / blocks))
	if perBlock < 1 {
		perBlock = 1
	}
	return perBlock * blocks, perBlock
}

// ladderOps is the single-client sample the ladder times at each rung.
func (b *bench) ladderOps(perSecond float64) int {
	n := int(math.Round(perSecond * b.cfg.seconds))
	if n < 8 {
		n = 8
	}
	return n
}

// tracedBlock reports whether a timed block runs with tracing on. A
// traced run alternates, so one process measures both sides of
// trace.overhead_share; an untraced run never traces.
func (b *bench) tracedBlock(blk int) bool { return b.cfg.trace && blk%2 == 0 }

func (b *bench) addSpan(name, parent string, op int, start time.Time, d time.Duration) {
	s := start.Sub(b.t0)
	b.spans = append(b.spans, span{name: name, start: s, end: s + d, parent: parent, op: op})
}

// timeCall runs f, records it as a span, and returns its duration.
func (b *bench) timeCall(name, parent string, op int, f func()) time.Duration {
	t0 := time.Now()
	f()
	d := time.Since(t0)
	b.addSpan(name, parent, op, t0, d)
	return d
}

// run executes one workload once and reports its metrics. Every exit
// path — success, failed check, cancelled context — stops the server,
// closes the journal and removes the run directory before returning.
func run(ctx context.Context, cfg config, log io.Writer) (res result, err error) {
	w, err := newLoad(cfg.workload)
	if err != nil {
		return res, err
	}
	b := &bench{cfg: cfg, log: log, t0: time.Now(), vals: map[string]float64{}}
	b.logf("workload=%s seed=%d seconds=%g trace=%v datasets=%d", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.datasets)

	r, genTime, err := newRig(cfg)
	if err != nil {
		return res, err
	}
	b.rig = r
	b.logf("host: nproc=%d GOMAXPROCS=%d %s %s/%s workfs=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, fsType(r.dir))
	defer func() {
		if cerr := r.close(); err == nil && cerr != nil {
			err = fmt.Errorf("teardown: %w", cerr)
		}
	}()
	b.vals["bench.generate_s"] = genTime.Seconds()
	if err := w.seedArchive(b); err != nil {
		return res, err
	}
	if b.probes, _, err = genQueries(r.manifest, probeCount, cfg.seed^0x70726f62, nil); err != nil {
		return res, err
	}

	var setups, restarts, replays []float64
	ph := &phase{}
	for life := 0; life < lives; life++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		last := life == lives-1
		// Every life begins with no data directory and a collected heap
		// handed back to the OS, so the starts are repeats of one another and
		// the resident peak is one node's. The archive was written seconds
		// ago and is in the page cache for all of them alike.
		debug.FreeOSMemory()
		d, err := r.startNode(ctx, b.probes[0])
		if err != nil {
			return res, fmt.Errorf("setup %d: %w", life, err)
		}
		setups = append(setups, d.Seconds())
		if err := w.prepare(ctx, b); err != nil {
			return res, fmt.Errorf("prepare: %w", err)
		}
		// The counters, the checks and the ladder read the last life.
		var before counters
		if last {
			if before, err = b.readCounters(ctx); err != nil {
				return res, err
			}
		}
		ops0 := ph.ops
		if err := w.timed(ctx, b, ph, life*blocksPerLife, blocksPerLife); err != nil {
			return res, fmt.Errorf("timed phase: %w", err)
		}
		if last {
			after, err := b.readCounters(ctx)
			if err != nil {
				return res, err
			}
			b.vals["live_heap_mb"] = liveHeapMB()
			b.reportCounters(before, after, ph.ops-ops0)
			if err := b.reportDisk(); err != nil {
				return res, err
			}
			if err := w.verify(ctx, b); err != nil {
				return res, fmt.Errorf("verify: %w", err)
			}
			if cfg.trace {
				if err := w.ladder(ctx, b); err != nil {
					return res, fmt.Errorf("ladder: %w", err)
				}
				if err := b.reportSpaceAmp(); err != nil {
					return res, err
				}
			}
			if err := ctx.Err(); err != nil {
				return res, err
			}
		}
		restart, replay, err := r.measureRestart(ctx, b.probes, restartsPerLife)
		if err != nil {
			return res, fmt.Errorf("life %d: %w", life, err)
		}
		restarts = append(restarts, restart...)
		replays = append(replays, replay...)
		if !last {
			if err := os.RemoveAll(r.dataDir); err != nil {
				return res, err
			}
		}
	}
	b.logf("timed phase: %d ops, %d failed", ph.ops, ph.failed)
	// The fastest start and restart: a neighbour on the host only ever
	// slows one down.
	b.vals["setup_s"] = slices.Min(setups)
	b.vals["restart_s"] = slices.Min(restarts)
	b.vals["catalog.replay_ms"] = 1e3 * slices.Min(replays)
	ph.report(b.vals)
	b.logf("setup_s runs: %.4g", setups)
	b.logf("restart_s runs: %.4g", restarts)
	b.logf("block p50 ms: %.4g", ph.column(func(s blockStat) float64 { return s.p50Ms }))
	b.logf("block ops/s: %.4g", ph.column(func(s blockStat) float64 { return s.perSec }))
	b.logf("block cpu ms/op: %.4g", ph.column(func(s blockStat) float64 { return s.cpuMsPerOp }))
	if b.vals["process.peak_rss_mb"], err = peakRSSMB(); err != nil {
		return res, err
	}

	b.logf("run done at %.1fs", time.Since(b.t0).Seconds())
	if cfg.trace {
		b.printLedger()
		if err := b.writeSpans(); err != nil {
			return res, err
		}
	}
	return result{
		ops:      ph.ops,
		failed:   ph.failed,
		correct:  ph.failed == 0 && len(b.failures) == 0,
		values:   b.vals,
		failures: b.failures,
		addr:     r.addr,
	}, nil
}

// counters is what the benchmark reads from the program's public
// monitoring surfaces around the timed phase.
type counters struct {
	mem        memCounters
	stats      server.StatsResponse
	poolHits   uint64
	poolMisses uint64
}

func (b *bench) readCounters(ctx context.Context) (counters, error) {
	st, err := b.rig.stats(ctx)
	if err != nil {
		return counters{}, err
	}
	c := counters{mem: readMem(), stats: st}
	c.poolHits, c.poolMisses = search.PoolStats()
	return c, nil
}

// reportCounters turns the before/after counter reads into the server,
// search-pool, catalog-count and process metrics.
func (b *bench) reportCounters(before, after counters, ops int) {
	v := b.vals
	hits := after.stats.Cache.Hits - before.stats.Cache.Hits
	misses := after.stats.Cache.Misses - before.stats.Cache.Misses
	if hits+misses > 0 {
		v["server.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	v["server.searches_run"] = float64(after.stats.Search.SearchesRun - before.stats.Search.SearchesRun)
	v["server.collapsed"] = float64(after.stats.Overload.Collapsed - before.stats.Overload.Collapsed)
	shed := after.stats.Overload.Shed + after.stats.Overload.RateLimited - before.stats.Overload.Shed - before.stats.Overload.RateLimited
	v["server.shed"] = float64(shed)
	if shed != 0 {
		b.failf("server shed %d requests; the benchmark runs without admission or rate limits", shed)
	}
	if ph, pm := after.poolHits-before.poolHits, after.poolMisses-before.poolMisses; ph+pm > 0 {
		v["search.pool_hit_ratio"] = float64(ph) / float64(ph+pm)
	}
	if d0, d1 := before.stats.Durability, after.stats.Durability; d0 != nil && d1 != nil {
		if appends := d1.Appends - d0.Appends; appends > 0 {
			v["catalog.syncs_per_publish"] = float64(d1.Syncs-d0.Syncs) / float64(appends)
		}
		v["catalog.compactions"] = float64(d1.Compactions - d0.Compactions)
		if appends := d1.Appends - d0.Appends; appends > 0 && d1.Compactions == d0.Compactions {
			v["catalog.journal_bytes_per_publish"] = float64(d1.JournalBytes-d0.JournalBytes) / float64(appends)
		}
		v["catalog.compact_ms"] = d1.LastCompactMs
		v["catalog.checkpoint_bytes"] = float64(d1.CheckpointBytes)
	}
	n := float64(ops)
	v["process.alloc_bytes_per_op"] = float64(after.mem.allocBytes-before.mem.allocBytes) / n
	v["process.allocs_per_op"] = float64(after.mem.mallocs-before.mem.mallocs) / n
	v["process.gc_cycles"] = float64(after.mem.gcCycles - before.mem.gcCycles)
	v["process.gc_pause_ms"] = float64(after.mem.pauseNs-before.mem.pauseNs) / 1e6
}

// reportDisk divides the data directory's bytes by the catalog size.
func (b *bench) reportDisk() error {
	disk, err := dirBytes(b.rig.dataDir)
	if err != nil {
		return err
	}
	n := b.rig.sys.DatasetCount()
	if n == 0 {
		return fmt.Errorf("catalog is empty after the timed phase")
	}
	b.vals["disk_bytes_per_feature"] = float64(disk) / float64(n)
	return nil
}

// reportSpaceAmp compares the data directory with the JSON size of the
// live features (the user data it holds).
func (b *bench) reportSpaceAmp() error {
	path := filepath.Join(b.rig.dir, "live.snap")
	if err := b.rig.sys.SaveCatalog(path); err != nil {
		return err
	}
	defer os.Remove(path)
	live, err := catalog.Load(path)
	if err != nil {
		return err
	}
	var user int64
	live.ForEach(func(f *catalog.Feature) {
		data, merr := json.Marshal(f)
		if merr != nil {
			err = merr
		}
		user += int64(len(data))
	})
	if err != nil {
		return err
	}
	disk, err := dirBytes(b.rig.dataDir)
	if err != nil {
		return err
	}
	b.vals["catalog.space_amp"] = float64(disk) / float64(user)
	return nil
}

// ledgerParts are the layer self times whose sum is the share of the
// ladder-top latency an HTTP ladder attributes.
var ledgerParts = []string{
	"http.self_ms",
	"server.self_ms", "server.decode_ms", "server.encode_ms", "server.publish_handler_self_ms",
	"metamess.hits_self_ms", "metamess.decode_publish_ms", "metamess.publish_validate_self_ms",
	"search.expand_ms", "search.plan_ms", "search.scatter_ms", "search.merge_ms", "search.explain_ms",
	"catalog.apply_delta_ms", "catalog.journal_append_ms",
}

// closeLedger computes ledger.unattributed_share for an HTTP ladder:
// one minus the self times measured so far over the ladder-top latency.
func (b *bench) closeLedger(topMs float64) {
	var sum float64
	for _, p := range ledgerParts {
		sum += b.vals[p]
	}
	b.vals["ledger.top_ms"] = topMs
	if topMs > 0 {
		b.vals["ledger.unattributed_share"] = 1 - sum/topMs
	}
}

// maxUnattributed is ROADMAP's "layers sum to within 10 % of wall time".
const maxUnattributed = 0.10

// checkLedger fails the run when the ladder's layers do not sum to the
// ladder top within maxUnattributed. Rungs are timed in separate passes
// and compared by their medians, which only settle on a sample of a few
// hundred ops; a smaller (smoke-scale) ladder is reported, not judged.
func (b *bench) checkLedger(sample int) {
	u := b.vals["ledger.unattributed_share"]
	if sample >= 200 && (u > maxUnattributed || u < -maxUnattributed) {
		b.failf("%s ledger leaves %.1f%% of the ladder top unattributed, want within %.0f%%", b.cfg.workload, 100*u, 100*maxUnattributed)
	}
}

func (b *bench) printLedger() {
	b.logf("per-layer ledger (%s), ladder top %.4f ms:", b.cfg.workload, b.vals["ledger.top_ms"])
	for _, d := range perLayer {
		b.logf("  %-40s %14.4f %s", d.name, b.vals[d.name], d.unit)
	}
}

// writeSpans dumps the in-memory spans as CSV.
func (b *bench) writeSpans() error {
	path := b.cfg.traceOut
	if path == "" {
		path = filepath.Join(workDir, "trace-"+b.cfg.workload+".csv")
	}
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	w.Write([]string{"name", "start_us", "end_us", "parent", "op"})
	for _, s := range b.spans {
		w.Write([]string{s.name,
			strconv.FormatInt(s.start.Microseconds(), 10),
			strconv.FormatInt(s.end.Microseconds(), 10),
			s.parent, strconv.Itoa(s.op)})
	}
	w.Flush()
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	b.logf("wrote %d spans to %s", len(b.spans), path)
	return nil
}

// fsType names the filesystem holding dir, by statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch magic := uint32(st.Type); magic {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	default:
		return fmt.Sprintf("0x%x", magic)
	}
}

// genQueries derives n distinct "Data Near Here" queries from the
// manifest: each anchors on a random dataset's centroid and period and
// asks for one of its variables under the raw (messy) name it carries
// in the archive, constrained to a sub-range of the variable's
// plausible values. It anchors like workload.Queries but skips that
// function's ground-truth relevance sets, which cost O(datasets) per
// query and which a latency benchmark never reads. Bodies already in
// seen are skipped, so separately seeded sets never share a query.
func genQueries(m *archive.Manifest, n int, seed int64, seen map[string]bool) ([]search.Query, [][]byte, error) {
	if seen == nil {
		seen = map[string]bool{}
	}
	typical := vocab.ByName(vocab.Standard())
	rng := rand.New(rand.NewSource(seed))
	queries := make([]search.Query, 0, n)
	bodies := make([][]byte, 0, n)
	for attempts := 0; len(queries) < n && attempts < n*20+100; attempts++ {
		d := m.Datasets[rng.Intn(len(m.Datasets))]
		var vars []archive.VarTruth
		for _, v := range d.Vars {
			if _, ok := typical[v.Canonical]; ok && v.Category != semdiv.CatExcessive {
				vars = append(vars, v)
			}
		}
		if len(vars) == 0 {
			continue
		}
		vt := vars[rng.Intn(len(vars))]
		tr := typical[vt.Canonical].Typical
		lo := tr.Min + rng.Float64()*tr.Width()/2
		rg := geo.NewValueRange(lo, lo+rng.Float64()*(tr.Max-lo))
		center, period := d.BBox.Center(), d.Time
		q := search.Query{
			Location: &center,
			Time:     &period,
			Terms:    []search.Term{{Name: vt.Raw, Range: &rg}},
			K:        10,
		}
		body, err := json.Marshal(server.RequestFromQuery(q))
		if err != nil {
			return nil, nil, err
		}
		if seen[string(body)] {
			continue
		}
		seen[string(body)] = true
		queries = append(queries, q)
		bodies = append(bodies, body)
	}
	if len(queries) < n {
		return nil, nil, fmt.Errorf("derived only %d of %d distinct queries", len(queries), n)
	}
	return queries, bodies, nil
}
