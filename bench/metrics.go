package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json carries the same
// table; bench_test.go pins the two against each other.
type metricDef struct {
	name   string
	unit   string
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen; per-layer metrics have none.
	bound float64
	// exact marks counts that, with one client and no timers, repeat
	// exactly for a seed; -calibrate checks equality instead of spread.
	exact bool
}

// endToEnd are the seven user-visible metrics, the same on every
// workload ("op" is defined per workload).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "throughput_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.25},
	{name: "live_heap_mb", unit: "MB", better: "lower", bound: 0.05},
	{name: "disk_bytes_per_feature", unit: "B", better: "lower", bound: 0.02},
	{name: "restart_s", unit: "s", better: "lower", bound: 0.25},
}

// perLayer are the traced run's metrics, layer = module name. A layer a
// workload bypasses reports 0.
var perLayer = []metricDef{
	{name: "http.self_ms", unit: "ms", better: "lower"},
	{name: "http.resp_bytes_per_op", unit: "B", better: "lower"},

	{name: "server.handler_ms", unit: "ms", better: "lower"},
	{name: "server.decode_ms", unit: "ms", better: "lower"},
	{name: "server.encode_ms", unit: "ms", better: "lower"},
	{name: "server.self_ms", unit: "ms", better: "lower"},
	{name: "server.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "server.searches_run", unit: "count", better: "lower"},
	{name: "server.collapsed", unit: "count", better: "lower"},
	{name: "server.shed", unit: "count", better: "lower"},
	{name: "server.publish_handler_self_ms", unit: "ms", better: "lower"},

	{name: "metamess.search_ms", unit: "ms", better: "lower"},
	{name: "metamess.hits_self_ms", unit: "ms", better: "lower"},
	{name: "metamess.decode_publish_ms", unit: "ms", better: "lower"},
	{name: "metamess.publish_ms", unit: "ms", better: "lower"},
	{name: "metamess.publish_validate_self_ms", unit: "ms", better: "lower"},

	{name: "search.core_ms", unit: "ms", better: "lower"},
	{name: "search.expand_ms", unit: "ms", better: "lower"},
	{name: "search.plan_ms", unit: "ms", better: "lower"},
	{name: "search.scatter_ms", unit: "ms", better: "lower"},
	{name: "search.merge_ms", unit: "ms", better: "lower"},
	{name: "search.explain_ms", unit: "ms", better: "lower"},
	{name: "search.candidates_per_result", unit: "ratio", better: "lower"},
	{name: "search.pool_hit_ratio", unit: "ratio", better: "higher"},

	{name: "catalog.apply_delta_ms", unit: "ms", better: "lower"},
	{name: "catalog.journal_append_ms", unit: "ms", better: "lower"},
	{name: "catalog.journal_bytes_per_publish", unit: "B", better: "lower"},
	{name: "catalog.syncs_per_publish", unit: "ratio", better: "lower", exact: true},
	{name: "catalog.compactions", unit: "count", better: "lower", exact: true},
	{name: "catalog.compact_ms", unit: "ms", better: "lower"},
	{name: "catalog.checkpoint_bytes", unit: "B", better: "lower"},
	{name: "catalog.replay_ms", unit: "ms", better: "lower"},
	{name: "catalog.space_amp", unit: "ratio", better: "lower"},

	{name: "scan.ms_per_round", unit: "ms", better: "lower"},
	{name: "scan.files_seen", unit: "count", better: "lower", exact: true},
	{name: "scan.parsed", unit: "count", better: "lower", exact: true},
	{name: "scan.stat_calls", unit: "count", better: "lower", exact: true},

	{name: "core.known_transforms_ms", unit: "ms", better: "lower"},
	{name: "core.discover_transforms_ms", unit: "ms", better: "lower"},
	{name: "core.perform_discovered_ms", unit: "ms", better: "lower"},
	{name: "core.generate_hierarchies_ms", unit: "ms", better: "lower"},
	{name: "core.validate_ms", unit: "ms", better: "lower"},
	{name: "core.publish_ms", unit: "ms", better: "lower"},
	{name: "core.features_processed_per_changed", unit: "ratio", better: "lower", exact: true},

	{name: "process.alloc_bytes_per_op", unit: "B", better: "lower"},
	{name: "process.allocs_per_op", unit: "count", better: "lower"},
	{name: "process.gc_cycles", unit: "count", better: "lower"},
	{name: "process.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "process.peak_rss_mb", unit: "MB", better: "lower"},

	{name: "client.latency_p90_ms", unit: "ms", better: "lower"},
	{name: "client.latency_p99_ms", unit: "ms", better: "lower"},
	{name: "client.latency_p999_ms", unit: "ms", better: "lower"},
	{name: "client.samples", unit: "count", better: "higher"},
	{name: "client.block_spread", unit: "ratio", better: "lower"},
	{name: "client.read_latency_p50_ms", unit: "ms", better: "lower"},
	{name: "bench.generate_s", unit: "s", better: "lower"},
	{name: "ledger.unattributed_share", unit: "ratio", better: "lower"},
	{name: "trace.overhead_share", unit: "ratio", better: "lower"},
}

// blocks is the number of equal-work blocks in a timed phase, spread
// over the run's lives. A run reports its best block (lowest median
// latency, highest throughput, lowest CPU per op, each on its own): on a
// shared host a neighbour only ever slows a block down, so the best of
// several equal blocks is the estimate least moved by the host and most
// moved by the code.
const blocks = lives * blocksPerLife

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the q-quantile (nearest rank) of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is (max-min)/median: the relative disagreement of repeats.
func spread(v []float64) float64 {
	s := sortedCopy(v)
	if len(s) == 0 {
		return 0
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / math.Abs(m)
}

func durationsMs(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = ms(x)
	}
	return out
}

// cpuTime is the process's user+system CPU so far. Unlike wall time it
// does not count the cycles a shared host gave to a neighbour.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB is the heap still in use after a forced collection: what
// the node retains — catalogs, snapshot indexes, response cache — plus
// the load generator's own (fixed-size) inputs. Unlike the resident
// high-water mark it does not depend on where in a GC cycle the
// allocation peaks happened to land.
func liveHeapMB() float64 {
	// Twice: sync.Pool contents survive one collection as victims.
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not in /proc/self/status")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// memCounters is the slice of runtime.MemStats the process layer
// reports deltas of.
type memCounters struct {
	allocBytes, mallocs, pauseNs uint64
	gcCycles                     uint32
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{allocBytes: m.TotalAlloc, mallocs: m.Mallocs, pauseNs: m.PauseTotalNs, gcCycles: m.NumGC}
}

// blockStat is one timed block's three per-block metrics, and whether
// the block ran with tracing on (traced runs alternate, so one process
// yields both sides of trace.overhead_share).
type blockStat struct {
	p50Ms, perSec, cpuMsPerOp float64
	traced                    bool
}

// phase collects a timed phase: per-block stats for the best-block
// metrics, and every op latency for the (ungated) tails.
type phase struct {
	stats     []blockStat
	latencies []float64 // ms, all blocks
	readsMs   []float64 // publish-steady's search latencies
	ops       int
	failed    int
}

// addBlock folds one block in: lat are its op latencies, work the
// number of throughput units it completed in wall, cpu its CPU time.
func (p *phase) addBlock(lat []time.Duration, work int, wall, cpu time.Duration, traced bool) {
	l := durationsMs(lat)
	p.latencies = append(p.latencies, l...)
	p.ops += len(lat)
	p.stats = append(p.stats, blockStat{
		p50Ms:      median(l),
		perSec:     float64(work) / wall.Seconds(),
		cpuMsPerOp: ms(cpu) / float64(len(lat)),
		traced:     traced,
	})
}

func (p *phase) column(f func(blockStat) float64) []float64 {
	out := make([]float64, len(p.stats))
	for i, s := range p.stats {
		out[i] = f(s)
	}
	return out
}

// report writes the phase's end-to-end and client metrics into vals.
func (p *phase) report(vals map[string]float64) {
	p50s := p.column(func(b blockStat) float64 { return b.p50Ms })
	vals["latency_p50_ms"] = slices.Min(p50s)
	vals["throughput_per_s"] = slices.Max(p.column(func(b blockStat) float64 { return b.perSec }))
	vals["cpu_ms_per_op"] = slices.Min(p.column(func(b blockStat) float64 { return b.cpuMsPerOp }))
	all := sortedCopy(p.latencies)
	vals["client.latency_p90_ms"] = percentile(all, 0.90)
	vals["client.latency_p99_ms"] = percentile(all, 0.99)
	vals["client.latency_p999_ms"] = percentile(all, 0.999)
	vals["client.samples"] = float64(len(all))
	vals["client.block_spread"] = spread(p50s)
	vals["client.read_latency_p50_ms"] = median(p.readsMs)
	var on, off []float64
	for _, b := range p.stats {
		if b.traced {
			on = append(on, b.p50Ms)
		} else {
			off = append(off, b.p50Ms)
		}
	}
	if len(on) > 0 && len(off) > 0 {
		vals["trace.overhead_share"] = slices.Min(on)/slices.Min(off) - 1
	}
}
