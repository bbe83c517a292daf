package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"metamess"
	"metamess/internal/obs"
	"metamess/internal/scan"
)

const (
	// churnRoundsPerSecond is the nominal round rate on the reference
	// host, a little under the measured three a second: -seconds 10 makes
	// two rounds a block.
	churnRoundsPerSecond = 2.4
	// Every round rewrites churnRewrites files, adds churnAdds and
	// removes the churnAdds files the previous round added, so the
	// archive and the catalog keep their size.
	churnRewrites = 80
	churnAdds     = 10
	// churnSettle untimed rounds run first, so the timed rounds start in
	// the delta-scoped steady state.
	churnSettle = 2
)

// churnLoad is pull ingest: each op mutates the archive on a fixed
// schedule and re-wrangles. The read path does nothing; the scanner,
// the wrangling components and the delta publish do everything.
type churnLoad struct {
	rng   *rand.Rand
	dup   map[string]bool // rewritten files currently carrying a duplicated last row
	added []string        // the files the previous round added
	round int
	steps map[string][]float64 // per-component ms, one entry per timed round
	// first is the first timed round's counts; every later one, in every
	// life, must repeat them.
	first churnCounts
	// statsPerRound is the scanner's stat calls per timed round of this
	// life.
	statsPerRound float64
}

// churnCounts are the per-round counts that must repeat exactly.
type churnCounts struct {
	filesSeen, parsed, processed int
}

// mutate applies one round of the schedule. Rewritten files toggle a
// duplicate of their last row, which changes the dataset's summary (row
// count, content hash) and none of its variable names. Every touched
// file gets a fresh mtime in the past (see archiveEpoch).
func (c *churnLoad) mutate(r *rig) error {
	base := r.manifest.Datasets
	tick := (c.round + 2) << 20
	picked := make(map[int]bool, churnRewrites)
	for len(picked) < churnRewrites && len(picked) < len(base) {
		i := c.rng.Intn(len(base))
		if picked[i] {
			continue
		}
		picked[i] = true
		rel := base[i].Path
		abs := filepath.Join(r.archive, rel)
		data, err := os.ReadFile(abs)
		if err != nil {
			return err
		}
		body := bytes.TrimRight(data, "\n")
		cut := bytes.LastIndexByte(body, '\n')
		if cut < 0 {
			return fmt.Errorf("%s has a single line", rel)
		}
		if c.dup[rel] {
			body = body[:cut]
		} else {
			body = append(append([]byte(nil), body...), body[cut:]...)
		}
		c.dup[rel] = !c.dup[rel]
		if err := os.WriteFile(abs, append(body, '\n'), 0o644); err != nil {
			return err
		}
		if err := r.stamp(rel, tick+len(picked)); err != nil {
			return err
		}
	}
	removed := c.added
	var err error
	if c.added, err = c.addFiles(r, fmt.Sprintf("churn-r%04d", c.round), tick+churnRewrites); err != nil {
		return err
	}
	for _, rel := range removed {
		if err := os.Remove(filepath.Join(r.archive, rel)); err != nil {
			return err
		}
	}
	c.round++
	return nil
}

// addFiles adds churnAdds datasets, each a copy of a random generated
// file placed beside its source under a new name.
func (c *churnLoad) addFiles(r *rig, prefix string, tick int) ([]string, error) {
	base := r.manifest.Datasets
	var added []string
	for k := 0; k < churnAdds; k++ {
		src := base[c.rng.Intn(len(base))].Path
		data, err := os.ReadFile(filepath.Join(r.archive, src))
		if err != nil {
			return nil, err
		}
		rel := filepath.Join(filepath.Dir(src), fmt.Sprintf("%s-%d%s", prefix, k, filepath.Ext(src)))
		if err := os.WriteFile(filepath.Join(r.archive, rel), data, 0o644); err != nil {
			return nil, err
		}
		if err := r.stamp(rel, tick+k); err != nil {
			return nil, err
		}
		added = append(added, rel)
	}
	return added, nil
}

// seedArchive adds the files round 0 will remove, so that every round,
// the first included, adds and removes churnAdds files.
func (c *churnLoad) seedArchive(b *bench) error {
	c.rng = rand.New(rand.NewSource(b.cfg.seed + 7))
	c.dup = map[string]bool{}
	c.steps = map[string][]float64{}
	var err error
	c.added, err = c.addFiles(b.rig, "churn-seed", 1<<20)
	return err
}

// wrangle runs one re-wrangle, traced or not, and records the
// per-component times. Unless the run is still settling (a newly
// discovered transformation rule forces one full reprocess), the delta
// and the per-round counts must match the schedule.
func (c *churnLoad) wrangle(b *bench, traced, settling bool) (time.Duration, error) {
	sys := b.rig.sys
	var tr *obs.Trace
	root := int32(-1)
	if traced {
		tr = obs.NewTrace()
		defer obs.ReleaseTrace(tr)
		root = tr.Start(-1, "wrangle-run")
	}
	t0 := time.Now()
	rep, err := sys.WrangleWithTrace(tr, root)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	tr.End(root)
	dl := rep.Delta
	wantChanged := churnRewrites
	if n := len(b.rig.manifest.Datasets); n < wantChanged {
		wantChanged = n
	}
	if !settling && (dl.Added != churnAdds || dl.Changed != wantChanged || dl.Removed != churnAdds ||
		dl.Published != churnAdds+wantChanged || dl.Retracted != churnAdds || dl.FullReprocess) {
		b.failf("round %d: delta %+v does not match the schedule (%d rewritten, %d added, %d removed)",
			c.round-1, dl, wantChanged, churnAdds, churnAdds)
	}
	perRound := map[string]float64{}
	counts := churnCounts{}
	for _, st := range rep.Steps {
		perRound[st.Component] += ms(st.Duration)
		switch st.Component {
		case "scan-archive":
			counts.filesSeen, counts.parsed = st.Counters["filesSeen"], st.Counters["parsed"]
		case "known-transforms":
			if counts.processed == 0 {
				counts.processed = st.Counters["featuresProcessed"]
			}
		}
	}
	perRound["round"] = ms(d)
	if !settling {
		for name, v := range perRound {
			c.steps[name] = append(c.steps[name], v)
		}
		if c.first == (churnCounts{}) {
			c.first = counts
		} else if counts != c.first {
			b.failf("round %d: counts %+v differ from the first round's %+v", c.round-1, counts, c.first)
		}
	}
	if tree := tr.Tree(); tree != nil {
		b.addSpan("wrangle", "", c.round-1, t0, d)
		var walk func(n *obs.SpanTree, parent string)
		walk = func(n *obs.SpanTree, parent string) {
			for _, ch := range n.Children {
				b.addSpan(ch.Name, parent, c.round-1, t0.Add(time.Duration(ch.StartUs)*time.Microsecond), time.Duration(ch.DurUs)*time.Microsecond)
				if ch.Name == "apply-delta" || ch.Name == "journal-append" {
					c.steps[ch.Name] = append(c.steps[ch.Name], float64(ch.DurUs)/1e3)
				}
				walk(ch, ch.Name)
			}
		}
		walk(tree, "wrangle")
	}
	return d, nil
}

func (c *churnLoad) prepare(ctx context.Context, b *bench) error {
	for i := 0; i < churnSettle; i++ {
		if err := c.mutate(b.rig); err != nil {
			return err
		}
		if _, err := c.wrangle(b, false, true); err != nil {
			return err
		}
	}
	return ctx.Err()
}

func (c *churnLoad) timed(ctx context.Context, b *bench, ph *phase, first, n int) error {
	_, perBlock := b.opCount(churnRoundsPerSecond)
	stat0 := scan.StatCalls()
	for blk := first; blk < first+n; blk++ {
		traced := b.tracedBlock(blk)
		lat := make([]time.Duration, perBlock)
		var wall, cpu time.Duration
		for i := range lat {
			if err := ctx.Err(); err != nil {
				return err
			}
			// The mutation is the benchmark making its input: outside the
			// op's latency, wall and CPU time.
			if err := c.mutate(b.rig); err != nil {
				return err
			}
			cpu0 := cpuTime()
			d, err := c.wrangle(b, traced, false)
			if err != nil {
				return err
			}
			cpu += cpuTime() - cpu0
			lat[i] = d
			wall += d
		}
		// Like dnhd's rewrangler, compaction runs outside the re-wrangles'
		// duration; like every workload, once per block.
		if _, err := b.rig.sys.CompactIfNeeded(); err != nil {
			return err
		}
		// Throughput is changed datasets published per second.
		ph.addBlock(lat, perBlock*(churnRewrites+churnAdds), wall, cpu, traced)
	}
	c.statsPerRound = float64(scan.StatCalls()-stat0) / float64(n*perBlock)
	return nil
}

func (c *churnLoad) verify(ctx context.Context, b *bench) error {
	// The delta-wrangled catalog must rank like a system that wrangles
	// the final archive from nothing with delta scoping off.
	fresh, err := metamess.New(metamess.Config{ArchiveRoot: b.rig.archive, FullReprocess: true})
	if err != nil {
		return err
	}
	if _, err := fresh.Wrangle(); err != nil {
		return err
	}
	want, err := rankings(ctx, fresh, b.probes)
	if err != nil {
		return err
	}
	got, err := rankings(ctx, b.rig.sys, b.probes)
	if err != nil {
		return err
	}
	for i := range want {
		if len(want[i]) == 0 {
			b.failf("probe %d ranks nothing", i)
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			b.failf("probe %d: churned system ranks differently from a fresh full reprocess", i)
		}
	}
	c.report(b)
	return ctx.Err()
}

// report writes the write path's ledger: a round's components are
// reported by the program itself (Report.Steps, and the apply-delta and
// journal-append spans of traced rounds), so the ladder is the step list
// and what it leaves of the round is the unattributed share.
func (c *churnLoad) report(b *bench) {
	v := b.vals
	step := func(name string) float64 { return median(c.steps[name]) }
	v["scan.ms_per_round"] = step("scan-archive")
	v["scan.files_seen"] = float64(c.first.filesSeen)
	v["scan.parsed"] = float64(c.first.parsed)
	v["scan.stat_calls"] = c.statsPerRound
	v["core.known_transforms_ms"] = step("known-transforms")
	v["core.discover_transforms_ms"] = step("discover-transforms")
	v["core.perform_discovered_ms"] = step("perform-discovered")
	v["core.generate_hierarchies_ms"] = step("generate-hierarchies")
	v["core.validate_ms"] = step("validate")
	v["core.publish_ms"] = step("publish")
	v["catalog.apply_delta_ms"] = step("apply-delta")
	v["catalog.journal_append_ms"] = step("journal-append")
	if changed := churnRewrites + churnAdds; c.first.processed > 0 {
		v["core.features_processed_per_changed"] = float64(c.first.processed) / float64(changed)
	}
	// The ladder top is the median round, like the steps: the best block's
	// median against every round's steps would compare a calm second of
	// the host with all thirty.
	top := step("round")
	sum := step("add-external-metadata")
	for _, name := range []string{"scan.ms_per_round", "core.known_transforms_ms", "core.discover_transforms_ms",
		"core.perform_discovered_ms", "core.generate_hierarchies_ms", "core.validate_ms", "core.publish_ms"} {
		sum += v[name]
	}
	v["ledger.top_ms"] = top
	if top > 0 {
		v["ledger.unattributed_share"] = 1 - sum/top
	}
}

// ladder has nothing to add: every round of the timed phase already
// carries its own ledger.
func (c *churnLoad) ladder(context.Context, *bench) error { return nil }
