package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"time"

	"metamess"
	"metamess/internal/catalog"
	"metamess/internal/search"
	"metamess/internal/workload"
)

const (
	// publishCyclesPerSecond is the nominal cycle rate on the reference
	// host.
	publishCyclesPerSecond = 110
	// pushBatches × pushBatchSize features are preloaded; every timed
	// publish replaces one whole batch, so the catalog never grows.
	pushBatches   = 80
	pushBatchSize = 25
	// readsPerCycle searches follow each publish, so a publish made
	// cheap by deferring index work to the next read does not score.
	readsPerCycle = 4
	// publishLadderPerSecond sizes the ladder sample: publishes fsync,
	// so the sample is smaller than the search ladders'.
	publishLadderPerSecond = 30
)

// publishLoad is writes beside reads: one client alternates a POST
// /publish that replaces one preloaded batch with new content and
// readsPerCycle searches. It exercises ApplyDelta, journal append +
// fsync, generation-keyed cache invalidation and the first read after a
// publish — the layers the search workloads bypass.
type publishLoad struct {
	readQ     []search.Query
	reads     [][]byte
	readOrder []int
	cycle     int // next global cycle; cycle c rewrites batch c % pushBatches
	datasets  int // catalog size, constant once a life has preloaded
	lastBody  []byte
}

func (p *publishLoad) seedArchive(*bench) error { return nil }

// bodies returns the publish bodies of cycles [from, from+n). Content
// version c / pushBatches reseeds the generator, so batch k of version
// v has the paths of batch k of version 0 and new content.
func (p *publishLoad) bodies(b *bench, from, n int) ([][]byte, error) {
	out := make([][]byte, 0, n)
	var reqs []workload.HTTPRequest
	version := -1
	for c := from; c < from+n; c++ {
		if v := c / pushBatches; v != version {
			var err error
			if reqs, err = workload.PublishRequests("", pushBatches, pushBatchSize, b.cfg.seed+100+int64(v)); err != nil {
				return nil, err
			}
			version = v
		}
		out = append(out, reqs[c%pushBatches].Body)
	}
	return out, nil
}

// publish posts one batch and checks its receipt: the generation moves
// by exactly one, all pushBatchSize features change, and the catalog
// keeps its size.
func (p *publishLoad) publish(ctx context.Context, b *bench, body []byte, buf *bytes.Buffer, prevGen uint64) (gen uint64, lat time.Duration, ok bool) {
	status, _, lat, err := b.rig.post(ctx, "/publish", body, buf)
	if err != nil || status != http.StatusOK {
		return prevGen, lat, false
	}
	var rc metamess.PublishReceipt
	if err := json.Unmarshal(buf.Bytes(), &rc); err != nil {
		return prevGen, lat, false
	}
	ok = rc.Generation == prevGen+1 && rc.Published == pushBatchSize && rc.Retracted == 0 &&
		(p.datasets == 0 || rc.Datasets == p.datasets)
	return rc.Generation, lat, ok
}

// prepare preloads the node: any pushBatches consecutive cycles rewrite
// every batch once, so the catalog reaches its constant size whichever
// cycle the life starts at.
func (p *publishLoad) prepare(ctx context.Context, b *bench) error {
	preload, err := p.bodies(b, p.cycle, pushBatches)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	gen := b.rig.sys.SnapshotGeneration()
	p.datasets = 0
	for i, body := range preload {
		var ok bool
		if gen, _, ok = p.publish(ctx, b, body, &buf, gen); !ok {
			return fmt.Errorf("preload batch %d rejected: %s", i, buf.String())
		}
	}
	p.cycle += pushBatches
	p.datasets = b.rig.sys.DatasetCount()
	if want := len(b.rig.manifest.Datasets) + pushBatches*pushBatchSize; p.datasets != want {
		return fmt.Errorf("preloaded catalog holds %d datasets, want %d", p.datasets, want)
	}
	if _, err := b.rig.sys.CompactIfNeeded(); err != nil {
		return err
	}
	if p.reads == nil {
		total, _ := b.opCount(publishCyclesPerSecond)
		if p.readQ, p.reads, err = genQueries(b.rig.manifest, hotKeys, b.cfg.seed+1, nil); err != nil {
			return err
		}
		p.readOrder = workload.ZipfIndices(total*readsPerCycle, hotKeys, zipfS, b.cfg.seed+2)
	}
	return ctx.Err()
}

func (p *publishLoad) timed(ctx context.Context, b *bench, ph *phase, first, n int) error {
	_, perBlock := b.opCount(publishCyclesPerSecond)
	var buf bytes.Buffer
	gen := b.rig.sys.SnapshotGeneration()
	read := first * perBlock * readsPerCycle
	for blk := first; blk < first+n; blk++ {
		bodies, err := p.bodies(b, p.cycle, perBlock)
		if err != nil {
			return err
		}
		traced := b.tracedBlock(blk)
		lat := make([]time.Duration, perBlock)
		cpu0, t0 := cpuTime(), time.Now()
		for i, body := range bodies {
			if err := ctx.Err(); err != nil {
				return err
			}
			at := time.Now()
			var ok bool
			gen, lat[i], ok = p.publish(ctx, b, body, &buf, gen)
			if !ok {
				ph.failed++
			}
			if traced {
				b.addSpan("client.op", "", p.cycle+i, at, lat[i])
			}
			for k := 0; k < readsPerCycle; k++ {
				status, _, d, err := b.rig.post(ctx, "/search", p.reads[p.readOrder[read]], &buf)
				read++
				if err != nil || !okStatus(0, status, nil, buf.Bytes()) {
					ph.failed++
				}
				ph.readsMs = append(ph.readsMs, ms(d))
			}
		}
		// Compaction is driven by op count, never by a timer: once per
		// block, inside the block's throughput and CPU time and outside
		// the publish latencies.
		if compacted, err := b.rig.sys.CompactIfNeeded(); err != nil {
			return err
		} else if !compacted {
			b.failf("block %d ended without a compaction; blocks no longer do equal work", blk)
		}
		wall, cpu := time.Since(t0), cpuTime()-cpu0
		p.cycle += perBlock
		p.lastBody = bodies[perBlock-1]
		ph.addBlock(lat, perBlock, wall, cpu, traced)
	}
	return nil
}

func (p *publishLoad) verify(ctx context.Context, b *bench) error {
	if n := b.rig.sys.DatasetCount(); n != p.datasets {
		b.failf("catalog holds %d datasets after the timed phase, want %d", n, p.datasets)
	}
	// A probe anchored on a just-pushed feature must rank its path.
	req, err := metamess.DecodePublishRequest(p.lastBody)
	if err != nil {
		return err
	}
	f := req.Features[0]
	center, period := f.BBox.Center(), f.Time
	hits, _, err := b.rig.sys.SearchPartialContext(ctx, facadeQuery(search.Query{
		Location: &center, Time: &period, Terms: []search.Term{{Name: f.Variables[0].Name}}, K: 10,
	}))
	if err != nil {
		return err
	}
	found := false
	for _, h := range hits {
		found = found || h.Path == f.Path
	}
	if !found {
		b.failf("probe for just-pushed %s does not rank it", f.Path)
	}
	return nil
}

// ladder times single-client publishes at four rungs — full HTTP, the
// handler on a recorder, DecodePublishRequest + System.PublishFeatures,
// and ApplyDelta + AppendPublish on scratch copies of the catalog and
// the store. Every rung publishes real replacements (fresh content for
// the next batches in turn), since a replayed batch would be a no-op.
// The rungs take turns chunk by chunk (see ladderChunks).
func (p *publishLoad) ladder(ctx context.Context, b *bench) error {
	r := b.rig
	n := b.ladderOps(publishLadderPerSecond)
	next := func(k int) ([][]byte, error) {
		bodies, err := p.bodies(b, p.cycle, k)
		p.cycle += k
		return bodies, err
	}
	httpMs, handlerMs := make([]float64, n), make([]float64, n)
	decodeMs, publishMs := make([]float64, n), make([]float64, n)
	applyMs, appendMs := make([]float64, n), make([]float64, n)
	var respBytes int
	var buf bytes.Buffer
	handler := r.srv.Handler()

	// The scratch rung's catalog and store: the node's catalog content
	// and its journal sidecar, in values the benchmark owns. They are
	// made after the first facade publishes, when the journal is sure to
	// hold a record to read the sidecar from.
	var scratch *catalog.Catalog
	var store *catalog.Store
	var sidecar []byte
	defer func() {
		if store != nil {
			store.Close()
		}
	}()

	for _, c := range chunkBounds(n) {
		if err := ctx.Err(); err != nil {
			return err
		}
		lo, hi := c[0], c[1]
		bodies, err := next(hi - lo)
		if err != nil {
			return err
		}
		gen := r.sys.SnapshotGeneration()
		for k, body := range bodies {
			at := time.Now()
			var d time.Duration
			var ok bool
			if gen, d, ok = p.publish(ctx, b, body, &buf, gen); !ok {
				return fmt.Errorf("ladder http publish %d rejected: %s", lo+k, buf.String())
			}
			b.addSpan("http", "", lo+k, at, d)
			httpMs[lo+k] = ms(d)
			respBytes += buf.Len()
		}

		if bodies, err = next(hi - lo); err != nil {
			return err
		}
		for k, body := range bodies {
			req := httptest.NewRequest(http.MethodPost, "/publish", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			handlerMs[lo+k] = ms(b.timeCall("server.handler", "http", lo+k, func() { handler.ServeHTTP(rec, req) }))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("ladder handler publish %d: status %d: %s", lo+k, rec.Code, rec.Body)
			}
		}

		if bodies, err = next(hi - lo); err != nil {
			return err
		}
		for k, body := range bodies {
			var req *metamess.PublishRequest
			var err error
			decodeMs[lo+k] = ms(b.timeCall("metamess.decode_publish", "server.handler", lo+k, func() {
				req, err = metamess.DecodePublishRequest(body)
			}))
			if err != nil {
				return err
			}
			publishMs[lo+k] = ms(b.timeCall("metamess.publish", "server.handler", lo+k, func() {
				_, err = r.sys.PublishFeatures(req)
			}))
			if err != nil {
				return err
			}
		}

		if scratch == nil {
			snap := filepath.Join(r.dir, "scratch.snap")
			if err := r.sys.SaveCatalog(snap); err != nil {
				return err
			}
			if scratch, err = catalog.Load(snap); err != nil {
				return err
			}
			if sidecar, err = lastSidecar(r.sys); err != nil {
				return err
			}
			store, err = catalog.OpenStore(filepath.Join(r.dir, "scratch-store"), catalog.New(), catalog.StoreOptions{Sync: catalog.SyncAlways})
			if err != nil {
				return err
			}
		}
		if bodies, err = next(hi - lo); err != nil {
			return err
		}
		for k, body := range bodies {
			req, err := metamess.DecodePublishRequest(body)
			if err != nil {
				return err
			}
			owned := make([]*catalog.Feature, len(req.Features))
			for f := range req.Features {
				owned[f] = req.Features[f].Clone()
			}
			applyMs[lo+k] = ms(b.timeCall("catalog.apply_delta", "metamess.publish", lo+k, func() {
				_, err = scratch.ApplyDelta(owned, nil)
			}))
			if err != nil {
				return err
			}
			appendMs[lo+k] = ms(b.timeCall("catalog.journal_append", "metamess.publish", lo+k, func() {
				err = store.AppendPublish(scratch.Generation(), req.Features, nil, sidecar)
			}))
			if err != nil {
				return err
			}
		}
	}
	st := store.Stats()

	v := b.vals
	v["http.resp_bytes_per_op"] = float64(respBytes) / float64(n)
	v["server.handler_ms"] = median(handlerMs)
	v["metamess.decode_publish_ms"] = median(decodeMs)
	v["metamess.publish_ms"] = median(publishMs)
	v["catalog.apply_delta_ms"] = median(applyMs)
	v["catalog.journal_append_ms"] = median(appendMs)
	v["catalog.journal_bytes_per_publish"] = float64(st.JournalBytes) / float64(st.Appends)
	v["http.self_ms"] = clamp0(median(httpMs) - v["server.handler_ms"])
	v["server.publish_handler_self_ms"] = clamp0(v["server.handler_ms"] - v["metamess.decode_publish_ms"] - v["metamess.publish_ms"])
	v["metamess.publish_validate_self_ms"] = clamp0(v["metamess.publish_ms"] - v["catalog.apply_delta_ms"] - v["catalog.journal_append_ms"])
	b.closeLedger(median(httpMs))
	b.checkLedger(n)
	// The reads beside the publishes run the search core cold. Their
	// stage times are reported after the publish ledger is closed: they
	// are no part of a publish.
	var stages stageSamples
	if err := b.coreStages(ctx, p.readQ, 0, &stages); err != nil {
		return err
	}
	stages.report(v)
	return nil
}

// lastSidecar reads the knowledge-epoch sidecar off the newest journal
// record, through the replication tail.
func lastSidecar(sys *metamess.System) ([]byte, error) {
	frames, gen, _, err := sys.JournalTail(sys.DurableGeneration()-1, 0)
	if err != nil {
		return nil, err
	}
	line := strings.TrimRight(string(frames), "\n")
	if i := strings.LastIndexByte(line, '\n'); i >= 0 {
		line = line[i+1:]
	}
	if line == "" {
		return nil, fmt.Errorf("journal tail at generation %d is empty", gen)
	}
	rec, err := catalog.DecodeDeltaFrame(line)
	if err != nil {
		return nil, err
	}
	return rec.Sidecar, nil
}
