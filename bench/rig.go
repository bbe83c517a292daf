package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"metamess"
	"metamess/internal/archive"
	"metamess/internal/search"
	"metamess/internal/server"
)

// archiveEpoch is the mtime the benchmark stamps on generated files.
// The scanner re-reads any file whose mtime is within two seconds of
// the scan that recorded it (its racy-mtime guard); stamping inputs
// into the past makes every scan trust stat fingerprints, so scan work
// depends on the mutation schedule and not on when the run started.
var archiveEpoch = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

// rig is one run's system under test: a generated archive, a durable
// metamess.System over it, an in-process dnhd server, and the client
// that drives it. Everything lives under dir and is gone after close.
type rig struct {
	dir      string
	archive  string
	dataDir  string
	manifest *archive.Manifest

	sys    *metamess.System
	srv    *server.Server
	addr   string // the loopback address the node listens on
	client *http.Client
}

// newRig makes the run directory and generates the archive from seed.
func newRig(cfg config) (*rig, time.Duration, error) {
	// A directory of this name can only be what a killed process with
	// this process's id left behind.
	dir := cfg.runDir
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	var err error
	r := &rig{
		dir:     dir,
		archive: filepath.Join(dir, "archive"),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        maxClients,
			MaxIdleConnsPerHost: maxClients,
		}},
	}
	start := time.Now()
	r.manifest, err = archive.Generate(r.archive, archive.DefaultGenConfig(cfg.datasets, cfg.seed))
	if err != nil {
		r.close()
		return nil, 0, err
	}
	for i, d := range r.manifest.Datasets {
		if err := r.stamp(d.Path, i); err != nil {
			r.close()
			return nil, 0, err
		}
	}
	return r, time.Since(start), nil
}

// stamp sets an archive file's mtime to archiveEpoch + tick seconds.
func (r *rig) stamp(rel string, tick int) error {
	at := archiveEpoch.Add(time.Duration(tick) * time.Second)
	return os.Chtimes(filepath.Join(r.archive, rel), at, at)
}

// sysConfig is the node configuration every workload runs: durable,
// fsync on every publish, default shards and workers. Compaction is
// driven by op count: dnhd compacts when the journal has outgrown the
// checkpoint, which on these sizes is every few hundred publishes, so
// some timed blocks would carry a compaction and others none. With the
// thresholds at their floor every CompactIfNeeded call compacts; the
// benchmark makes one per block, and all blocks do equal work.
func (r *rig) sysConfig() metamess.Config {
	return metamess.Config{
		ArchiveRoot: r.archive, DataDir: r.dataDir, SyncPolicy: "always",
		CompactRatio: 1e-9, CompactMinBytes: 1,
	}
}

// startNode brings a node up the way dnhd does — New, first Wrangle,
// compaction check, listen — and returns the time from New until the
// first search is answered over HTTP, which is what setup_s reports.
func (r *rig) startNode(ctx context.Context, probe search.Query) (time.Duration, error) {
	var err error
	if r.dataDir, err = os.MkdirTemp(r.dir, "data-"); err != nil {
		return 0, err
	}
	start := time.Now()
	if r.sys, err = metamess.New(r.sysConfig()); err != nil {
		return 0, err
	}
	rep, err := r.sys.Wrangle()
	if err != nil {
		return 0, err
	}
	if rep.Datasets == 0 {
		return 0, fmt.Errorf("first wrangle published no datasets")
	}
	if _, err := r.sys.CompactIfNeeded(); err != nil {
		return 0, err
	}
	if err := r.listen(); err != nil {
		return 0, err
	}
	body, err := json.Marshal(server.RequestFromQuery(probe))
	if err != nil {
		return 0, err
	}
	if status, _, _, err := r.post(ctx, "/search", body, new(bytes.Buffer)); err != nil || status != http.StatusOK {
		return 0, fmt.Errorf("first search: status %d: %v", status, err)
	}
	return time.Since(start), nil
}

// listen starts the in-process server with dnhd's defaults except
// StaleWindow, which is off: a time-triggered serving mode would make a
// response depend on when the previous publish happened to land.
func (r *rig) listen() error {
	srv, err := server.New(server.Config{Sys: r.sys})
	if err != nil {
		return err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	r.srv, r.addr = srv, addr.String()
	return nil
}

// stopNode shuts the server down and closes the journal. The data
// directory stays for restarts.
func (r *rig) stopNode() error {
	var first error
	if r.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		first = r.srv.Shutdown(ctx)
		cancel()
		r.srv = nil
	}
	if r.sys != nil {
		if err := r.sys.Close(); err != nil && first == nil {
			first = err
		}
		r.sys = nil
	}
	return first
}

// close stops whatever still runs and removes the run directory. It is
// the one exit path: success, failed check, signal and watchdog all
// reach it through run's defer.
func (r *rig) close() error {
	err := r.stopNode()
	if t, ok := r.client.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
	if rmErr := os.RemoveAll(r.dir); rmErr != nil && err == nil {
		err = rmErr
	}
	return err
}

// post sends one JSON POST and reads the whole response into buf. The
// latency runs from before the request is built until the body is read.
// The request ends with ctx, so a server that stops answering cannot
// hold the load generator past the run's watchdog.
func (r *rig) post(ctx context.Context, path string, body []byte, buf *bytes.Buffer) (status int, hdr http.Header, lat time.Duration, err error) {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+r.addr+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header, time.Since(t0), err
}

// stats fetches the server's /stats.
func (r *rig) stats(ctx context.Context) (server.StatsResponse, error) {
	var st server.StatsResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+r.addr+"/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// facadeQuery is the metamess.Query the server builds from the wire
// form of q — the query the facade rungs and the output checks call
// System.SearchPartialContext with.
func facadeQuery(q search.Query) metamess.Query {
	out := metamess.Query{K: q.K}
	if q.Location != nil {
		out.Near = &metamess.LatLon{Lat: q.Location.Lat, Lon: q.Location.Lon}
	}
	if q.Time != nil {
		out.From, out.To = q.Time.Start, q.Time.End
	}
	for _, t := range q.Terms {
		v := metamess.VariableTerm{Name: t.Name}
		if t.Range != nil {
			lo, hi := t.Range.Min, t.Range.Max
			v.Min, v.Max = &lo, &hi
		}
		out.Variables = append(out.Variables, v)
	}
	return out
}

// rankings runs the probe queries through the facade.
func rankings(ctx context.Context, sys *metamess.System, probes []search.Query) ([][]metamess.Hit, error) {
	out := make([][]metamess.Hit, len(probes))
	for i, q := range probes {
		hits, partial, err := sys.SearchPartialContext(ctx, facadeQuery(q))
		if err != nil || partial {
			return nil, fmt.Errorf("probe %d: partial=%v err=%v", i, partial, err)
		}
		out[i] = hits
	}
	return out, nil
}

// measureRestart closes the node and reopens its data directory n
// times, each time from a collected heap. Each reopen must come back at
// the pre-restart generation with identical probe rankings. It returns,
// in seconds, every reopen's time from OpenDurable until the first probe
// is answered, and its OpenDurable alone (checkpoint + journal replay).
func (r *rig) measureRestart(ctx context.Context, probes []search.Query, n int) (restart, replay []float64, err error) {
	gen := r.sys.SnapshotGeneration()
	want, err := rankings(ctx, r.sys, probes)
	if err != nil {
		return nil, nil, err
	}
	if err := r.stopNode(); err != nil {
		return nil, nil, err
	}
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		sys, err := metamess.OpenDurable(r.sysConfig())
		if err != nil {
			return nil, nil, err
		}
		opened := time.Since(t0)
		first, err := rankings(ctx, sys, probes[:1])
		answered := time.Since(t0)
		if err == nil && sys.SnapshotGeneration() != gen {
			err = fmt.Errorf("restart %d: generation %d, want %d", i, sys.SnapshotGeneration(), gen)
		}
		if err == nil && !reflect.DeepEqual(first[0], want[0]) {
			err = fmt.Errorf("restart %d: first probe ranks differently", i)
		}
		var got [][]metamess.Hit
		if err == nil {
			got, err = rankings(ctx, sys, probes)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			err = fmt.Errorf("restart %d: probe rankings differ from before the restart", i)
		}
		if cerr := sys.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, nil, err
		}
		restart = append(restart, answered.Seconds())
		replay = append(replay, opened.Seconds())
	}
	return restart, replay, nil
}
