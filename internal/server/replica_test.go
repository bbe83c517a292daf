package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"metamess"
	"metamess/internal/archive"
	"metamess/internal/catalog"
	"metamess/internal/workload"
)

// newDurableLeader builds a wrangled durable system and serves it — the
// leader every replication test tails. CompactMinBytes=1 so a
// CompactIfNeeded call always compacts, letting tests force rotations.
func newDurableLeader(t testing.TB, n int, seed int64) (*metamess.System, *httptest.Server, string) {
	t.Helper()
	root := t.TempDir()
	if _, err := archive.Generate(root, archive.DefaultGenConfig(n, seed)); err != nil {
		t.Fatal(err)
	}
	sys, err := metamess.OpenDurable(metamess.Config{
		ArchiveRoot:     root,
		DataDir:         t.TempDir(),
		CompactMinBytes: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Sys: sys})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return sys, ts, root
}

// newFollower opens a durable follower (its catalog comes only from
// replication) and starts a fast-polling replicator against the leader.
func newFollower(t testing.TB, leaderURL, dataDir string) (*metamess.System, *Replicator) {
	t.Helper()
	sys, err := metamess.OpenDurable(metamess.Config{
		ArchiveRoot: t.TempDir(), // throwaway: a follower never wrangles
		DataDir:     dataDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	rep, err := NewReplicator(ReplicaConfig{
		Leader:   leaderURL,
		Sys:      sys,
		PollWait: 50 * time.Millisecond,
		Backoff:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Start()
	t.Cleanup(rep.Stop)
	return sys, rep
}

func waitForGeneration(t testing.TB, sys *metamess.System, want uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for sys.SnapshotGeneration() < want {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at generation %d, want %d", sys.SnapshotGeneration(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// publish lands one more generation on the leader by dropping fresh
// datasets into the archive and re-wrangling.
func publish(t testing.TB, sys *metamess.System, root string, seed int64) uint64 {
	t.Helper()
	before := sys.SnapshotGeneration()
	sub := filepath.Join(root, fmt.Sprintf("extra-%d", seed))
	if _, err := archive.Generate(sub, archive.DefaultGenConfig(6, seed)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	after := sys.SnapshotGeneration()
	if after <= before {
		t.Fatalf("publish did not advance the generation (%d -> %d)", before, after)
	}
	return after
}

// equivalenceQueries are the probes the battery replays against both
// nodes; rankings must be byte-identical at the same generation.
func equivalenceQueries(t testing.TB) [][]byte {
	t.Helper()
	reqs := []SearchRequest{
		{Variables: []Variable{{Name: "temperature"}}, K: 10},
		{Variables: []Variable{{Name: "salinity"}, {Name: "temperature"}}, K: 5},
		{Near: &LatLon{Lat: 46.2, Lon: -123.8}, Variables: []Variable{{Name: "temperature"}}, K: 8},
	}
	out := make([][]byte, 0, len(reqs))
	for _, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// assertByteIdentical replays the probe queries against both servers
// and requires identical generation headers and identical bodies.
func assertByteIdentical(t testing.TB, leaderURL, followerURL string) {
	t.Helper()
	for i, q := range equivalenceQueries(t) {
		ls, lh, lb := postJSON(t, leaderURL+"/search", q)
		fs, fh, fb := postJSON(t, followerURL+"/search", q)
		if ls != http.StatusOK || fs != http.StatusOK {
			t.Fatalf("query %d: leader %d, follower %d", i, ls, fs)
		}
		if lg, fg := lh.Get("X-Dnhd-Generation"), fh.Get("X-Dnhd-Generation"); lg != fg {
			t.Fatalf("query %d: generation header %s (leader) vs %s (follower)", i, lg, fg)
		}
		if !bytes.Equal(lb, fb) {
			t.Fatalf("query %d: rankings differ at the same generation\nleader:   %s\nfollower: %s", i, lb, fb)
		}
	}
}

// TestLeaderFollowerEquivalence is the battery the tentpole is proven
// by: a follower tails a live leader through multiple publishes and a
// compaction, restarts, and at every checkpoint serves byte-identical
// rankings at the leader's generation.
func TestLeaderFollowerEquivalence(t *testing.T) {
	lsys, lts, root := newDurableLeader(t, 24, 7)
	fdir := t.TempDir()
	fsys, rep := newFollower(t, lts.URL, fdir)

	fsrv, err := New(Config{Sys: fsys, Replica: rep})
	if err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(fsrv.Handler())
	defer fts.Close()

	// Initial catch-up (the wrangled generation), then three live
	// publishes, each verified byte-identical after replication.
	waitForGeneration(t, fsys, lsys.SnapshotGeneration())
	assertByteIdentical(t, lts.URL, fts.URL)

	// Readers keep querying the follower, round after round, for as long
	// as the leader publishes; not one request may fail.
	m, err := archive.ReadManifest(filepath.Join(root, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var reqs []workload.HTTPRequest
	for _, body := range searchBody(t, m, 100, 31) {
		reqs = append(reqs, workload.HTTPRequest{Method: http.MethodPost, URL: fts.URL + "/search", Body: body})
	}
	stopReaders := make(chan struct{})
	readers := make(chan string, 1)
	go func() {
		for rounds := 1; ; rounds++ {
			st, err := workload.Replay(context.Background(), reqs, workload.LoadOptions{Concurrency: 4})
			if err != nil || st.Errors != 0 {
				readers <- fmt.Sprintf("round %d: err %v, %d errors, status %+v", rounds, err, st.Errors, st.Status)
				return
			}
			select {
			case <-stopReaders:
				readers <- ""
				return
			default:
			}
		}
	}()

	for i, seed := range []int64{101, 202, 303} {
		gen := publish(t, lsys, root, seed)
		waitForGeneration(t, fsys, gen)
		assertByteIdentical(t, lts.URL, fts.URL)
		if i == 1 {
			// A compaction mid-stream, with the follower caught up: the
			// rotation must not force a resync (the checkpoint lands exactly
			// at the follower's generation) and the next publish must tail
			// cleanly from the fresh journal.
			if _, err := lsys.CompactIfNeeded(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stopReaders)
	if failure := <-readers; failure != "" {
		t.Fatalf("follower replay during publishes failed: %s", failure)
	}
	if got := rep.Stats().Resyncs; got != 0 {
		t.Errorf("live follower resynced %d times; the tail should have covered every publish", got)
	}

	// The follower's /stats and /readyz carry the replication section.
	status, _, body := get(t, fts.URL+"/stats")
	if status != http.StatusOK {
		t.Fatalf("follower stats: %d", status)
	}
	var stats StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Replication == nil {
		t.Fatal("follower /stats has no replication section")
	}
	if !stats.Replication.Ready || stats.Replication.LagGenerations != 0 {
		t.Errorf("caught-up follower reports %+v", stats.Replication)
	}
	status, _, body = get(t, fts.URL+"/readyz")
	if status != http.StatusOK || !bytes.Contains(body, []byte(`"replication"`)) {
		t.Errorf("follower readyz: %d %s", status, body)
	}
	status, _, body = get(t, fts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("follower metrics: %d", status)
	}
	for _, family := range []string{
		"dnh_replica_lag_generations", "dnh_replica_applied_total",
		"dnh_replica_resyncs_total", "dnh_replica_connected",
		"dnh_ratelimit_shed_total", "dnh_journal_tail_total",
	} {
		if !bytes.Contains(body, []byte(family)) {
			t.Errorf("follower /metrics missing %s", family)
		}
	}

	// Restart the follower: recovery must land on the last applied
	// generation and the new tail must resume without a resync.
	rep.Stop()
	lastApplied := fsys.SnapshotGeneration()
	fts.Close()
	if err := fsys.Close(); err != nil {
		t.Fatal(err)
	}
	fsys2, rep2 := newFollower(t, lts.URL, fdir)
	if got := fsys2.SnapshotGeneration(); got != lastApplied {
		t.Fatalf("restarted follower recovered generation %d, want %d", got, lastApplied)
	}
	fsrv2, err := New(Config{Sys: fsys2, Replica: rep2})
	if err != nil {
		t.Fatal(err)
	}
	fts2 := httptest.NewServer(fsrv2.Handler())
	defer fts2.Close()

	gen := publish(t, lsys, root, 404)
	waitForGeneration(t, fsys2, gen)
	assertByteIdentical(t, lts.URL, fts2.URL)
	if got := rep2.Stats().Resyncs; got != 0 {
		t.Errorf("restarted follower resynced %d times; it should resume from its own journal", got)
	}
}

// TestFollowerResyncAfterCompaction covers the bootstrap path: a
// follower that starts (or falls) behind the leader's retained journals
// must rebuild from the checkpoint — cleanly, never from torn frames.
// A second follower tails the first: the first's bootstrap record spans
// several generations, so the chained node must resync across it (the
// bootstrap compacts it away) and still converge byte-identically.
func TestFollowerResyncAfterCompaction(t *testing.T) {
	lsys, lts, root := newDurableLeader(t, 20, 11)
	publish(t, lsys, root, 505)
	// Compact: the pre-compaction journal is folded away, so a from=0
	// tail can no longer be served from journals alone.
	if _, err := lsys.CompactIfNeeded(); err != nil {
		t.Fatal(err)
	}
	gen := publish(t, lsys, root, 606)

	fsys, rep := newFollower(t, lts.URL, t.TempDir())
	waitForGeneration(t, fsys, gen)
	if got := rep.Stats().Resyncs; got < 1 {
		t.Errorf("fresh follower behind a compaction resynced %d times, want >= 1", got)
	}

	fsrv, err := New(Config{Sys: fsys, Replica: rep})
	if err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(fsrv.Handler())
	defer fts.Close()
	assertByteIdentical(t, lts.URL, fts.URL)

	csys, crep := newFollower(t, fts.URL, t.TempDir())
	waitForGeneration(t, csys, gen)
	if got := crep.Stats().Resyncs; got < 1 {
		t.Errorf("chained follower resynced %d times, want >= 1", got)
	}
	csrv, err := New(Config{Sys: csys, Replica: crep})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(csrv.Handler())
	defer cts.Close()
	assertByteIdentical(t, lts.URL, cts.URL)
}

// TestFollowerTailReadIsBounded: the follower asks for an explicit
// max_bytes and reads at most that budget plus one maximal record. A
// "leader" streaming past the cap fails the round, and nothing is
// applied — not even the well-formed frames in front of the excess.
func TestFollowerTailReadIsBounded(t *testing.T) {
	if maxTailResponse != catalog.DefaultTailMaxBytes+catalog.MaxStreamLine {
		t.Fatalf("maxTailResponse = %d, want the tail budget plus one maximal record", maxTailResponse)
	}
	lsys, _, _ := newDurableLeader(t, 8, 41)
	frames, gen, _, err := lsys.JournalTail(0, 0)
	if err != nil || len(frames) == 0 {
		t.Fatalf("leader tail: %d bytes, err %v", len(frames), err)
	}
	asked := make(chan string, 1)
	hostile := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case asked <- r.URL.Query().Get("max_bytes"):
		default:
		}
		w.Header().Set("X-Dnhd-Generation", fmt.Sprint(gen))
		w.Write(frames)
		w.Write(bytes.Repeat([]byte("x"), 64<<10))
	}))
	defer hostile.Close()

	fsys, err := metamess.New(metamess.Config{ArchiveRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplicator(ReplicaConfig{Leader: hostile.URL, Sys: fsys})
	if err != nil {
		t.Fatal(err)
	}
	if rep.tailLimit != maxTailResponse {
		t.Fatalf("tail limit %d, want maxTailResponse %d", rep.tailLimit, maxTailResponse)
	}
	// Lowered so the test streams kilobytes, not 65 MiB.
	rep.tailLimit = int64(len(frames)) + 1<<10
	n, err := rep.iterate(context.Background())
	if err == nil {
		t.Errorf("an over-cap tail applied %d records with no error", n)
	}
	if n != 0 || fsys.SnapshotGeneration() != 0 || fsys.DatasetCount() != 0 {
		t.Errorf("an over-cap tail applied %d records (generation %d, %d datasets)", n, fsys.SnapshotGeneration(), fsys.DatasetCount())
	}
	if got := <-asked; got != fmt.Sprint(replicaTailBudget) {
		t.Errorf("follower sent max_bytes=%q, want %d", got, replicaTailBudget)
	}
}

// TestJournalTailEndpoint pins the wire contract: generation header,
// resync signal, parameter validation, and the 404 on non-durable
// nodes.
func TestJournalTailEndpoint(t *testing.T) {
	lsys, lts, _ := newDurableLeader(t, 12, 3)
	gen := lsys.SnapshotGeneration()

	status, h, body := get(t, lts.URL+"/journal/tail?from=0")
	if status != http.StatusOK {
		t.Fatalf("tail: %d %s", status, body)
	}
	if h.Get("X-Dnhd-Generation") != fmt.Sprint(gen) {
		t.Errorf("generation header %q, want %d", h.Get("X-Dnhd-Generation"), gen)
	}
	if len(body) == 0 {
		t.Error("tail from 0 returned no frames")
	}

	// Caught up: empty body, no resync.
	status, h, body = get(t, lts.URL+fmt.Sprintf("/journal/tail?from=%d", gen))
	if status != http.StatusOK || len(body) != 0 || h.Get("X-Dnhd-Resync") != "" {
		t.Errorf("caught-up tail: %d, %d bytes, resync=%q", status, len(body), h.Get("X-Dnhd-Resync"))
	}

	// Below the checkpoint after a compaction: resync signal, no frames.
	if _, err := lsys.CompactIfNeeded(); err != nil {
		t.Fatal(err)
	}
	status, h, body = get(t, lts.URL+"/journal/tail?from=0")
	if status != http.StatusOK || h.Get("X-Dnhd-Resync") != "1" || len(body) != 0 {
		t.Errorf("behind-checkpoint tail: %d, resync=%q, %d bytes", status, h.Get("X-Dnhd-Resync"), len(body))
	}

	// The checkpoint download is well-formed.
	status, _, body = get(t, lts.URL+"/journal/checkpoint")
	if status != http.StatusOK || len(body) == 0 {
		t.Errorf("checkpoint: %d, %d bytes", status, len(body))
	}

	status, _, _ = get(t, lts.URL+"/journal/tail?from=zzz")
	if status != http.StatusBadRequest {
		t.Errorf("bad from: %d, want 400", status)
	}

	// Non-durable nodes have no journal to tail.
	sys, _, _ := newTestSystem(t, 8, 5)
	_, ts := newTestServer(t, sys, 0)
	status, _, _ = get(t, ts.URL+"/journal/tail?from=0")
	if status != http.StatusNotFound {
		t.Errorf("non-durable tail: %d, want 404", status)
	}
}

// TestJournalTailLongPoll verifies the blocking tail: an up-to-date
// tailer with wait_ms sees a publish land without re-polling.
func TestJournalTailLongPoll(t *testing.T) {
	lsys, lts, root := newDurableLeader(t, 12, 9)
	gen := lsys.SnapshotGeneration()

	type result struct {
		status int
		frames []byte
		gen    string
	}
	done := make(chan result, 1)
	go func() {
		status, h, body := get(t, lts.URL+fmt.Sprintf("/journal/tail?from=%d&wait_ms=10000", gen))
		done <- result{status, body, h.Get("X-Dnhd-Generation")}
	}()

	time.Sleep(150 * time.Millisecond) // let the poll park
	want := publish(t, lsys, root, 707)

	select {
	case res := <-done:
		if res.status != http.StatusOK || len(res.frames) == 0 {
			t.Fatalf("long poll: %d, %d bytes", res.status, len(res.frames))
		}
		if res.gen != fmt.Sprint(want) {
			t.Errorf("long poll answered at generation %s, want %d", res.gen, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long poll never released after the publish")
	}
}

// TestMinGenerationReadYourWrites pins the X-Min-Generation contract:
// a satisfied demand answers normally, a future demand waits and then
// answers once the generation lands, and an unreachable demand answers
// 412 naming the current generation.
func TestMinGenerationReadYourWrites(t *testing.T) {
	sys, _, root := newTestSystem(t, 16, 21)
	_, ts := newTestServer(t, sys, 0)
	gen := sys.SnapshotGeneration()
	q, _ := json.Marshal(SearchRequest{Variables: []Variable{{Name: "temperature"}}, K: 3})

	do := func(min string) (int, http.Header, []byte) {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/search", bytes.NewReader(q))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Min-Generation", min)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		buf := new(bytes.Buffer)
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, resp.Header, buf.Bytes()
	}

	// Already satisfied: plain 200.
	if status, _, body := do(fmt.Sprint(gen)); status != http.StatusOK {
		t.Fatalf("satisfied min-gen: %d %s", status, body)
	}

	// Unreachable: 412 with the current generation in header and body.
	status, h, body := do(fmt.Sprint(gen + 100))
	if status != http.StatusPreconditionFailed {
		t.Fatalf("unreachable min-gen: %d %s", status, body)
	}
	if h.Get("X-Dnhd-Generation") != fmt.Sprint(gen) {
		t.Errorf("412 generation header %q, want %d", h.Get("X-Dnhd-Generation"), gen)
	}
	if !bytes.Contains(body, []byte(`"generation"`)) {
		t.Errorf("412 body does not name the current generation: %s", body)
	}

	// Arrives during the wait: the request parks, the publish lands, the
	// response is a 200 at (or past) the demanded generation.
	type res struct {
		status int
		header http.Header
	}
	done := make(chan res, 1)
	go func() {
		status, h, _ := do(fmt.Sprint(gen + 1))
		done <- res{status, h}
	}()
	time.Sleep(100 * time.Millisecond)
	publish(t, sys, root, 808)
	select {
	case r := <-done:
		if r.status != http.StatusOK {
			t.Fatalf("min-gen wait resolved to %d", r.status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("min-gen wait never resolved after the publish")
	}

	// Bad header: 400 before any waiting.
	if status, _, _ := do("not-a-number"); status != http.StatusBadRequest {
		t.Errorf("bad min-gen header: %d, want 400", status)
	}
}
