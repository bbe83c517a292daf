package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"metamess"
	"metamess/internal/catalog"
	"metamess/internal/geo"
	"metamess/internal/scan"
)

// pushFeature builds the complete, valid catalog feature a push
// producer would send: canonical variable name, plausible range,
// content hash, and an ID derived from the path.
func pushFeature(path string, lat float64) *catalog.Feature {
	return &catalog.Feature{
		ID:     catalog.IDForPath(path),
		Path:   path,
		Source: "push",
		Format: "csv",
		BBox:   geo.BBox{MinLat: lat, MinLon: -124.4, MaxLat: lat + 0.1, MaxLon: -124.3},
		Time: geo.NewTimeRange(
			time.Date(2010, 6, 1, 0, 0, 0, 0, time.UTC),
			time.Date(2010, 6, 2, 0, 0, 0, 0, time.UTC)),
		Variables: []catalog.VarFeature{{
			RawName: "temp [C]",
			Name:    "temperature",
			Unit:    "C",
			Range:   geo.NewValueRange(5, 10),
			Count:   24,
		}},
		RowCount:    24,
		Bytes:       512,
		ScannedAt:   time.Date(2010, 6, 2, 0, 0, 0, 0, time.UTC),
		ModTime:     time.Date(2010, 6, 2, 0, 0, 0, 0, time.UTC),
		ContentHash: "deadbeef00000000",
	}
}

func publishBody(t testing.TB, features []*catalog.Feature, remove []string) []byte {
	t.Helper()
	b, err := json.Marshal(metamess.PublishRequest{Features: features, Remove: remove})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// searchNearPush runs a search scoped to the pushed features' extent
// and returns status, generation header, and the hit paths.
func searchNearPush(t testing.TB, baseURL string) (int, string, []string) {
	t.Helper()
	q, err := json.Marshal(SearchRequest{
		Near:      &LatLon{Lat: 45.55, Lon: -124.35},
		Variables: []Variable{{Name: "temperature"}},
		K:         50,
	})
	if err != nil {
		t.Fatal(err)
	}
	status, h, body := postJSON(t, baseURL+"/search", q)
	if status != http.StatusOK {
		return status, h.Get("X-Dnhd-Generation"), nil
	}
	var resp SearchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("search body: %v", err)
	}
	paths := make([]string, 0, len(resp.Hits))
	for _, hit := range resp.Hits {
		paths = append(paths, hit.Path)
	}
	return status, h.Get("X-Dnhd-Generation"), paths
}

func hasPath(paths []string, want string) bool {
	for _, p := range paths {
		if p == want {
			return true
		}
	}
	return false
}

// TestPublishEndpoint walks the push-ingest happy path end to end:
// publish advances the generation, the pushed datasets become
// searchable immediately (the generation-keyed cache cannot serve the
// stale ranking), a replay is a stable no-op, retraction works, and
// /stats + /metrics account for all of it.
func TestPublishEndpoint(t *testing.T) {
	sys, _, _ := newTestSystem(t, 16, 13)
	_, ts := newTestServer(t, sys, 16)
	gen0 := sys.SnapshotGeneration()

	// Warm the cache at the pre-publish generation.
	if status, _, _ := searchNearPush(t, ts.URL); status != http.StatusOK {
		t.Fatalf("pre-publish search: %d", status)
	}
	if status, _, paths := searchNearPush(t, ts.URL); status != http.StatusOK || hasPath(paths, "push/a.csv") {
		t.Fatalf("pre-publish search (cached): %d, paths %v", status, paths)
	}

	// A push never touches the filesystem: unlike the walker it has no
	// stat-call floor. No test runs in parallel, so the process-wide
	// counter moves only for this test.
	stat0 := scan.StatCalls()
	batch := []*catalog.Feature{pushFeature("push/a.csv", 45.5), pushFeature("push/b.csv", 45.6)}
	status, h, body := postJSON(t, ts.URL+"/publish", publishBody(t, batch, nil))
	if status != http.StatusOK {
		t.Fatalf("publish: %d %s", status, body)
	}
	var rec metamess.PublishReceipt
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Published != 2 || rec.Retracted != 0 || rec.Stable {
		t.Errorf("receipt %+v, want 2 published, unstable", rec)
	}
	if rec.Generation != gen0+1 {
		t.Errorf("publish moved the generation %d -> %d, want one step", gen0, rec.Generation)
	}
	if h.Get("X-Dnhd-Generation") != fmt.Sprint(rec.Generation) {
		t.Errorf("generation header %q, receipt %d", h.Get("X-Dnhd-Generation"), rec.Generation)
	}

	// The same query now serves the new generation with the pushed
	// dataset ranked — the cached pre-publish ranking is unreachable.
	status, gen, paths := searchNearPush(t, ts.URL)
	if status != http.StatusOK || gen != fmt.Sprint(rec.Generation) {
		t.Fatalf("post-publish search: %d at generation %s, want %d", status, gen, rec.Generation)
	}
	if !hasPath(paths, "push/a.csv") || !hasPath(paths, "push/b.csv") {
		t.Errorf("pushed datasets not ranked: %v", paths)
	}

	// Replaying the batch is a generation-stable no-op.
	status, _, body = postJSON(t, ts.URL+"/publish", publishBody(t, batch, nil))
	if status != http.StatusOK {
		t.Fatalf("replay: %d %s", status, body)
	}
	var replay metamess.PublishReceipt
	if err := json.Unmarshal(body, &replay); err != nil {
		t.Fatal(err)
	}
	if !replay.Stable || replay.Generation != rec.Generation || replay.Published != 0 {
		t.Errorf("replay receipt %+v, want stable at generation %d", replay, rec.Generation)
	}

	// Retraction: remove one pushed dataset by path.
	status, _, body = postJSON(t, ts.URL+"/publish", publishBody(t, nil, []string{"push/b.csv"}))
	if status != http.StatusOK {
		t.Fatalf("retract: %d %s", status, body)
	}
	var retract metamess.PublishReceipt
	if err := json.Unmarshal(body, &retract); err != nil {
		t.Fatal(err)
	}
	if retract.Retracted != 1 || retract.Generation != rec.Generation+1 {
		t.Errorf("retract receipt %+v, want 1 retracted at generation %d", retract, rec.Generation+1)
	}
	if _, _, paths := searchNearPush(t, ts.URL); hasPath(paths, "push/b.csv") || !hasPath(paths, "push/a.csv") {
		t.Errorf("retraction not visible: %v", paths)
	}
	if n := scan.StatCalls() - stat0; n != 0 {
		t.Errorf("three accepted publishes made %d stat calls, want 0", n)
	}

	// /stats accounts for every batch; /metrics exports the families.
	status, _, body = get(t, ts.URL+"/stats")
	if status != http.StatusOK {
		t.Fatalf("stats: %d", status)
	}
	var stats StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Ingest.Publishes != 3 || stats.Ingest.Stable != 1 || stats.Ingest.Features != 2 || stats.Ingest.Rejected != 0 {
		t.Errorf("ingest stats %+v, want 3 publishes / 1 stable / 2 features / 0 rejected", stats.Ingest)
	}
	status, _, body = get(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: %d", status)
	}
	for _, family := range []string{
		"dnh_publishes_total", "dnh_publishes_stable_total",
		"dnh_publish_rejected_total", "dnh_publish_features_total",
	} {
		if !bytes.Contains(body, []byte(family)) {
			t.Errorf("/metrics missing %s", family)
		}
	}

	// Method discipline: GET on the publish route is not a publish.
	if status, _, _ := get(t, ts.URL+"/publish"); status != http.StatusMethodNotAllowed {
		t.Errorf("GET /publish: %d, want 405", status)
	}
}

// TestPublishReplicatesToFollower is the push-era extension of the
// leader/follower battery: a POST /publish on the leader must arrive on
// a tailing follower byte-identically at the same generation, through
// exactly the journal-tail machinery a wrangle uses. Followers
// themselves never mount the endpoint.
func TestPublishReplicatesToFollower(t *testing.T) {
	lsys, lts, _ := newDurableLeader(t, 16, 19)
	fsys, rep := newFollower(t, lts.URL, t.TempDir())
	fsrv, err := New(Config{Sys: fsys, Replica: rep})
	if err != nil {
		t.Fatal(err)
	}
	fts := serve(t, fsrv)
	waitForGeneration(t, fsys, lsys.SnapshotGeneration())

	batch := []*catalog.Feature{pushFeature("push/a.csv", 45.5), pushFeature("push/b.csv", 45.6)}
	status, _, body := postJSON(t, lts.URL+"/publish", publishBody(t, batch, nil))
	if status != http.StatusOK {
		t.Fatalf("leader publish: %d %s", status, body)
	}
	var rec metamess.PublishReceipt
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}

	waitForGeneration(t, fsys, rec.Generation)
	assertByteIdentical(t, lts.URL, fts.URL)

	// The pushed datasets rank identically on both nodes.
	ls, lg, lp := searchNearPush(t, lts.URL)
	fs, fg, fp := searchNearPush(t, fts.URL)
	if ls != http.StatusOK || fs != http.StatusOK || lg != fg {
		t.Fatalf("push probe: leader %d@%s, follower %d@%s", ls, lg, fs, fg)
	}
	if !hasPath(fp, "push/a.csv") || !hasPath(fp, "push/b.csv") {
		t.Errorf("pushed datasets missing on the follower: %v", fp)
	}
	if fmt.Sprint(lp) != fmt.Sprint(fp) {
		t.Errorf("push probe rankings differ:\nleader:   %v\nfollower: %v", lp, fp)
	}
	if got := rep.Stats().Resyncs; got != 0 {
		t.Errorf("publish replication resynced %d times; the tail should have covered it", got)
	}

	// A follower never accepts a direct publish — it would fork the
	// replica — regardless of configuration.
	status, _, _ = postJSON(t, fts.URL+"/publish", publishBody(t, batch, nil))
	if status != http.StatusNotFound {
		t.Errorf("follower publish: %d, want 404 (route not mounted)", status)
	}
}

// TestPublishObservesStageHistograms checks a push is visible where a
// wrangle's publish is, and a replicated apply where the publish it
// mirrors is: one accepted POST /publish on a durable leader, applied by
// one durable follower, observes dnh_publish_stage_duration_seconds
// twice per stage (the histograms are process-wide).
func TestPublishObservesStageHistograms(t *testing.T) {
	_, lts, _ := newDurableLeader(t, 12, 29)
	_, rep := newFollower(t, lts.URL, t.TempDir())
	// Records applied, not generation reached: the counter moves only
	// after the commit, observation included, has returned.
	awaitApplied := func(want uint64) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for rep.Stats().AppliedRecords < want {
			if time.Now().After(deadline) {
				t.Fatalf("follower applied %d records, want %d", rep.Stats().AppliedRecords, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	awaitApplied(1) // the leader's wrangle
	stages := []string{
		`dnh_publish_stage_duration_seconds_count{stage="apply-delta"}`,
		`dnh_publish_stage_duration_seconds_count{stage="journal-append"}`,
	}
	_, _, text := get(t, lts.URL+"/metrics")
	before := parseSeries(t, text)
	status, _, body := postJSON(t, lts.URL+"/publish", publishBody(t, []*catalog.Feature{pushFeature("push/h.csv", 45.5)}, nil))
	if status != http.StatusOK {
		t.Fatalf("publish: %d %s", status, body)
	}
	awaitApplied(2)
	_, _, text = get(t, lts.URL+"/metrics")
	after := parseSeries(t, text)
	for _, series := range stages {
		if got := after[series] - before[series]; got != 2 {
			t.Errorf("%s moved by %v across one accepted publish and its replicated apply, want 2", series, got)
		}
	}
}

// TestPublishRejectionLeavesStoreUntouched pins the failure-mode
// invariant: a rejected publish — invalid feature, semantic validation
// error, malformed body, oversize body, or a mid-stream client
// disconnect — must leave the generation, the journal, and the served
// rankings exactly as they were. No refused appends, no degradation.
func TestPublishRejectionLeavesStoreUntouched(t *testing.T) {
	lsys, lts, _ := newDurableLeader(t, 16, 23)
	gen0 := lsys.SnapshotGeneration()
	d0, ok := lsys.Durability()
	if !ok {
		t.Fatal("durable system reports no durability stats")
	}
	_, _, want := searchNearPush(t, lts.URL)

	post := func(body []byte) int {
		status, _, _ := postJSON(t, lts.URL+"/publish", body)
		return status
	}

	// Invalid feature: ID does not match the path.
	bad := pushFeature("push/a.csv", 45.5)
	bad.ID = "0000000000000000"
	if got := post(publishBody(t, []*catalog.Feature{bad}, nil)); got != http.StatusUnprocessableEntity {
		t.Errorf("invalid feature: %d, want 422", got)
	}

	// Semantic validation error: a physically implausible range for a
	// known variable (caught by the wrangle-grade validation checks).
	implausible := pushFeature("push/a.csv", 45.5)
	implausible.Variables[0].Name = "water_temperature" // canonical: the check knows its typical range
	implausible.Variables[0].Range = geo.NewValueRange(-500, 900)
	if got := post(publishBody(t, []*catalog.Feature{implausible}, nil)); got != http.StatusUnprocessableEntity {
		t.Errorf("implausible range: %d, want 422", got)
	}

	// Malformed body.
	if got := post([]byte("not json")); got != http.StatusUnprocessableEntity {
		t.Errorf("malformed body: %d, want 422", got)
	}

	// Empty batch.
	if got := post([]byte("{}")); got != http.StatusUnprocessableEntity {
		t.Errorf("empty batch: %d, want 422", got)
	}

	// Oversize body: a server capped at 64 bytes refuses before decoding.
	smallSrv, err := New(Config{Sys: lsys, MaxPublishBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	smallTS := serve(t, smallSrv)
	status, _, _ := postJSON(t, smallTS.URL+"/publish", publishBody(t, []*catalog.Feature{pushFeature("push/a.csv", 45.5)}, nil))
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize body: %d, want 413", status)
	}

	// Mid-stream disconnect: promise 4096 bytes, send a fragment, hang
	// up. The handler's body read fails and nothing decodes.
	u, err := url.Parse(lts.URL)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", u.Host)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "POST /publish HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n", u.Host)
	fmt.Fprint(conn, `{"features":[`)
	conn.Close()

	// The disconnect is counted as a rejection once the handler notices;
	// poll /stats for all five rejections on the main server (the
	// oversize 413 landed on the small server's own counters).
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, _, body := get(t, lts.URL+"/stats")
		var stats StatsResponse
		if err := json.Unmarshal(body, &stats); err != nil {
			t.Fatal(err)
		}
		if stats.Ingest.Rejected >= 5 {
			if stats.Ingest.Publishes != 0 || stats.Ingest.Features != 0 {
				t.Errorf("rejections recorded accepted work: %+v", stats.Ingest)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("disconnect never counted as a rejection: %+v", stats.Ingest)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The store is untouched: same generation, no new appends, no
	// refusals, not degraded, identical rankings.
	if got := lsys.SnapshotGeneration(); got != gen0 {
		t.Errorf("rejections moved the generation: %d -> %d", gen0, got)
	}
	d1, _ := lsys.Durability()
	if d1.Appends != d0.Appends || d1.RefusedAppends != d0.RefusedAppends || d1.Degraded {
		t.Errorf("rejections touched the journal: before %+v, after %+v", d0, d1)
	}
	if _, _, got := searchNearPush(t, lts.URL); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("rankings drifted across rejections:\nbefore %v\nafter  %v", want, got)
	}
}

// serve starts an httptest server for srv with cleanup.
func serve(t testing.TB, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}
