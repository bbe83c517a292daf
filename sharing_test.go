package metamess

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"metamess/internal/archive"
	"metamess/internal/catalog"
)

// requireOneCopy fails unless, for every ID the working catalog holds,
// the served snapshot holds the same pointer, and both hold the same
// number of features: the catalog's ownership rule lets them share one
// copy of each feature.
func requireOneCopy(t *testing.T, sys *System, when string) {
	t.Helper()
	snap := sys.ctx.Published.Snapshot()
	working := 0
	sys.ctx.Working.ForEach(func(f *catalog.Feature) {
		working++
		if served, _ := snap.ByID(f.ID); served != f {
			t.Errorf("%s: %s is held as working %p, snapshot %p", when, f.Path, f, served)
		}
	})
	if working == 0 || working != snap.Len() {
		t.Errorf("%s: %d working, %d served features", when, working, snap.Len())
	}
}

// servedJSON renders every feature a snapshot serves, ScannedAt
// included.
func servedJSON(t *testing.T, snap *catalog.Snapshot) string {
	t.Helper()
	b, err := json.Marshal(snap.All())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestOneResidentCopyPerFeature: after a wrangle, and after a durable
// restart, one copy of each feature is resident. A snapshot held across
// a curated re-wrangle — which hides a name (MutateVariables), renames
// one (ApplyTable, so MutateVariablesOf) and re-stamps the files the
// scan re-verifies (SetScanStamp) — serves the same bytes afterwards.
func TestOneResidentCopyPerFeature(t *testing.T) {
	root, dataDir := t.TempDir(), t.TempDir()
	m, err := archive.Generate(root, archive.DefaultGenConfig(20, 2))
	if err != nil {
		t.Fatal(err)
	}
	// The scan trusts a file's stat once its mtime is well before the scan
	// that recorded it, and re-verifies it by content hash otherwise. Age
	// all but three files, so the re-wrangle re-stamps those three and the
	// curation edits features the snapshot still shares.
	old := time.Now().Add(-time.Hour)
	for _, d := range m.Datasets[3:] {
		if err := os.Chtimes(filepath.Join(root, d.Path), old, old); err != nil {
			t.Fatal(err)
		}
	}
	sys, err := OpenDurable(Config{ArchiveRoot: root, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	requireOneCopy(t, sys, "after Wrangle")

	queue := sys.CuratorQueue()
	if len(queue) < 2 {
		t.Fatalf("curator queue %v: want two names to curate", queue)
	}
	held := sys.ctx.Published.Snapshot()
	heldJSON := servedJSON(t, held)
	sys.Hide(strings.Fields(queue[0])[0])
	sys.Clarify(strings.Fields(queue[1])[0], "water_temperature")
	rep, err := sys.Wrangle()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delta.Published == 0 || rep.Steps[0].Counters["hashVerified"] != 3 {
		t.Fatalf("the curated re-wrangle published %d features and re-verified %d files, want some and 3",
			rep.Delta.Published, rep.Steps[0].Counters["hashVerified"])
	}
	if servedJSON(t, held) != heldJSON {
		t.Error("a re-wrangle changed a snapshot held from before it")
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenDurable(Config{ArchiveRoot: root, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	requireOneCopy(t, reopened, "after OpenDurable")
}

// TestPublishRejectsDuplicateRemoval: a push naming one path twice in
// Remove is refused like a duplicate feature, before any state changes;
// it was accepted and counted as two retractions.
func TestPublishRejectsDuplicateRemoval(t *testing.T) {
	sys, _ := newSystem(t, 20, 5)
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	path := sys.ctx.Published.Snapshot().All()[0].Path
	gen, count := sys.SnapshotGeneration(), sys.DatasetCount()
	rec, err := sys.PublishFeatures(&PublishRequest{Remove: []string{path, path}})
	if !errors.Is(err, ErrPublishRejected) {
		t.Fatalf("duplicate removal: receipt %+v, error %v; want ErrPublishRejected", rec, err)
	}
	if sys.SnapshotGeneration() != gen || sys.DatasetCount() != count {
		t.Errorf("rejected push moved generation %d -> %d, datasets %d -> %d",
			gen, sys.SnapshotGeneration(), count, sys.DatasetCount())
	}
	body, err := json.Marshal(PublishRequest{Remove: []string{path, path}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePublishRequest(body); !errors.Is(err, ErrPublishRejected) {
		t.Errorf("decoding a duplicate removal: %v, want ErrPublishRejected", err)
	}
}
