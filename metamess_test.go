package metamess

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"metamess/internal/archive"
	"metamess/internal/catalog"
)

func newSystem(t testing.TB, datasets int, seed int64) (*System, *archive.Manifest) {
	t.Helper()
	root := t.TempDir()
	m, err := archive.Generate(root, archive.DefaultGenConfig(datasets, seed))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(Config{ArchiveRoot: root})
	if err != nil {
		t.Fatal(err)
	}
	return sys, m
}

func f64(v float64) *float64 { return &v }

func TestNewRequiresRoot(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestWrangleAndSearchEndToEnd(t *testing.T) {
	sys, m := newSystem(t, 30, 42)
	rep, err := sys.Wrangle()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Datasets != len(m.Datasets) {
		t.Errorf("datasets = %d, want %d", rep.Datasets, len(m.Datasets))
	}
	if rep.CoverageAfter <= rep.CoverageBefore || rep.CoverageAfter < 0.9 {
		t.Errorf("coverage %.3f -> %.3f", rep.CoverageBefore, rep.CoverageAfter)
	}
	if len(rep.Steps) == 0 {
		t.Error("no steps reported")
	}
	if sys.DatasetCount() != len(m.Datasets) {
		t.Errorf("DatasetCount = %d", sys.DatasetCount())
	}

	// The poster's motivating query: observations near a point in
	// mid-2010 with temperature between 5 and 10 C.
	hits, err := sys.Search(Query{
		Near:      &LatLon{Lat: 46.2, Lon: -123.8},
		From:      time.Date(2010, 5, 1, 0, 0, 0, 0, time.UTC),
		To:        time.Date(2010, 8, 1, 0, 0, 0, 0, time.UTC),
		Variables: []VariableTerm{{Name: "temperature", Min: f64(5), Max: f64(10)}},
		K:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("motivating query found nothing")
	}
	if hits[0].Score <= 0 || hits[0].Score > 1 {
		t.Errorf("score = %v", hits[0].Score)
	}
	if hits[0].Summary == "" || !strings.Contains(hits[0].Summary, "Dataset:") {
		t.Error("hit missing summary page")
	}
	if len(hits[0].MatchedVariables) == 0 {
		t.Error("hit missing match explanations")
	}
	for i := 1; i < len(hits); i++ {
		if hits[i-1].Score < hits[i].Score {
			t.Error("hits not ranked")
		}
	}
}

func TestSearchTextMatchesStructuredQuery(t *testing.T) {
	sys, _ := newSystem(t, 30, 42)
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	textHits, err := sys.SearchText(
		`near 46.2,-123.8 from 2010-05-01 to 2010-08-01 with temperature between 5 and 10 top 5`)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 5.0, 10.0
	structHits, err := sys.Search(Query{
		Near:      &LatLon{Lat: 46.2, Lon: -123.8},
		From:      time.Date(2010, 5, 1, 0, 0, 0, 0, time.UTC),
		To:        time.Date(2010, 8, 1, 0, 0, 0, 0, time.UTC),
		Variables: []VariableTerm{{Name: "temperature", Min: &lo, Max: &hi}},
		K:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(textHits) != len(structHits) {
		t.Fatalf("text %d hits vs structured %d", len(textHits), len(structHits))
	}
	for i := range textHits {
		if textHits[i].Path != structHits[i].Path || textHits[i].Score != structHits[i].Score {
			t.Errorf("rank %d: %s/%.3f vs %s/%.3f", i,
				textHits[i].Path, textHits[i].Score, structHits[i].Path, structHits[i].Score)
		}
	}
	if _, err := sys.SearchText("gibberish query"); err == nil {
		t.Error("bad text query accepted")
	}
}

func TestDatasetSummaryLookup(t *testing.T) {
	sys, m := newSystem(t, 9, 3)
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	page, err := sys.DatasetSummary(m.Datasets[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(page, m.Datasets[0].Path) {
		t.Error("summary missing path")
	}
	if _, err := sys.DatasetSummary("no/such/file.csv"); err == nil {
		t.Error("unknown path accepted")
	}
}

func TestSnapshotGenerationBumpsOnWrangle(t *testing.T) {
	root := t.TempDir()
	if _, err := archive.Generate(root, archive.DefaultGenConfig(12, 8)); err != nil {
		t.Fatal(err)
	}
	sys, err := New(Config{ArchiveRoot: root})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	gen1 := sys.SnapshotGeneration()
	// Reads do not move the generation.
	if _, err := sys.Search(Query{Variables: []VariableTerm{{Name: "temperature"}}}); err != nil {
		t.Fatal(err)
	}
	if got := sys.SnapshotGeneration(); got != gen1 {
		t.Errorf("generation moved on read: %d -> %d", gen1, got)
	}
	// A no-op re-wrangle publishes an empty delta: the generation holds,
	// so generation-keyed caches stay warm across it.
	rep, err := sys.Wrangle()
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.SnapshotGeneration(); got != gen1 {
		t.Errorf("no-op re-wrangle moved the generation: %d -> %d", gen1, got)
	}
	if !rep.Delta.GenerationStable || rep.Delta.Published != 0 {
		t.Errorf("no-op delta summary = %+v", rep.Delta)
	}
	// Real churn moves it: grow the archive and re-wrangle.
	if _, err := archive.Generate(filepath.Join(root, "extra"), archive.DefaultGenConfig(3, 77)); err != nil {
		t.Fatal(err)
	}
	rep, err = sys.Wrangle()
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.SnapshotGeneration(); got <= gen1 {
		t.Errorf("generation not bumped by a changing publish: %d -> %d", gen1, got)
	}
	if rep.Delta.Added != 3 || rep.Delta.GenerationStable {
		t.Errorf("churn delta summary = %+v", rep.Delta)
	}
}

func TestSearchContextCancellation(t *testing.T) {
	sys, _ := newSystem(t, 12, 8)
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.SearchContext(ctx, Query{Variables: []VariableTerm{{Name: "temperature"}}}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled structured search: err = %v", err)
	}
	if _, err := sys.SearchTextContext(ctx, "with temperature"); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled text search: err = %v", err)
	}
	// A live context behaves exactly like the plain entry points.
	h1, err := sys.SearchContext(context.Background(), Query{Variables: []VariableTerm{{Name: "temperature"}}, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := sys.Search(Query{Variables: []VariableTerm{{Name: "temperature"}}, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(h1) != len(h2) {
		t.Errorf("context vs plain search: %d vs %d hits", len(h1), len(h2))
	}
}

func TestCuratorWorkflow(t *testing.T) {
	sys, _ := newSystem(t, 30, 99)
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	queue := sys.CuratorQueue()
	if len(queue) == 0 {
		t.Skip("no curator queue at this seed")
	}
	// Clarify the first queued name (facade smoke path; targets come from
	// the curator's own knowledge in practice).
	raw := strings.Fields(queue[0])[0]
	sys.Clarify(raw, "water_temperature")
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	for _, q := range sys.CuratorQueue() {
		if strings.Fields(q)[0] == raw {
			t.Errorf("clarified name %q still queued", raw)
		}
	}
}

func TestAddSynonymImprovesCoverage(t *testing.T) {
	sys, m := newSystem(t, 30, 99)
	r1, err := sys.Wrangle()
	if err != nil {
		t.Fatal(err)
	}
	if r1.UnresolvedNames == 0 {
		t.Skip("nothing unresolved at this seed")
	}
	canonical := m.CanonicalFor()
	for _, line := range sys.CuratorQueue() {
		raw := strings.Fields(line)[0]
		if canon := canonical[raw]; canon != "" && canon != raw {
			if err := sys.AddSynonym(canon, raw); err != nil {
				t.Logf("AddSynonym(%q, %q): %v", canon, raw, err)
			}
		}
	}
	r2, err := sys.Wrangle()
	if err != nil {
		t.Fatal(err)
	}
	if r2.UnresolvedNames > r1.UnresolvedNames {
		t.Errorf("unresolved grew: %d -> %d", r1.UnresolvedNames, r2.UnresolvedNames)
	}
}

func TestExportRulesAndMenu(t *testing.T) {
	sys, _ := newSystem(t, 30, 42)
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	rules, err := sys.ExportRules()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(strings.TrimSpace(string(rules)), "[") {
		t.Error("rules not a JSON array")
	}
	menu := sys.VariableMenu(0)
	if len(menu) == 0 {
		t.Error("empty variable menu")
	}
	collapsed := sys.VariableMenu(1)
	if len(collapsed) > len(menu) {
		t.Error("collapsed menu longer than full menu")
	}
	if len(sys.Vocabulary()) == 0 {
		t.Error("empty vocabulary")
	}
}

// TestCuratorCallsBesideWrangle makes every curator call while a
// goroutine re-wrangles, the way dnhd serves /curator/queue beside its
// rewrangler, and another searches with synonym-expanded terms, the way
// dnhd serves queries beside both. Under -race it fails if any of them
// touches the wrangle's context state (taxonomy, last validation,
// pending decisions, knowledge, rules) without the publish lock, or if
// a curator edit reaches knowledge a search is expanding with.
func TestCuratorCallsBesideWrangle(t *testing.T) {
	sys, _ := newSystem(t, 12, 5)
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	// Decisions must name queued ambiguous or unknown names, or the next
	// wrangle rejects them.
	var decide []string
	for _, line := range sys.CuratorQueue() {
		if strings.Contains(line, "(ambiguous;") || strings.Contains(line, "(unknown;") {
			decide = append(decide, strings.Fields(line)[0])
		}
	}
	var runs atomic.Int64
	stop := make(chan struct{})
	done := make(chan error, 1)
	searched := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				searched <- nil
				return
			default:
			}
			alias := fmt.Sprintf("zz_water_temp_%d", i%8)
			if _, err := sys.Search(Query{Variables: []VariableTerm{{Name: alias}, {Name: "temperature"}}, K: 3}); err != nil {
				searched <- err
				return
			}
			if _, err := sys.SearchText("with " + alias + " top 3"); err != nil {
				searched <- err
				return
			}
		}
	}()
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if _, err := sys.Wrangle(); err != nil {
				done <- err
				return
			}
			runs.Add(1)
		}
	}()
	for i := 0; runs.Load() < 5 && i < 1000; i++ {
		switch {
		case i == 0 && len(decide) > 0:
			sys.Clarify(decide[0], "water_temperature")
		case i == 1 && len(decide) > 1:
			sys.Hide(decide[1])
		}
		if len(sys.VariableMenu(0)) == 0 {
			t.Error("empty variable menu")
		}
		if ok := sys.ValidationOK(); !ok && len(sys.Validation()) == 0 {
			t.Error("validation failed without findings")
		}
		sys.CuratorQueue()
		if _, err := sys.ExportRules(); err != nil {
			t.Error(err)
		}
		if err := sys.AddSynonym("water_temperature", fmt.Sprintf("zz_water_temp_%d", i)); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := <-searched; err != nil {
		t.Fatal(err)
	}
}

// TestWrangleAfterLoadCatalog: a catalog load moves the published
// catalog behind the chain's back, so the next wrangle — delta-scoped,
// over an unchanged archive — must still publish its working catalog
// exactly, as a diff over every feature would.
func TestWrangleAfterLoadCatalog(t *testing.T) {
	src, _ := newSystem(t, 9, 7)
	if _, err := src.Wrangle(); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/published.snapshot"
	if err := src.SaveCatalog(path); err != nil {
		t.Fatal(err)
	}
	sys, _ := newSystem(t, 6, 3)
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	want := publishedFingerprint(t, sys)
	if err := sys.LoadCatalog(path); err != nil {
		t.Fatal(err)
	}
	if sys.DatasetCount() != src.DatasetCount() {
		t.Fatalf("loaded %d datasets, want %d", sys.DatasetCount(), src.DatasetCount())
	}
	rep, err := sys.Wrangle()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delta.FullReprocess {
		t.Fatalf("unchanged archive reprocessed in full: %+v", rep.Delta)
	}
	if got := publishedFingerprint(t, sys); got != want {
		t.Fatalf("wrangle after a load did not republish the working catalog\n%s", firstDiff(got, want))
	}
}

func TestSaveLoadCatalog(t *testing.T) {
	sys, _ := newSystem(t, 9, 7)
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/published.snapshot"
	if err := sys.SaveCatalog(path); err != nil {
		t.Fatal(err)
	}
	// A second system loads the snapshot without touching the archive.
	other, err := New(Config{ArchiveRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.LoadCatalog(path); err != nil {
		t.Fatal(err)
	}
	if other.DatasetCount() != sys.DatasetCount() {
		t.Errorf("loaded %d datasets, want %d", other.DatasetCount(), sys.DatasetCount())
	}
	hits, err := other.Search(Query{Variables: []VariableTerm{{Name: "salinity"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Error("loaded catalog not searchable")
	}
	// Reloading an unchanged file is a no-op publish, like a no-op
	// re-wrangle: the generation, and every cached response, survive.
	gen := other.SnapshotGeneration()
	if err := other.LoadCatalog(path); err != nil {
		t.Fatal(err)
	}
	if got := other.SnapshotGeneration(); got != gen {
		t.Errorf("reloading an unchanged file moved the generation %d -> %d", gen, got)
	}

	// On a durable system a load is a journaled publish: a system that
	// wrangled its own archive loads the file, takes one push, and a
	// reopen must recover exactly what it served at that generation.
	root, dataDir := t.TempDir(), t.TempDir()
	if _, err := archive.Generate(root, archive.DefaultGenConfig(4, 3)); err != nil {
		t.Fatal(err)
	}
	durable, err := OpenDurable(Config{ArchiveRoot: root, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := durable.Wrangle(); err != nil {
		t.Fatal(err)
	}
	if err := durable.LoadCatalog(path); err != nil {
		t.Fatal(err)
	}
	push := sys.ctx.Published.Snapshot().All()[0].Clone()
	push.Path = "push/" + filepath.Base(push.Path)
	push.ID = catalog.IDForPath(push.Path)
	if _, err := durable.PublishFeatures(&PublishRequest{Features: []*catalog.Feature{push}}); err != nil {
		t.Fatal(err)
	}
	if durable.DatasetCount() != sys.DatasetCount()+1 {
		t.Fatalf("durable system serves %d datasets, want %d", durable.DatasetCount(), sys.DatasetCount()+1)
	}
	served, servedGen := publishedFingerprint(t, durable), durable.SnapshotGeneration()
	if err := durable.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenDurable(Config{ArchiveRoot: root, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.SnapshotGeneration(); got != servedGen {
		t.Errorf("reopened at generation %d, served %d", got, servedGen)
	}
	if got := publishedFingerprint(t, reopened); got != served {
		t.Errorf("recovered %d datasets at generation %d, but %d were served there",
			reopened.DatasetCount(), reopened.SnapshotGeneration(), durable.DatasetCount())
	}
}

func TestStrictValidationBlocksPublish(t *testing.T) {
	root := t.TempDir()
	if _, err := archive.Generate(root, archive.DefaultGenConfig(6, 1)); err != nil {
		t.Fatal(err)
	}
	sys, err := New(Config{
		ArchiveRoot:      root,
		ExpectedDatasets: []string{"never/there.obs"},
		StrictValidation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Wrangle(); err == nil {
		t.Fatal("strict validation should fail the run")
	}
	if sys.DatasetCount() != 0 {
		t.Error("publish happened despite failed validation")
	}
	if sys.ValidationOK() {
		t.Error("validation reported OK")
	}
	if len(sys.Validation()) == 0 {
		t.Error("no validation findings exposed")
	}
}
