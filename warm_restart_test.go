package metamess

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"metamess/internal/archive"
	"metamess/internal/catalog"
	"metamess/internal/core"
)

// TestWarmRestartEquivalence is the durability tentpole's correctness
// anchor: drive a durable system and a continuously-running oracle
// through the same churn-and-curation history, kill the durable one
// (no Close — the journal's fsync-per-publish is what must save it),
// mutate the archive while it is "down", and restart from the data
// directory. The recovered system must serve the exact pre-crash state
// at the exact pre-crash generation before reconciling, and after its
// delta-scoped reconciliation wrangle its published catalog and full
// search rankings must be byte-identical to the oracle that never
// died. Swept over 1, 4, and 8 snapshot shards; CI runs it under
// -race.
func TestWarmRestartEquivalence(t *testing.T) {
	for _, shards := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + shards)))
			root := t.TempDir()
			dataDir := t.TempDir()
			m, err := archive.Generate(root, archive.DefaultGenConfig(24, int64(shards)))
			if err != nil {
				t.Fatal(err)
			}
			var obsFiles []string
			for _, d := range m.Datasets {
				if string(d.Format) == "obs" {
					obsFiles = append(obsFiles, d.Path)
				}
			}

			durableCfg := Config{
				ArchiveRoot:    root,
				SnapshotShards: shards,
				DataDir:        dataDir,
				// A tiny compaction floor so the checkpoint/journal fold is
				// exercised mid-history, not just the journal replay.
				CompactMinBytes: 1,
			}
			durable, err := OpenDurable(durableCfg)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := New(Config{ArchiveRoot: root, SnapshotShards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := durable.Wrangle(); err != nil {
				t.Fatal(err)
			}
			if _, err := oracle.Wrangle(); err != nil {
				t.Fatal(err)
			}

			// Shared churn history: adds, edits, a curated synonym, and a
			// deletion, wrangled by both systems each round.
			next := 0
			var added []string
			for round := 0; round < 3; round++ {
				for k := 0; k < 1+rng.Intn(2); k++ {
					rel := filepath.Join("stations", fmt.Sprintf("wr%02d.obs", next))
					next++
					if err := os.WriteFile(filepath.Join(root, rel),
						[]byte(obsContent(fmt.Sprintf("w%d", next), round)), 0o644); err != nil {
						t.Fatal(err)
					}
					added = append(added, rel)
				}
				for k := 0; k < rng.Intn(3); k++ {
					appendDuplicateLastLine(t, filepath.Join(root, obsFiles[rng.Intn(len(obsFiles))]))
				}
				if round == 1 {
					// Curation must survive the crash via the epoch sidecar:
					// both systems learn it, only the durable one persists it.
					for _, sys := range []*System{durable, oracle} {
						if err := sys.AddSynonym("water_temperature", "wassertemp"); err != nil {
							t.Fatal(err)
						}
					}
				}
				if len(added) > 1 && rng.Intn(2) == 0 {
					i := rng.Intn(len(added))
					if err := os.Remove(filepath.Join(root, added[i])); err != nil {
						t.Fatal(err)
					}
					added = append(added[:i], added[i+1:]...)
				}
				if _, err := durable.Wrangle(); err != nil {
					t.Fatalf("round %d: durable wrangle: %v", round, err)
				}
				if _, err := oracle.Wrangle(); err != nil {
					t.Fatalf("round %d: oracle wrangle: %v", round, err)
				}
				if _, err := durable.CompactIfNeeded(); err != nil {
					t.Fatalf("round %d: compact: %v", round, err)
				}
			}

			genAtCrash := durable.SnapshotGeneration()
			catAtCrash := publishedFingerprint(t, durable)
			countAtCrash := durable.DatasetCount()
			ds, ok := durable.Durability()
			if !ok || ds.Appends == 0 {
				t.Fatalf("durable system journaled nothing: %+v", ds)
			}
			// kill -9: no Close, no Sync. The open *System is abandoned.

			// Churn while the process is down.
			downRel := filepath.Join("stations", "down.obs")
			if err := os.WriteFile(filepath.Join(root, downRel),
				[]byte(obsContent("down", 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			appendDuplicateLastLine(t, filepath.Join(root, obsFiles[0]))

			restarted, err := OpenDurable(durableCfg)
			if err != nil {
				t.Fatalf("warm restart: %v", err)
			}
			// Before reconciliation the recovered system serves the exact
			// pre-crash snapshot at the exact pre-crash generation.
			if got := restarted.SnapshotGeneration(); got != genAtCrash {
				t.Fatalf("restored generation %d, want %d (continuity broken)", got, genAtCrash)
			}
			if restarted.DatasetCount() != countAtCrash {
				t.Fatalf("restored %d datasets, want %d", restarted.DatasetCount(), countAtCrash)
			}
			if publishedFingerprint(t, restarted) != catAtCrash {
				t.Fatal("restored catalog differs from the pre-crash published state")
			}

			// The reconciliation wrangle: O(churn while down), not a cold
			// re-wrangle — the restored epoch sidecar means no phantom
			// knowledge change, so it must stay delta-scoped.
			rep, err := restarted.Wrangle()
			if err != nil {
				t.Fatalf("reconciliation wrangle: %v", err)
			}
			if rep.Delta.FullReprocess {
				t.Fatalf("reconciliation fell back to a full reprocess: %+v", rep.Delta)
			}
			if rep.Delta.Added != 1 {
				t.Fatalf("reconciliation saw %d added, want the 1 file created while down", rep.Delta.Added)
			}
			if rep.Delta.Unchanged == 0 {
				t.Fatal("reconciliation re-parsed everything; stat-skip lost")
			}
			// It parses exactly the two files created or edited while down,
			// and its walk still sees the whole archive.
			archiveSize := len(m.Datasets) + len(added) + 1
			if scan := rep.Steps[0].Counters; scan["parsed"] != 2 || scan["filesSeen"] != archiveSize {
				t.Fatalf("reconciliation scan parsed %d (want 2), saw %d files (want %d)",
					scan["parsed"], scan["filesSeen"], archiveSize)
			}

			if _, err := oracle.Wrangle(); err != nil {
				t.Fatal(err)
			}
			if restarted.DatasetCount() != oracle.DatasetCount() {
				t.Fatalf("dataset count %d, oracle %d", restarted.DatasetCount(), oracle.DatasetCount())
			}
			if got, want := publishedFingerprint(t, restarted), publishedFingerprint(t, oracle); got != want {
				t.Fatalf("published catalog diverged from the oracle\n%s", firstDiff(got, want))
			}
			if got, want := rankingsFingerprint(t, restarted), rankingsFingerprint(t, oracle); got != want {
				t.Fatalf("search rankings diverged from the oracle\n%s", firstDiff(got, want))
			}
			if err := restarted.Close(); err != nil {
				t.Fatal(err)
			}

			// One more restart after the clean shutdown: the reconcile's
			// publish was journaled too.
			again, err := OpenDurable(durableCfg)
			if err != nil {
				t.Fatal(err)
			}
			defer again.Close()
			if publishedFingerprint(t, again) != publishedFingerprint(t, oracle) {
				t.Fatal("second restart lost the reconciled state")
			}
		})
	}
}

// TestWarmRestartCurationSurvives pins the sidecar's user-visible
// payload: rules exported before a crash export identically after the
// restart, and a curated synonym keeps resolving in text search.
func TestWarmRestartCurationSurvives(t *testing.T) {
	root := t.TempDir()
	dataDir := t.TempDir()
	if _, err := archive.Generate(root, archive.DefaultGenConfig(24, 5)); err != nil {
		t.Fatal(err)
	}
	cfg := Config{ArchiveRoot: root, DataDir: dataDir}
	sys, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddSynonym("salinity", "saltiness_index"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	rulesBefore, err := sys.ExportRules()
	if err != nil {
		t.Fatal(err)
	}
	hitsBefore, err := sys.SearchText("with saltiness_index top 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(hitsBefore) == 0 {
		t.Fatal("curated synonym resolved nothing before the crash")
	}
	// kill -9.

	back, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	rulesAfter, err := back.ExportRules()
	if err != nil {
		t.Fatal(err)
	}
	if string(rulesAfter) != string(rulesBefore) {
		t.Fatalf("ExportRules changed across restart:\nbefore: %s\nafter: %s", rulesBefore, rulesAfter)
	}
	hitsAfter, err := back.SearchText("with saltiness_index top 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(hitsAfter) != len(hitsBefore) || hitsAfter[0].Path != hitsBefore[0].Path {
		t.Fatal("curated synonym stopped resolving after restart")
	}
}

// TestWarmRestartUnitAliasSurvives: a unit alias curated through Curate
// is journaled with the next wrangle's sidecar and still resolves after
// a restart, at the same curation version.
func TestWarmRestartUnitAliasSurvives(t *testing.T) {
	root := t.TempDir()
	if _, err := archive.Generate(root, archive.DefaultGenConfig(12, 7)); err != nil {
		t.Fatal(err)
	}
	cfg := Config{ArchiveRoot: root, DataDir: t.TempDir()}
	sys, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ctx.Curate(func(next *core.Curation) error { return next.Units.AddAlias("grados_c", "degC") }); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	version := sys.ctx.Curation().Version
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	back, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	cur := back.ctx.Curation()
	if _, ok := cur.Units.Lookup("grados_c"); !ok {
		t.Fatal("curated unit alias lost across the restart")
	}
	if cur.Version != version {
		t.Fatalf("curation version %d after the restart, want %d", cur.Version, version)
	}
}

// TestPushRecordsCarryNoSidecar pins when the journal carries the
// knowledge sidecar: a wrangle journals it with its publish, five pushes
// that change no curation journal none, and a restart from that journal
// still restores the same rules, curator queue and curation version —
// so its next wrangle is delta-scoped.
func TestPushRecordsCarryNoSidecar(t *testing.T) {
	root := t.TempDir()
	if _, err := archive.Generate(root, archive.DefaultGenConfig(12, 9)); err != nil {
		t.Fatal(err)
	}
	cfg := Config{ArchiveRoot: root, DataDir: t.TempDir()}
	sys, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddSynonym("salinity", "saltiness_index"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	base := sys.ctx.Published.Snapshot().All()[0]
	for i := 0; i < 5; i++ {
		f := base.Clone()
		f.Path = fmt.Sprintf("push/%d-%s", i, filepath.Base(base.Path))
		f.ID = catalog.IDForPath(f.Path)
		if _, err := sys.PublishFeatures(&PublishRequest{Features: []*catalog.Feature{f}}); err != nil {
			t.Fatal(err)
		}
	}
	frames, _, _, err := sys.JournalTail(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(frames), "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("journal holds %d records, want the wrangle's and 5 pushes'", len(lines))
	}
	for i, line := range lines {
		rec, err := catalog.DecodeDeltaFrame(line)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rec.Sidecar != nil, i == 0; got != want {
			t.Fatalf("record %d (generation %d) carries a sidecar: %v, want %v", i, rec.Gen, got, want)
		}
	}
	rules, err := sys.ExportRules()
	if err != nil {
		t.Fatal(err)
	}
	queue, version := sys.CuratorQueue(), sys.ctx.Curation().Version
	if version == 0 {
		t.Fatal("the curated synonym did not move the version")
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	back, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	backRules, err := back.ExportRules()
	if err != nil {
		t.Fatal(err)
	}
	if string(backRules) != string(rules) {
		t.Fatalf("ExportRules changed across restart:\nbefore: %s\nafter: %s", rules, backRules)
	}
	if got := back.CuratorQueue(); !reflect.DeepEqual(got, queue) {
		t.Fatalf("CuratorQueue changed across restart:\nbefore: %q\nafter: %q", queue, got)
	}
	if got := back.ctx.Curation().Version; got != version {
		t.Fatalf("version %d after restart, want %d", got, version)
	}
	rep, err := back.Wrangle()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delta.FullReprocess || rep.Steps[0].Counters["fullReprocess"] != 0 {
		t.Fatalf("the wrangle after restart reprocessed everything: %v", rep.Steps[0].Counters)
	}

	// A sidecar that rode a record at an unchanged generation — a
	// curation-only wrangle — is repeated on the next push, since
	// followers skip such records; the push after that carries none.
	push := func(i int) bool {
		f := base.Clone()
		f.Path = fmt.Sprintf("push/again-%d-%s", i, filepath.Base(base.Path))
		f.ID = catalog.IDForPath(f.Path)
		gen := back.DurableGeneration()
		if _, err := back.PublishFeatures(&PublishRequest{Features: []*catalog.Feature{f}}); err != nil {
			t.Fatal(err)
		}
		frames, _, _, err := back.JournalTail(gen, 0)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := catalog.DecodeDeltaFrame(strings.TrimSuffix(string(frames), "\n"))
		if err != nil {
			t.Fatal(err)
		}
		return rec.Sidecar != nil
	}
	if err := back.AddSynonym("salinity", "brine_index"); err != nil {
		t.Fatal(err)
	}
	if rep, err := back.Wrangle(); err != nil || !rep.Delta.GenerationStable {
		t.Fatalf("curation-only wrangle: %+v, %v", rep, err)
	}
	if first, second := push(1), push(2); !first || second {
		t.Fatalf("pushes after a curation-only wrangle carry sidecars %v, %v; want true, false", first, second)
	}
}
