package metamess

import (
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"metamess/internal/archive"
	"metamess/internal/catalog"
	"metamess/internal/scan"
	"metamess/internal/validate"
)

// publishedFingerprint renders a system's published catalog as
// comparable bytes: every feature JSON-marshaled in ID order with the
// ScannedAt bookkeeping zeroed (two systems never scan at the same
// instant; everything else must match to the byte).
func publishedFingerprint(t *testing.T, sys *System) string {
	t.Helper()
	var b strings.Builder
	for _, f := range sys.ctx.Published.Snapshot().All() {
		c := f.Clone()
		c.ScannedAt = time.Time{}
		data, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(data)
		b.WriteByte('\n')
	}
	return b.String()
}

// rankingsFingerprint runs a battery of queries spanning every planner
// dimension and renders the full ranked responses as comparable bytes.
func rankingsFingerprint(t *testing.T, sys *System) string {
	t.Helper()
	queries := []Query{
		{Variables: []VariableTerm{{Name: "temperature"}}, K: 25},
		{Variables: []VariableTerm{{Name: "salinity", Min: f64p(5), Max: f64p(30)}}, K: 25},
		{Near: &LatLon{Lat: 45.5, Lon: -124.4}, K: 25},
		{
			Near: &LatLon{Lat: 46.2, Lon: -123.8},
			From: time.Date(2010, 4, 1, 0, 0, 0, 0, time.UTC),
			To:   time.Date(2010, 9, 1, 0, 0, 0, 0, time.UTC),
			Variables: []VariableTerm{
				{Name: "temperature", Min: f64p(5), Max: f64p(15)},
			},
			K: 25,
		},
	}
	texts := []string{
		"near 45.8,-124.0 in mid-2010 with temperature between 5 and 15",
		"with turbidity top 30",
	}
	var b strings.Builder
	for i, q := range queries {
		hits, err := sys.Search(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		data, err := json.Marshal(hits)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "q%d %s\n", i, data)
	}
	for i, q := range texts {
		hits, err := sys.SearchText(q)
		if err != nil {
			t.Fatalf("text query %d: %v", i, err)
		}
		data, err := json.Marshal(hits)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "t%d %s\n", i, data)
	}
	return b.String()
}

func f64p(v float64) *float64 { return &v }

// nameLevelFingerprint renders what a system's last run concluded from
// variable names alone: the exported discovered rules, the run's mess
// metric before and after, and the validation findings (sorted here;
// requireValidationMatchesOracle checks their order).
func nameLevelFingerprint(t *testing.T, sys *System) string {
	t.Helper()
	rules, err := sys.ExportRules()
	if err != nil {
		t.Fatal(err)
	}
	run := sys.process.History[len(sys.process.History)-1]
	findings := sys.Validation()
	sort.Strings(findings)
	return fmt.Sprintf("rules %s\nmess before %+v\nmess after %+v\nvalidation\n%s\n",
		rules, run.MessBefore, run.MessAfter, strings.Join(findings, "\n"))
}

// obsContent fabricates a clean OBS dataset body: canonical variable
// names, plausible values, deterministic per (tag, version).
func obsContent(tag string, version int) string {
	lat := 44.0 + float64(tag[len(tag)-1]%8)*0.3
	lon := -125.0 + float64(version%5)*0.2
	start := 1274000000 + int64(version)*86400
	var b strings.Builder
	fmt.Fprintf(&b, "#station: %s\n#lat: %.4f\n#lon: %.4f\n", tag, lat, lon)
	b.WriteString("#fields:\ttime\twater_temperature [degC]\tsalinity [psu]\n")
	for i := 0; i < 6; i++ {
		fmt.Fprintf(&b, "%d\t%.2f\t%.2f\n", start+int64(i)*3600,
			10.0+float64((version+i)%7), 28.0+float64(i%4))
	}
	return b.String()
}

// validationBait lists handcrafted files that each trip one validation
// check, with the round that adds each and the later round that removes
// it: an implausible salinity, a CSV among the OBS files of stations/,
// and two files sharing an unregistered unit, so the unit's "first seen
// on" dataset moves as they come and go.
var validationBait = []struct {
	rel         string
	body        string
	added, gone int
}{
	{"stations/bait-range.obs", baitOBS("range", "PSU", 500), 1, 3},
	{"stations/bait-unit-a.obs", baitOBS("unita", "furlongs", 28), 1, 3},
	{"stations/bait-unit-b.obs", baitOBS("unitb", "furlongs", 29), 2, 4},
	{"stations/bait-mixed.csv", "time,latitude,longitude,water_temperature [degC],salinity [PSU]\n" +
		"2010-05-20T00:00:00Z,45.5,-124.0,10.5,28.0\n2010-05-20T01:00:00Z,45.6,-124.1,11.5,29.0\n", 2, 4},
}

// baitOBS is an OBS body with canonical names and units, except for the
// salinity unit and value the caller picks.
func baitOBS(tag, salinityUnit string, salinity float64) string {
	return fmt.Sprintf("#station: %s\n#lat: 45.5\n#lon: -124.0\n#fields:\twater_temperature\tsalinity\n#units:\tdegC\t%s\n"+
		"1274000000\t10.5\t%g\n1274003600\t11.5\t%g\n", tag, salinityUnit, salinity, salinity+1)
}

// requireValidationMatchesOracle holds a system's last validation report
// to a from-scratch validate.Run over its own working catalog: same
// checks, same findings, in the same order.
func requireValidationMatchesOracle(t *testing.T, sys *System, when string) {
	t.Helper()
	want := validate.Run(&validate.Context{
		Catalog:       sys.ctx.Working,
		Knowledge:     sys.ctx.Curation().Knowledge,
		Units:         sys.ctx.Curation().Units,
		ExpectedPaths: sys.ctx.ExpectedPaths,
	}, validate.DefaultChecks()...)
	if got := sys.ctx.LastValidation; !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: validation report diverged from validate.Run over the working catalog\n got: %+v\nwant: %+v", when, got, want)
	}
}

// appendDuplicateLastLine grows a generated OBS file by one repeated
// observation: the summary genuinely changes (row count) while every
// variable name stays put.
func appendDuplicateLastLine(t testing.TB, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	last := lines[len(lines)-1]
	if strings.HasPrefix(last, "#") || last == "" {
		return // header-only file; leave it alone
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(last + "\n"); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaWrangleEquivalentToFromScratch is the write path's
// correctness anchor: interleave randomized archive mutations (adds,
// in-place edits, mtime-preserving edits, deletions, files that trip
// each validation check coming and going) and pushed batches with delta
// re-wrangles, and require the published catalog and the search
// rankings to stay byte-identical to two oracles after every round —
//
//   - a persistent system running the same history with delta-scoped
//     processing disabled (Config.FullReprocess), which isolates the
//     delta machinery itself: same accumulated curation, every feature
//     reprocessed every run;
//   - a cold system wrangling the final archive state from scratch,
//     then receiving the pushed features still live, the poster's
//     "re-run the whole process" baseline.
//
// Every round the delta system's validation report must also equal a
// from-scratch validate.Run over its working catalog, findings in order.
// CI runs this under -race, so the parallel scanner and the publish
// patching are exercised for data races at the same time.
func TestDeltaWrangleEquivalentToFromScratch(t *testing.T) {
	for _, seed := range []int64{3, 19} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			root := t.TempDir()
			m, err := archive.Generate(root, archive.DefaultGenConfig(24, seed))
			if err != nil {
				t.Fatal(err)
			}
			// The walker scans the archive's own directories, so pushed
			// features, filed under pushed/, are never retracted by a scan.
			entries, err := os.ReadDir(root)
			if err != nil {
				t.Fatal(err)
			}
			var dirs []string
			for _, e := range entries {
				if e.IsDir() {
					dirs = append(dirs, e.Name())
				}
			}
			cfg := Config{ArchiveRoot: root, Dirs: dirs}

			deltaSys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer deltaSys.Close()
			walkCfg := cfg
			walkCfg.Connector = walkOnly{scan.Config{Root: root, Dirs: dirs}}
			walkSys, err := New(walkCfg)
			if err != nil {
				t.Fatal(err)
			}
			fullCfg := cfg
			fullCfg.FullReprocess = true
			fullSys, err := New(fullCfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := deltaSys.Wrangle(); err != nil {
				t.Fatal(err)
			}
			if _, err := fullSys.Wrangle(); err != nil {
				t.Fatal(err)
			}
			if _, err := walkSys.Wrangle(); err != nil {
				t.Fatal(err)
			}

			// Mutable working set: handcrafted files this test added.
			var added []string
			obsOriginals := []string{}
			for _, d := range m.Datasets {
				if string(d.Format) == "obs" {
					obsOriginals = append(obsOriginals, d.Path)
				}
			}
			nextTag := 0
			followed := 0

			// The trap file: created with a pinned mtime, then edited
			// each round with same-size content and the mtime
			// restored. Size and mtime never move, so only the
			// content-hash tie-break in scanOne can see these edits —
			// if it ever stops arbitrating, the delta system diverges
			// from the oracles and this test fails.
			trapRel := filepath.Join("stations", "trap.obs")
			trapAbs := filepath.Join(root, trapRel)
			trapMtime := time.Now().Add(time.Hour).Truncate(time.Second)
			writeTrap := func(version int) {
				body := obsContent("trap", version)
				if err := os.WriteFile(trapAbs, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.Chtimes(trapAbs, trapMtime, trapMtime); err != nil {
					t.Fatal(err)
				}
			}
			writeTrap(0)
			// Pushed features live: path -> feature, pushed to the delta and
			// full systems between rounds and to each cold system after its
			// wrangle.
			pushed := map[string]*catalog.Feature{}

			for round := 0; round < 5; round++ {
				// Adds: clean handcrafted datasets.
				for k := 0; k < 1+rng.Intn(2); k++ {
					rel := filepath.Join("stations", fmt.Sprintf("prop%02d.obs", nextTag))
					nextTag++
					if err := os.WriteFile(filepath.Join(root, rel),
						[]byte(obsContent(fmt.Sprintf("p%d", nextTag), 0)), 0o644); err != nil {
						t.Fatal(err)
					}
					added = append(added, rel)
				}
				// In-place edits of generated files (name-preserving).
				for k := 0; k < rng.Intn(3); k++ {
					rel := obsOriginals[rng.Intn(len(obsOriginals))]
					appendDuplicateLastLine(t, filepath.Join(root, rel))
				}
				// The stat-invisible edit: same size, same mtime, new
				// content.
				if round > 0 {
					writeTrap(round)
				}
				// Deletions of handcrafted files.
				if len(added) > 1 && rng.Intn(2) == 0 {
					i := rng.Intn(len(added))
					if err := os.Remove(filepath.Join(root, added[i])); err != nil {
						t.Fatal(err)
					}
					added = append(added[:i], added[i+1:]...)
				}
				for _, b := range validationBait {
					switch round {
					case b.added:
						if err := os.WriteFile(filepath.Join(root, b.rel), []byte(b.body), 0o644); err != nil {
							t.Fatal(err)
						}
					case b.gone:
						if err := os.Remove(filepath.Join(root, b.rel)); err != nil {
							t.Fatal(err)
						}
					}
				}

				repDelta, err := deltaSys.Wrangle()
				if err != nil {
					t.Fatalf("round %d: delta wrangle: %v", round, err)
				}
				if _, err := fullSys.Wrangle(); err != nil {
					t.Fatalf("round %d: full wrangle: %v", round, err)
				}
				repWalk, err := walkSys.Wrangle()
				if err != nil {
					t.Fatalf("round %d: walk-only wrangle: %v", round, err)
				}
				// The delta system's walker follows its change feed from its
				// third scan on; the walk-only system walks every time. Same
				// scan, same delta, same catalog.
				feedCounters, walkCounters := scanCounters(repDelta), scanCounters(repWalk)
				if feedCounters["fullWalk"] == 0 {
					followed++
				}
				delete(feedCounters, "fullWalk")
				if !reflect.DeepEqual(feedCounters, walkCounters) || repDelta.Delta != repWalk.Delta {
					t.Fatalf("round %d: the feed's scan diverged from the walk's\nfeed: %v %+v\nwalk: %v %+v",
						round, feedCounters, repDelta.Delta, walkCounters, repWalk.Delta)
				}
				if got, want := publishedFingerprint(t, deltaSys), publishedFingerprint(t, walkSys); got != want {
					t.Fatalf("round %d: the feed's published catalog diverged from the walk's\n%s", round, firstDiff(got, want))
				}
				coldSys, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := coldSys.Wrangle(); err != nil {
					t.Fatalf("round %d: cold wrangle: %v", round, err)
				}
				if len(pushed) > 0 {
					var live []*catalog.Feature
					for _, f := range pushed {
						live = append(live, f)
					}
					if _, err := coldSys.PublishFeatures(&PublishRequest{Features: live}); err != nil {
						t.Fatalf("round %d: cold push: %v", round, err)
					}
				}

				wantCat, wantRank := publishedFingerprint(t, coldSys), rankingsFingerprint(t, coldSys)
				for name, sys := range map[string]*System{"delta": deltaSys, "full-ablation": fullSys} {
					if got := publishedFingerprint(t, sys); got != wantCat {
						t.Fatalf("round %d: %s published catalog diverged from cold wrangle\ndelta report: %+v\n%s",
							round, name, repDelta.Delta, firstDiff(got, wantCat))
					}
					if got := rankingsFingerprint(t, sys); got != wantRank {
						t.Fatalf("round %d: %s rankings diverged from cold wrangle\n%s",
							round, name, firstDiff(got, wantRank))
					}
				}
				// Name-level state — the shared classifier memo, the seeded
				// discovery, the catalog's name tally — must leave no trace
				// either: same discovered rules, same mess figures, same
				// validation findings as the system that reprocesses
				// everything every run.
				if got, want := nameLevelFingerprint(t, deltaSys), nameLevelFingerprint(t, fullSys); got != want {
					t.Fatalf("round %d: delta system's rules/mess/validation diverged from the full-reprocess oracle\n%s",
						round, firstDiff(got, want))
				}
				// The delta run must actually have been incremental (the
				// archive churned, so some delta is expected, but never a
				// full reprocess after round 0).
				if repDelta.Delta.FullReprocess {
					t.Fatalf("round %d: delta system fell back to full reprocess: %+v", round, repDelta.Delta)
				}
				requireValidationMatchesOracle(t, deltaSys, fmt.Sprintf("round %d", round))
				if round == 2 {
					// Every bait is in the archive: each must have tripped its check.
					tripped := map[string]bool{}
					for _, f := range deltaSys.ctx.LastValidation.Findings {
						tripped[f.Check] = true
					}
					for _, check := range []string{"plausible-ranges", "units-resolved", "same-type-directory"} {
						if !tripped[check] {
							t.Fatalf("round 2: no %s finding: %+v", check, deltaSys.ctx.LastValidation.Findings)
						}
					}
				}

				// After every other round, push a copy of the wrangled trap
				// feature (a fixed point of the chain, even with a unit no
				// registry resolves) under pushed/ and retract the older
				// push, to the persistent systems. A push changes the
				// working catalog outside a scan, so the next scan walks;
				// the rounds after no push follow the change feed.
				if round%2 == 1 {
					continue
				}
				trap, ok := deltaSys.ctx.Published.Snapshot().ByID(catalog.IDForPath(trapRel))
				if !ok {
					t.Fatalf("round %d: trap feature not published", round)
				}
				src := trap.Clone()
				src.Path = fmt.Sprintf("pushed/p%d.obs", round)
				src.ID = catalog.IDForPath(src.Path)
				src.Variables[0].Unit = "furlongs"
				req := &PublishRequest{Features: []*catalog.Feature{src}}
				if round >= 2 {
					gone := fmt.Sprintf("pushed/p%d.obs", round-2)
					req.Remove = []string{gone}
					delete(pushed, gone)
				}
				pushed[src.Path] = src
				for name, sys := range map[string]*System{"delta": deltaSys, "full-ablation": fullSys, "walk-only": walkSys} {
					if _, err := sys.PublishFeatures(req); err != nil {
						t.Fatalf("round %d: %s push: %v", round, name, err)
					}
				}
			}

			t.Logf("%d of 5 rounds followed the change feed", followed)
			if runtime.GOOS == "linux" && followed < 2 {
				t.Fatal("the delta system's scans after a round without a push did not follow the change feed")
			}

			// Coda: a no-op round — nothing mutated — must publish nothing
			// and keep the generation, while staying equivalent.
			gen := deltaSys.SnapshotGeneration()
			rep, err := deltaSys.Wrangle()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Delta.GenerationStable || deltaSys.SnapshotGeneration() != gen {
				t.Fatalf("no-op round moved the generation: %+v", rep.Delta)
			}
		})
	}
}

// walkOnly scans with a new walker every run. A scanner's first scan
// is a plain walk, so a system with this connector never opens a change
// feed: the oracle for a system whose walker follows one.
type walkOnly struct{ cfg scan.Config }

func (w walkOnly) Name() string { return "walker" }

func (w walkOnly) ScanInto(c *catalog.Working) (*scan.Result, error) {
	return scan.New(w.cfg).ScanInto(c)
}

// scanCounters copies a report's scan-archive counters.
func scanCounters(rep *Report) map[string]int {
	for _, st := range rep.Steps {
		if st.Component == "scan-archive" {
			return maps.Clone(st.Counters)
		}
	}
	return nil
}

// firstDiff renders the first differing line of two multiline strings.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got: %.400s\nwant: %.400s", i, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, want %d", len(g), len(w))
}
