package experiments

import (
	"flag"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/exhibits.golden from the running code")

// exhibitRuns computes each exhibit in exhibits.golden at the seed and
// size its threshold test judges, in file order. Figure 2 is left out:
// every number it reports is a timing or derives from one.
var exhibitRuns = []struct {
	id  string
	run func(t *testing.T) (*Table, error)
}{
	{"T1", func(t *testing.T) (*Table, error) { return Table1SemanticDiversity(t.TempDir(), 60, 42) }},
	{"F1", func(t *testing.T) (*Table, error) { return Figure1RankedSearch(t.TempDir(), t.TempDir(), 45, 25, 7) }},
	{"F3", func(t *testing.T) (*Table, error) { return Figure3WranglingChain(t.TempDir(), 30, 11) }},
	{"F4", func(t *testing.T) (*Table, error) {
		return Figure4Discovery([]string{t.TempDir(), t.TempDir()}, []float64{0.5, 1.5}, 30, 13)
	}},
	{"F5", func(t *testing.T) (*Table, error) { return Figure5DatasetSummary(t.TempDir(), 21, 17) }},
	{"A1", func(t *testing.T) (*Table, error) { return AblationCuratorLoop(t.TempDir(), 30, 23, 5) }},
	{"A2", func(t *testing.T) (*Table, error) { return AblationValidation(t.TempDir(), 5) }},
	{"A3", func(t *testing.T) (*Table, error) { return AblationScoring(t.TempDir(), 45, 25, 29) }},
}

// exhibitMemo holds each exhibit computed so far in this test binary, so
// the threshold tests and the golden share one run of each.
var exhibitMemo = map[string]*Table{}

// exhibit returns the exhibit with the given ID, computing it on first
// use.
func exhibit(t *testing.T, id string) *Table {
	t.Helper()
	if tab, ok := exhibitMemo[id]; ok {
		return tab
	}
	for _, e := range exhibitRuns {
		if e.id == id {
			tab, err := e.run(t)
			if err != nil {
				t.Fatal(err)
			}
			exhibitMemo[id] = tab
			return tab
		}
	}
	t.Fatalf("no exhibit %s", id)
	return nil
}

// timingColumns are the headers of the columns that hold wall-clock
// times (F1's per-query latency, F3's per-step duration).
var timingColumns = map[string]bool{"mean-latency": true, "duration": true}

// rerunTiming is F3's note of the full and incremental run times.
var rerunTiming = regexp.MustCompile(`full run \S+; incremental rerun \S+ \(\S+x faster`)

// goldenText renders an exhibit with its timings masked; every other
// byte is what the exhibit computed.
func goldenText(tab *Table) string {
	m := *tab
	m.Rows = make([][]string, len(tab.Rows))
	for i, r := range tab.Rows {
		r = slices.Clone(r)
		for col, h := range tab.Header {
			if timingColumns[h] && col < len(r) {
				r[col] = "*"
			}
		}
		m.Rows[i] = r
	}
	m.Notes = make([]string, len(tab.Notes))
	for i, n := range tab.Notes {
		m.Notes[i] = rerunTiming.ReplaceAllString(n, "full run *; incremental rerun * (*x faster")
	}
	return m.String()
}

// TestExhibitsGolden holds the paper's exhibits to the numbers they
// produced when the golden was last written, byte for byte: a change to
// the classifier, discovery, wrangling or ranking that moves any exhibit
// fails here, however small. Rewrite the golden with -update, and name
// and explain the regeneration wherever the change is described.
func TestExhibitsGolden(t *testing.T) {
	var got strings.Builder
	for i, e := range exhibitRuns {
		if i > 0 {
			got.WriteString("\n")
		}
		got.WriteString(goldenText(exhibit(t, e.id)))
	}
	const path = "testdata/exhibits.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("exhibits changed at line %d:\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("exhibits changed: %d lines, want %d", len(gotLines), len(wantLines))
	}
}
