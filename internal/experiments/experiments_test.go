package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestTable1ShapeHoldsTable1Claims(t *testing.T) {
	tab := exhibit(t, "T1")
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d, want 7 (Table 1 categories)", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		injected, _ := strconv.Atoi(row[2])
		if injected == 0 {
			t.Errorf("category %s never injected", row[0])
			continue
		}
		recall, _ := strconv.ParseFloat(row[4], 64)
		if recall < 0.5 {
			t.Errorf("category %s detection recall %.2f < 0.5", row[0], recall)
		}
		if row[5] != "n/a" {
			resolved, _ := strconv.ParseFloat(row[5], 64)
			if resolved < 0.5 {
				t.Errorf("category %s resolution %.2f < 0.5", row[0], resolved)
			}
		}
	}
	out := tab.String()
	if !strings.Contains(out, "T1") || !strings.Contains(out, "synonym") {
		t.Error("rendered table malformed")
	}
}

func TestFigure1WranglingImprovesRetrieval(t *testing.T) {
	tab := exhibit(t, "F1")
	get := func(name string, col int) float64 {
		for _, r := range tab.Rows {
			if r[0] == name {
				v, _ := strconv.ParseFloat(r[col], 64)
				return v
			}
		}
		t.Fatalf("row %q missing", name)
		return 0
	}
	rawR10 := get("raw catalog, exact match", 2)
	wrangledR10 := get("wrangled catalog", 2)
	if wrangledR10 <= rawR10 {
		t.Errorf("wrangling did not improve recall: raw %.3f vs wrangled %.3f", rawR10, wrangledR10)
	}
	if wrangledR10 < 0.8 {
		t.Errorf("wrangled recall = %.3f, want >= 0.8", wrangledR10)
	}
	// Index and linear scan agree on quality (exact top-K).
	idx := get("wrangled catalog", 3)
	lin := get("wrangled, linear scan", 3)
	if idx != lin {
		t.Errorf("index NDCG %.3f != linear %.3f", idx, lin)
	}
}

func TestFigure2FeaturesAreSmall(t *testing.T) {
	tab, err := Figure2CatalogBuild(
		[]string{t.TempDir(), t.TempDir()},
		[]int{15, 45}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		ratio, _ := strconv.ParseFloat(strings.TrimSuffix(r[3], "x"), 64)
		if ratio < 3 {
			t.Errorf("feature summarization ratio %.1f < 3x for %s datasets", ratio, r[0])
		}
	}
	if _, err := Figure2CatalogBuild([]string{t.TempDir()}, []int{1, 2}, 1); err == nil {
		t.Error("mismatched dirs/sizes accepted")
	}
}

func TestFigure3CoverageMonotone(t *testing.T) {
	tab := exhibit(t, "F3")
	var prev float64
	for i, r := range tab.Rows {
		cov, _ := strconv.ParseFloat(r[5], 64)
		if cov < prev-1e-9 {
			t.Errorf("coverage decreased at stage %s: %.3f -> %.3f", r[0], prev, cov)
		}
		prev = cov
		if i == len(tab.Rows)-1 && cov < 0.9 {
			t.Errorf("final coverage %.3f < 0.9", cov)
		}
	}
	if len(tab.Notes) == 0 || !strings.Contains(tab.Notes[0], "incremental rerun") {
		t.Error("rerun note missing")
	}
}

func TestFigure4DiscoveryShape(t *testing.T) {
	tab := exhibit(t, "F4")
	if len(tab.Rows) != 10 { // 2 mess levels x 5 methods
		t.Fatalf("rows = %d, want 10", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r[6] == "false" {
			t.Errorf("method %s at %s: rule replay not idempotent", r[1], r[0])
		}
		prec, _ := strconv.ParseFloat(r[4], 64)
		if edits, _ := strconv.Atoi(r[3]); edits > 0 && prec < 0.3 {
			t.Errorf("method %s at %s: precision %.2f unusably low", r[1], r[0], prec)
		}
	}
	if _, err := Figure4Discovery([]string{t.TempDir()}, []float64{1, 2}, 5, 1); err == nil {
		t.Error("mismatched dirs/scales accepted")
	}
}

func TestFigure5SummariesComplete(t *testing.T) {
	tab := exhibit(t, "F5")
	rows := map[string]string{}
	for _, r := range tab.Rows {
		rows[r[0]] = r[1]
	}
	full := rows["pages showing every harvested variable"]
	parts := strings.Split(full, "/")
	if len(parts) != 2 || parts[0] != parts[1] {
		t.Errorf("not every page complete: %s", full)
	}
	excl := rows["excessive variables shown as excluded"]
	parts = strings.Split(excl, "/")
	if len(parts) != 2 || parts[0] != parts[1] {
		t.Errorf("not every excessive variable excluded: %s", excl)
	}
}

func TestAblationCuratorLoopConverges(t *testing.T) {
	tab := exhibit(t, "A1")
	if len(tab.Rows) == 0 {
		t.Fatal("no iterations")
	}
	first := tab.Rows[0]
	last := tab.Rows[len(tab.Rows)-1]
	u0, _ := strconv.Atoi(first[1])
	uN, _ := strconv.Atoi(last[1])
	if uN > u0 {
		t.Errorf("unresolved grew across curator loop: %d -> %d", u0, uN)
	}
	covN, _ := strconv.ParseFloat(last[2], 64)
	if covN < 0.9 {
		t.Errorf("final coverage %.3f < 0.9", covN)
	}
}

func TestAblationValidationDetectsEveryFault(t *testing.T) {
	tab := exhibit(t, "A2")
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 faults", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r[2] != "true" {
			t.Errorf("fault %q not detected by %s", r[0], r[1])
		}
	}
}

func TestAblationScoringEveryDimensionMatters(t *testing.T) {
	tab := exhibit(t, "A3")
	var full float64
	for _, r := range tab.Rows {
		ndcg, _ := strconv.ParseFloat(r[2], 64)
		if r[0] == "full query (space+time+vars)" {
			full = ndcg
		}
	}
	if full == 0 {
		t.Fatal("full-query row missing")
	}
	clearlyWorse := 0
	for _, r := range tab.Rows {
		if r[0] == "full query (space+time+vars)" {
			continue
		}
		ndcg, _ := strconv.ParseFloat(r[2], 64)
		// Statistical tolerance: a dropped dimension may be ~neutral on a
		// given workload, but must never clearly beat the full query.
		if ndcg > full+0.05 {
			t.Errorf("dropping a dimension clearly improved NDCG: %s = %.3f > full %.3f", r[0], ndcg, full)
		}
		if ndcg < full-0.01 {
			clearlyWorse++
		}
	}
	if clearlyWorse < 2 {
		t.Errorf("only %d dropped dimensions degraded NDCG; expected at least space and time to matter", clearlyWorse)
	}
}
