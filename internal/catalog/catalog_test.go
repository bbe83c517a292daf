package catalog

import (
	"fmt"
	"testing"
	"time"

	"metamess/internal/geo"
)

func feat(path string, vars ...string) *Feature {
	f := &Feature{
		ID:     IDForPath(path),
		Path:   path,
		Source: "stations",
		Format: "csv",
		BBox:   geo.BBox{MinLat: 46, MinLon: -124, MaxLat: 46.2, MaxLon: -123.8},
		Time: geo.NewTimeRange(
			time.Date(2010, 6, 1, 0, 0, 0, 0, time.UTC),
			time.Date(2010, 6, 30, 0, 0, 0, 0, time.UTC)),
		RowCount:  100,
		Bytes:     4096,
		ScannedAt: time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	for _, v := range vars {
		f.Variables = append(f.Variables, VarFeature{
			RawName: v, Name: v, Unit: "degC",
			Range: geo.ValueRange{Min: 5, Max: 15}, Count: 100,
		})
	}
	return f
}

// served builds a served catalog of the given shard count (0 =
// default) from feats with one ApplyDelta; the features are upserted in
// order into a working catalog first, as a publish would see them.
func served(t testing.TB, shards int, feats ...*Feature) *Catalog {
	t.Helper()
	w := NewWorking()
	for _, f := range feats {
		if err := w.Upsert(f); err != nil {
			t.Fatal(err)
		}
	}
	return serve(t, shards, w)
}

// serve publishes w into a fresh served catalog with one ApplyDelta.
func serve(t testing.TB, shards int, w *Working) *Catalog {
	t.Helper()
	c := NewSharded(shards)
	if _, err := c.ApplyDelta(c.DiffTo(w)); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestUpsertGetDelete(t *testing.T) {
	c := NewWorking()
	f := feat("stations/2010/saturn01.csv", "water_temperature", "salinity")
	if err := c.Upsert(f); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	got, ok := c.Get(f.ID)
	if !ok || got.Path != f.Path || len(got.Variables) != 2 {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	// Returned copies are isolated.
	got.Variables[0].Name = "mutated"
	again, _ := c.Get(f.ID)
	if again.Variables[0].Name == "mutated" {
		t.Error("Get returned a live reference")
	}
	if !c.Delete(f.ID) {
		t.Error("Delete returned false")
	}
	if c.Delete(f.ID) {
		t.Error("double Delete returned true")
	}
	if c.Len() != 0 {
		t.Errorf("Len after delete = %d", c.Len())
	}
}

func TestUpsertValidates(t *testing.T) {
	c := NewWorking()
	bad := feat("a.csv")
	bad.ID = "wrong"
	if err := c.Upsert(bad); err == nil {
		t.Error("mismatched ID accepted")
	}
	dup := feat("b.csv", "x")
	dup.Variables = append(dup.Variables, VarFeature{RawName: "x", Name: "x"})
	if err := c.Upsert(dup); err == nil {
		t.Error("duplicate variable accepted")
	}
	noName := feat("c.csv", "x")
	noName.Variables[0].Name = ""
	if err := c.Upsert(noName); err == nil {
		t.Error("empty variable name accepted")
	}
}

func TestUpsertReplacesAndReindexes(t *testing.T) {
	c := NewWorking()
	f := feat("a.csv", "old_name")
	if err := c.Upsert(f); err != nil {
		t.Fatal(err)
	}
	f2 := feat("a.csv", "new_name")
	if err := c.Upsert(f2); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if n := countWithVariable(serve(t, 0, c).Snapshot(), "old_name"); n != 0 {
		t.Errorf("old index entry survived: %d", n)
	}
	if n := countWithVariable(serve(t, 0, c).Snapshot(), "new_name"); n != 1 {
		t.Errorf("new index entry missing: %d", n)
	}
	if names := c.DistinctVariableNames(); len(names) != 1 || names[0] != "new_name" {
		t.Errorf("name tally = %v, want [new_name]", names)
	}
}

func TestIndexExcludesExcludedVariables(t *testing.T) {
	c := NewWorking()
	f := feat("a.csv", "salinity")
	f.Variables = append(f.Variables, VarFeature{
		RawName: "qa_level", Name: "qa_level", Excluded: true, Count: 10,
	})
	if err := c.Upsert(f); err != nil {
		t.Fatal(err)
	}
	if n := countWithVariable(serve(t, 0, c).Snapshot(), "qa_level"); n != 0 {
		t.Errorf("excluded variable indexed %d times", n)
	}
	if n := countWithVariable(serve(t, 0, c).Snapshot(), "salinity"); n != 1 {
		t.Errorf("searchable variable indexed %d times", n)
	}
	// But the variable remains in the detailed feature view.
	got, _ := c.Get(f.ID)
	if len(got.Variables) != 2 {
		t.Error("excluded variable dropped from feature")
	}
}

func TestAllSortedAndIsolated(t *testing.T) {
	c := NewWorking()
	for i := 0; i < 10; i++ {
		if err := c.Upsert(feat(fmt.Sprintf("d%02d.csv", i), "v")); err != nil {
			t.Fatal(err)
		}
	}
	served := serve(t, 0, c)
	all := served.Snapshot().All()
	if len(all) != 10 {
		t.Fatalf("All = %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Fatal("All not sorted by ID")
		}
	}
	i := 0
	served.ForEach(func(f *Feature) {
		if f != all[i] {
			t.Errorf("ForEach visited %s at %d, snapshot holds %s", f.ID, i, all[i].ID)
		}
		i++
	})
	// Get hands out a private copy: editing it reaches neither the
	// working catalog nor the served snapshot that shares its features.
	got, _ := c.Get(all[0].ID)
	got.Variables[0].Name = "edited"
	if again, _ := c.Get(all[0].ID); again.Variables[0].Name != "v" || all[0].Variables[0].Name != "v" {
		t.Error("editing a Get copy reached the catalog")
	}
}

func TestVariableNameCounts(t *testing.T) {
	c := NewWorking()
	_ = c.Upsert(feat("a.csv", "salinity", "temp"))
	_ = c.Upsert(feat("b.csv", "salinity"))
	counts := c.VariableNameCounts()
	if counts[0].Value != "salinity" || counts[0].Count != 2 {
		t.Errorf("top count = %+v", counts[0])
	}
	names := c.DistinctVariableNames()
	if len(names) != 2 || names[0] != "salinity" || names[1] != "temp" {
		t.Errorf("names = %v", names)
	}
}

func TestMutateVariables(t *testing.T) {
	c := NewWorking()
	_ = c.Upsert(feat("a.csv", "airtemp"))
	_ = c.Upsert(feat("b.csv", "salinity"))
	gen := c.Generation()
	changed := c.MutateVariables(func(f *Feature) bool {
		for i := range f.Variables {
			if f.Variables[i].Name == "airtemp" {
				f.Variables[i].Name = "air_temperature"
				return true
			}
		}
		return false
	})
	if changed != 1 {
		t.Errorf("changed = %d", changed)
	}
	if c.Generation() == gen {
		t.Error("generation not bumped")
	}
	if n := countWithVariable(serve(t, 0, c).Snapshot(), "air_temperature"); n != 1 {
		t.Errorf("index not updated: %d", n)
	}
	if n := countWithVariable(serve(t, 0, c).Snapshot(), "airtemp"); n != 0 {
		t.Errorf("stale index: %d", n)
	}
}

func TestToTableApplyTableRoundTrip(t *testing.T) {
	c := NewWorking()
	_ = c.Upsert(feat("a.csv", "airtemp", "salinity"))
	_ = c.Upsert(feat("b.csv", "ATastn"))
	grid := c.ToTable()
	if grid.NumRows() != 3 {
		t.Fatalf("grid rows = %d", grid.NumRows())
	}
	// Wrangle the grid: rename every temperature variant.
	for i := 0; i < grid.NumRows(); i++ {
		v, _ := grid.Cell(i, "field")
		if v == "airtemp" || v == "ATastn" {
			_ = grid.SetCell(i, "field", "air_temperature")
		}
	}
	changed, err := c.ApplyTable(grid)
	if err != nil {
		t.Fatal(err)
	}
	if changed != 2 {
		t.Errorf("changed = %d, want 2", changed)
	}
	if counts := c.VariableNameCounts(); len(counts) != 2 || counts[0].Value != "air_temperature" || counts[0].Count != 2 {
		t.Errorf("renamed variable tally = %v", counts)
	}
	// RawName preserved for provenance.
	f, _ := c.Get(IDForPath("b.csv"))
	if f.Variables[0].RawName != "ATastn" || f.Variables[0].Name != "air_temperature" {
		t.Errorf("provenance lost: %+v", f.Variables[0])
	}
}

func TestApplyTableErrors(t *testing.T) {
	c := NewWorking()
	_ = c.Upsert(feat("a.csv", "x", "y"))
	grid := c.ToTable()
	// Drop a row: row count mismatch must fail.
	grid.FilterRows(func(i int, _ []string) bool { return i != 0 })
	if _, err := c.ApplyTable(grid); err == nil {
		t.Error("row-count mismatch accepted")
	}
	bad := c.ToTable()
	_ = bad.RemoveColumn("field")
	if _, err := c.ApplyTable(bad); err == nil {
		t.Error("missing column accepted")
	}
}

func TestSearchableNamesAndVariable(t *testing.T) {
	f := feat("a.csv", "salinity", "water_temperature")
	f.Variables[0].Excluded = true
	names := f.SearchableNames()
	if len(names) != 1 || names[0] != "water_temperature" {
		t.Errorf("searchable = %v", names)
	}
	if _, ok := f.Variable("salinity"); !ok {
		t.Error("Variable lookup failed")
	}
	if _, ok := f.Variable("ghost"); ok {
		t.Error("Variable found ghost")
	}
}

func TestIDForPathStable(t *testing.T) {
	a := IDForPath("stations/2010/x.csv")
	b := IDForPath("stations/2010/x.csv")
	if a != b {
		t.Error("ID not stable")
	}
	if a == IDForPath("stations/2010/y.csv") {
		t.Error("distinct paths collided")
	}
	if len(a) != 16 {
		t.Errorf("ID length = %d, want 16 hex chars", len(a))
	}
}
