package synonym

import (
	"bytes"
	"strings"
	"testing"

	"metamess/internal/table"
)

func TestAddAndResolve(t *testing.T) {
	tb := NewTable()
	if err := tb.Add("air_temperature", "airtemp", "ATastn", "temperature of air"); err != nil {
		t.Fatal(err)
	}
	got, st := tb.Resolve("airtemp")
	if got != "air_temperature" || st != Alternate {
		t.Errorf("Resolve(airtemp) = %q, %v", got, st)
	}
	got, st = tb.Resolve("air_temperature")
	if got != "air_temperature" || st != Preferred {
		t.Errorf("Resolve(preferred) = %q, %v", got, st)
	}
	got, st = tb.Resolve("mystery")
	if got != "mystery" || st != Unknown {
		t.Errorf("Resolve(unknown) = %q, %v", got, st)
	}
}

func TestResolveNormalization(t *testing.T) {
	tb := NewTable()
	if err := tb.Add("air_temperature", "airtemp"); err != nil {
		t.Fatal(err)
	}
	// Case, punctuation, and separator variants all resolve.
	for _, v := range []string{"AirTemp", "AIR TEMP", "air-temp", "Air_Temperature"} {
		if !tb.Covers(v) {
			t.Errorf("Covers(%q) = false", v)
		}
	}
}

func TestAddConflicts(t *testing.T) {
	tb := NewTable()
	if err := tb.Add("water_temperature", "wtemp"); err != nil {
		t.Fatal(err)
	}
	// Same alternate cannot map to a different preferred name.
	if err := tb.Add("air_temperature", "wtemp"); err == nil {
		t.Error("conflicting alternate accepted")
	}
	// An existing preferred name cannot become an alternate.
	if err := tb.Add("temperature", "water_temperature"); err == nil {
		t.Error("preferred-as-alternate accepted")
	}
	// A preferred name cannot be added if it is already an alternate.
	if err := tb.Add("wtemp", "x"); err == nil {
		t.Error("alternate-as-preferred accepted")
	}
	// Re-adding the same mapping is fine (idempotent curation).
	if err := tb.Add("water_temperature", "wtemp"); err != nil {
		t.Errorf("idempotent add failed: %v", err)
	}
	if err := tb.Add(""); err == nil {
		t.Error("empty preferred accepted")
	}
}

func TestSelfAlternateIgnored(t *testing.T) {
	tb := NewTable()
	if err := tb.Add("salinity", "salinity", "SALINITY"); err != nil {
		t.Fatal(err)
	}
	if tb.AlternateCount() != 0 {
		t.Errorf("self-alternates recorded: %d", tb.AlternateCount())
	}
}

func TestPreferredNamesAndAlternatesOf(t *testing.T) {
	tb := NewTable()
	_ = tb.Add("salinity", "salt", "psu_val")
	_ = tb.Add("air_temperature", "airtemp")
	names := tb.PreferredNames()
	if len(names) != 2 || names[0] != "air_temperature" || names[1] != "salinity" {
		t.Errorf("PreferredNames = %v", names)
	}
	alts := tb.AlternatesOf("salinity")
	if len(alts) != 2 {
		t.Errorf("AlternatesOf = %v", alts)
	}
	if len(tb.AlternatesOf("nope")) != 0 {
		t.Error("alternates of unknown name should be empty")
	}
}

func TestMerge(t *testing.T) {
	a := NewTable()
	_ = a.Add("salinity", "salt")
	b := NewTable()
	_ = b.Add("salinity", "psu_val")
	_ = b.Add("turbidity", "turb")
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 2 {
		t.Errorf("merged Len = %d", a.Len())
	}
	if got, st := a.Resolve("psu_val"); got != "salinity" || st != Alternate {
		t.Errorf("merged Resolve = %q, %v", got, st)
	}

	// Conflicting merge fails.
	c := NewTable()
	_ = c.Add("conductivity", "salt") // salt already -> salinity
	if err := a.Merge(c); err == nil {
		t.Error("conflicting merge accepted")
	}
}

// TestTableIsAddOnly: re-adding or re-merging what a table holds — in
// another display form too — changes nothing, so Len and
// AlternateCount see every change; and a clone shares nothing.
func TestTableIsAddOnly(t *testing.T) {
	a := NewTable()
	_ = a.Add("salinity", "salt")
	var before strings.Builder
	if err := a.WriteCSV(&before); err != nil {
		t.Fatal(err)
	}
	clone := a.Clone()
	if err := a.Add("SALINITY", "SALT"); err != nil {
		t.Fatal(err)
	}
	b := NewTable()
	_ = b.Add("Salinity", "Salt")
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	var after strings.Builder
	if err := a.WriteCSV(&after); err != nil {
		t.Fatal(err)
	}
	if after.String() != before.String() {
		t.Fatalf("re-adding held entries changed the table:\n%s\n%s", before.String(), after.String())
	}
	if got, _ := a.Resolve("salt"); got != "salinity" {
		t.Errorf("salt resolves to %q, want the first display form", got)
	}
	_ = a.Add("salinity", "psu_val")
	if clone.Covers("psu_val") || clone.AlternateCount() != 1 {
		t.Error("an add to the table reached its clone")
	}
}

func TestToMassEdit(t *testing.T) {
	tb := NewTable()
	_ = tb.Add("air_temperature", "airtemp", "ATastn")
	_ = tb.Add("salinity", "salt")
	values := []string{"airtemp", "ATastn", "salinity", "unknown_thing", "airtemp"}
	op := tb.ToMassEdit("field", values)
	if op == nil {
		t.Fatal("nil op")
	}
	if len(op.Edits) != 1 {
		t.Fatalf("edits = %+v, want 1 group (only air_temperature needs edits)", op.Edits)
	}
	if op.Edits[0].To != "air_temperature" || len(op.Edits[0].From) != 2 {
		t.Errorf("edit = %+v", op.Edits[0])
	}

	grid := table.MustNew("field")
	for _, v := range values {
		_ = grid.AppendRow(v)
	}
	res, err := op.Apply(grid)
	if err != nil {
		t.Fatal(err)
	}
	if res.CellsChanged != 3 {
		t.Errorf("changed = %d, want 3", res.CellsChanged)
	}
	if v, _ := grid.Cell(3, "field"); v != "unknown_thing" {
		t.Errorf("unknown value touched: %q", v)
	}
}

func TestToMassEditNoWork(t *testing.T) {
	tb := NewTable()
	_ = tb.Add("salinity")
	if op := tb.ToMassEdit("field", []string{"salinity", "unknown"}); op != nil {
		t.Errorf("expected nil op, got %+v", op)
	}
}

func TestToMassEditCaseVariantOfPreferred(t *testing.T) {
	tb := NewTable()
	_ = tb.Add("salinity")
	// "Salinity" normalizes to the preferred key but displays differently,
	// so it must be translated to the canonical display form.
	op := tb.ToMassEdit("field", []string{"Salinity"})
	if op == nil || len(op.Edits) != 1 || op.Edits[0].To != "salinity" {
		t.Fatalf("op = %+v", op)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tb := NewTable()
	_ = tb.Add("air_temperature", "airtemp", "ATastn")
	_ = tb.Add("salinity") // no alternates
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tb.Len() {
		t.Errorf("round trip Len = %d, want %d", back.Len(), tb.Len())
	}
	if got, st := back.Resolve("ATastn"); got != "air_temperature" || st != Alternate {
		t.Errorf("round trip Resolve = %q, %v", got, st)
	}
	if !back.Covers("salinity") {
		t.Error("alternate-less preferred name lost in round trip")
	}
	// Export is stable.
	var buf2 bytes.Buffer
	if err := back.WriteCSV(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() == "" {
		t.Error("second export empty")
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"wrong,header\n",
		"preferred,alternate\n\"unclosed\n",
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("ReadCSV(%q) should fail", c)
		}
	}
	// Conflicting rows surface with a line number.
	bad := "preferred,alternate\na,x\nb,x\n"
	if _, err := ReadCSV(strings.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("conflict error = %v", err)
	}
}

func TestStatusString(t *testing.T) {
	if Unknown.String() != "unknown" || Preferred.String() != "preferred" || Alternate.String() != "alternate" {
		t.Error("Status strings wrong")
	}
}

func BenchmarkResolve(b *testing.B) {
	tb := NewTable()
	_ = tb.Add("air_temperature", "airtemp", "ATastn", "atemp", "t_air")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Resolve("ATastn")
	}
}
