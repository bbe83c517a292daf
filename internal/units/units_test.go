package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCanonicalizeTemperatureSynonyms(t *testing.T) {
	r := NewRegistry()
	// The poster's Table 1 synonym row: C, degC, Centigrade are the same.
	for _, raw := range []string{"C", "degC", "Centigrade", "°C", "celsius", "DEG C"} {
		got, ok := r.Canonicalize(raw)
		if !ok || got != "degC" {
			t.Errorf("Canonicalize(%q) = %q, %v; want degC, true", raw, got, ok)
		}
	}
}

func TestCanonicalizeUnknown(t *testing.T) {
	r := NewRegistry()
	got, ok := r.Canonicalize("furlongs per fortnight")
	if ok {
		t.Error("unknown unit reported as known")
	}
	if got != "furlongs per fortnight" {
		t.Errorf("unknown unit should round-trip unchanged, got %q", got)
	}
}

func TestConvertTemperature(t *testing.T) {
	r := NewRegistry()
	cases := []struct {
		v        float64
		from, to string
		want     float64
	}{
		{0, "C", "F", 32},
		{100, "C", "degF", 212},
		{32, "F", "C", 0},
		{0, "C", "K", 273.15},
		{273.15, "K", "C", 0},
		{-40, "C", "F", -40},
	}
	for _, c := range cases {
		got, err := r.Convert(c.v, c.from, c.to)
		if err != nil {
			t.Errorf("Convert(%g, %q, %q): %v", c.v, c.from, c.to, err)
			continue
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Convert(%g, %q, %q) = %g, want %g", c.v, c.from, c.to, got, c.want)
		}
	}
}

func TestConvertSpeedAndPressure(t *testing.T) {
	r := NewRegistry()
	if got, err := r.Convert(100, "cm/s", "m/s"); err != nil || math.Abs(got-1) > 1e-12 {
		t.Errorf("100 cm/s = %g m/s (%v), want 1", got, err)
	}
	if got, err := r.Convert(1, "bar", "dbar"); err != nil || math.Abs(got-10) > 1e-12 {
		t.Errorf("1 bar = %g dbar (%v), want 10", got, err)
	}
	if got, err := r.Convert(10000, "Pa", "dbar"); err != nil || math.Abs(got-1) > 1e-9 {
		t.Errorf("10000 Pa = %g dbar (%v), want 1", got, err)
	}
}

func TestConvertCrossFamilyFails(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Convert(1, "C", "m/s"); err == nil {
		t.Error("cross-family conversion should fail")
	}
	if _, err := r.Convert(1, "nope", "C"); err == nil {
		t.Error("unknown source unit should fail")
	}
	if _, err := r.Convert(1, "C", "nope"); err == nil {
		t.Error("unknown target unit should fail")
	}
}

func TestToCanonical(t *testing.T) {
	r := NewRegistry()
	v, sym, err := r.ToCanonical(212, "F")
	if err != nil {
		t.Fatal(err)
	}
	if sym != "degC" || math.Abs(v-100) > 1e-9 {
		t.Errorf("ToCanonical(212 F) = %g %s, want 100 degC", v, sym)
	}
	if _, _, err := r.ToCanonical(1, "unknowable"); err == nil {
		t.Error("unknown unit should fail")
	}
}

func TestAddAlias(t *testing.T) {
	r := NewRegistry()
	// Curatorial activity: adding entries to a synonym table.
	if err := r.AddAlias("grados", "degC"); err != nil {
		t.Fatal(err)
	}
	if got, ok := r.Canonicalize("Grados"); !ok || got != "degC" {
		t.Errorf("added alias not resolved: %q, %v", got, ok)
	}
	if err := r.AddAlias("x", "no_such_symbol"); err == nil {
		t.Error("alias to unknown symbol should fail")
	}
	// Aliases are add-only: re-adding one is a no-op, remapping refused.
	n := r.AliasCount()
	if err := r.AddAlias("Grados", "degC"); err != nil || r.AliasCount() != n {
		t.Errorf("re-adding an alias: err %v, %d aliases, want %d", err, r.AliasCount(), n)
	}
	if err := r.AddAlias("grados", "degF"); err == nil {
		t.Error("remapping an alias accepted")
	}
	clone := r.Clone()
	if err := r.AddAlias("gradi", "degC"); err != nil {
		t.Fatal(err)
	}
	if _, ok := clone.Lookup("gradi"); ok {
		t.Error("an alias added to the registry reached its clone")
	}
}

func TestAddUnit(t *testing.T) {
	r := NewRegistry()
	err := r.AddUnit(Unit{Symbol: "mm", Family: Length, Scale: 0.001}, "millimeter")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := r.Convert(1000, "mm", "m"); err != nil || math.Abs(got-1) > 1e-12 {
		t.Errorf("1000 mm = %g m (%v), want 1", got, err)
	}
	if err := r.AddUnit(Unit{Symbol: "", Family: Length, Scale: 1}); err == nil {
		t.Error("empty symbol should fail")
	}
	if err := r.AddUnit(Unit{Symbol: "zero", Family: Length, Scale: 0}); err == nil {
		t.Error("zero scale should fail")
	}
	if err := r.AddUnit(Unit{Symbol: "mm", Family: Length, Scale: 0.01}); err == nil {
		t.Error("redefining a unit accepted")
	}
	if err := r.AddUnit(Unit{Symbol: "cm", Family: Length, Scale: 0.01}, "mm"); err == nil {
		t.Error("remapping an alias through AddUnit accepted")
	}
}

func TestConvertRoundTripProperty(t *testing.T) {
	r := NewRegistry()
	pairs := [][2]string{{"C", "F"}, {"C", "K"}, {"m/s", "knots"}, {"m", "ft"}, {"dbar", "Pa"}}
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
			return true
		}
		for _, p := range pairs {
			there, err := r.Convert(v, p[0], p[1])
			if err != nil {
				return false
			}
			back, err := r.Convert(there, p[1], p[0])
			if err != nil {
				return false
			}
			tol := 1e-6 * (1 + math.Abs(v))
			if math.Abs(back-v) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSymbolsSortedAndComplete(t *testing.T) {
	r := NewRegistry()
	syms := r.Symbols()
	if len(syms) < 15 {
		t.Fatalf("expected a rich unit table, got %d symbols", len(syms))
	}
	for i := 1; i < len(syms); i++ {
		if syms[i-1] >= syms[i] {
			t.Errorf("Symbols not sorted at %d", i)
		}
	}
	if r.AliasCount() <= len(syms) {
		t.Error("expected more aliases than canonical symbols")
	}
}

func TestDimensionlessAliases(t *testing.T) {
	r := NewRegistry()
	for _, raw := range []string{"count", "counts", "unitless", "n/a", "-"} {
		if got, ok := r.Canonicalize(raw); !ok || got != "1" {
			t.Errorf("Canonicalize(%q) = %q, %v; want \"1\", true", raw, got, ok)
		}
	}
}

func BenchmarkCanonicalize(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < b.N; i++ {
		r.Canonicalize("degrees Celsius")
	}
}
