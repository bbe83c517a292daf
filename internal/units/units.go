// Package units canonicalizes the measurement-unit strings that appear in
// scientific archives. The poster's Table 1 calls out unit synonymy
// ("C", "degC", "Centigrade") as a category of semantic diversity; this
// package resolves unit aliases to a canonical symbol per unit family and
// converts values between units of the same family.
package units

import (
	"fmt"
	"maps"
	"sort"

	"metamess/internal/fingerprint"
)

// Family groups interconvertible units.
type Family string

// Unit families observed in coastal-margin observatory data.
const (
	Temperature   Family = "temperature"
	Salinity      Family = "salinity"
	Speed         Family = "speed"
	Pressure      Family = "pressure"
	Length        Family = "length"
	Concentration Family = "concentration"
	Turbidity     Family = "turbidity"
	Fraction      Family = "fraction"
	PH            Family = "ph"
	Dimensionless Family = "dimensionless"
)

// Unit describes one measurement unit and its linear mapping to the
// family's canonical unit: canonical = value*Scale + Offset.
type Unit struct {
	// Symbol is the canonical display symbol, e.g. "degC".
	Symbol string `json:"symbol"`
	// Family is the unit family the unit converts within.
	Family Family `json:"family"`
	// Scale and Offset define the affine map to the canonical unit.
	Scale  float64 `json:"scale"`
	Offset float64 `json:"offset"`
}

// Canonical reports whether this unit is its family's canonical unit.
func (u Unit) Canonical() bool { return u.Scale == 1 && u.Offset == 0 }

// toCanonical maps a value in this unit into the family canonical unit.
func (u Unit) toCanonical(v float64) float64 { return v*u.Scale + u.Offset }

// fromCanonical maps a canonical value back into this unit.
func (u Unit) fromCanonical(v float64) float64 { return (v - u.Offset) / u.Scale }

// Registry resolves unit aliases. The zero value is unusable; construct
// with NewRegistry, which pre-loads the standard table and accepts
// curator additions via AddAlias.
type Registry struct {
	units   map[string]Unit   // canonical symbol -> unit
	aliases map[string]string // normalized alias -> canonical symbol
}

// NewRegistry returns a registry loaded with the standard unit table.
func NewRegistry() *Registry {
	r := &Registry{
		units:   make(map[string]Unit),
		aliases: make(map[string]string),
	}
	add := func(u Unit, aliases ...string) {
		r.units[u.Symbol] = u
		r.aliases[normalize(u.Symbol)] = u.Symbol
		for _, a := range aliases {
			r.aliases[normalize(a)] = u.Symbol
		}
	}

	// Temperature: canonical degC.
	add(Unit{Symbol: "degC", Family: Temperature, Scale: 1, Offset: 0},
		"C", "°C", "Celsius", "Centigrade", "deg C", "degrees C",
		"degrees Celsius", "deg_C", "celcius")
	add(Unit{Symbol: "degF", Family: Temperature, Scale: 5.0 / 9.0, Offset: -160.0 / 9.0},
		"F", "°F", "Fahrenheit", "deg F", "degrees F", "degrees Fahrenheit")
	add(Unit{Symbol: "K", Family: Temperature, Scale: 1, Offset: -273.15},
		"Kelvin", "degK", "deg K", "degrees K")

	// Salinity: canonical PSU (practical salinity unit; 1 PSU ~ 1 g/kg).
	add(Unit{Symbol: "PSU", Family: Salinity, Scale: 1, Offset: 0},
		"psu", "practical salinity units", "practical salinity unit", "PSS-78", "pss")
	add(Unit{Symbol: "g/kg", Family: Salinity, Scale: 1, Offset: 0},
		"g kg-1", "grams per kilogram", "ppt", "parts per thousand")

	// Speed: canonical m/s.
	add(Unit{Symbol: "m/s", Family: Speed, Scale: 1, Offset: 0},
		"m s-1", "meters per second", "metres per second", "mps", "m.s-1")
	add(Unit{Symbol: "cm/s", Family: Speed, Scale: 0.01, Offset: 0},
		"cm s-1", "centimeters per second")
	add(Unit{Symbol: "knots", Family: Speed, Scale: 0.514444, Offset: 0},
		"kt", "kts", "knot")

	// Pressure: canonical dbar (decibar, ~1 m depth of seawater).
	add(Unit{Symbol: "dbar", Family: Pressure, Scale: 1, Offset: 0},
		"decibar", "decibars", "db")
	add(Unit{Symbol: "bar", Family: Pressure, Scale: 10, Offset: 0}, "bars")
	add(Unit{Symbol: "Pa", Family: Pressure, Scale: 1e-4, Offset: 0},
		"pascal", "pascals")
	add(Unit{Symbol: "kPa", Family: Pressure, Scale: 0.1, Offset: 0},
		"kilopascal", "kilopascals")

	// Length/depth: canonical m.
	add(Unit{Symbol: "m", Family: Length, Scale: 1, Offset: 0},
		"meter", "meters", "metre", "metres")
	add(Unit{Symbol: "cm", Family: Length, Scale: 0.01, Offset: 0},
		"centimeter", "centimeters")
	add(Unit{Symbol: "km", Family: Length, Scale: 1000, Offset: 0},
		"kilometer", "kilometers", "kilometre", "kilometres")
	add(Unit{Symbol: "ft", Family: Length, Scale: 0.3048, Offset: 0},
		"foot", "feet")

	// Concentration: canonical mg/L.
	add(Unit{Symbol: "mg/L", Family: Concentration, Scale: 1, Offset: 0},
		"mg l-1", "mg/l", "milligrams per liter", "milligrams per litre")
	add(Unit{Symbol: "ug/L", Family: Concentration, Scale: 0.001, Offset: 0},
		"ug l-1", "µg/L", "micrograms per liter")

	// Turbidity: canonical NTU.
	add(Unit{Symbol: "NTU", Family: Turbidity, Scale: 1, Offset: 0},
		"nephelometric turbidity units", "ntu")

	// Fractions: canonical percent.
	add(Unit{Symbol: "%", Family: Fraction, Scale: 1, Offset: 0},
		"percent", "pct", "percentage")

	// pH: canonical pH (no conversions).
	add(Unit{Symbol: "pH", Family: PH, Scale: 1, Offset: 0}, "ph units", "ph unit")

	// Dimensionless: counts, levels, flags.
	add(Unit{Symbol: "1", Family: Dimensionless, Scale: 1, Offset: 0},
		"count", "counts", "level", "levels", "flag", "flags",
		"dimensionless", "unitless", "none", "n/a", "na", "-")

	return r
}

// Lookup resolves a raw unit string to its Unit, reporting whether the
// string (after normalization) is known.
func (r *Registry) Lookup(raw string) (Unit, bool) {
	sym, ok := r.aliases[normalize(raw)]
	if !ok {
		return Unit{}, false
	}
	return r.units[sym], true
}

// Canonicalize maps a raw unit string to its canonical symbol; unknown
// strings are returned unchanged with ok=false so callers can flag them
// for curation.
func (r *Registry) Canonicalize(raw string) (string, bool) {
	u, ok := r.Lookup(raw)
	if !ok {
		return raw, false
	}
	return u.Symbol, true
}

// AddAlias registers a curator-supplied alias for an existing canonical
// symbol. It fails if the symbol is unknown, so typos surface
// immediately, and if the alias already names another symbol, so the
// aliases are add-only: every change grows AliasCount.
func (r *Registry) AddAlias(alias, canonicalSymbol string) error {
	if _, ok := r.units[canonicalSymbol]; !ok {
		return fmt.Errorf("units: unknown canonical symbol %q", canonicalSymbol)
	}
	if sym, ok := r.aliases[normalize(alias)]; ok && sym != canonicalSymbol {
		return fmt.Errorf("units: alias %q already names %q", alias, sym)
	}
	r.aliases[normalize(alias)] = canonicalSymbol
	return nil
}

// Clone returns a copy of the registry that shares no map with r.
func (r *Registry) Clone() *Registry {
	return &Registry{units: maps.Clone(r.units), aliases: maps.Clone(r.aliases)}
}

// AddUnit registers a new unit (and its canonical-symbol alias). It
// refuses to redefine a unit, and stops at an alias AddAlias refuses.
func (r *Registry) AddUnit(u Unit, aliases ...string) error {
	if u.Symbol == "" {
		return fmt.Errorf("units: unit needs a symbol")
	}
	if u.Scale == 0 {
		return fmt.Errorf("units: unit %q needs a non-zero scale", u.Symbol)
	}
	if _, ok := r.units[u.Symbol]; ok {
		return fmt.Errorf("units: unit %q is already defined", u.Symbol)
	}
	r.units[u.Symbol] = u
	for _, a := range append([]string{u.Symbol}, aliases...) {
		if err := r.AddAlias(a, u.Symbol); err != nil {
			return err
		}
	}
	return nil
}

// Convert converts v from one unit string to another; both must resolve
// and belong to the same family.
func (r *Registry) Convert(v float64, fromRaw, toRaw string) (float64, error) {
	from, ok := r.Lookup(fromRaw)
	if !ok {
		return 0, fmt.Errorf("units: unknown unit %q", fromRaw)
	}
	to, ok := r.Lookup(toRaw)
	if !ok {
		return 0, fmt.Errorf("units: unknown unit %q", toRaw)
	}
	if from.Family != to.Family {
		return 0, fmt.Errorf("units: cannot convert %s (%s) to %s (%s)",
			from.Symbol, from.Family, to.Symbol, to.Family)
	}
	return to.fromCanonical(from.toCanonical(v)), nil
}

// ToCanonical converts v from a raw unit into the family canonical unit,
// returning the converted value and the canonical symbol.
func (r *Registry) ToCanonical(v float64, fromRaw string) (float64, string, error) {
	from, ok := r.Lookup(fromRaw)
	if !ok {
		return 0, "", fmt.Errorf("units: unknown unit %q", fromRaw)
	}
	canon, err := r.canonicalOf(from.Family)
	if err != nil {
		return 0, "", err
	}
	return canon.fromCanonical(from.toCanonical(v)), canon.Symbol, nil
}

// canonicalOf finds the canonical unit of a family.
func (r *Registry) canonicalOf(f Family) (Unit, error) {
	for _, u := range r.units {
		if u.Family == f && u.Canonical() {
			return u, nil
		}
	}
	return Unit{}, fmt.Errorf("units: family %q has no canonical unit", f)
}

// Symbols returns all canonical symbols, sorted, for documentation.
func (r *Registry) Symbols() []string {
	out := make([]string, 0, len(r.units))
	for s := range r.units {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Alias is one alias mapping: a normalized unit string and the
// canonical symbol it names.
type Alias struct {
	Alias  string `json:"alias"`
	Symbol string `json:"symbol"`
}

// standard is the table NewRegistry loads, what Added leaves out.
var standard = NewRegistry()

// Added returns what was added to the registry beyond the standard
// table: the units, by symbol, and the aliases, by alias. A new registry
// given the units (AddUnit) and then the aliases (AddAlias) resolves
// every unit string as r does.
func (r *Registry) Added() ([]Unit, []Alias) {
	var us []Unit
	for sym, u := range r.units {
		if _, ok := standard.units[sym]; !ok {
			us = append(us, u)
		}
	}
	sort.Slice(us, func(i, j int) bool { return us[i].Symbol < us[j].Symbol })
	var as []Alias
	for a, sym := range r.aliases {
		if _, ok := standard.aliases[a]; !ok {
			as = append(as, Alias{Alias: a, Symbol: sym})
		}
	}
	sort.Slice(as, func(i, j int) bool { return as[i].Alias < as[j].Alias })
	return us, as
}

// AliasCount returns the number of registered aliases (diagnostics).
func (r *Registry) AliasCount() int { return len(r.aliases) }

func normalize(s string) string { return fingerprint.Normalize(s) }
