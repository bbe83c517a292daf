// Package synonym implements the curated thesaurus at the heart of the
// wrangling process: preferred variable names, their alternate terms, and
// translation tables ("often exists as a translation table" — poster).
//
// The table answers two questions the poster's curatorial activities
// need: (1) what is the preferred name for a harvested term, used by the
// "perform known transformations" component, and (2) is a harvested term
// covered at all, used by the validation check "all harvested variable
// names occur in the current synonym table as preferred or alternate
// terms".
package synonym

import (
	"encoding/csv"
	"fmt"
	"io"
	"maps"
	"sort"
	"strings"

	"metamess/internal/fingerprint"
	"metamess/internal/refine"
)

// Status classifies how a term resolved against the table.
type Status int

// Resolution statuses.
const (
	Unknown   Status = iota // term not in the table
	Preferred               // term is itself a preferred name
	Alternate               // term is an alternate of some preferred name
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Preferred:
		return "preferred"
	case Alternate:
		return "alternate"
	default:
		return "unknown"
	}
}

// Table is a synonym table mapping alternate terms to preferred names.
// Matching is insensitive to case, punctuation, and underscore/space
// differences (fingerprint normalization), which keeps curators from
// having to enumerate trivial variants.
type Table struct {
	preferred map[string]string // normalized preferred -> display form
	alternate map[string]string // normalized alternate -> preferred display form
	// altPref is alternate's value normalized (alternate key -> preferred
	// key), so AlternatesOf compares keys instead of re-normalizing every
	// entry: EncodeKnowledge asks once per preferred name.
	altPref map[string]string
	// altDisplay preserves the first display form seen for each alternate
	// key, so reverse expansion can reproduce surface forms like "ATastn".
	altDisplay map[string]string
}

// NewTable returns an empty synonym table.
func NewTable() *Table {
	return &Table{
		preferred:  make(map[string]string),
		alternate:  make(map[string]string),
		altPref:    make(map[string]string),
		altDisplay: make(map[string]string),
	}
}

// Add registers a preferred name with zero or more alternates. Adding an
// existing preferred name extends its alternates and keeps its first
// display form. An alternate equal to the preferred name is ignored.
// Conflicting alternates (already mapped to a different preferred name)
// are rejected so silent remaps cannot corrupt the table. The table is
// add-only: every change Add makes grows Len or AlternateCount.
func (t *Table) Add(preferred string, alternates ...string) error {
	pk := norm(preferred)
	if pk == "" {
		return fmt.Errorf("synonym: empty preferred name")
	}
	if existing, ok := t.alternate[pk]; ok {
		return fmt.Errorf("synonym: %q is already an alternate of %q", preferred, existing)
	}
	if disp, ok := t.preferred[pk]; ok {
		preferred = disp
	}
	t.preferred[pk] = preferred
	for _, a := range alternates {
		ak := norm(a)
		if ak == "" || ak == pk {
			continue
		}
		if _, isPref := t.preferred[ak]; isPref {
			return fmt.Errorf("synonym: %q is already a preferred name", a)
		}
		if existing, ok := t.alternate[ak]; ok && existing != preferred {
			return fmt.Errorf("synonym: %q already maps to %q, not %q", a, existing, preferred)
		}
		t.alternate[ak] = preferred
		t.altPref[ak] = pk
		if _, seen := t.altDisplay[ak]; !seen {
			t.altDisplay[ak] = a
		}
	}
	return nil
}

// Resolve maps a raw term to its preferred name and resolution status.
// Unknown terms come back unchanged.
func (t *Table) Resolve(raw string) (string, Status) {
	k := norm(raw)
	if disp, ok := t.preferred[k]; ok {
		return disp, Preferred
	}
	if pref, ok := t.alternate[k]; ok {
		return pref, Alternate
	}
	return raw, Unknown
}

// Covers reports whether the term occurs as preferred or alternate — the
// poster's synonym-coverage validation check.
func (t *Table) Covers(raw string) bool {
	_, st := t.Resolve(raw)
	return st != Unknown
}

// PreferredNames returns all preferred display names, sorted.
func (t *Table) PreferredNames() []string {
	out := make([]string, 0, len(t.preferred))
	for _, disp := range t.preferred {
		out = append(out, disp)
	}
	sort.Strings(out)
	return out
}

// AlternatesOf returns the alternates recorded for a preferred name, in
// their original display forms, sorted for determinism.
func (t *Table) AlternatesOf(preferred string) []string {
	pk := norm(preferred)
	var out []string
	for ak, apk := range t.altPref {
		if apk == pk {
			disp := t.altDisplay[ak]
			if disp == "" {
				disp = ak
			}
			out = append(out, disp)
		}
	}
	sort.Strings(out)
	return out
}

// Len returns the number of preferred names.
func (t *Table) Len() int { return len(t.preferred) }

// AlternateCount returns the number of alternate mappings.
func (t *Table) AlternateCount() int { return len(t.alternate) }

// Merge folds another table into this one, keeping this table's display
// forms, so a merge, like Add, only grows the table. Conflicts abort
// with an error and leave already-merged entries in place (the
// wrangling chain merges into a clone and drops it on any error).
func (t *Table) Merge(o *Table) error {
	for pk, disp := range o.preferred {
		if existing, ok := t.alternate[pk]; ok {
			return fmt.Errorf("synonym: merge: %q is preferred in one table, alternate of %q in the other", disp, existing)
		}
		if _, ok := t.preferred[pk]; !ok {
			t.preferred[pk] = disp
		}
	}
	for ak, pref := range o.alternate {
		if _, isPref := t.preferred[ak]; isPref && norm(pref) != ak {
			return fmt.Errorf("synonym: merge: %q is alternate in one table, preferred in the other", ak)
		}
		existing, ok := t.alternate[ak]
		if ok && norm(existing) != norm(pref) {
			return fmt.Errorf("synonym: merge: alternate %q maps to both %q and %q", ak, existing, pref)
		}
		if !ok {
			t.alternate[ak] = t.preferred[o.altPref[ak]]
			t.altPref[ak] = o.altPref[ak]
			t.altDisplay[ak] = o.altDisplay[ak]
		}
	}
	return nil
}

// Clone returns a copy of the table that shares no map with t.
func (t *Table) Clone() *Table {
	return &Table{
		preferred:  maps.Clone(t.preferred),
		alternate:  maps.Clone(t.alternate),
		altPref:    maps.Clone(t.altPref),
		altDisplay: maps.Clone(t.altDisplay),
	}
}

// ToMassEdit builds the "perform known transformations" rule: one mass
// edit over the named column translating every known alternate (by its
// literal display forms seen in values) to its preferred name. Values
// already preferred are untouched. Returns nil when no value needs
// translating.
func (t *Table) ToMassEdit(column string, values []string) *refine.MassEdit {
	byPreferred := make(map[string][]string)
	seen := make(map[string]bool)
	for _, v := range values {
		if seen[v] {
			continue
		}
		seen[v] = true
		pref, st := t.Resolve(v)
		if st == Alternate || (st == Preferred && v != pref) {
			byPreferred[pref] = append(byPreferred[pref], v)
		}
	}
	if len(byPreferred) == 0 {
		return nil
	}
	prefs := make([]string, 0, len(byPreferred))
	for p := range byPreferred {
		prefs = append(prefs, p)
	}
	sort.Strings(prefs)
	var edits []refine.Edit
	for _, p := range prefs {
		from := byPreferred[p]
		sort.Strings(from)
		edits = append(edits, refine.Edit{From: from, To: p})
	}
	return &refine.MassEdit{
		Desc:       fmt.Sprintf("Translate %d known terms in column %s to preferred names", len(edits), column),
		Engine:     refine.EngineConfig{Mode: "row-based"},
		ColumnName: column,
		Expression: "value",
		Edits:      edits,
	}
}

// WriteCSV exports the table as a two-column translation table
// (preferred, alternate), one row per alternate plus one row per
// preferred name with an empty alternate, sorted for stable diffs.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"preferred", "alternate"}); err != nil {
		return fmt.Errorf("synonym: write header: %w", err)
	}
	for _, pref := range t.PreferredNames() {
		alts := t.AlternatesOf(pref)
		if len(alts) == 0 {
			if err := cw.Write([]string{pref, ""}); err != nil {
				return fmt.Errorf("synonym: write row: %w", err)
			}
			continue
		}
		for _, a := range alts {
			if err := cw.Write([]string{pref, a}); err != nil {
				return fmt.Errorf("synonym: write row: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV imports a translation table written by WriteCSV or assembled
// by hand: header "preferred,alternate", then one mapping per row.
func ReadCSV(r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("synonym: read header: %w", err)
	}
	if len(header) < 2 || header[0] != "preferred" || header[1] != "alternate" {
		return nil, fmt.Errorf("synonym: bad header %v, want [preferred alternate]", header)
	}
	t := NewTable()
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, fmt.Errorf("synonym: line %d: %w", line, err)
		}
		if rec[1] == "" {
			err = t.Add(rec[0])
		} else {
			err = t.Add(rec[0], rec[1])
		}
		if err != nil {
			return nil, fmt.Errorf("synonym: line %d: %w", line, err)
		}
	}
}

// norm produces the matching key: lower-cased word tokens joined with no
// separator, so "AIR TEMP", "air-temp", and "airtemp" all collide while
// token order is preserved ("temperature air" stays distinct).
func norm(s string) string { return strings.Join(fingerprint.Tokens(s), "") }
