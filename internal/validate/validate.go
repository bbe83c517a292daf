// Package validate implements the poster's fourth curatorial activity,
// "validating process results": rule-based checks over a working catalog
// that gate publication. The poster's three examples are implemented
// directly — every file in a directory has the same type, every
// harvested variable name occurs in the synonym table as a preferred or
// alternate term, and expected datasets show up — plus checks for unit
// resolution and physically plausible value ranges.
package validate

import (
	"fmt"
	"reflect"
	"slices"
	"sort"

	"metamess/internal/catalog"
	"metamess/internal/semdiv"
	"metamess/internal/units"
	"metamess/internal/vocab"
)

// Severity grades a finding.
type Severity int

// Severities.
const (
	Warning Severity = iota
	Error
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Finding is one validation hit.
type Finding struct {
	Check    string   `json:"check"`
	Severity Severity `json:"severity"`
	// Dataset is the offending dataset path, when the finding is
	// dataset-specific.
	Dataset string `json:"dataset,omitempty"`
	Detail  string `json:"detail"`
}

// Report aggregates the findings of a validation run.
type Report struct {
	Findings []Finding `json:"findings"`
	// ChecksRun lists the executed checks in order.
	ChecksRun []string `json:"checksRun"`
}

// Errors counts error-severity findings.
func (r *Report) Errors() int {
	n := 0
	for _, f := range r.Findings {
		if f.Severity == Error {
			n++
		}
	}
	return n
}

// Warnings counts warning-severity findings.
func (r *Report) Warnings() int { return len(r.Findings) - r.Errors() }

// OK reports whether the catalog may be published (no errors).
func (r *Report) OK() bool { return r.Errors() == 0 }

// Context supplies the curated state checks consult.
type Context struct {
	Catalog   *catalog.Working
	Knowledge *semdiv.Knowledge
	Units     *units.Registry
	// ExpectedPaths lists dataset paths that must be present.
	ExpectedPaths []string
	// Classifier, when set, is a classifier over Knowledge the caller
	// already holds (the wrangling chain shares one per knowledge state);
	// nil makes the checks that classify build their own.
	Classifier *semdiv.Classifier
}

// Check is one validation rule.
type Check interface {
	Name() string
	Run(ctx *Context) []Finding
}

// Run executes checks in order and aggregates their findings.
func Run(ctx *Context, checks ...Check) *Report {
	r := &Report{}
	for _, c := range checks {
		r.ChecksRun = append(r.ChecksRun, c.Name())
		r.Findings = append(r.Findings, c.Run(ctx)...)
	}
	return r
}

// DefaultChecks returns the standard check suite.
func DefaultChecks() []Check {
	return []Check{
		SameTypeDirectory{},
		SynonymCoverage{},
		ExpectedDatasets{},
		UnitsResolved{},
		PlausibleRanges{Slack: 0.5},
	}
}

// contribution is one feature's share of a per-feature check's findings.
type contribution struct {
	// key, when set, reports the finding once per catalog: of the
	// contributions sharing a key, only the first in feature-ID order is
	// kept.
	key string
	Finding
}

// featureCheck is a Check whose findings are folded from what each
// feature contributes on its own, so they can be kept per feature and
// recomputed only where the catalog changed (see Memo).
type featureCheck interface {
	Check
	// inspector returns the function listing one feature's contributions
	// in the order Run reports them, or nil when no feature of
	// ctx.Catalog can contribute anything.
	inspector(ctx *Context) func(f *catalog.Feature) []contribution
}

// walk is Run for a featureCheck: inspect every feature, in ID order.
func walk(ctx *Context, c featureCheck) []Finding {
	inspect := c.inspector(ctx)
	if inspect == nil {
		return nil
	}
	var cs []contribution
	ctx.Catalog.ForEach(func(f *catalog.Feature) { cs = append(cs, inspect(f)...) })
	return fold(cs)
}

// fold turns contributions, in feature-ID order, into findings.
func fold(cs []contribution) []Finding {
	var out []Finding
	seen := make(map[string]bool)
	for _, c := range cs {
		if c.key != "" {
			if seen[c.key] {
				continue
			}
			seen[c.key] = true
		}
		out = append(out, c.Finding)
	}
	return out
}

// Memo keeps, per feature, what it contributed to the per-feature
// checks (UnitsResolved, PlausibleRanges) at the last run, so the next
// run re-inspects only the features that changed since. It holds
// entries only for features that contributed something.
type Memo struct {
	checks []Check
	// found has one map per check (nil for catalog-wide checks): feature
	// ID to its contributions.
	found []map[string][]contribution
}

// Run is the package-level Run for a catalog that, since the memo last
// saw it, changed at most at the given IDs — or anywhere, when all is
// set or the memo was kept for other checks. It brings the memo up to
// date and returns exactly the report Run would, findings in order.
// The curated state (knowledge, unit registry) must be what the memo
// last saw unless all is set.
func (m *Memo) Run(ctx *Context, ids []string, all bool, checks ...Check) *Report {
	if !reflect.DeepEqual(m.checks, checks) {
		m.checks = append([]Check(nil), checks...)
		m.found = make([]map[string][]contribution, len(checks))
		all = true
	}
	r := &Report{}
	for i, c := range checks {
		r.ChecksRun = append(r.ChecksRun, c.Name())
		fc, ok := c.(featureCheck)
		if !ok {
			r.Findings = append(r.Findings, c.Run(ctx)...)
			continue
		}
		r.Findings = append(r.Findings, m.update(ctx, i, fc, ids, all)...)
	}
	return r
}

// update re-inspects check i's changed features and folds every kept
// contribution, in feature-ID order.
func (m *Memo) update(ctx *Context, i int, c featureCheck, ids []string, all bool) []Finding {
	found := m.found[i]
	if all {
		found = make(map[string][]contribution)
		m.found[i] = found
	}
	inspect := c.inspector(ctx)
	if inspect == nil {
		clear(found)
		return nil
	}
	keep := func(f *catalog.Feature) {
		if cs := inspect(f); len(cs) > 0 {
			found[f.ID] = cs
		}
	}
	if all {
		ctx.Catalog.ForEach(keep)
	} else {
		for _, id := range ids {
			delete(found, id)
		}
		ctx.Catalog.ForEachOf(ids, keep)
	}
	contributors := make([]string, 0, len(found))
	for id := range found {
		contributors = append(contributors, id)
	}
	sort.Strings(contributors)
	var cs []contribution
	for _, id := range contributors {
		cs = append(cs, found[id]...)
	}
	return fold(cs)
}

// SameTypeDirectory verifies that all files in a directory are of the
// same type — the poster's first validation example. It reads the
// catalog's directory tally, so it costs O(directories).
type SameTypeDirectory struct{}

// Name implements Check.
func (SameTypeDirectory) Name() string { return "same-type-directory" }

// Run implements Check.
func (SameTypeDirectory) Run(ctx *Context) []Finding {
	var out []Finding
	ctx.Catalog.ForEachDirectory(func(dir string, formats []string) {
		if len(formats) > 1 {
			out = append(out, Finding{
				Check:    "same-type-directory",
				Severity: Error,
				Detail:   fmt.Sprintf("directory %s mixes file types %v", dir, formats),
			})
		}
	})
	return out
}

// SynonymCoverage verifies that every harvested (non-excluded) variable
// name occurs in the curated knowledge as a canonical name, preferred or
// alternate term — the poster's second validation example. Uncovered
// names are warnings: they are the residual mess the discovery step
// exists to handle, not publication blockers.
type SynonymCoverage struct {
	// AsError escalates uncovered names to errors (strict publish gates).
	AsError bool
}

// Name implements Check.
func (SynonymCoverage) Name() string { return "synonym-coverage" }

// Run implements Check.
func (s SynonymCoverage) Run(ctx *Context) []Finding {
	if ctx.Knowledge == nil {
		return []Finding{{
			Check: "synonym-coverage", Severity: Error,
			Detail: "no knowledge base supplied",
		}}
	}
	cls := ctx.Classifier
	if cls == nil {
		cls = semdiv.NewClassifier(ctx.Knowledge)
	}
	sev := Warning
	if s.AsError {
		sev = Error
	}
	var out []Finding
	for _, vc := range ctx.Catalog.VariableNameCounts() {
		// Excluded bookkeeping variables are exempt; they are marked, not
		// translated. A name still excluded shows only in detail views.
		f := cls.Classify(vc.Value)
		switch f.Category {
		case semdiv.CatClean, semdiv.CatExcessive:
			continue
		case semdiv.CatSynonym, semdiv.CatAbbreviation, semdiv.CatMinorVariation,
			semdiv.CatSourceContext, semdiv.CatMultiLevel, semdiv.CatAmbiguous:
			out = append(out, Finding{
				Check: "synonym-coverage", Severity: sev,
				Detail: fmt.Sprintf("name %q (%d occurrences) is %s, not yet resolved", vc.Value, vc.Count, f.Category),
			})
		default:
			out = append(out, Finding{
				Check: "synonym-coverage", Severity: sev,
				Detail: fmt.Sprintf("name %q (%d occurrences) not covered by synonym table", vc.Value, vc.Count),
			})
		}
	}
	return out
}

// ExpectedDatasets verifies that configured datasets are present — the
// poster's third validation example ("determining that expected datasets
// show up").
type ExpectedDatasets struct{}

// Name implements Check.
func (ExpectedDatasets) Name() string { return "expected-datasets" }

// Run implements Check.
func (ExpectedDatasets) Run(ctx *Context) []Finding {
	var out []Finding
	for _, p := range ctx.ExpectedPaths {
		if _, ok := ctx.Catalog.Get(catalog.IDForPath(p)); !ok {
			out = append(out, Finding{
				Check: "expected-datasets", Severity: Error,
				Dataset: p,
				Detail:  fmt.Sprintf("expected dataset %s missing from catalog", p),
			})
		}
	}
	return out
}

// UnitsResolved warns about unit strings the registry cannot resolve,
// once per unit, naming the first dataset (in ID order) that carries
// it. The catalog's unit tally says which units are unresolved, so a
// catalog whose units all resolve is checked in O(distinct units).
type UnitsResolved struct{}

// Name implements Check.
func (UnitsResolved) Name() string { return "units-resolved" }

// Run implements Check.
func (u UnitsResolved) Run(ctx *Context) []Finding { return walk(ctx, u) }

func (UnitsResolved) inspector(ctx *Context) func(f *catalog.Feature) []contribution {
	if ctx.Units == nil {
		return nil
	}
	unresolved := make(map[string]bool)
	for _, unit := range ctx.Catalog.DistinctUnits() {
		if _, ok := ctx.Units.Lookup(unit); !ok {
			unresolved[unit] = true
		}
	}
	if len(unresolved) == 0 {
		return nil
	}
	return func(f *catalog.Feature) []contribution {
		var out []contribution
		for _, v := range f.Variables {
			if !unresolved[v.Unit] || slices.ContainsFunc(out, func(c contribution) bool { return c.key == v.Unit }) {
				continue
			}
			out = append(out, contribution{key: v.Unit, Finding: Finding{
				Check: "units-resolved", Severity: Warning,
				Dataset: f.Path,
				Detail:  fmt.Sprintf("unit %q (first seen on %q) not in unit registry", v.Unit, v.RawName),
			}})
		}
		return out
	}
}

// PlausibleRanges errors when an observed variable range falls wildly
// outside the vocabulary's typical physical range — a symptom of a
// mis-parsed file or a unit mix-up.
type PlausibleRanges struct {
	// Slack widens the typical range by this fraction on each side
	// before comparing (0.5 = 50%).
	Slack float64
}

// Name implements Check.
func (PlausibleRanges) Name() string { return "plausible-ranges" }

// Run implements Check.
func (p PlausibleRanges) Run(ctx *Context) []Finding { return walk(ctx, p) }

func (p PlausibleRanges) inspector(ctx *Context) func(f *catalog.Feature) []contribution {
	if ctx.Knowledge == nil {
		return nil
	}
	byName := vocab.ByName(ctx.Knowledge.Vocabulary)
	return func(f *catalog.Feature) []contribution {
		var out []contribution
		for _, v := range f.Variables {
			cv, ok := byName[v.Name]
			if !ok || v.Count == 0 {
				continue
			}
			width := cv.Typical.Width()
			lo := cv.Typical.Min - p.Slack*width
			hi := cv.Typical.Max + p.Slack*width
			if v.Range.Min < lo || v.Range.Max > hi {
				out = append(out, contribution{Finding: Finding{
					Check: "plausible-ranges", Severity: Error,
					Dataset: f.Path,
					Detail: fmt.Sprintf("%s observed %s, outside plausible [%g..%g]",
						v.Name, v.Range, lo, hi),
				}})
			}
		}
		return out
	}
}
