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
	"path"
	"path/filepath"
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
	Catalog   *catalog.Catalog
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

// SameTypeDirectory verifies that all files in a directory are of the
// same type — the poster's first validation example.
type SameTypeDirectory struct{}

// Name implements Check.
func (SameTypeDirectory) Name() string { return "same-type-directory" }

// Run implements Check.
func (SameTypeDirectory) Run(ctx *Context) []Finding {
	byDir := make(map[string]map[string][]string) // dir -> format -> paths
	ctx.Catalog.ForEach(func(f *catalog.Feature) {
		dir := path.Dir(filepath.ToSlash(f.Path))
		if byDir[dir] == nil {
			byDir[dir] = make(map[string][]string)
		}
		byDir[dir][f.Format] = append(byDir[dir][f.Format], f.Path)
	})
	dirs := make([]string, 0, len(byDir))
	for d := range byDir {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	var out []Finding
	for _, d := range dirs {
		formats := byDir[d]
		if len(formats) <= 1 {
			continue
		}
		names := make([]string, 0, len(formats))
		for f := range formats {
			names = append(names, f)
		}
		sort.Strings(names)
		out = append(out, Finding{
			Check:    "same-type-directory",
			Severity: Error,
			Detail:   fmt.Sprintf("directory %s mixes file types %v", d, names),
		})
	}
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

// UnitsResolved warns about unit strings the registry cannot resolve.
type UnitsResolved struct{}

// Name implements Check.
func (UnitsResolved) Name() string { return "units-resolved" }

// Run implements Check.
func (UnitsResolved) Run(ctx *Context) []Finding {
	if ctx.Units == nil {
		return nil
	}
	seen := make(map[string]bool)
	var out []Finding
	ctx.Catalog.ForEach(func(f *catalog.Feature) {
		for _, v := range f.Variables {
			if v.Unit == "" || seen[v.Unit] {
				continue
			}
			seen[v.Unit] = true
			if _, ok := ctx.Units.Lookup(v.Unit); !ok {
				out = append(out, Finding{
					Check: "units-resolved", Severity: Warning,
					Dataset: f.Path,
					Detail:  fmt.Sprintf("unit %q (first seen on %q) not in unit registry", v.Unit, v.RawName),
				})
			}
		}
	})
	return out
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
func (p PlausibleRanges) Run(ctx *Context) []Finding {
	if ctx.Knowledge == nil {
		return nil
	}
	byName := vocab.ByName(ctx.Knowledge.Vocabulary)
	var out []Finding
	ctx.Catalog.ForEach(func(f *catalog.Feature) {
		for _, v := range f.Variables {
			cv, ok := byName[v.Name]
			if !ok || v.Count == 0 {
				continue
			}
			width := cv.Typical.Width()
			lo := cv.Typical.Min - p.Slack*width
			hi := cv.Typical.Max + p.Slack*width
			if v.Range.Min < lo || v.Range.Max > hi {
				out = append(out, Finding{
					Check: "plausible-ranges", Severity: Error,
					Dataset: f.Path,
					Detail: fmt.Sprintf("%s observed %s, outside plausible [%g..%g]",
						v.Name, v.Range, lo, hi),
				})
			}
		}
	})
	return out
}
