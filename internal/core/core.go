// Package core implements the poster's primary contribution: the
// metadata wrangling process. A Process is a chain of composable
// components — scan archive, perform known transformations, add external
// metadata, discover transformations, perform discovered
// transformations, generate hierarchies, validate, publish — run over a
// *working catalog* before its contents replace the published metadata
// catalog that search serves.
//
// The four curatorial activities map onto this package directly:
//
//  1. Creating a process from composable components: build a Process
//     from the Component implementations here (or from a ProcessConfig).
//  2. Running & rerunning: Process.Run is idempotent over unchanged
//     inputs and incremental end to end — the scan classifies the
//     archive churn into a Delta (added/changed/removed features), the
//     transformation and hierarchy components process only the dirty
//     features while the curated knowledge is unchanged (each
//     StepReport counts processed vs. skipped), and Publish pushes only
//     real differences into the published catalog, leaving the served
//     snapshot generation untouched when nothing changed.
//  3. Improving the process: edit the curation (synonym entries, unit
//     aliases, curator decisions) between runs through Context.Curate,
//     which publishes a new immutable Curation one version on. A moved
//     version makes the next run a full reprocess — curated knowledge
//     can retroactively change features the scan saw as clean.
//  4. Validating results: the Validate component gates Publish.
package core

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"metamess/internal/catalog"
	"metamess/internal/hierarchy"
	"metamess/internal/obs"
	"metamess/internal/scan"
	"metamess/internal/semdiv"
	"metamess/internal/units"
	"metamess/internal/validate"
)

// Delta describes one run's archive churn, computed by ScanArchive and
// threaded through the chain: downstream components restrict their work
// to the dirty features when the curated knowledge is unchanged, and
// Publish pushes only real differences into the published catalog. The
// poster's "running & rerunning" loop thereby costs in proportion to
// what changed, not to how much has accumulated.
type Delta struct {
	// Added, Changed, and Removed are the feature IDs the scan
	// classified, each sorted.
	Added, Changed, Removed []string
	// Unchanged counts the features the scan skipped.
	Unchanged int
	// Full forces components to reprocess every feature: set when the
	// curation's version moved since the last completed run, or moves
	// mid-run (a synonym add, curator decision, merged external table,
	// or newly discovered rule can retroactively change features the
	// scan saw as clean).
	Full bool
}

// Empty reports whether the archive did not change at all. An empty,
// non-full delta lets every downstream component skip its feature pass
// and lets Publish leave the snapshot generation untouched.
func (d *Delta) Empty() bool {
	return len(d.Added) == 0 && len(d.Changed) == 0 && len(d.Removed) == 0
}

// Dirty returns the IDs needing reprocessing (added + changed), sorted.
func (d *Delta) Dirty() []string {
	out := make([]string, 0, len(d.Added)+len(d.Changed))
	out = append(out, d.Added...)
	out = append(out, d.Changed...)
	sort.Strings(out)
	return out
}

// Context carries the state a chain threads through its components:
// the working catalog, the published catalog and the curation.
type Context struct {
	// Working is the working catalog components mutate.
	Working *catalog.Working
	// Published is the catalog search serves; only Commit touches it.
	Published *catalog.Catalog
	// cur is the current curation (see Curation and Curate).
	cur atomic.Pointer[Curation]
	// ScanConfig selects directories and file types.
	ScanConfig scan.Config
	// Connector, when set, replaces the filesystem walker as the scan
	// component's ingest source — a streaming tar/zip archive, an HTTP
	// object listing, or any other scan.Connector. The rest of the chain
	// (transforms, validation, publish, journal, replication) is
	// connector-agnostic: every source produces the same Delta shape.
	Connector scan.Connector
	// walker is the filesystem scanner ScanArchive runs when Connector is
	// nil. It lives as long as the context, so that from its third scan
	// on it follows its change feed (see scan.Scanner); walkerCfg is the
	// ScanConfig it was built for. Close releases it.
	walker    *scan.Scanner
	walkerCfg scan.Config
	// ExpectedPaths parameterizes the expected-datasets validation check.
	ExpectedPaths []string
	// LastValidation holds the most recent validation report.
	LastValidation *validate.Report
	// Delta is the current run's churn, set by ScanArchive and read by
	// every delta-aware component downstream. Nil when no scan ran this
	// run (custom chains), which components treat as "process all".
	Delta *Delta
	// ForceFullReprocess disables delta-scoped processing: every run
	// walks the whole catalog as if the curation's version had moved. The
	// escape hatch for operators who suspect drift, and the ablation the
	// equivalence property test compares the delta path against.
	ForceFullReprocess bool
	// Journal, when set, is the durable store Commit appends every
	// applied delta to (with its generation stamp and, when it moved, the
	// knowledge sidecar). A commit fails if the append does, so an
	// acknowledged publish is on disk.
	Journal *catalog.Store
	// Trace, when set, receives write-path spans: Process.Run opens one
	// span per component under TraceSpan, and instrumented components
	// (Publish) nest their own stages beneath it. Nil disables tracing
	// at zero cost — every obs.Trace method is nil-safe.
	Trace *obs.Trace
	// TraceSpan is the parent span id component spans attach under.
	TraceSpan int32

	// Bookkeeping recorded by Publish at the end of a completed run.
	hasRun         bool
	lastRunVersion uint64
	// journaledKey and shippedKey name the last sidecar Commit journaled
	// and the last a generation-advancing record carried (see Commit).
	journaledKey, shippedKey sidecarKey
	// pendingDirty carries dirty feature IDs across runs that failed
	// before Publish: the scan upserted their re-parsed (raw) state
	// into Working, so until a run publishes them the next scan — which
	// will see them stat-unchanged — must still treat them as dirty, or
	// the chain would skip their transforms and publish raw features.
	pendingDirty map[string]bool
	// scoped, scopeAll and publishedGen make up the one scope Validate
	// and Publish share (see scope): the IDs whose working feature may
	// have changed since the last completed Publish, whether the scope
	// has since become every feature, and the published generation that
	// Publish (or a PublishDirect it accounted for) left behind.
	scoped       map[string]bool
	scopeAll     bool
	publishedGen uint64
	// validation keeps the per-feature validation findings between runs;
	// validatedGen is the working catalog's generation they describe.
	validation   *validate.Memo
	validatedGen uint64
	// lastNamesHash fingerprints the distinct-name set the hierarchy
	// generator last processed: taxonomy grouping is global over names,
	// so parents may only be patched incrementally while the name set
	// is stable.
	lastNamesHash uint64
	// tax is the last generated taxonomy, a pure function of taxKey.
	tax    *hierarchy.Taxonomy
	taxKey taxonomyKey
	// cls is the one classifier every component of a run shares, so a
	// variable name is classified once per knowledge value instead of
	// once per component. See Classifier.
	cls *semdiv.Classifier
}

// taxonomyKey is what hierarchy.Generate reads: the distinct-name set
// (by namesHash) and the options.
type taxonomyKey struct {
	names uint64
	opts  hierarchy.GenerateOptions
}

// Classifier returns the context's memoizing classifier, rebuilt — memo
// dropped — whenever the current curation holds other knowledge than it
// was built over: a knowledge value is never edited, so a synonym added
// through the facade, a table merged mid-run and a restored sidecar are
// all seen by the next component that classifies. The memo is not
// synchronized: callers serialize with the wrangle path (the facade
// holds its publish lock).
func (c *Context) Classifier() *semdiv.Classifier {
	if k := c.Curation().Knowledge; c.cls == nil || c.cls.Knowledge() != k {
		c.cls = semdiv.NewClassifier(k)
	}
	return c.cls
}

// fullRun reports whether components must ignore the delta and process
// the whole catalog: no delta (custom chain without a scan), or the
// delta marked full — at scan time, or by a curation change mid-run.
func (c *Context) fullRun() bool {
	return c.Delta == nil || c.Delta.Full
}

// scope is the one scoping rule behind Validate and Publish: the sorted
// IDs whose working feature may have changed since the last completed
// Publish — every scan delta (removals included) and carried-over dirty
// ID, and every ID PublishDirect mirrored into Working — or all=true
// when that could be any feature: the run is full (see fullRun), a
// component walked the whole catalog (GenerateHierarchies after the
// name set changed), the IDs outgrew half the catalog, or a writer
// other than Publish and PublishDirect moved the published catalog.
// Only the chain's components and PublishDirect may mutate Working.
func (c *Context) scope() (ids []string, all bool) {
	if c.fullRun() || c.scopeAll || c.Published.Generation() != c.publishedGen {
		return nil, true
	}
	ids = make([]string, 0, len(c.scoped))
	for id := range c.scoped {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, false
}

// addScope records IDs whose working feature changed. A scope past half
// the catalog becomes every feature, which bounds the set on a node
// that takes pushes and never wrangles.
func (c *Context) addScope(ids ...string) {
	if c.scopeAll {
		return
	}
	if c.scoped == nil {
		c.scoped = make(map[string]bool)
	}
	for _, id := range ids {
		c.scoped[id] = true
	}
	if len(c.scoped) > c.Working.Len()/2+1 {
		c.scoped, c.scopeAll = nil, true
	}
}

// namesHash fingerprints a sorted distinct-name set.
func namesHash(names []string) uint64 {
	h := fnv.New64a()
	for _, n := range names {
		h.Write([]byte(n))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// NewContext builds a context with empty catalogs at the default
// snapshot shard count (one shard per schedulable CPU).
func NewContext(k *semdiv.Knowledge, scanCfg scan.Config) *Context {
	return NewContextSharded(k, scanCfg, 0)
}

// NewContextSharded is NewContext with an explicit snapshot shard count
// for the published catalog (0 or negative = default), which decides
// how publish segments and search scatter.
func NewContextSharded(k *semdiv.Knowledge, scanCfg scan.Config, shards int) *Context {
	c := &Context{
		Working:    catalog.NewWorking(),
		Published:  catalog.NewSharded(shards),
		ScanConfig: scanCfg,
	}
	c.cur.Store(&Curation{Knowledge: k, Units: units.NewRegistry()})
	return c
}

// walkerScanner returns the context's walker, built anew when
// ScanConfig changed since the last was built (a new scanner's first
// scan walks).
func (c *Context) walkerScanner() *scan.Scanner {
	cfg := c.ScanConfig
	if c.walker == nil || cfg.Root != c.walkerCfg.Root || !slices.Equal(cfg.Dirs, c.walkerCfg.Dirs) ||
		!slices.Equal(cfg.Extensions, c.walkerCfg.Extensions) || cfg.MaxFileBytes != c.walkerCfg.MaxFileBytes ||
		cfg.Workers != c.walkerCfg.Workers {
		c.Close()
		cfg.Dirs, cfg.Extensions = slices.Clone(cfg.Dirs), slices.Clone(cfg.Extensions)
		c.walker, c.walkerCfg = scan.New(cfg), cfg
	}
	return c.walker
}

// Close releases the walker's change feed. The context stays usable: a
// later run builds a new walker, whose first scan walks.
func (c *Context) Close() {
	if c.walker != nil {
		c.walker.Close()
		c.walker = nil
	}
}

// Component is one composable step of a metadata processing chain.
type Component interface {
	// Name identifies the component in reports and configs.
	Name() string
	// Run executes the step against the context.
	Run(ctx *Context) (StepReport, error)
}

// StepReport summarizes one component execution.
type StepReport struct {
	Component string         `json:"component"`
	Duration  time.Duration  `json:"duration"`
	Counters  map[string]int `json:"counters,omitempty"`
	Notes     []string       `json:"notes,omitempty"`
	// MessAfter snapshots the mess metric after the step.
	MessAfter MessReport `json:"messAfter"`
}

// RunReport summarizes a whole chain run.
type RunReport struct {
	Process  string        `json:"process"`
	Steps    []StepReport  `json:"steps"`
	Duration time.Duration `json:"duration"`
	// MessDuration is the time the run spent computing the mess metric
	// between steps: part of Duration, of no step's.
	MessDuration time.Duration `json:"messDuration"`
	MessBefore   MessReport    `json:"messBefore"`
	MessAfter    MessReport    `json:"messAfter"`
}

// Process is a named chain of components — the poster's "metadata
// processing chain".
type Process struct {
	Name       string
	Components []Component
	// History records every run for provenance.
	History []*RunReport
}

// NewProcess assembles a process.
func NewProcess(name string, components ...Component) *Process {
	return &Process{Name: name, Components: components}
}

// Run executes the chain in order, stopping at the first component
// error. The report records the mess metric before and after every
// step. The metric is memoized on (catalog generation, knowledge
// value): a step that changed neither — validate, publish, an
// incremental no-op — reuses the previous computation. What it does
// cost is summed into RunReport.MessDuration and observed as the "mess"
// wrangle stage.
func (p *Process) Run(ctx *Context) (*RunReport, error) {
	start := time.Now()
	report := &RunReport{Process: p.Name}
	var memo struct {
		gen uint64
		k   *semdiv.Knowledge
		rep MessReport
	}
	mess := func() MessReport {
		gen, k := ctx.Working.Generation(), ctx.Curation().Knowledge
		if memo.k == k && memo.gen == gen {
			return memo.rep
		}
		t0 := time.Now()
		memo.gen, memo.k = gen, k
		memo.rep = messOf(ctx.Working, ctx.Classifier())
		report.MessDuration += time.Since(t0)
		return memo.rep
	}
	defer func() { observeWrangleStage("mess", report.MessDuration) }()
	report.MessBefore = mess()
	for _, comp := range p.Components {
		name := comp.Name()
		// Component spans nest under the run's span; instrumented
		// components (Publish) hang their own stages off TraceSpan, so
		// it is re-pointed at this component for the duration of its
		// Run and restored after.
		sid := ctx.Trace.Start(ctx.TraceSpan, name)
		saved := ctx.TraceSpan
		if sid >= 0 {
			ctx.TraceSpan = sid
		}
		stepStart := time.Now()
		step, err := comp.Run(ctx)
		dur := time.Since(stepStart)
		ctx.TraceSpan = saved
		ctx.Trace.End(sid)
		observeWrangleStage(name, dur)
		if err != nil {
			wrangleFailures.Inc()
			return report, fmt.Errorf("core: component %s: %w", name, err)
		}
		step.Component = name
		step.Duration = dur
		step.MessAfter = mess()
		report.Steps = append(report.Steps, step)
	}
	report.Duration = time.Since(start)
	report.MessAfter = mess()
	p.History = append(p.History, report)
	wrangleRuns.Inc()
	return report, nil
}

// MessReport quantifies "the mess": how far the working catalog's
// variable names are from the canonical vocabulary.
type MessReport struct {
	// DistinctNames counts distinct current variable names.
	DistinctNames int `json:"distinctNames"`
	// CanonicalNames counts distinct names that are exactly canonical.
	CanonicalNames int `json:"canonicalNames"`
	// ExcludedNames counts distinct names marked excluded.
	ExcludedNames int `json:"excludedNames"`
	// GroupedNames counts distinct multi-level names resolved by
	// hierarchy grouping (kept under a parent, per Table 1).
	GroupedNames int `json:"groupedNames"`
	// UnresolvedNames counts distinct names that are neither canonical,
	// excluded, nor grouped — the mess that's left.
	UnresolvedNames int `json:"unresolvedNames"`
	// OccurrenceCoverage is the fraction of variable occurrences whose
	// name is canonical, excluded, or hierarchy-grouped (i.e. fully
	// wrangled), in [0,1].
	OccurrenceCoverage float64 `json:"occurrenceCoverage"`
}

// Mess computes the metric for a catalog against a knowledge base.
func Mess(c *catalog.Working, k *semdiv.Knowledge) MessReport {
	if c == nil || k == nil {
		return MessReport{}
	}
	return messOf(c, semdiv.NewClassifier(k))
}

// messOf computes the metric from the catalog's maintained name tally —
// one classification per distinct name, no walk over the features: the
// metric runs after every chain step, so it must cost in proportion to
// the names, not the catalog.
func messOf(c *catalog.Working, cls *semdiv.Classifier) MessReport {
	r := MessReport{}
	totalOcc, wrangledOcc := 0, 0
	c.ForEachVariableName(func(name string, count, excluded, parented int) {
		r.DistinctNames++
		totalOcc += count
		f := cls.Classify(name)
		switch {
		case f.Category == semdiv.CatClean:
			r.CanonicalNames++
			wrangledOcc += count
		case excluded > 0:
			r.ExcludedNames++
			wrangledOcc += count
		case f.Category == semdiv.CatMultiLevel && parented > 0:
			r.GroupedNames++
			wrangledOcc += count
		default:
			r.UnresolvedNames++
		}
	})
	if totalOcc > 0 {
		r.OccurrenceCoverage = float64(wrangledOcc) / float64(totalOcc)
	}
	return r
}
