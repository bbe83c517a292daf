package core

import (
	"cmp"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"metamess/internal/catalog"
	"metamess/internal/cluster"
	"metamess/internal/geo"
	"metamess/internal/hierarchy"
	"metamess/internal/refine"
	"metamess/internal/semdiv"
	"metamess/internal/synonym"
	"metamess/internal/table"
	"metamess/internal/validate"
)

// ScanArchive is the chain's first component: walk the configured
// directories (in parallel), upsert a feature per added or changed
// dataset into the working catalog, retract vanished ones, and record
// the resulting Delta on the context for every downstream component.
type ScanArchive struct{}

// Name implements Component.
func (ScanArchive) Name() string { return "scan-archive" }

// Run implements Component.
func (ScanArchive) Run(ctx *Context) (StepReport, error) {
	// The previous run's delta is spent; drop it so a curation change
	// cannot scribble on stale state.
	ctx.Delta = nil
	conn := ctx.Connector
	if conn == nil {
		conn = ctx.walkerScanner()
	}
	res, err := conn.ScanInto(ctx.Working)
	if err != nil {
		return StepReport{}, err
	}
	ctx.Delta = &Delta{
		Added:     res.Added,
		Changed:   res.Changed,
		Removed:   res.Removed,
		Unchanged: res.Stats.SkippedUnchanged,
		Full:      !ctx.hasRun || ctx.Curation().Version != ctx.lastRunVersion || ctx.ForceFullReprocess,
	}
	// Fold in dirty IDs stranded by runs that aborted before Publish:
	// their re-parsed raw state sits in Working and the scan just
	// re-classified them as unchanged.
	carried := 0
	if len(ctx.pendingDirty) > 0 {
		// A stranded ID whose file has since vanished is in Removed (and
		// already deleted from Working) — it is no longer dirty, just gone.
		settled := make(map[string]bool, len(ctx.Delta.Added)+len(ctx.Delta.Changed)+len(ctx.Delta.Removed))
		for _, id := range ctx.Delta.Added {
			settled[id] = true
		}
		for _, id := range ctx.Delta.Changed {
			settled[id] = true
		}
		for _, id := range ctx.Delta.Removed {
			settled[id] = true
			delete(ctx.pendingDirty, id)
		}
		for id := range ctx.pendingDirty {
			if !settled[id] {
				ctx.Delta.Changed = append(ctx.Delta.Changed, id)
				carried++
			}
		}
		sort.Strings(ctx.Delta.Changed)
	}
	// Everything dirty this run stays pending until a Publish lands.
	if ctx.pendingDirty == nil {
		ctx.pendingDirty = make(map[string]bool)
	}
	dirty := ctx.Delta.Dirty()
	for _, id := range dirty {
		ctx.pendingDirty[id] = true
	}
	ctx.addScope(append(dirty, ctx.Delta.Removed...)...)
	step := StepReport{Counters: map[string]int{
		"filesSeen":        res.Stats.FilesSeen,
		"parsed":           res.Stats.Parsed,
		"skippedUnchanged": res.Stats.SkippedUnchanged,
		"hashVerified":     res.Stats.HashVerified,
		"failed":           res.Stats.Failed,
		"bytesParsed":      int(res.Stats.BytesParsed),
		"added":            len(res.Added),
		"changed":          len(res.Changed),
		"removed":          len(res.Removed),
		"carriedOver":      carried,
	}}
	if ctx.Connector == nil {
		step.Counters["fullWalk"] = 0
		if res.Stats.FullWalk {
			step.Counters["fullWalk"] = 1
		}
	}
	if ctx.Delta.Full {
		step.Counters["fullReprocess"] = 1
	}
	for _, e := range res.Errors {
		step.Notes = append(step.Notes, e.Error())
	}
	return step, nil
}

// KnownTransforms performs the "perform known transformations"
// component: translate names the curated knowledge already understands
// (synonyms, abbreviations, minor variations, single-context bases),
// mark excessive variables as excluded, canonicalize units, and fold in
// any pending curator decisions.
type KnownTransforms struct{}

// Name implements Component.
func (KnownTransforms) Name() string { return "known-transforms" }

// Run implements Component.
func (KnownTransforms) Run(ctx *Context) (StepReport, error) {
	cur := ctx.Curation()
	cls := ctx.Classifier()
	counts := ctx.Working.VariableNameCounts()
	names := make([]string, len(counts))
	for i, vc := range counts {
		names[i] = vc.Value
	}
	plan := semdiv.Resolve(cls.ClassifyAll(names))
	if len(cur.PendingDecisions) > 0 {
		if err := plan.ApplyDecisions(cur.PendingDecisions); err != nil {
			return StepReport{}, err
		}
		// Decisions are knowledge: consuming them moves the version, so
		// their translations reach every feature, not just the scan delta.
		ctx.Curate(func(next *Curation) error { next.PendingDecisions = nil; return nil })
	}

	// The plan is global (classification is per-name, so it is cheap to
	// compute over every distinct name), but with stable knowledge the
	// non-dirty features are already fixed points of it: only the scan
	// delta needs the feature pass.
	full := ctx.fullRun()
	var dirty []string
	if !full {
		dirty = ctx.Delta.Dirty()
	}
	processed := ctx.Working.Len()
	if !full {
		processed = len(dirty)
	}

	step := StepReport{Counters: map[string]int{
		"translations":      len(plan.Translations),
		"exclusions":        len(plan.Exclusions),
		"curatorQueue":      len(plan.CuratorQueue),
		"featuresProcessed": processed,
		"featuresSkipped":   ctx.Working.Len() - processed,
	}}
	for _, f := range plan.CuratorQueue {
		step.Notes = append(step.Notes, fmt.Sprintf("curator: %q is %s (%s)", f.RawName, f.Category, f.Evidence))
	}
	if !full && len(dirty) == 0 {
		return step, nil
	}

	// Translations run through the refine grid so the rule is auditable.
	// An incremental run extracts (and writes back) only the dirty
	// features' rows.
	if op := plan.TranslationOp("field"); op != nil {
		var grid *table.Table
		if full {
			grid = ctx.Working.ToTable()
		} else {
			grid = ctx.Working.ToTableOf(dirty)
		}
		if _, err := op.Apply(grid); err != nil {
			return StepReport{}, err
		}
		changed, err := ctx.Working.ApplyTable(grid)
		if err != nil {
			return StepReport{}, err
		}
		step.Counters["datasetsChanged"] = changed
	}

	// Exclusions and unit canonicalization mutate features directly. A
	// variable harvested in a different unit than its vocabulary entry
	// prescribes (temperatures in degF, speeds in cm/s) has its observed
	// range converted into the variable's canonical unit, so range
	// queries and plausibility checks compare like with like.
	excluded := make(map[string]bool, len(plan.Exclusions))
	for _, e := range plan.Exclusions {
		excluded[e] = true
	}
	vocabUnit := make(map[string]string, len(cur.Knowledge.Vocabulary))
	for _, cv := range cur.Knowledge.Vocabulary {
		vocabUnit[cv.Name] = cv.Unit
	}
	unitMiss := make(map[string]bool)
	marked, converted := 0, 0
	mutate := func(f *catalog.Feature) bool {
		changed := false
		for i := range f.Variables {
			v := &f.Variables[i]
			if excluded[v.Name] && !v.Excluded {
				v.Excluded = true
				marked++
				changed = true
			}
			if v.Unit != "" && v.CanonicalUnit == "" {
				u, ok := cur.Units.Lookup(v.Unit)
				if !ok {
					unitMiss[v.Unit] = true
					continue
				}
				target := vocabUnit[v.Name]
				if target == "" || target == u.Symbol || v.Count == 0 {
					// Same unit (or no vocabulary entry): just record the
					// resolved symbol, values need no conversion.
					v.CanonicalUnit = u.Symbol
					changed = true
					continue
				}
				lo, err1 := cur.Units.Convert(v.Range.Min, v.Unit, target)
				hi, err2 := cur.Units.Convert(v.Range.Max, v.Unit, target)
				if err1 != nil || err2 != nil {
					// Cross-family surprise: keep the resolved symbol and
					// leave values alone for the curator to inspect.
					v.CanonicalUnit = u.Symbol
					changed = true
					continue
				}
				v.Range = geo.NewValueRange(lo, hi)
				v.CanonicalUnit = target
				converted++
				changed = true
			}
		}
		return changed
	}
	if full {
		ctx.Working.MutateVariables(mutate)
	} else {
		ctx.Working.MutateVariablesOf(dirty, mutate)
	}
	step.Counters["variablesExcluded"] = marked
	step.Counters["unitsConverted"] = converted
	step.Counters["unknownUnits"] = len(unitMiss)
	return step, nil
}

// AddExternalMetadata merges external translation tables (CSV files in
// the synonym package's format) into the knowledge base — the chain's
// "add external metadata" component, which the poster notes "often
// exists as a translation table".
type AddExternalMetadata struct {
	// TablePaths are CSV translation tables to merge.
	TablePaths []string
	// Tables are in-memory tables to merge (tests, embedded defaults).
	Tables []*synonym.Table
}

// Name implements Component.
func (AddExternalMetadata) Name() string { return "add-external-metadata" }

// Run implements Component.
func (a AddExternalMetadata) Run(ctx *Context) (StepReport, error) {
	var tables []*synonym.Table
	for _, p := range a.TablePaths {
		f, err := os.Open(p)
		if err != nil {
			return StepReport{}, fmt.Errorf("external table %s: %w", p, err)
		}
		t, err := synonym.ReadCSV(f)
		f.Close()
		if err != nil {
			return StepReport{}, fmt.Errorf("external table %s: %w", p, err)
		}
		tables = append(tables, t)
	}
	tables = append(tables, a.Tables...)
	step := StepReport{Counters: map[string]int{"tablesMerged": len(tables)}}
	if len(tables) == 0 {
		return step, nil
	}
	// Re-merging a table already absorbed on an earlier run is a no-op;
	// only an actual knowledge change forces the rest of the chain (and
	// the next run, until published) onto the full path.
	changed, err := ctx.Curate(func(next *Curation) error {
		for _, t := range tables {
			if err := next.Knowledge.Synonyms.Merge(t); err != nil {
				return fmt.Errorf("external table: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return StepReport{}, err
	}
	if changed {
		step.Counters["knowledgeChanged"] = 1
	}
	return step, nil
}

// DiscoverTransforms clusters "the mess that's left" — names the
// classifier cannot resolve — and converts each cluster into a mass-edit
// rule, exactly as the poster's Google Refine round trip does. Rules are
// accumulated on the context; PerformDiscovered applies them.
type DiscoverTransforms struct {
	// Methods run in order over the residual; nil means the default
	// ladder (fingerprint, 1-gram fingerprint, phonetic, Levenshtein 0.84).
	Methods []cluster.Method
}

// Name implements Component.
func (DiscoverTransforms) Name() string { return "discover-transforms" }

// Run implements Component.
func (d DiscoverTransforms) Run(ctx *Context) (StepReport, error) {
	// With stable knowledge and an empty archive delta the residual is
	// exactly what the previous run's discovery already clustered:
	// re-running could only rediscover the same fixed point.
	if !ctx.fullRun() && ctx.Delta.Empty() {
		return StepReport{Counters: map[string]int{"skipped": 1}}, nil
	}
	methods := d.Methods
	if methods == nil {
		methods = []cluster.Method{
			cluster.Fingerprint(),
			cluster.NGramFingerprint(1),
			cluster.Phonetic(),
			cluster.Levenshtein(0.84),
		}
	}
	cls := ctx.Classifier()
	// The residual: names with no curated resolution — and no already
	// discovered one. A re-parsed file resurrects raw names that an
	// accumulated rule folds later in this same run (PerformDiscovered
	// runs after discovery); treating those as fresh mess would mint
	// near-duplicate rules and needlessly re-trigger full reprocessing
	// on every churned re-wrangle.
	rules := ctx.Curation().DiscoveredRules
	ruled := ruledNames(rules)
	counts := ctx.Working.VariableNameCounts()
	var residual []string
	for _, vc := range counts {
		if cls.Classify(vc.Value).Category == semdiv.CatUnknown && !ruled[vc.Value] {
			residual = append(residual, vc.Value)
		}
	}
	residualSet := make(map[string]bool, len(residual))
	for _, r := range residual {
		residualSet[r] = true
	}

	step := StepReport{Counters: map[string]int{"residualNames": len(residual)}}
	if len(residual) == 0 {
		return step, nil
	}

	// Serialized forms of the accumulated rules, computed once: a rule
	// already on the books must not be re-appended (it would re-trigger
	// a full reprocess on every run for a residual that never resolves).
	known := make(map[string]bool, len(rules))
	for _, r := range rules {
		if s, ok := serializeRule(r); ok {
			known[s] = true
		}
	}

	// Cluster over all names so residual values can collide with known
	// ones, but compute and keep only clusters containing at least one
	// residual name not folded yet. One method's clusters are disjoint, so
	// the seeds taken before its loop stay exact while the loop folds.
	folded := make(map[string]bool)
	var minted []refine.Operation
	for _, m := range methods {
		var seeds []string
		for _, r := range residual {
			if !folded[r] {
				seeds = append(seeds, r)
			}
		}
		clusters := m.ClusterTouching(counts, seeds)
		var keep []cluster.Cluster
		for _, c := range clusters {
			hasResidual, allFolded := false, true
			for _, v := range c.Values {
				if residualSet[v.Value] && !folded[v.Value] {
					hasResidual = true
				}
				if !folded[v.Value] {
					allFolded = false
				}
			}
			if !hasResidual || allFolded {
				continue
			}
			// Prefer a canonical target: if any member resolves cleanly,
			// fold the cluster onto its canonical form.
			c.Recommended = bestTarget(c, cls)
			keep = append(keep, c)
			for _, v := range c.Values {
				folded[v.Value] = true
			}
		}
		if op := cluster.ToMassEdit("field", keep,
			fmt.Sprintf("Discovered by %s over the residual mess", m.Name())); op != nil {
			if s, ok := serializeRule(op); ok {
				if known[s] {
					continue // already on the books from an earlier run
				}
				known[s] = true
			}
			minted = append(minted, op)
		}
	}
	step.Counters["rulesDiscovered"] = len(minted)
	if len(minted) > 0 {
		// A discovered fold can rename occurrences in features the scan
		// classified as unchanged — rules are curated knowledge, so the
		// rest of this run must walk the whole catalog.
		ctx.Curate(func(next *Curation) error {
			next.DiscoveredRules = append(next.DiscoveredRules, minted...)
			return nil
		})
	}
	return step, nil
}

// ruledNames collects every name an accumulated mass-edit rule already
// folds away (the From side of its edits).
func ruledNames(rules []refine.Operation) map[string]bool {
	out := make(map[string]bool)
	for _, r := range rules {
		me, ok := r.(*refine.MassEdit)
		if !ok {
			continue
		}
		for _, e := range me.Edits {
			for _, from := range e.From {
				out[from] = true
			}
		}
	}
	return out
}

// serializeRule renders a rule's canonical comparable form.
func serializeRule(op refine.Operation) (string, bool) {
	data, err := refine.ExportJSON([]refine.Operation{op})
	if err != nil {
		return "", false
	}
	return string(data), true
}

// bestTarget picks a cluster's fold target: the canonical resolution of
// the first member that classifies cleanly (in frequency order), else
// the cluster's own recommendation.
func bestTarget(c cluster.Cluster, cls *semdiv.Classifier) string {
	for _, v := range c.Values {
		f := cls.Classify(v.Value)
		switch f.Category {
		case semdiv.CatClean:
			return v.Value
		case semdiv.CatSynonym, semdiv.CatAbbreviation, semdiv.CatMinorVariation:
			if f.Canonical != "" {
				return f.Canonical
			}
		}
	}
	return c.Recommended
}

// PerformDiscovered applies the accumulated discovered rules to the
// working catalog through the refine grid — the poster's "run rules
// against metadata" arrow.
type PerformDiscovered struct{}

// Name implements Component.
func (PerformDiscovered) Name() string { return "perform-discovered" }

// Run implements Component.
func (PerformDiscovered) Run(ctx *Context) (StepReport, error) {
	rules := ctx.Curation().DiscoveredRules
	step := StepReport{Counters: map[string]int{"rules": len(rules)}}
	if len(rules) == 0 {
		return step, nil
	}
	// With stable knowledge (no new rules this run) the accumulated
	// rules were already applied to every feature on earlier runs; only
	// the scan delta — e.g. a fresh file using a historically messy
	// name — still needs them.
	full := ctx.fullRun()
	var dirty []string
	if !full {
		dirty = ctx.Delta.Dirty()
		if len(dirty) == 0 {
			step.Counters["skipped"] = 1
			return step, nil
		}
	}
	var grid *table.Table
	if full {
		grid = ctx.Working.ToTable()
	} else {
		grid = ctx.Working.ToTableOf(dirty)
	}
	project := refine.NewProject(grid)
	if _, err := project.ApplyAll(rules); err != nil {
		return StepReport{}, err
	}
	changed, err := ctx.Working.ApplyTable(project.Table())
	if err != nil {
		return StepReport{}, err
	}
	step.Counters["datasetsChanged"] = changed
	step.Counters["cellsChanged"] = project.TotalCellsChanged()
	return step, nil
}

// GenerateHierarchies builds the variable taxonomy over the wrangled
// names (configure: levels, aggregation), records each variable's
// hierarchy parent, and links source-context variables to their
// taxonomies.
type GenerateHierarchies struct {
	Options hierarchy.GenerateOptions
	// Taxonomy receives the generated tree (for menus); optional.
	Taxonomy **hierarchy.Taxonomy
}

// Name implements Component.
func (GenerateHierarchies) Name() string { return "generate-hierarchies" }

// Run implements Component.
func (g GenerateHierarchies) Run(ctx *Context) (StepReport, error) {
	opts := g.Options
	if opts.MinGroupSize == 0 {
		opts = hierarchy.DefaultGenerateOptions()
	}
	names := ctx.Working.DistinctVariableNames()
	nh := namesHash(names)
	// The tree is a pure function of the name set and the options, so it
	// is generated only when either moved; a churn round that keeps every
	// name reuses the last one.
	if key := (taxonomyKey{nh, opts}); ctx.tax == nil || ctx.taxKey != key {
		tax, err := hierarchy.Generate("variables", names, opts)
		if err != nil {
			return StepReport{}, err
		}
		ctx.tax, ctx.taxKey = tax, key
	}
	tax := ctx.tax
	if g.Taxonomy != nil {
		*g.Taxonomy = tax
	}

	// Context links per canonical variable.
	contextsFor := make(map[string][]string)
	for _, v := range ctx.Curation().Knowledge.Vocabulary {
		if v.Context != "" {
			contextsFor[v.Name] = []string{v.Context}
		}
	}

	// Classifier-driven parents: a multi-level name whose stem family has
	// only one member never earns a taxonomy group, but the classifier
	// still knows its parent concept (fluores410 under fluorescence).
	// Looked up per name the pass meets, so a delta-scoped pass classifies
	// only the dirty features' names.
	cls := ctx.Classifier()
	classified := make(map[string]string)
	classifiedParent := func(name string) string {
		p, ok := classified[name]
		if !ok {
			if f := cls.Classify(name); f.Category == semdiv.CatMultiLevel {
				p = f.GroupParent
			}
			classified[name] = p
		}
		return p
	}

	// Taxonomy grouping is global — a new name can push a stem family
	// over the grouping threshold and re-parent variables in untouched
	// features — so the incremental pass is only sound while both the
	// knowledge and the distinct-name set are unchanged. A full pass
	// scopes the rest of the run, validation and publish included, to
	// every feature.
	full := ctx.fullRun() || nh != ctx.lastNamesHash
	var dirty []string
	if !full {
		dirty = ctx.Delta.Dirty()
	} else {
		ctx.scopeAll = true
	}
	processed := ctx.Working.Len()
	if !full {
		processed = len(dirty)
	}

	parents, linked := 0, 0
	mutate := func(f *catalog.Feature) bool {
		changed := false
		for i := range f.Variables {
			v := &f.Variables[i]
			if p, ok := tax.Parent(v.Name); ok && v.Parent != p {
				v.Parent = p
				parents++
				changed = true
			} else if p := classifiedParent(v.Name); p != "" && v.Parent == "" {
				v.Parent = p
				parents++
				changed = true
			}
			if ctxs, ok := contextsFor[v.Name]; ok && len(v.Contexts) == 0 {
				v.Contexts = append([]string(nil), ctxs...)
				linked++
				changed = true
			}
		}
		return changed
	}
	if full {
		ctx.Working.MutateVariables(mutate)
	} else if len(dirty) > 0 {
		ctx.Working.MutateVariablesOf(dirty, mutate)
	}
	ctx.lastNamesHash = nh
	return StepReport{Counters: map[string]int{
		"taxonomyTerms":     tax.Size(),
		"parentsSet":        parents,
		"contextsLinked":    linked,
		"featuresProcessed": processed,
		"featuresSkipped":   ctx.Working.Len() - processed,
	}}, nil
}

// Validate runs the validation suite and records the report on the
// context; it fails the chain when a check errors, so Publish never runs
// over a broken catalog. The per-feature checks re-inspect only the
// run's scope (see Context.scope) and keep the rest of their findings
// from earlier runs; the report is exactly validate.Run's.
type Validate struct {
	// Checks defaults to validate.DefaultChecks.
	Checks []validate.Check
	// AllowErrors records the report but lets the chain continue
	// (curator-inspection runs).
	AllowErrors bool
}

// Name implements Component.
func (Validate) Name() string { return "validate" }

// Run implements Component.
func (v Validate) Run(ctx *Context) (StepReport, error) {
	checks := v.Checks
	if checks == nil {
		checks = validate.DefaultChecks()
	}
	cur := ctx.Curation()
	vctx := &validate.Context{
		Catalog:       ctx.Working,
		Knowledge:     cur.Knowledge,
		Units:         cur.Units,
		ExpectedPaths: ctx.ExpectedPaths,
		Classifier:    ctx.Classifier(),
	}
	if ctx.validation == nil {
		ctx.validation = &validate.Memo{}
	}
	ids, all := ctx.scope()
	report := ctx.validation.Run(vctx, ids, all, checks...)
	ctx.validatedGen = ctx.Working.Generation()
	ctx.LastValidation = report
	step := StepReport{Counters: map[string]int{
		"checks":   len(report.ChecksRun),
		"errors":   report.Errors(),
		"warnings": report.Warnings(),
	}}
	// The notes list findings by detail, then dataset; the report keeps
	// check order.
	findings := slices.Clone(report.Findings)
	slices.SortStableFunc(findings, func(a, b validate.Finding) int {
		return cmp.Or(strings.Compare(a.Detail, b.Detail), strings.Compare(a.Dataset, b.Dataset))
	})
	for i, f := range findings {
		if i >= 20 {
			step.Notes = append(step.Notes, fmt.Sprintf("... %d more findings", len(findings)-i))
			break
		}
		step.Notes = append(step.Notes, fmt.Sprintf("[%s] %s: %s", f.Severity, f.Check, f.Detail))
	}
	if !report.OK() && !v.AllowErrors {
		return step, fmt.Errorf("validation failed with %d errors", report.Errors())
	}
	return step, nil
}

// Publish atomically applies the working catalog's changes to the
// published catalog — the chain's final box. Instead of the historical
// clone-everything swap, it diffs working against published (ignoring
// scan bookkeeping) over the run's scope (see Context.scope) and applies
// exactly that delta: unchanged features are neither compared nor
// re-cloned, the served snapshot gains delta segments rather than a
// rebuild, and an empty diff leaves the snapshot generation untouched,
// so a no-op re-wrangle cannot evict generation-keyed query caches.
type Publish struct{}

// Name implements Component.
func (Publish) Name() string { return "publish" }

// Run implements Component.
func (Publish) Run(ctx *Context) (StepReport, error) {
	if ctx.Published == nil {
		return StepReport{}, fmt.Errorf("no published catalog configured")
	}
	var changed []*catalog.Feature
	var removed []string
	if ids, all := ctx.scope(); all {
		changed, removed = ctx.Published.DiffTo(ctx.Working)
	} else {
		changed, removed = ctx.Published.DiffOf(ctx.Working, ids)
	}
	bumped, journaled, err := ctx.Commit(changed, removed, 0, nil)
	if err != nil {
		// Before the completion bookkeeping below, so an acknowledged run
		// is always on disk.
		return StepReport{}, fmt.Errorf("publish: %w", err)
	}
	// The run is complete: record the state the incremental machinery
	// compares future runs against, and clear the carried-dirty set and
	// the scope — everything dirty has now been transformed and
	// published. Validation findings survive only if they describe the
	// working catalog as it is now.
	ctx.hasRun = true
	ctx.lastRunVersion = ctx.Curation().Version
	ctx.pendingDirty = nil
	ctx.scoped, ctx.scopeAll, ctx.publishedGen = nil, false, ctx.Published.Generation()
	if ctx.validatedGen != ctx.Working.Generation() {
		ctx.validation = nil
	}
	if ctx.cls != nil {
		// Bound the classifier memo to the names the catalog still has.
		ctx.cls.Retain(ctx.Working.DistinctVariableNames())
	}
	step := StepReport{Counters: map[string]int{
		"datasetsPublished": ctx.Published.Len(),
		"changed":           len(changed),
		"retracted":         len(removed),
		"unchanged":         ctx.Published.Len() - len(changed),
	}}
	if journaled {
		step.Counters["journaled"] = 1
	}
	if !bumped {
		step.Counters["generationStable"] = 1
	}
	return step, nil
}

// Commit is the one way a change reaches the published catalog — a
// chain run's Publish step, a pushed batch's PublishDirect, a
// replicated journal record, a checkpoint bootstrap or a catalog load
// all end here. It applies the delta to the published catalog, then
// journals it with its generation stamp and, when the curation or the
// names hash moved, a knowledge sidecar (an empty delta without one
// appends nothing, so no-op publishes stay quiet). Both stages feed
// dnh_publish_stage_duration_seconds and open a span under the
// context's trace, whichever writer ran them; segment merges the apply
// ran feed the stage "merge" and become a "merge" child of the
// apply-delta span.
//
// at selects the generation rule. Zero commits at the next generation
// (an empty delta keeps the current one) and journals the context's own
// sidecar when its (version, names hash) differs from the last one
// journaled — or, on a generation-advancing record, from the last one
// such a record carried, since followers skip the others; the first
// commit after opening always journals one. Non-zero pins the commit to
// a leader's journaled generation, which must be ahead of the catalog's,
// and journals sidecar — that record's — verbatim. Callers serialize
// commits; the facade holds one publish lock across every writer.
func (c *Context) Commit(changed []*catalog.Feature, removed []string, at uint64, sidecar []byte) (bumped, journaled bool, err error) {
	aid := c.Trace.Start(c.TraceSpan, "apply-delta")
	t0 := time.Now()
	if at == 0 {
		bumped, err = c.Published.ApplyDelta(changed, removed)
	} else {
		err = c.Published.ApplyDeltaAt(at, changed, removed)
		bumped = err == nil
	}
	applyDeltaSeconds.ObserveSeconds(time.Since(t0).Nanoseconds())
	c.Trace.Attr(aid, "changed", int64(len(changed)))
	c.Trace.Attr(aid, "removed", int64(len(removed)))
	if m := c.Published.LastMerge(); err == nil && m.Shards > 0 {
		mergeSeconds.ObserveSeconds(m.Dur.Nanoseconds())
		mid := c.Trace.Record(aid, "merge", m.Start, m.Dur)
		c.Trace.Attr(mid, "shards", int64(m.Shards))
		if m.Base {
			c.Trace.Attr(mid, "base", 1)
		}
	}
	c.Trace.End(aid)
	if err != nil || c.Journal == nil {
		return bumped, false, err
	}
	// The journal-append span covers the sidecar and record encodes,
	// write + flush and, under the always-fsync policy, the fsync itself;
	// fsyncs are aggregated separately in dnh_journal_fsync_duration_seconds.
	jid := c.Trace.Start(c.TraceSpan, "journal-append")
	t0 = time.Now()
	key := sidecarKey{true, c.Curation().Version, c.lastNamesHash}
	if at == 0 && key != c.shippedKey && (bumped || key != c.journaledKey) {
		sidecar, err = c.EpochSidecar()
	}
	if err == nil {
		err = c.Journal.AppendPublish(c.Published.Generation(), changed, removed, sidecar)
	}
	journalAppendSeconds.ObserveSeconds(time.Since(t0).Nanoseconds())
	c.Trace.End(jid)
	if err == nil && at == 0 && sidecar != nil {
		c.journaledKey = key
		if bumped {
			c.shippedKey = key
		}
	}
	return bumped, err == nil, err
}

// DefaultChain assembles the poster's full chain in order.
func DefaultChain() []Component {
	return []Component{
		ScanArchive{},
		KnownTransforms{},
		AddExternalMetadata{},
		DiscoverTransforms{},
		PerformDiscovered{},
		KnownTransforms{}, // re-run: discovered folds may land on known names
		GenerateHierarchies{},
		Validate{AllowErrors: true},
		Publish{},
	}
}
