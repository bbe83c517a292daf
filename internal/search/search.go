// Package search implements the "Data Near Here" ranked search the
// poster's IR architecture serves: queries name a location, a time
// period, and variables (optionally with desired value ranges), and
// datasets are ranked by distance-based similarity of their catalog
// features to the query terms. Searches run over the published metadata
// catalog only — never over the raw data.
package search

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"metamess/internal/catalog"
	"metamess/internal/geo"
	"metamess/internal/obs"
)

// Term is one variable query term, optionally constrained to a value
// range ("temperature between 5-10C").
type Term struct {
	Name  string
	Range *geo.ValueRange
}

// Query is a ranked-search request. Any subset of the dimensions may be
// present; scoring averages over the dimensions the query uses.
type Query struct {
	// Location scores datasets by distance from a point ("near here").
	Location *geo.Point
	// Region scores datasets by distance from a box; ignored when
	// Location is set.
	Region *geo.BBox
	// Time scores datasets by temporal gap from the range.
	Time *geo.TimeRange
	// Terms scores datasets by variable presence and range fit.
	Terms []Term
	// K caps the result count (default 10).
	K int
}

// Validate rejects structurally bad queries.
func (q Query) Validate() error {
	if q.Location == nil && q.Region == nil && q.Time == nil && len(q.Terms) == 0 {
		return fmt.Errorf("search: empty query")
	}
	if q.Location != nil && !q.Location.Valid() {
		return fmt.Errorf("search: invalid location %v", *q.Location)
	}
	if q.Region != nil && !q.Region.Valid() {
		return fmt.Errorf("search: invalid region %v", *q.Region)
	}
	if q.Time != nil && !q.Time.Valid() {
		return fmt.Errorf("search: invalid time range")
	}
	for i, t := range q.Terms {
		if t.Name == "" {
			return fmt.Errorf("search: term %d has no name", i)
		}
		if r := t.Range; r != nil && !(finite(r.Min) && finite(r.Max)) {
			return fmt.Errorf("search: term %q range %v is not finite", t.Name, *r)
		}
		if r := t.Range; r != nil && r.Min > r.Max {
			return fmt.Errorf("search: term %q range %v has min above max", t.Name, *r)
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Weights balances the query dimensions; zero values default to 1.
type Weights struct {
	Space, Time, Variables float64
}

func (w Weights) normalized() Weights {
	if w.Space <= 0 {
		w.Space = 1
	}
	if w.Time <= 0 {
		w.Time = 1
	}
	if w.Variables <= 0 {
		w.Variables = 1
	}
	return w
}

// Options tunes the searcher.
type Options struct {
	// Weights balances space/time/variable scores.
	Weights Weights
	// SpaceScaleKm is the distance at which the space score halves.
	// Default 25 km (estuary scale).
	SpaceScaleKm float64
	// TimeScale is the gap at which the time score halves. Default 30 days.
	TimeScale time.Duration
	// UseIndex plans candidate sets through the snapshot's secondary
	// indexes (variable-name, spatial grid, time-interval) before
	// scoring. Disable for the linear-scan ablation, which scores every
	// feature; both paths return identical rankings.
	UseIndex bool
	// PruneScore is the per-dimension score ε below which the spatial
	// and temporal indexes may prune a candidate. Exactness is kept by
	// the planner's widening bounds regardless of the value; smaller ε
	// means larger candidate sets and less frequent widening. Default
	// 0.05 (≈475 km / 570 days at the default scales).
	PruneScore float64
	// Expander rewrites query terms (synonyms, abbreviations, context
	// qualification). Nil means exact matching only.
	Expander Expander
	// ParentWeight scores a variable whose hierarchy parent matches the
	// query term ("fluorescence" finding fluores375). Default 0.8; New
	// caps it at 1, because every dimension score must stay ≤ 1 for the
	// planner's tier bounds and the scorer's prune to be exact.
	ParentWeight float64
}

// DefaultOptions returns the searcher defaults.
func DefaultOptions() Options {
	return Options{
		SpaceScaleKm: 25,
		TimeScale:    30 * 24 * time.Hour,
		UseIndex:     true,
		PruneScore:   0.05,
		ParentWeight: 0.8,
	}
}

// Expansion is one rewrite of a query term.
type Expansion struct {
	Name string
	// Weight scales a match through this rewrite. The searcher caps it
	// at 1, so a term score never exceeds 1 (the exactness of indexed
	// search rests on that); a weight ≤ 0 never matches.
	Weight float64
}

// Expander rewrites a query term into catalog variable names.
type Expander interface {
	Expand(term string) []Expansion
}

// TermScore explains how one query term scored against a dataset.
type TermScore struct {
	Term      string  `json:"term"`
	Score     float64 `json:"score"`
	MatchedAs string  `json:"matchedAs,omitempty"`
}

// Result is one ranked hit. Feature points into the immutable search
// snapshot and must be treated as read-only.
type Result struct {
	Feature *catalog.Feature `json:"feature"`
	// Score is the overall similarity in [0,1].
	Score float64 `json:"score"`
	// Space, Time, and Vars are the per-dimension scores (NaN-free; 1 when
	// the query does not use the dimension).
	Space, Time, Vars float64     `json:"-"`
	TermScores        []TermScore `json:"termScores,omitempty"`
}

// Searcher ranks catalog features against queries. Every query runs
// over the catalog's current immutable snapshot: one atomic pointer
// load, no locks, and no feature copies on the read path.
type Searcher struct {
	cat  *catalog.Catalog
	opts Options
}

// New returns a searcher over the catalog. Zero-valued option fields are
// filled with defaults.
func New(cat *catalog.Catalog, opts Options) *Searcher {
	def := DefaultOptions()
	if opts.SpaceScaleKm <= 0 {
		opts.SpaceScaleKm = def.SpaceScaleKm
	}
	if opts.TimeScale <= 0 {
		opts.TimeScale = def.TimeScale
	}
	if opts.ParentWeight <= 0 {
		opts.ParentWeight = def.ParentWeight
	}
	opts.ParentWeight = min(opts.ParentWeight, 1)
	if opts.PruneScore <= 0 || opts.PruneScore >= 1 {
		opts.PruneScore = def.PruneScore
	}
	opts.Weights = opts.Weights.normalized()
	return &Searcher{cat: cat, opts: opts}
}

// Search returns the top-K datasets by similarity to the query.
//
// Results are exact: within each snapshot shard the planner scores
// index candidates tier by tier (intersection of the per-dimension
// candidate sets, then their union, then everything in the shard) and
// stops only when the K-th score strictly exceeds the provable ceiling
// on everything unscored — a dataset outside a dimension's candidate
// set scores 0 on the variable dimension and below PruneScore on the
// spatial and temporal ones. Per-shard top-Ks are gathered through a
// single merge heap, so the ranking is identical for every shard count,
// and the linear-scan ablation (UseIndex=false) returns byte-identical
// rankings too.
func (s *Searcher) Search(q Query) ([]Result, error) {
	return s.SearchContext(context.Background(), q)
}

// SearchContext is Search with cancellation: a long scoring pass checks
// ctx between tiers and every few hundred candidates, and returns
// ctx.Err() instead of a partial ranking when the caller gives up — the
// serving layer's request-scoped entry point.
//
// When the context carries an obs.QueryObs (attached by the serving
// layer), the executor records per-stage timings, per-shard candidate
// counts, and — for sampled or forced traces — a span tree. Without
// one, the whole observability surface collapses to a single context
// lookup and nil checks; rankings are identical either way.
func (s *Searcher) SearchContext(ctx context.Context, q Query) ([]Result, error) {
	results, err := s.searchCtx(ctx, q, false)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// SearchPartialContext is SearchContext with best-effort semantics on
// deadline: when ctx ends before the ranking is complete, it returns
// whatever the scatter had gathered and ranked by then — possibly
// nothing — with partial=true instead of an error. The serving layer
// uses it to answer a deadline-expired request with HTTP 200 and a
// Partial flag rather than burning the work already done. Partial
// rankings are exact over the candidates that were scored, but tiers
// the deadline cut off may hold better-scoring datasets; only
// partial=false results carry the executor's exactness guarantee.
func (s *Searcher) SearchPartialContext(ctx context.Context, q Query) (results []Result, partial bool, err error) {
	results, err = s.searchCtx(ctx, q, true)
	if err != nil {
		return nil, false, err
	}
	return results, ctx.Err() != nil, nil
}

// searchCtx is the shared search body. With partialOK, a context that
// ends mid-search stops the scatter early and the gathered results are
// still explained and returned; without it the caller discards them
// (preserving SearchContext's error contract).
func (s *Searcher) searchCtx(ctx context.Context, q Query, partialOK bool) ([]Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil && !partialOK {
		return nil, err
	}
	k := q.K
	if k <= 0 {
		k = 10
	}
	qo := obs.QueryFromContext(ctx)
	tr, root := qo.Tracer()
	var t0 time.Time
	if qo != nil {
		t0 = time.Now()
	}
	eid := tr.Start(root, "expand")
	expanded := s.expandTerms(q.Terms)
	tr.Attr(eid, "terms", int64(len(expanded)))
	tr.End(eid)
	if qo != nil {
		// Term expansion is query preparation; fold it into plan time.
		qo.PlanNs += time.Since(t0).Nanoseconds()
	}
	snap := s.cat.Snapshot()

	results := s.searchSnapshot(ctx, snap, q, expanded, k, qo)
	// Explain pass: per-term score breakdowns are recomputed for the ≤K
	// returned results only. The hot scoring loop computes bare sums —
	// allocating a TermScores slice (and building matched-as labels) for
	// every scored candidate would dominate the query's allocations just
	// to throw all but K away. scoreTerm is deterministic, so the
	// explanation carries exactly the score the ranking used.
	if len(expanded) > 0 {
		if qo != nil {
			t0 = time.Now()
		}
		xid := tr.Start(root, "explain")
		for i := range results {
			ts := make([]TermScore, len(expanded))
			for j, et := range expanded {
				ts[j] = s.scoreTerm(results[i].Feature, et, true)
			}
			results[i].TermScores = ts
		}
		tr.End(xid)
		if qo != nil {
			qo.ExplainNs += time.Since(t0).Nanoseconds()
		}
	}
	return results, nil
}

func rank(results []Result) {
	sort.Slice(results, func(i, j int) bool {
		if results[i].Score != results[j].Score {
			return results[i].Score > results[j].Score
		}
		return results[i].Feature.ID < results[j].Feature.ID
	})
}

// expandedTerm carries a term with its rewrites.
type expandedTerm struct {
	term       Term
	expansions []Expansion
}

func (s *Searcher) expandTerms(terms []Term) []expandedTerm {
	out := make([]expandedTerm, len(terms))
	for i, t := range terms {
		exps := []Expansion{{Name: t.Name, Weight: 1}}
		if s.opts.Expander != nil {
			if e := s.opts.Expander.Expand(t.Name); len(e) > 0 {
				exps = make([]Expansion, len(e))
				for j, x := range e {
					exps[j] = Expansion{Name: x.Name, Weight: min(x.Weight, 1)}
				}
			}
		}
		out[i] = expandedTerm{term: t, expansions: exps}
	}
	return out
}

// score computes the distance-based similarity of one feature. The
// cheap dimensions go first (time, then space), and after each one the
// final expression is evaluated with every dimension not yet computed at
// its ceiling of 1. That is an upper bound on the finished score: every
// dimension score is ≤ 1 and IEEE rounding is monotone. If it falls
// strictly below floor, score stops and reports false, and the partial
// Result must be discarded. A floor of −∞ computes everything; the
// executor passes the root of a full top-K heap, which the pruned
// candidate could never have entered. Strictly, because a candidate
// that ties the root enters on a smaller ID: batches arrive in ID
// order, so a tie never enters today, but exactness must not rest on
// the order of a batch.
func (s *Searcher) score(f *catalog.Feature, q Query, expanded []expandedTerm, floor float64) (Result, bool) {
	r := Result{Feature: f, Space: 1, Time: 1, Vars: 1}
	w := s.opts.Weights
	useSpace := q.Location != nil || q.Region != nil
	useTime := q.Time != nil
	useVars := len(expanded) > 0
	totalWeight := 0.0
	if useSpace {
		totalWeight += w.Space
	}
	if useTime {
		totalWeight += w.Time
	}
	if useVars {
		totalWeight += w.Variables
	}
	if totalWeight == 0 {
		return r, true
	}
	// weighted is the one score expression, in one summation order, so
	// a bound and the final score can only differ by the dimensions
	// still at 1.
	weighted := func() float64 {
		total := 0.0
		if useSpace {
			total += w.Space * r.Space
		}
		if useTime {
			total += w.Time * r.Time
		}
		if useVars {
			total += w.Variables * r.Vars
		}
		return total / totalWeight
	}
	if useTime {
		gap := f.Time.Distance(*q.Time)
		r.Time = decay(float64(gap), float64(s.opts.TimeScale))
		if weighted() < floor {
			return r, false
		}
	}
	if useSpace {
		var distKm float64
		if q.Location != nil {
			distKm = f.BBox.DistanceKm(*q.Location)
		} else {
			distKm = f.BBox.DistanceToBoxKm(*q.Region)
		}
		r.Space = decay(distKm, s.opts.SpaceScaleKm)
		if weighted() < floor {
			return r, false
		}
	}
	if useVars {
		sum := 0.0
		for _, et := range expanded {
			sum += s.scoreTerm(f, et, false).Score
		}
		r.Vars = sum / float64(len(expanded))
	}
	r.Score = weighted()
	return r, true
}

// scoreTerm scores one query term against a feature: the best expansion
// match (by name or hierarchy parent), degraded by value-range fit.
// With explain=false only the score is computed — no matched-as label
// and no string building, keeping the per-candidate loop free of
// allocations; the explain pass re-runs with explain=true for the
// results actually returned, and yields the identical Score (the match
// loops are the same either way).
func (s *Searcher) scoreTerm(f *catalog.Feature, et expandedTerm, explain bool) TermScore {
	best := TermScore{Term: et.term.Name}
	// matched/viaParent record how the current best was found; the label
	// string is only built once, after the loops, when explaining.
	var matched, viaParent string
	consider := func(v *catalog.VarFeature, weight float64, name, parent string) {
		if v.Excluded {
			return
		}
		score := weight
		if et.term.Range != nil && v.Count > 0 {
			score *= rangeFit(*et.term.Range, v.Range)
		}
		if score > best.Score {
			best.Score = score
			matched, viaParent = name, parent
		}
	}
	// Variables are visited in place: a VarFeature is too large to copy
	// per loop step on the hottest path of a query.
	for _, exp := range et.expansions {
		// The first variable carrying the name decides, even when it is
		// excluded (Feature.Variable's rule); later copies never score.
		for i := range f.Variables {
			if v := &f.Variables[i]; v.Name == exp.Name {
				consider(v, exp.Weight, exp.Name, "")
				break
			}
		}
	}
	// Hierarchy-parent match: querying the parent concept finds members.
	for i := range f.Variables {
		if v := &f.Variables[i]; v.Parent != "" && v.Parent == et.term.Name {
			consider(v, s.opts.ParentWeight, v.Name, v.Parent)
		}
	}
	if explain && best.Score > 0 {
		if viaParent != "" {
			best.MatchedAs = matched + " (child of " + viaParent + ")"
		} else {
			best.MatchedAs = matched
		}
	}
	return best
}

// rangeFit maps the relationship between the queried range and the
// observed range into (0,1]: 1 when the observed range covers the query,
// the overlap fraction when they intersect, and a distance decay when
// disjoint.
func rangeFit(query, observed geo.ValueRange) float64 {
	if query.Width() <= 0 {
		// Point query: containment or distance decay.
		if observed.Contains(query.Min) {
			return 1
		}
		scale := observed.Width()
		if scale <= 0 {
			scale = math.Abs(query.Min)
			if scale == 0 {
				scale = 1
			}
		}
		return decay(observed.Distance(query), scale)
	}
	if observed.Overlaps(query) {
		interMin := math.Max(query.Min, observed.Min)
		interMax := math.Min(query.Max, observed.Max)
		return (interMax - interMin) / query.Width()
	}
	return 0.5 * decay(observed.Distance(query), query.Width())
}

// decay maps a non-negative distance to (0,1] with half-life scale.
func decay(dist, scale float64) float64 {
	if dist <= 0 {
		return 1
	}
	if scale <= 0 {
		return 0
	}
	return 1 / (1 + dist/scale)
}
