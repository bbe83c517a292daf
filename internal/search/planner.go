package search

import (
	"math"
	"time"

	"metamess/internal/catalog"
	"metamess/internal/geo"
)

// The planner turns a query into tiers of candidate positions over one
// snapshot segment (below, "shard"), one per widening step. Plans are
// per-segment: every segment carries the full set of secondary indexes
// over its own features, masked ones included, so the same tiering and
// the same outside-score bounds apply within each shard independently,
// and the scatter-gather executor can prove per-shard exactness before
// merging. Each query dimension
// contributes a candidate set from the shard's index:
//
//   - variables: union of the name and hierarchy-parent indexes over
//     all term expansions — a non-candidate's variable score is exactly 0;
//   - space: grid candidates within the distance where the decay score
//     falls below PruneScore — a non-candidate's space score is < ε;
//   - time: interval-index candidates within the corresponding gap —
//     a non-candidate's time score is < ε.
//
// Tier 1 is the intersection of the dimension sets (datasets plausible
// on every dimension), tier 2 their union, tier 3 the full catalog.
// Each tier carries the exact upper bound on the score of anything
// outside it: beyond the intersection, a dataset misses at least one
// dimension set; beyond the union it misses all of them. The executor
// stops widening as soon as the current K-th score strictly exceeds
// the tier bound, so results are provably identical to a full scan.
//
// Query terms are resolved against the shard's interned dictionary
// exactly once, here: each expansion costs one map probe, and from that
// point the dimension is a list of compressed posting containers marked
// directly into the sweep — no string touches the hot loop. All
// intermediate buffers (candidate lists, marks, tier positions) come
// from the query's pooled scratch, so planning allocates nothing in
// steady state. Because the buffers are recycled, a plan is only valid
// until its scratch is released.
type plan struct {
	tiers []tier
}

// tier is one widening step: score these positions (all=true → every
// feature), then stop if the K-th accumulated score beats bound.
type tier struct {
	pos   []int32
	all   bool
	bound float64 // score ceiling for anything outside this tier; <0 = none
}

// dimSet is one query dimension's candidate set: posting containers
// (the variable dimension, straight from the interned index) and/or
// positions (space and time, whose indexes emit position runs) —
// unsorted, possibly duplicated across entries; the mark sweep below
// tolerates both. all=true means the dimension cannot prune (its index
// declined, e.g. an over-large radius) and every feature must be
// treated as a candidate.
type dimSet struct {
	lists  []catalog.Postings
	pos    []int32
	all    bool
	weight float64
	// beta bounds the dimension score of a non-candidate (0 for
	// variables, PruneScore for space and time).
	beta float64
}

func (s *Searcher) buildPlan(sh *catalog.Segment, q Query, expanded []expandedTerm, sc *scratch) plan {
	dims := sc.dims[:0]
	w := s.opts.Weights
	eps := s.opts.PruneScore

	if len(expanded) > 0 {
		lists := sc.lists[:0]
		for _, et := range expanded {
			for _, exp := range et.expansions {
				if id, ok := sh.VariableID(exp.Name); ok {
					lists = append(lists, sh.VariablePostings(id))
				}
			}
			if id, ok := sh.ParentID(et.term.Name); ok {
				lists = append(lists, sh.ParentPostings(id))
			}
		}
		sc.lists = lists
		dims = append(dims, dimSet{
			lists:  lists,
			weight: w.Variables,
			beta:   0,
		})
	}
	if q.Location != nil || q.Region != nil {
		var qb geo.BBox
		if q.Location != nil {
			qb = geo.BBox{
				MinLat: q.Location.Lat, MinLon: q.Location.Lon,
				MaxLat: q.Location.Lat, MaxLon: q.Location.Lon,
			}
		} else {
			qb = *q.Region
		}
		// decay(d, scale) ≥ ε  ⟺  d ≤ scale·(1/ε − 1); +1 km of slack
		// keeps float rounding on the candidate side.
		maxKm := s.opts.SpaceScaleKm*(1/eps-1) + 1
		pos, ok := sh.SpatialCandidatesAppend(qb, maxKm, sc.spat[:0])
		sc.spat = pos
		dims = append(dims, dimSet{pos: pos, all: !ok, weight: w.Space, beta: eps})
	}
	if q.Time != nil {
		gapF := float64(s.opts.TimeScale) * (1/eps - 1)
		pos := sc.temp[:0]
		ok := false
		if gapF < float64(math.MaxInt64)/4 {
			maxGap := time.Duration(gapF) + time.Hour
			pos, ok = sh.TimeCandidatesAppend(*q.Time, maxGap, pos)
		}
		sc.temp = pos
		dims = append(dims, dimSet{pos: pos, all: !ok, weight: w.Time, beta: eps})
	}
	sc.dims = dims

	totalWeight := 0.0
	for _, d := range dims {
		totalWeight += d.weight
	}
	if totalWeight == 0 {
		sc.tiers = append(sc.tiers[:0], tier{all: true, bound: -1})
		return plan{tiers: sc.tiers}
	}

	// Intersection and union come from one mark sweep: each dimension
	// sets its bit on its candidate positions (idempotent, so unsorted
	// and duplicated index output is fine), then a single ascending
	// pass classifies every position. No sorting, and the tiers come
	// out in deterministic position order.
	fullMask := uint8(1)<<len(dims) - 1
	var allMask uint8
	for di, d := range dims {
		if d.all {
			allMask |= uint8(1) << di
		}
	}
	interAll := allMask == fullMask
	unionAll := allMask != 0

	interPos := sc.inter[:0]
	unionPos := sc.union[:0]
	if !interAll {
		marks := sc.marksFor(sh.Len())
		for di, d := range dims {
			if d.all {
				continue
			}
			bit := uint8(1) << di
			for _, l := range d.lists {
				l.Mark(marks, bit)
			}
			for _, p := range d.pos {
				marks[p] |= bit
			}
		}
		for i, m := range marks {
			m |= allMask
			if m == fullMask {
				interPos = append(interPos, int32(i))
			}
			if !unionAll && m != 0 {
				unionPos = append(unionPos, int32(i))
			}
		}
	}
	sc.inter = interPos
	sc.union = unionPos

	// Outside the intersection at least one dimension d is missed:
	// score ≤ (Σw − w_d·(1−β_d))/Σw, maximized over d. Outside the
	// union every dimension is missed: score ≤ Σ(w_d·β_d)/Σw.
	interBound := 0.0
	unionBound := 0.0
	for _, d := range dims {
		if b := (totalWeight - d.weight*(1-d.beta)) / totalWeight; b > interBound {
			interBound = b
		}
		unionBound += d.weight * d.beta / totalWeight
	}

	// A single dimension makes intersection and union identical, so the
	// union tier is only added for multi-dimensional queries. An all
	// intersection implies every dimension declined to prune (interAll
	// ⟹ unionAll), leaving just the full scan.
	tiers := sc.tiers[:0]
	if !interAll {
		tiers = append(tiers, tier{pos: interPos, bound: interBound})
		if len(dims) > 1 && !unionAll {
			tiers = append(tiers, tier{pos: unionPos, bound: unionBound})
		}
	}
	tiers = append(tiers, tier{all: true, bound: -1})
	sc.tiers = tiers
	return plan{tiers: tiers}
}
