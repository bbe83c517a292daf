package catalog

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"metamess/internal/geo"
)

// Snapshot is an immutable, index-carrying view of a catalog at one
// generation. It is built once — at publish time, or lazily on the
// first read after a mutation — and then shared by every search until
// the next mutation swaps in a successor, so queries touch no locks and
// copy no features.
//
// The snapshot is partitioned into shards by a hash of the feature ID,
// and each shard is a stack of immutable segments: a base segment and,
// above it, the delta segments later publishes pushed, oldest first.
// Every segment carries its own ID-sorted feature slice, interned
// posting stores, spatial grid and temporal index, built by buildShard
// over exactly its features. A publish never edits a segment: it pushes
// one new segment per dirty shard, built over that shard's changed
// features, and hides the versions they replace or remove behind a
// copy-on-write deleted mask. So a publish costs O(churn) plus the
// merges the size tiers schedule (see shard.apply), every clean shard
// and every untouched segment is shared with the predecessor by
// pointer, and search scatters over segments as it would over shards —
// each worker runs the full planner/widening machinery over one
// segment's live positions before a single merge heap gathers the
// per-segment top-Ks.
//
// The features a snapshot exposes are shared with the catalog it was
// built from, and later catalog mutations cannot reach them: a stored
// feature is never edited in place (see Catalog). In exchange, callers
// must treat everything a Snapshot returns as read-only.
type Snapshot struct {
	shards []shard
	// segments lists every shard's segments, shard by shard, base first:
	// the executor's scatter units.
	segments   []*Segment
	total      int
	generation uint64

	// all is the lazily merged, globally ID-sorted feature slice for
	// whole-catalog readers (persistence, validation, experiments);
	// search never needs it.
	allOnce sync.Once
	all     []*Feature
}

// shard is one hash partition of a snapshot: its base segment, then its
// delta segments, oldest first. Each live feature of the shard sits at
// exactly one unmasked position, in the newest segment holding its ID.
type shard struct {
	segs   []*Segment
	live   int // features the shard serves
	masked int // masked positions across segs
}

// Segment is one scatter unit of a snapshot: an immutable index set
// over an ID-sorted feature slice, plus this snapshot's deleted mask
// over its positions. Positions — the integers the posting containers
// and candidate sets speak — index into the segment's own All(), masked
// ones included; readers skip a position for which Masked reports
// true. Each index is an interned postingStore: terms (variable names,
// hierarchy parents, grid cells) map to dense uint32 IDs, each ID
// owning a compressed posting container, so query planning resolves
// strings once and then works in integers. A Segment is read-only, like
// everything else a Snapshot hands out.
type Segment struct {
	*segment
	shard int
	// dead has bit p set when position p is masked; nil while none is.
	// A publish that masks more positions copies it first, so a held
	// snapshot's masks never change.
	dead   []uint64
	masked int
}

// segment is the immutable part of a Segment, shared by pointer with
// every later snapshot that keeps the segment. Feature-ID lookups
// binary-search the ID-sorted slice — no per-segment string map
// retaining every ID twice.
type segment struct {
	features []*Feature
	// names indexes positions by current searchable variable name;
	// parents by the hierarchy parent of searchable variables.
	names    postingStore[string]
	parents  postingStore[string]
	spatial  spatialGrid
	temporal temporalIndex
}

// DefaultShardCount is the shard count used when a catalog is built
// with no explicit count: one shard per schedulable CPU, so a parallel
// publish and a scatter-gather search both saturate the machine.
func DefaultShardCount() int { return runtime.GOMAXPROCS(0) }

// maskBound is how many masked positions a shard serving live features
// may carry. A publish that leaves more merges the shard's base and
// deltas into one segment, so masked versions — still reachable, and
// still holding their dictionary terms — never exceed a sixteenth of
// the shard.
func maskBound(live int) int { return live / 16 }

// shardIndex assigns a feature ID to a shard: FNV-1a over the ID bytes,
// reduced mod n. The hash is fixed (not seeded per process) so a given
// catalog partitions identically across runs, keeping publish benchmarks
// and shard-equivalence tests deterministic.
func shardIndex(id string, n int) int {
	if n <= 1 {
		return 0
	}
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return int(h % uint32(n))
}

func byID(a, b *Feature) int { return strings.Compare(a.ID, b.ID) }

// newSnapshot partitions the feature map and builds every shard as one
// base segment, in parallel when there is more than one. Callers
// synchronize access to the map (the catalog holds its lock).
func newSnapshot(features map[string]*Feature, generation uint64, nShards int) *Snapshot {
	if nShards <= 0 {
		nShards = DefaultShardCount()
	}
	parts := make([][]*Feature, nShards)
	for id, f := range features {
		si := shardIndex(id, nShards)
		parts[si] = append(parts[si], f)
	}
	shards := make([]shard, nShards)
	sis := make([]int, nShards)
	for si := range sis {
		sis[si] = si
	}
	eachShard(sis, func(si int) {
		slices.SortFunc(parts[si], byID)
		shards[si] = shard{
			segs: []*Segment{{segment: buildShard(parts[si]), shard: si}},
			live: len(parts[si]),
		}
	})
	return assemble(shards, generation)
}

// assemble wraps a snapshot around its shards.
func assemble(shards []shard, generation uint64) *Snapshot {
	s := &Snapshot{shards: shards, generation: generation}
	for _, sh := range shards {
		s.total += sh.live
		s.segments = append(s.segments, sh.segs...)
	}
	return s
}

// eachShard runs fn for every listed shard, each on its own goroutine
// when there are several.
func eachShard(sis []int, fn func(si int)) {
	if len(sis) == 1 {
		fn(sis[0])
		return
	}
	var wg sync.WaitGroup
	for _, si := range sis {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(si)
		}()
	}
	wg.Wait()
}

// buildShard builds one segment's interned indexes over features, which
// must be sorted by ID; the segment takes ownership of the slice and
// shares the features. Positions are handed to the builders in
// ascending order, so the frozen posting lists are born sorted.
func buildShard(features []*Feature) *segment {
	sg := &segment{features: features}
	names := newStoreBuilder[string]()
	parents := newStoreBuilder[string]()
	cells := newStoreBuilder[int32]()
	var cellBuf []int32
	for i, f := range features {
		p := int32(i)
		// A name or parent several searchable variables share is posted
		// once: add ignores a repeat of the position it just recorded.
		for _, v := range f.Variables {
			if v.Excluded {
				continue
			}
			names.add(v.Name, p)
			if v.Parent != "" {
				parents.add(v.Parent, p)
			}
		}
		cellBuf = appendBBoxCells(cellBuf[:0], f.BBox)
		for _, cell := range cellBuf {
			cells.add(cell, p)
		}
	}
	n := len(features)
	sg.names = names.build(n)
	sg.parents = parents.build(n)
	sg.spatial = spatialGrid{store: cells.build(n)}
	sg.temporal = buildTemporalIndex(features)
	return sg
}

// MergeStat describes the segment merges one publish ran.
type MergeStat struct {
	// Start is when the first merge began; zero when none ran.
	Start time.Time
	// Dur runs from Start to the end of the last merge.
	Dur time.Duration
	// Shards counts the shards that merged.
	Shards int
	// Base reports that some shard merged its base segment.
	Base bool
}

// add folds another shard's merges into m.
func (m *MergeStat) add(o MergeStat) {
	if o.Shards == 0 {
		return
	}
	if m.Shards == 0 {
		*m = o
		return
	}
	end := m.Start.Add(m.Dur)
	if e := o.Start.Add(o.Dur); e.After(end) {
		end = e
	}
	if o.Start.Before(m.Start) {
		m.Start = o.Start
	}
	m.Dur = end.Sub(m.Start)
	m.Shards += o.Shards
	m.Base = m.Base || o.Base
}

// applyDelta builds the successor snapshot. The delta is routed to
// shards by the same ID hash that partitioned the snapshot: a shard the
// delta does not touch is shared with s outright — the same segments,
// no copies, no index work — and each dirty shard applies its part
// independently (in parallel when there are several). The result
// serves exactly what newSnapshot over the same feature set would
// (TestSnapshotApplyDeltaEquivalence).
//
// changed must be sorted by ID, must not repeat an ID, and is stored as
// is; removed must only name IDs live in s and disjoint from changed.
func (s *Snapshot) applyDelta(changed []*Feature, removed map[string]bool, generation uint64) (*Snapshot, MergeStat) {
	n := len(s.shards)
	changedBy := make([][]*Feature, n)
	for _, f := range changed {
		si := shardIndex(f.ID, n)
		changedBy[si] = append(changedBy[si], f) // keeps global ID order per shard
	}
	removedBy := make([][]string, n)
	for id := range removed {
		si := shardIndex(id, n)
		removedBy[si] = append(removedBy[si], id)
	}
	shards := slices.Clone(s.shards)
	var dirty []int
	for si := range shards {
		if len(changedBy[si]) > 0 || len(removedBy[si]) > 0 {
			dirty = append(dirty, si)
		}
	}
	merges := make([]MergeStat, n)
	eachShard(dirty, func(si int) {
		shards[si], merges[si] = shards[si].apply(si, changedBy[si], removedBy[si])
	})
	var m MergeStat
	for _, sm := range merges {
		m.add(sm)
	}
	return assemble(shards, generation), m
}

// apply returns the shard after one publish: the versions the delta
// replaces or removes are masked, and the changed features (sorted by
// ID) land in a new top segment. Two rules then keep the stack small,
// and both merge by buildShard over the live features of the segments
// they merge:
//
//   - Size tiers. The new segment absorbs each segment below it whose
//     length is less than twice its own. Afterwards every segment is at
//     most half as long as the one below it, so a shard over a base of
//     b positions carries at most log2(b) deltas, and a feature is
//     rebuilt O(log) times before it reaches the base.
//   - Masked bound. When more than maskBound(live) positions would stay
//     masked, or the tiers reach the base, the base and every delta
//     merge into one segment. The next base merge is then at least
//     maskBound(live) masked positions away, so its O(live) build
//     amortizes to a constant per changed feature.
func (sh shard) apply(si int, changed []*Feature, removed []string) (shard, MergeStat) {
	segs := slices.Clone(sh.segs)
	next := shard{live: sh.live, masked: sh.masked}
	copied := make([]bool, len(segs))
	// mask hides id's live version and reports whether it had one. The
	// newest segment holding id decides: its version is the live one
	// unless a publish already masked it.
	mask := func(id string) bool {
		for k := len(segs) - 1; k >= 0; k-- {
			p, ok := segs[k].posOf(id)
			if !ok {
				continue
			}
			if segs[k].Masked(p) {
				return false
			}
			if !copied[k] {
				segs[k] = segs[k].maskable()
				copied[k] = true
			}
			segs[k].dead[p>>6] |= 1 << (uint(p) & 63)
			segs[k].masked++
			next.masked++
			return true
		}
		return false
	}
	for _, f := range changed {
		if !mask(f.ID) {
			next.live++
		}
	}
	for _, id := range removed {
		if mask(id) {
			next.live--
		}
	}

	// k is the lowest segment the new one absorbs; len(segs) when none.
	k, size, freed := len(segs), len(changed), 0
	for size > 0 && k > 0 && 2*size > segs[k-1].Len() {
		k--
		size += segs[k].Len() - segs[k].masked
		freed += segs[k].masked
	}
	if k == 0 || next.masked-freed > maskBound(next.live) {
		k, freed = 0, next.masked
	}
	if k == len(segs) {
		if len(changed) > 0 {
			segs = append(segs, &Segment{segment: buildShard(changed), shard: si})
		}
		next.segs = segs
		return next, MergeStat{}
	}
	t0 := time.Now()
	live := changed
	for j := len(segs) - 1; j >= k; j-- {
		live = segs[j].mergeLive(live)
	}
	next.segs = append(segs[:k], &Segment{segment: buildShard(live), shard: si})
	next.masked -= freed
	return next, MergeStat{Start: t0, Dur: time.Since(t0), Shards: 1, Base: k == 0}
}

// maskable returns a copy of the segment view whose mask the caller may
// extend: same immutable segment, private dead bitmap.
func (sg *Segment) maskable() *Segment {
	cp := *sg
	cp.dead = make([]uint64, (sg.Len()+63)/64)
	copy(cp.dead, sg.dead)
	return &cp
}

// mergeLive merges the segment's live features into newer, which is
// sorted by ID and holds no ID live in the segment, into a fresh
// ID-sorted slice.
func (sg *Segment) mergeLive(newer []*Feature) []*Feature {
	out := make([]*Feature, 0, len(newer)+sg.Len()-sg.masked)
	i := 0
	for p, f := range sg.features {
		if sg.Masked(int32(p)) {
			continue
		}
		for i < len(newer) && newer[i].ID < f.ID {
			out = append(out, newer[i])
			i++
		}
		out = append(out, f)
	}
	return append(out, newer[i:]...)
}

// Len returns the number of features in the snapshot, across all shards.
func (s *Snapshot) Len() int { return s.total }

// Generation returns the catalog generation the snapshot was built at.
func (s *Snapshot) Generation() uint64 { return s.generation }

// Segments returns every shard's segments, shard by shard, base first:
// the units search scatters over. The slice and the segments are
// read-only. A feature is live in exactly one of them; every other
// position holding its ID is masked.
func (s *Snapshot) Segments() []*Segment { return s.segments }

// NumShards returns the shard count.
func (s *Snapshot) NumShards() int { return len(s.shards) }

// ShardSizes returns the per-shard live feature counts, in shard order
// — the balance view /stats serves.
func (s *Snapshot) ShardSizes() []int {
	sizes := make([]int, len(s.shards))
	for i, sh := range s.shards {
		sizes[i] = sh.live
	}
	return sizes
}

// All returns the snapshot's live features sorted by ID, merged across
// shards and segments. The merge is computed once, on first use, and
// cached: search never calls this — only whole-catalog readers
// (persistence, validation, experiment sweeps) do. Callers must not
// mutate the slice or the features; use Catalog.Get for a private copy.
func (s *Snapshot) All() []*Feature {
	s.allOnce.Do(func() {
		if len(s.segments) == 1 && s.segments[0].masked == 0 {
			s.all = s.segments[0].features
			return
		}
		merged := make([]*Feature, 0, s.total)
		for _, sg := range s.segments {
			for p, f := range sg.features {
				if !sg.Masked(int32(p)) {
					merged = append(merged, f)
				}
			}
		}
		slices.SortFunc(merged, byID)
		s.all = merged
	})
	return s.all
}

// ByID returns the live feature with the given ID without taking a lock
// or copying: one hash to pick the shard, then a binary search per
// segment, newest first — the serving-path alternative to Catalog.Get,
// whose per-call copy is wasted on read-only consumers. Read-only.
func (s *Snapshot) ByID(id string) (*Feature, bool) {
	segs := s.shards[shardIndex(id, len(s.shards))].segs
	for k := len(segs) - 1; k >= 0; k-- {
		if p, ok := segs[k].posOf(id); ok {
			if segs[k].Masked(p) {
				return nil, false
			}
			return segs[k].features[p], true
		}
	}
	return nil, false
}

// Shard returns the hash shard the segment belongs to.
func (sg *Segment) Shard() int { return sg.shard }

// Masked reports whether position p is masked: its feature was replaced
// or removed by a newer publish, and readers skip it.
func (sg *Segment) Masked(p int32) bool {
	return sg.dead != nil && sg.dead[p>>6]&(1<<(uint(p)&63)) != 0
}

// Len returns the number of positions in the segment, masked ones
// included.
func (sg *segment) Len() int { return len(sg.features) }

// All returns the segment's shared feature slice, sorted by ID, masked
// positions included. Read-only.
func (sg *segment) All() []*Feature { return sg.features }

// At returns the feature at a segment position. Read-only.
func (sg *segment) At(i int32) *Feature { return sg.features[i] }

// posOf binary-searches the ID-sorted feature slice for id.
func (sg *segment) posOf(id string) (int32, bool) {
	i := sort.Search(len(sg.features), func(i int) bool { return sg.features[i].ID >= id })
	if i < len(sg.features) && sg.features[i].ID == id {
		return int32(i), true
	}
	return 0, false
}

// VariableID resolves a searchable variable name to the segment's dense
// term ID — one map probe, done once per (query, segment).
func (sg *segment) VariableID(name string) (uint32, bool) { return sg.names.id(name) }

// VariablePostings returns the compressed posting container for a term
// ID obtained from VariableID. Read-only.
func (sg *segment) VariablePostings(id uint32) Postings { return sg.names.at(id) }

// ParentID resolves a hierarchy parent name to the segment's dense term
// ID.
func (sg *segment) ParentID(name string) (uint32, bool) { return sg.parents.id(name) }

// ParentPostings returns the posting container for a parent term ID.
// Read-only.
func (sg *segment) ParentPostings(id uint32) Postings { return sg.parents.at(id) }

// WithVariable returns the segment positions of features whose
// searchable variables include name, sorted ascending, in a freshly
// allocated slice. Convenience wrapper over VariableID/VariablePostings
// for tests and offline readers; the query path uses the containers
// directly.
func (sg *segment) WithVariable(name string) []int32 {
	if l, ok := sg.names.lookup(name); ok && l.Len() > 0 {
		return l.AppendTo(nil)
	}
	return nil
}

// WithParent returns the segment positions of features having a
// searchable variable whose hierarchy parent is name, sorted ascending,
// in a freshly allocated slice. Wrapper, like WithVariable.
func (sg *segment) WithParent(name string) []int32 {
	if l, ok := sg.parents.lookup(name); ok && l.Len() > 0 {
		return l.AppendTo(nil)
	}
	return nil
}

// SpatialCandidatesAppend appends to dst the segment positions of every
// feature whose scoring distance from the query box (BBox.DistanceKm
// for point-sized boxes, BBox.DistanceToBoxKm otherwise) can be at most
// maxKm, and returns the extended slice. The set is a superset of the
// truth — grid cells are included conservatively — so pruning against
// it never loses an exact result. Positions come back in unspecified
// order and may repeat (a feature spanning several visited cells);
// callers deduplicate. ok is false when the radius is too large to
// prune (callers must treat every feature as a candidate).
func (sg *segment) SpatialCandidatesAppend(query geo.BBox, maxKm float64, dst []int32) (pos []int32, ok bool) {
	return sg.spatial.candidates(query, maxKm, dst)
}

// TimeCandidatesAppend appends to dst the segment positions of every
// feature whose temporal gap from the query range (TimeRange.Distance)
// can be at most maxGap, again conservatively and in unspecified order.
// ok is false when the gap is too large to prune.
func (sg *segment) TimeCandidatesAppend(query geo.TimeRange, maxGap time.Duration, dst []int32) (pos []int32, ok bool) {
	return sg.temporal.candidates(query, maxGap, dst)
}

// --- spatial grid ---------------------------------------------------

// The spatial index is a fixed geohash-style grid over the globe:
// every feature registers in each cell its bounding box overlaps, and a
// query visits the cells of its padded box. Padding is conservative —
// derived from lower bounds on the haversine metric the scorer itself
// uses — so the candidate set is always a superset of the features
// within maxKm.
const (
	gridCellDeg = 2.0
	gridCols    = int32(360 / gridCellDeg)
	gridRows    = int32(180 / gridCellDeg)
	// kmPerDegLat underestimates a degree of latitude (true value
	// ~111.195 km on the scoring sphere), inflating the pad.
	kmPerDegLat = 110.0
	// maxPruneKm: beyond this radius the grid stops pruning entirely.
	maxPruneKm = 15000.0
	gridPadDeg = 0.01
)

// spatialGrid interns occupied cell keys (row*gridCols+col) into the
// same compressed posting containers the term indexes use.
type spatialGrid struct {
	store postingStore[int32]
}

func gridRow(lat float64) int32 {
	r := int32((lat + 90) / gridCellDeg)
	if r < 0 {
		r = 0
	}
	if r >= gridRows {
		r = gridRows - 1
	}
	return r
}

func gridCol(lon float64) int32 {
	c := int32((lon + 180) / gridCellDeg)
	if c < 0 {
		c = 0
	}
	if c >= gridCols {
		c = gridCols - 1
	}
	return c
}

// appendBBoxCells appends the grid cells a bounding box registers in;
// an empty extent scores zero on the space dimension and occupies no
// cell.
func appendBBoxCells(dst []int32, b geo.BBox) []int32 {
	if b.IsEmpty() {
		return dst
	}
	r0, r1 := gridRow(b.MinLat), gridRow(b.MaxLat)
	c0, c1 := gridCol(b.MinLon), gridCol(b.MaxLon)
	for r := r0; r <= r1; r++ {
		for c := c0; c <= c1; c++ {
			dst = append(dst, r*gridCols+c)
		}
	}
	return dst
}

// candidates visits the cells of the query box padded by maxKm,
// appending the occupants to dst.
//
// Latitude pad: haversine distance is at least R·Δφ, so a feature
// within maxKm clamps to a point within maxKm/kmPerDegLat degrees of
// the query's latitude span. Longitude pad: distance is at least
// 2R·sqrt(cosφ1·cosφ2)·sin(Δλ/2), giving Δλ ≤ 2·asin(maxKm/(2R·sqrt(cc)))
// with cc lower-bounded over the padded latitude band; near the poles
// (or when the bound degenerates) every column is visited. Columns wrap
// across the antimeridian, matching haversine's wrapped Δλ.
func (g spatialGrid) candidates(query geo.BBox, maxKm float64, dst []int32) ([]int32, bool) {
	if maxKm < 0 || math.IsInf(maxKm, 1) || maxKm >= maxPruneKm {
		return dst, false
	}
	latPad := maxKm/kmPerDegLat + gridPadDeg
	latLo := query.MinLat - latPad
	latHi := query.MaxLat + latPad

	const degToRad = math.Pi / 180
	a1 := math.Max(math.Abs(query.MinLat), math.Abs(query.MaxLat))
	a2 := math.Min(math.Max(math.Abs(latLo), math.Abs(latHi)), 90)
	cc := math.Cos(a1*degToRad) * math.Cos(a2*degToRad)

	allCols := false
	var lonPad float64
	if cc <= 1e-6 {
		allCols = true
	} else {
		sinHalf := maxKm / (2 * geo.EarthRadiusKm * math.Sqrt(cc))
		if sinHalf >= 1 {
			allCols = true
		} else {
			lonPad = 2*math.Asin(sinHalf)/degToRad + gridPadDeg
		}
	}

	r0, r1 := gridRow(latLo), gridRow(latHi)
	var colBuf [gridCols]int32
	cols := colBuf[:0]
	if allCols || (query.MaxLon+lonPad)-(query.MinLon-lonPad) >= 360 {
		for c := int32(0); c < gridCols; c++ {
			cols = append(cols, c)
		}
	} else {
		// Wrapped column range: pad may cross the antimeridian.
		c0 := int32(math.Floor((query.MinLon - lonPad + 180) / gridCellDeg))
		c1 := int32(math.Floor((query.MaxLon + lonPad + 180) / gridCellDeg))
		for c := c0; c <= c1; c++ {
			cols = append(cols, ((c%gridCols)+gridCols)%gridCols)
		}
	}

	for r := r0; r <= r1; r++ {
		for _, c := range cols {
			if l, ok := g.store.lookup(r*gridCols + c); ok {
				dst = l.AppendTo(dst)
			}
		}
	}
	return dst, true
}

// --- temporal interval index ----------------------------------------

// The temporal index keeps the features sorted by interval start
// (ascending) and by interval end (descending). A feature is within
// maxGap of query [qs,qe] iff Start ≤ qe+maxGap and End ≥ qs−maxGap;
// binary search on one order yields a prefix, the other predicate
// filters it. Zero time ranges are indexed at their literal (year-1)
// endpoints, matching TimeRange.Distance's scoring semantics exactly.
type temporalIndex struct {
	byStart []int32
	starts  []time.Time // key array aligned with byStart
	byEnd   []int32
	ends    []time.Time // key array aligned with byEnd
	startAt []time.Time // position-indexed Start
	endAt   []time.Time // position-indexed End
}

func buildTemporalIndex(features []*Feature) temporalIndex {
	n := len(features)
	t := temporalIndex{
		startAt: make([]time.Time, n),
		endAt:   make([]time.Time, n),
		starts:  make([]time.Time, n),
		ends:    make([]time.Time, n),
	}
	for i, f := range features {
		t.startAt[i] = f.Time.Start
		t.endAt[i] = f.Time.End
	}
	t.byStart = instantOrder(t.startAt, 1)
	t.byEnd = instantOrder(t.endAt, -1)
	for i, p := range t.byStart {
		t.starts[i] = t.startAt[p]
	}
	for i, p := range t.byEnd {
		t.ends[i] = t.endAt[p]
	}
	return t
}

// instantOrder returns the positions of at sorted by instant, ascending
// for sign 1 and descending for sign -1, ties by ascending position: the
// order a stable sort by instant alone gives. Seconds and nanoseconds
// since the epoch order instants exactly, zero (year-1) times included,
// without a time.Time comparison per step.
func instantOrder(at []time.Time, sign int64) []int32 {
	type key struct {
		sec       int64
		nsec, pos int32
	}
	keys := make([]key, len(at))
	for i, t := range at {
		keys[i] = key{sign * t.Unix(), int32(sign) * int32(t.Nanosecond()), int32(i)}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := cmp.Compare(a.sec, b.sec); c != 0 {
			return c
		}
		if c := cmp.Compare(a.nsec, b.nsec); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	order := make([]int32, len(at))
	for i, k := range keys {
		order[i] = k.pos
	}
	return order
}

func (t temporalIndex) candidates(query geo.TimeRange, maxGap time.Duration, dst []int32) ([]int32, bool) {
	if maxGap < 0 {
		return dst, false
	}
	latestStart := query.End.Add(maxGap)
	earliestEnd := query.Start.Add(-maxGap)

	// Prefix of byStart with Start ≤ latestStart.
	n1 := sort.Search(len(t.starts), func(i int) bool { return t.starts[i].After(latestStart) })
	// Prefix of byEnd with End ≥ earliestEnd.
	n2 := sort.Search(len(t.ends), func(i int) bool { return t.ends[i].Before(earliestEnd) })

	if n1 <= n2 {
		for i := 0; i < n1; i++ {
			p := t.byStart[i]
			if !t.endAt[p].Before(earliestEnd) {
				dst = append(dst, p)
			}
		}
	} else {
		for i := 0; i < n2; i++ {
			p := t.byEnd[i]
			if !t.startAt[p].After(latestStart) {
				dst = append(dst, p)
			}
		}
	}
	return dst, true
}
