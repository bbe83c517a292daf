package catalog

import (
	"math"
	"runtime"
	"sort"
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
// The snapshot is partitioned into shards by a hash of the feature ID:
// each shard owns its own ID-sorted feature slice, interned posting
// stores, spatial grid, and temporal index, built and patched
// independently of the others. Partitioning buys two things. Publish
// cost tracks the dirty shards only — applyDelta shares every clean
// shard with the predecessor snapshot by pointer and patches the rest
// in parallel — and search scatters across shards, each worker running
// the full planner/widening machinery over its shard before a single
// merge heap gathers the per-shard top-Ks.
//
// The features a snapshot exposes are shared with the catalog it was
// built from, and later catalog mutations cannot reach them: a stored
// feature is never edited in place (see Catalog). In exchange, callers
// must treat everything a Snapshot returns as read-only.
type Snapshot struct {
	shards     []*Shard
	total      int
	generation uint64

	// all is the lazily merged, globally ID-sorted feature slice for
	// whole-catalog readers (persistence, validation, experiments);
	// search never needs it.
	allOnce sync.Once
	all     []*Feature
}

// Shard is one hash partition of a snapshot: an ID-sorted feature slice
// plus the secondary indexes over exactly those features. Positions —
// the integers the posting containers and candidate sets speak — index
// into the shard's own All(). Each index is an interned postingStore:
// terms (variable names, hierarchy parents, grid cells) map to dense
// uint32 IDs, each ID owning a compressed posting container, so query
// planning resolves strings once and then works in integers. A Shard is
// immutable and read-only, like everything else a Snapshot hands out.
// Feature-ID lookups binary-search the ID-sorted slice — no per-shard
// string map retaining every ID twice.
type Shard struct {
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

// newSnapshot partitions the feature map and builds every shard, in
// parallel when there is more than one. Callers synchronize access to
// the map (the catalog holds its lock).
func newSnapshot(features map[string]*Feature, generation uint64, nShards int) *Snapshot {
	if nShards <= 0 {
		nShards = DefaultShardCount()
	}
	ids := make([][]string, nShards)
	for id := range features {
		si := shardIndex(id, nShards)
		ids[si] = append(ids[si], id)
	}
	s := &Snapshot{
		shards:     make([]*Shard, nShards),
		total:      len(features),
		generation: generation,
	}
	var wg sync.WaitGroup
	for si := range s.shards {
		sort.Strings(ids[si])
		if nShards == 1 {
			s.shards[si] = buildShard(features, ids[si])
			continue
		}
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			s.shards[si] = buildShard(features, ids[si])
		}(si)
	}
	wg.Wait()
	return s
}

// buildShard builds the shard's interned indexes over the listed
// features (ids pre-sorted), sharing them with the map. Positions are
// handed to the builders in ascending order, so the frozen posting
// lists are born sorted.
func buildShard(features map[string]*Feature, ids []string) *Shard {
	sh := &Shard{features: make([]*Feature, len(ids))}
	names := newStoreBuilder[string]()
	parents := newStoreBuilder[string]()
	cells := newStoreBuilder[int32]()
	for i, id := range ids {
		f := features[id]
		sh.features[i] = f
		p := int32(i)
		for _, name := range f.SearchableNames() {
			names.add(name, p)
		}
		eachSearchableParent(f, func(parent string) { parents.add(parent, p) })
		for _, cell := range bboxCells(f.BBox) {
			cells.add(cell, p)
		}
	}
	n := len(ids)
	sh.names = names.build(n)
	sh.parents = parents.build(n)
	sh.spatial = spatialGrid{store: cells.build(n)}
	sh.temporal = buildTemporalIndex(sh.features)
	return sh
}

// eachSearchableParent visits the distinct hierarchy parents of f's
// searchable variables, in first-appearance order.
func eachSearchableParent(f *Feature, visit func(string)) {
	seen := make(map[string]bool)
	for _, v := range f.Variables {
		if v.Excluded || v.Parent == "" || seen[v.Parent] {
			continue
		}
		seen[v.Parent] = true
		visit(v.Parent)
	}
}

// applyDelta builds the successor snapshot incrementally. The delta is
// routed to shards by the same ID hash that partitioned the snapshot:
// a shard the delta does not touch is shared with s outright — pointer
// equality, no copies, no index work — and each dirty shard is patched
// independently (in parallel when there are several). The result is
// indistinguishable from newSnapshot over the same feature set
// (TestSnapshotApplyDeltaEquivalence); it just costs O(churn + dirty
// shards' index size) instead of O(catalog · variables).
//
// changed must be sorted by ID and is stored as is; removed must only
// name IDs present in s and disjoint from changed.
func (s *Snapshot) applyDelta(changed []*Feature, removed map[string]bool, generation uint64) *Snapshot {
	n := len(s.shards)
	changedBy := make([][]*Feature, n)
	for _, f := range changed {
		si := shardIndex(f.ID, n)
		changedBy[si] = append(changedBy[si], f) // keeps global ID order per shard
	}
	removedBy := make([]map[string]bool, n)
	for id := range removed {
		si := shardIndex(id, n)
		if removedBy[si] == nil {
			removedBy[si] = make(map[string]bool)
		}
		removedBy[si][id] = true
	}

	next := &Snapshot{
		shards:     make([]*Shard, n),
		generation: generation,
	}
	var wg sync.WaitGroup
	for si := range s.shards {
		if len(changedBy[si]) == 0 && len(removedBy[si]) == 0 {
			next.shards[si] = s.shards[si] // clean: shared with the predecessor
			continue
		}
		if n == 1 {
			next.shards[si] = s.shards[si].applyDelta(changedBy[si], removedBy[si])
			continue
		}
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			next.shards[si] = s.shards[si].applyDelta(changedBy[si], removedBy[si])
		}(si)
	}
	wg.Wait()
	for _, sh := range next.shards {
		next.total += len(sh.features)
	}
	return next
}

// applyDelta patches one shard: unchanged features are shared with sh,
// the ID-sorted slice is spliced, and each interned store is patched
// through its copy-on-write protocol — containers of untouched terms
// are shared with the predecessor when no position shifted, and only
// the touched terms' lists are rebuilt.
func (sh *Shard) applyDelta(changed []*Feature, removed map[string]bool) *Shard {
	replace := make(map[string]*Feature)
	var inserts []*Feature // sorted by ID (changed is)
	for _, f := range changed {
		if _, ok := sh.posOf(f.ID); ok {
			replace[f.ID] = f
		} else {
			inserts = append(inserts, f)
		}
	}

	// Splice the ID-sorted feature slice, tracking the old→new position
	// map and which positions carry new content ("dirty").
	old := sh.features
	newLen := len(old) - len(removed) + len(inserts)
	n := &Shard{features: make([]*Feature, 0, newLen)}
	posMap := make([]int32, len(old)) // old position → new, -1 when removed
	dirtyOld := make([]bool, len(old))
	var dirtyNew []int32
	i, j := 0, 0
	for i < len(old) || j < len(inserts) {
		takeOld := j >= len(inserts) || (i < len(old) && old[i].ID < inserts[j].ID)
		if takeOld {
			id := old[i].ID
			if removed[id] {
				posMap[i] = -1
				dirtyOld[i] = true
				i++
				continue
			}
			p := int32(len(n.features))
			if repl, ok := replace[id]; ok {
				n.features = append(n.features, repl)
				dirtyOld[i] = true
				dirtyNew = append(dirtyNew, p)
			} else {
				n.features = append(n.features, old[i])
			}
			posMap[i] = p
			i++
		} else {
			p := int32(len(n.features))
			n.features = append(n.features, inserts[j])
			dirtyNew = append(dirtyNew, p)
			j++
		}
	}
	// When nothing was inserted or removed, positions are unchanged and
	// untouched posting containers can be shared with sh outright.
	shifted := len(inserts) > 0 || len(removed) > 0

	// Names, parents, and grid cells whose posting lists the delta
	// touches: those of every dirty old feature (their entries leave)
	// and of every dirty new feature (their entries arrive).
	touchedNames := make(map[string]bool)
	touchedParents := make(map[string]bool)
	touchedCells := make(map[int32]bool)
	collect := func(f *Feature) {
		for _, name := range f.SearchableNames() {
			touchedNames[name] = true
		}
		eachSearchableParent(f, func(parent string) { touchedParents[parent] = true })
		for _, cell := range bboxCells(f.BBox) {
			touchedCells[cell] = true
		}
	}
	for p, dirty := range dirtyOld {
		if dirty {
			collect(old[p])
		}
	}
	for _, p := range dirtyNew {
		collect(n.features[p])
	}

	namePatch := sh.names.beginPatch(touchedNames, shifted, posMap, dirtyOld, newLen)
	parentPatch := sh.parents.beginPatch(touchedParents, shifted, posMap, dirtyOld, newLen)
	cellPatch := sh.spatial.store.beginPatch(touchedCells, shifted, posMap, dirtyOld, newLen)
	for _, p := range dirtyNew {
		f := n.features[p]
		for _, name := range f.SearchableNames() {
			namePatch.add(name, p)
		}
		eachSearchableParent(f, func(parent string) { parentPatch.add(parent, p) })
		for _, cell := range bboxCells(f.BBox) {
			cellPatch.add(cell, p)
		}
	}
	n.names = namePatch.finish(newLen)
	n.parents = parentPatch.finish(newLen)
	n.spatial = spatialGrid{store: cellPatch.finish(newLen)}

	n.temporal = sh.temporal.applyDelta(n.features, posMap, dirtyOld, dirtyNew)
	return n
}

// Len returns the number of features in the snapshot, across all shards.
func (s *Snapshot) Len() int { return s.total }

// Generation returns the catalog generation the snapshot was built at.
func (s *Snapshot) Generation() uint64 { return s.generation }

// Shards returns the snapshot's shards. The slice and the shards are
// read-only; shard order is stable for the lifetime of the catalog, and
// a feature's shard depends only on its ID and the shard count.
func (s *Snapshot) Shards() []*Shard { return s.shards }

// NumShards returns the shard count.
func (s *Snapshot) NumShards() int { return len(s.shards) }

// ShardSizes returns the per-shard feature counts, in shard order — the
// balance view /stats serves.
func (s *Snapshot) ShardSizes() []int {
	sizes := make([]int, len(s.shards))
	for i, sh := range s.shards {
		sizes[i] = len(sh.features)
	}
	return sizes
}

// All returns the snapshot's features sorted by ID, merged across
// shards. The merge is computed once, on first use, and cached: search
// never calls this — only whole-catalog readers (persistence,
// validation, experiment sweeps) do. Callers must not mutate the slice
// or the features; use Catalog.Get for a private copy.
func (s *Snapshot) All() []*Feature {
	s.allOnce.Do(func() {
		if len(s.shards) == 1 {
			s.all = s.shards[0].features
			return
		}
		merged := make([]*Feature, 0, s.total)
		for _, sh := range s.shards {
			merged = append(merged, sh.features...)
		}
		sort.Slice(merged, func(i, j int) bool { return merged[i].ID < merged[j].ID })
		s.all = merged
	})
	return s.all
}

// ByID returns the feature with the given ID without taking a lock or
// copying: one hash to pick the shard, one binary search inside it —
// the serving-path alternative to Catalog.Get, whose per-call copy is
// wasted on read-only consumers. Read-only.
func (s *Snapshot) ByID(id string) (*Feature, bool) {
	return s.shards[shardIndex(id, len(s.shards))].ByID(id)
}

// Len returns the number of features in the shard.
func (sh *Shard) Len() int { return len(sh.features) }

// All returns the shard's shared feature slice, sorted by ID. Read-only.
func (sh *Shard) All() []*Feature { return sh.features }

// At returns the feature at a shard position. Read-only.
func (sh *Shard) At(i int32) *Feature { return sh.features[i] }

// posOf binary-searches the ID-sorted feature slice for id.
func (sh *Shard) posOf(id string) (int32, bool) {
	i := sort.Search(len(sh.features), func(i int) bool { return sh.features[i].ID >= id })
	if i < len(sh.features) && sh.features[i].ID == id {
		return int32(i), true
	}
	return 0, false
}

// ByID returns the shard's feature with the given ID. Read-only.
func (sh *Shard) ByID(id string) (*Feature, bool) {
	i, ok := sh.posOf(id)
	if !ok {
		return nil, false
	}
	return sh.features[i], true
}

// VariableID resolves a searchable variable name to the shard's dense
// term ID — one map probe, done once per (query, shard).
func (sh *Shard) VariableID(name string) (uint32, bool) { return sh.names.id(name) }

// VariablePostings returns the compressed posting container for a term
// ID obtained from VariableID. Read-only.
func (sh *Shard) VariablePostings(id uint32) Postings { return sh.names.at(id) }

// ParentID resolves a hierarchy parent name to the shard's dense term ID.
func (sh *Shard) ParentID(name string) (uint32, bool) { return sh.parents.id(name) }

// ParentPostings returns the posting container for a parent term ID.
// Read-only.
func (sh *Shard) ParentPostings(id uint32) Postings { return sh.parents.at(id) }

// WithVariable returns the shard positions of features whose searchable
// variables include name, sorted ascending, in a freshly allocated
// slice. Convenience wrapper over VariableID/VariablePostings for tests
// and offline readers; the query path uses the containers directly.
func (sh *Shard) WithVariable(name string) []int32 {
	if l, ok := sh.names.lookup(name); ok && l.Len() > 0 {
		return l.AppendTo(nil)
	}
	return nil
}

// WithParent returns the shard positions of features having a
// searchable variable whose hierarchy parent is name, sorted ascending,
// in a freshly allocated slice. Wrapper, like WithVariable.
func (sh *Shard) WithParent(name string) []int32 {
	if l, ok := sh.parents.lookup(name); ok && l.Len() > 0 {
		return l.AppendTo(nil)
	}
	return nil
}

// SpatialCandidatesAppend appends to dst the shard positions of every
// feature whose scoring distance from the query box (BBox.DistanceKm
// for point-sized boxes, BBox.DistanceToBoxKm otherwise) can be at most
// maxKm, and returns the extended slice. The set is a superset of the
// truth — grid cells are included conservatively — so pruning against
// it never loses an exact result. Positions come back in unspecified
// order and may repeat (a feature spanning several visited cells);
// callers deduplicate. ok is false when the radius is too large to
// prune (callers must treat every feature as a candidate).
func (sh *Shard) SpatialCandidatesAppend(query geo.BBox, maxKm float64, dst []int32) (pos []int32, ok bool) {
	return sh.spatial.candidates(query, maxKm, dst)
}

// SpatialCandidates is SpatialCandidatesAppend into a fresh slice.
func (sh *Shard) SpatialCandidates(query geo.BBox, maxKm float64) (pos []int32, ok bool) {
	return sh.spatial.candidates(query, maxKm, nil)
}

// TimeCandidatesAppend appends to dst the shard positions of every
// feature whose temporal gap from the query range (TimeRange.Distance)
// can be at most maxGap, again conservatively and in unspecified order.
// ok is false when the gap is too large to prune.
func (sh *Shard) TimeCandidatesAppend(query geo.TimeRange, maxGap time.Duration, dst []int32) (pos []int32, ok bool) {
	return sh.temporal.candidates(query, maxGap, dst)
}

// TimeCandidates is TimeCandidatesAppend into a fresh slice.
func (sh *Shard) TimeCandidates(query geo.TimeRange, maxGap time.Duration) (pos []int32, ok bool) {
	return sh.temporal.candidates(query, maxGap, nil)
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

// bboxCells returns the grid cells a bounding box registers in; an
// empty extent scores zero on the space dimension and occupies no cell.
func bboxCells(b geo.BBox) []int32 {
	if b.IsEmpty() {
		return nil
	}
	r0, r1 := gridRow(b.MinLat), gridRow(b.MaxLat)
	c0, c1 := gridCol(b.MinLon), gridCol(b.MaxLon)
	cells := make([]int32, 0, (r1-r0+1)*(c1-c0+1))
	for r := r0; r <= r1; r++ {
		for c := c0; c <= c1; c++ {
			cells = append(cells, r*gridCols+c)
		}
	}
	return cells
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
		byStart: make([]int32, n),
		byEnd:   make([]int32, n),
		startAt: make([]time.Time, n),
		endAt:   make([]time.Time, n),
	}
	for i, f := range features {
		t.byStart[i] = int32(i)
		t.byEnd[i] = int32(i)
		t.startAt[i] = f.Time.Start
		t.endAt[i] = f.Time.End
	}
	sort.SliceStable(t.byStart, func(a, b int) bool {
		return t.startAt[t.byStart[a]].Before(t.startAt[t.byStart[b]])
	})
	sort.SliceStable(t.byEnd, func(a, b int) bool {
		return t.endAt[t.byEnd[a]].After(t.endAt[t.byEnd[b]])
	})
	t.starts = make([]time.Time, n)
	t.ends = make([]time.Time, n)
	for i, p := range t.byStart {
		t.starts[i] = t.startAt[p]
	}
	for i, p := range t.byEnd {
		t.ends[i] = t.endAt[p]
	}
	return t
}

// applyDelta patches the temporal index for a successor feature slice:
// surviving entries are remapped in order (posMap is monotone, so both
// sorted orders are preserved), and each dirty feature is merge-inserted
// at the position a fresh stable sort would have given it — ascending
// position among equal keys. The key arrays are then re-derived in one
// linear pass.
func (t temporalIndex) applyDelta(features []*Feature, posMap []int32, dirtyOld []bool, dirtyNew []int32) temporalIndex {
	n := len(features)
	out := temporalIndex{
		byStart: make([]int32, 0, n),
		byEnd:   make([]int32, 0, n),
		startAt: make([]time.Time, n),
		endAt:   make([]time.Time, n),
	}
	for i, f := range features {
		out.startAt[i] = f.Time.Start
		out.endAt[i] = f.Time.End
	}
	for _, p := range t.byStart {
		if posMap[p] >= 0 && !dirtyOld[p] {
			out.byStart = append(out.byStart, posMap[p])
		}
	}
	for _, p := range t.byEnd {
		if posMap[p] >= 0 && !dirtyOld[p] {
			out.byEnd = append(out.byEnd, posMap[p])
		}
	}
	for _, p := range dirtyNew {
		s := out.startAt[p]
		i := sort.Search(len(out.byStart), func(i int) bool {
			q := out.byStart[i]
			if !out.startAt[q].Equal(s) {
				return out.startAt[q].After(s)
			}
			return q > p
		})
		out.byStart = append(out.byStart, 0)
		copy(out.byStart[i+1:], out.byStart[i:])
		out.byStart[i] = p

		e := out.endAt[p]
		i = sort.Search(len(out.byEnd), func(i int) bool {
			q := out.byEnd[i]
			if !out.endAt[q].Equal(e) {
				return out.endAt[q].Before(e)
			}
			return q > p
		})
		out.byEnd = append(out.byEnd, 0)
		copy(out.byEnd[i+1:], out.byEnd[i:])
		out.byEnd[i] = p
	}
	out.starts = make([]time.Time, n)
	out.ends = make([]time.Time, n)
	for i, p := range out.byStart {
		out.starts[i] = out.startAt[p]
	}
	for i, p := range out.byEnd {
		out.ends[i] = out.endAt[p]
	}
	return out
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
