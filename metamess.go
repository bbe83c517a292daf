// Package metamess is a reproduction of "Taming the Metadata Mess"
// (Megler, 2013): a metadata wrangling pipeline and ranked dataset
// search engine ("Data Near Here") for heterogeneous scientific-data
// archives.
//
// The facade wraps the full system — archive scanner, working/published
// metadata catalogs, semantic-diversity classifier, Refine-style
// transformation discovery, synonym and hierarchy curation, validation,
// and distance-ranked search — behind a small API:
//
//	sys, err := metamess.New(metamess.Config{ArchiveRoot: "/data/archive"})
//	report, err := sys.Wrangle()
//	hits, err := sys.Search(metamess.Query{
//	    Near:      &metamess.LatLon{Lat: 45.5, Lon: -124.4},
//	    From:      time.Date(2010, 5, 1, 0, 0, 0, 0, time.UTC),
//	    To:        time.Date(2010, 8, 1, 0, 0, 0, 0, time.UTC),
//	    Variables: []metamess.VariableTerm{{Name: "temperature", Min: f(5), Max: f(10)}},
//	})
//
// Sub-systems are available under internal/ for the example programs and
// the experiment harness; downstream users drive everything through this
// package.
//
// For a long-lived deployment, the dnhd daemon (cmd/dnhd) serves the
// same facade over HTTP — wrangling once and answering queries
// continuously, with a snapshot-generation-keyed response cache and
// background re-wrangling:
//
//	dnhd -archive /data/archive -addr :8080 -rewrangle 15m &
//	curl 'http://localhost:8080/search/text?q=near+45.5,-124.4+in+mid-2010+with+temperature'
//	curl -X POST -d '{"variables":[{"name":"temperature","min":5,"max":10}],"k":5}' \
//	    http://localhost:8080/search
//	kill -HUP $(pidof dnhd)   # re-wrangle now; searches keep serving
//
// Request-scoped callers use the context-aware entry points
// (SearchContext, SearchTextContext) and key caches on
// SnapshotGeneration.
package metamess

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"metamess/internal/catalog"
	"metamess/internal/core"
	"metamess/internal/geo"
	"metamess/internal/hierarchy"
	"metamess/internal/obs"
	"metamess/internal/refine"
	"metamess/internal/scan"
	"metamess/internal/search"
	"metamess/internal/semdiv"
	"metamess/internal/vocab"
)

// Config configures a System.
type Config struct {
	// ArchiveRoot is the directory holding the scientific-data archive.
	ArchiveRoot string
	// Dirs restricts scanning to these root-relative directories
	// (empty = whole archive). Appending a directory between Wrangle
	// calls is the poster's "specify an additional directory" improvement.
	Dirs []string
	// ExpectedDatasets lists archive-relative paths validation requires.
	ExpectedDatasets []string
	// StrictValidation makes Wrangle fail (and skip publishing) when any
	// validation check errors.
	StrictValidation bool
	// SearchWorkers is the number of goroutines scoring search
	// candidates in parallel (0 = GOMAXPROCS). Searches run over the
	// immutable snapshot published by Wrangle, so workers never contend
	// with wrangling.
	SearchWorkers int
	// ScanWorkers is the number of goroutines parsing archive files in
	// parallel during Wrangle (0 = GOMAXPROCS).
	ScanWorkers int
	// SnapshotShards partitions the published snapshot by feature-ID
	// hash (0 = GOMAXPROCS). Each shard carries its own indexes, a
	// publish pushes segments only onto the shards the delta hashes
	// into, and a search scatters across their segments before one
	// merge heap gathers the per-segment top-Ks. Rankings are byte-identical for every value.
	SnapshotShards int
	// FullReprocess disables delta-scoped re-wrangling: every Wrangle
	// walks the whole catalog (the pre-delta behavior). An escape hatch
	// for operators who suspect drift, and the ablation the equivalence
	// property test runs against.
	FullReprocess bool
	// DataDir, when set, makes the system durable: every publish appends
	// its delta (with a generation stamp and the knowledge-epoch
	// sidecar) to a write-ahead journal in this directory, a compactor
	// periodically folds the journal into a checkpoint, and New/
	// OpenDurable recovers the published catalog plus the curated state
	// by checkpoint-replay + journal-replay — so a restarted process
	// serves the pre-crash generation and its next Wrangle costs
	// O(churn while down), not O(archive). Empty disables durability.
	DataDir string
	// SyncPolicy is the journal fsync policy: "always" (default — a
	// publish that returned survives a crash), "group" (group commit:
	// fsync at most once per SyncGroupWindow), or "none" (OS
	// discretion).
	SyncPolicy string
	// SyncGroupWindow bounds group-commit latency under "group"
	// (0 = 50ms).
	SyncGroupWindow time.Duration
	// CompactRatio triggers compaction when the journal outgrows
	// CompactRatio × the checkpoint size (0 = 1.0); CompactMinBytes is
	// the journal size below which compaction never triggers (0 = 256
	// KiB).
	CompactRatio    float64
	CompactMinBytes int64
	// Connector replaces the filesystem walker as Wrangle's ingest
	// source: a streaming archive (scan.TarConnector, scan.ZipConnector)
	// or an object listing (scan.HTTPConnector). Nil keeps the walker
	// over ArchiveRoot. Either way the connector feeds the same chain —
	// transforms, validation, publish — and produces identical catalogs
	// for identical logical content.
	Connector scan.Connector
}

// System is a wired-up metadata wrangling pipeline plus search engine.
type System struct {
	cfg      Config
	ctx      *core.Context
	process  *core.Process
	taxonomy *hierarchy.Taxonomy
	searcher *search.Searcher
	// pubMu serializes every writer of the published catalog and the
	// journal — chain runs (Wrangle), pushed batches (PublishFeatures),
	// replicated frames, checkpoint bootstraps and catalog loads — around
	// their core.Context.Commit, so apply/journal sequences never
	// interleave — and the curator calls, which share the wrangle's
	// context state. Searches read the immutable snapshot and never take
	// it.
	pubMu sync.Mutex
}

// New builds a system over an archive with the standard canonical
// vocabulary and the poster's default chain.
func New(cfg Config) (*System, error) {
	if cfg.ArchiveRoot == "" {
		return nil, fmt.Errorf("metamess: Config.ArchiveRoot is required")
	}
	k, err := semdiv.NewKnowledge(vocab.Standard())
	if err != nil {
		return nil, fmt.Errorf("metamess: %w", err)
	}
	ctx := core.NewContextSharded(k,
		scan.Config{Root: cfg.ArchiveRoot, Dirs: cfg.Dirs, Workers: cfg.ScanWorkers},
		cfg.SnapshotShards)
	ctx.ExpectedPaths = cfg.ExpectedDatasets
	ctx.ForceFullReprocess = cfg.FullReprocess
	ctx.Connector = cfg.Connector
	s := &System{cfg: cfg, ctx: ctx}

	chain := []core.Component{
		core.ScanArchive{},
		core.KnownTransforms{},
		core.AddExternalMetadata{},
		core.DiscoverTransforms{},
		core.PerformDiscovered{},
		core.KnownTransforms{},
		core.GenerateHierarchies{Taxonomy: &s.taxonomy},
		core.Validate{AllowErrors: !cfg.StrictValidation},
		core.Publish{},
	}
	s.process = core.NewProcess("metamess", chain...)

	opts := search.DefaultOptions()
	opts.Expander = search.NewKnowledgeExpander(k)
	opts.Workers = cfg.SearchWorkers
	s.searcher = search.New(ctx.Published, opts)
	if cfg.DataDir != "" {
		if err := s.openDurable(); err != nil {
			return nil, fmt.Errorf("metamess: %w", err)
		}
	}
	return s, nil
}

// OpenDurable is New for long-lived deployments: it requires
// Config.DataDir and recovers the published catalog, its generation,
// and the knowledge-epoch state (discovered rules, curated synonyms,
// pending curator decisions) from the data directory's checkpoint and
// journal before wiring the publish path through the write-ahead
// journal. On a warm restart the recovered catalog serves searches
// immediately at the pre-crash generation, and the next Wrangle is a
// delta-scoped reconciliation against the live archive — it re-parses
// only what changed while the process was down.
func OpenDurable(cfg Config) (*System, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("metamess: OpenDurable requires Config.DataDir")
	}
	return New(cfg)
}

// openDurable recovers state from cfg.DataDir into the freshly built
// system and attaches the journal to the publish path.
func (s *System) openDurable() error {
	policy, err := catalog.ParseSyncPolicy(s.cfg.SyncPolicy)
	if err != nil {
		return err
	}
	store, err := catalog.OpenStore(s.cfg.DataDir, s.ctx.Published, catalog.StoreOptions{
		Sync:            policy,
		GroupWindow:     s.cfg.SyncGroupWindow,
		CompactRatio:    s.cfg.CompactRatio,
		MinCompactBytes: s.cfg.CompactMinBytes,
	})
	if err != nil {
		return err
	}
	if s.ctx.Published.Len() > 0 || store.Generation() > 0 {
		// Seed the working catalog with the recovered (wrangled) features
		// so the reconciliation scan stat-skips everything that did not
		// change while the process was down.
		s.ctx.Working.SeedFrom(s.ctx.Published)
		if sc := store.Sidecar(); sc != nil {
			// Restoring the epoch marks the context as having completed a
			// run, so the next Wrangle is delta-scoped. Without a sidecar
			// (legacy checkpoint) the first run falls back to a full
			// reprocess — slower, never wrong.
			if err := s.ctx.RestoreEpochSidecar(sc); err != nil {
				store.Close()
				return err
			}
		}
	}
	s.ctx.Journal = store
	return nil
}

// Durable reports whether the system journals publishes to a data
// directory.
func (s *System) Durable() bool { return s.ctx.Journal != nil }

// Close drains the publish journal (flush + fsync) and closes it.
// Idempotent; a no-op for non-durable systems. After Close, Wrangle
// fails on its publish step.
func (s *System) Close() error {
	if s.ctx.Journal == nil {
		return nil
	}
	return s.ctx.Journal.Close()
}

// CompactIfNeeded folds the publish journal into a fresh checkpoint
// when it has outgrown the configured ratio — the background compactor
// entry point the dnhd rewrangler calls after runs. It reports whether
// a compaction ran; a no-op for non-durable systems.
func (s *System) CompactIfNeeded() (bool, error) {
	if s.ctx.Journal == nil {
		return false, nil
	}
	return s.ctx.Journal.CompactIfNeeded(s.ctx.Published)
}

// DurabilityStats is a monitoring view of the journal+checkpoint store.
type DurabilityStats struct {
	// Generation is the last durable publish generation.
	Generation uint64 `json:"generation"`
	// JournalBytes and CheckpointBytes size the on-disk state; their
	// ratio drives compaction.
	JournalBytes    int64 `json:"journalBytes"`
	CheckpointBytes int64 `json:"checkpointBytes"`
	// Appends counts journaled publishes; SkippedAppends counts publish
	// calls that changed nothing and appended nothing; RefusedAppends
	// counts publishes refused while the store was degraded (real,
	// undurable publishes — not harmless no-ops); Syncs counts fsyncs
	// (group commit batches many appends per sync).
	Appends        uint64 `json:"appends"`
	SkippedAppends uint64 `json:"skippedAppends,omitempty"`
	RefusedAppends uint64 `json:"refusedAppends,omitempty"`
	Syncs          uint64 `json:"syncs"`
	// Compactions counts journal-into-checkpoint folds.
	Compactions   uint64  `json:"compactions"`
	LastCompactMs float64 `json:"lastCompactMs,omitempty"`
	// Degraded is set when a journal append failed: the live catalog is
	// ahead of the journal and publishes are refused until a compaction
	// rewrites the full state.
	Degraded bool `json:"degraded,omitempty"`
}

// Durability returns journal/checkpoint statistics; ok is false for
// non-durable systems.
func (s *System) Durability() (stats DurabilityStats, ok bool) {
	if s.ctx.Journal == nil {
		return DurabilityStats{}, false
	}
	st := s.ctx.Journal.Stats()
	return DurabilityStats{
		Generation:      st.Generation,
		JournalBytes:    st.JournalBytes,
		CheckpointBytes: st.CheckpointBytes,
		Appends:         st.Appends,
		SkippedAppends:  st.SkippedAppends,
		RefusedAppends:  st.RefusedAppends,
		Syncs:           st.Syncs,
		Compactions:     st.Compactions,
		LastCompactMs:   st.LastCompactMs,
		Degraded:        st.Degraded,
	}, true
}

// StepSummary reports one chain component of a Wrangle run.
type StepSummary struct {
	Component string
	Duration  time.Duration
	Counters  map[string]int
	// Coverage is the occurrence coverage after the step, in [0,1].
	Coverage float64
}

// DeltaSummary reports one Wrangle run's churn: what the scan saw
// change in the archive, and what the publish step actually pushed into
// the served catalog. On a steady-state re-wrangle everything is zero
// and GenerationStable is true — the serving cache survives.
type DeltaSummary struct {
	// Added, Changed, Removed, and Unchanged classify the archive scan.
	Added, Changed, Removed, Unchanged int
	// Published and Retracted count features the publish delta upserted
	// into / deleted from the served catalog.
	Published, Retracted int
	// FullReprocess marks a run that ignored the delta (first run, or
	// curated knowledge changed since the last completed run).
	FullReprocess bool
	// GenerationStable is true when the publish was an empty delta and
	// the served snapshot generation did not move.
	GenerationStable bool
}

// Report summarizes a Wrangle run.
type Report struct {
	Datasets int
	// CoverageBefore and CoverageAfter bracket the run's mess reduction.
	CoverageBefore, CoverageAfter float64
	DistinctNames                 int
	UnresolvedNames               int
	Steps                         []StepSummary
	ValidationErrors              int
	ValidationWarnings            int
	Duration                      time.Duration
	// Delta is the run's churn and publish summary.
	Delta DeltaSummary
}

// Wrangle runs the full chain: scan (in parallel, incrementally),
// transform, discover, generate hierarchies, validate, publish. Safe to
// call repeatedly; re-runs cost in proportion to archive churn — the
// scan classifies added/changed/removed files into a delta, downstream
// components process only the dirty features while curated knowledge is
// unchanged, and publish applies the real differences to the served
// snapshot as delta segments. Concurrent searches see either the old or the new
// catalog, never a mix, and a re-wrangle that changes nothing leaves
// the served snapshot (and its generation) untouched.
func (s *System) Wrangle() (*Report, error) {
	return s.WrangleWithTrace(nil, -1)
}

// WrangleWithTrace is Wrangle with write-path tracing: one span per
// chain component (with apply-delta / journal-append stages nested
// under publish) is recorded into tr under parent. A nil tr is exactly
// Wrangle — every trace hook is nil-safe. The dnhd rewrangler uses it
// so /debug/wrangletrace can serve the last run's span tree.
func (s *System) WrangleWithTrace(tr *obs.Trace, parent int32) (*Report, error) {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	s.ctx.Trace = tr
	s.ctx.TraceSpan = parent
	defer func() {
		s.ctx.Trace = nil
		s.ctx.TraceSpan = 0
	}()
	run, err := s.process.Run(s.ctx)
	if err != nil {
		return nil, fmt.Errorf("metamess: %w", err)
	}
	rep := &Report{
		Datasets:        s.ctx.Published.Len(),
		CoverageBefore:  run.MessBefore.OccurrenceCoverage,
		CoverageAfter:   run.MessAfter.OccurrenceCoverage,
		DistinctNames:   run.MessAfter.DistinctNames,
		UnresolvedNames: run.MessAfter.UnresolvedNames,
		Duration:        run.Duration,
	}
	for _, st := range run.Steps {
		rep.Steps = append(rep.Steps, StepSummary{
			Component: st.Component,
			Duration:  st.Duration,
			Counters:  st.Counters,
			Coverage:  st.MessAfter.OccurrenceCoverage,
		})
		if st.Component == "publish" {
			rep.Delta.Published = st.Counters["changed"]
			rep.Delta.Retracted = st.Counters["retracted"]
			rep.Delta.GenerationStable = st.Counters["generationStable"] == 1
		}
	}
	if d := s.ctx.Delta; d != nil {
		rep.Delta.Added = len(d.Added)
		rep.Delta.Changed = len(d.Changed)
		rep.Delta.Removed = len(d.Removed)
		rep.Delta.Unchanged = d.Unchanged
		rep.Delta.FullReprocess = d.Full
	}
	if v := s.ctx.LastValidation; v != nil {
		rep.ValidationErrors = v.Errors()
		rep.ValidationWarnings = v.Warnings()
	}
	return rep, nil
}

// LatLon is a WGS84 coordinate.
type LatLon struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
}

// VariableTerm is one queried variable, optionally range-constrained.
type VariableTerm struct {
	Name string   `json:"name"`
	Min  *float64 `json:"min,omitempty"`
	Max  *float64 `json:"max,omitempty"`
}

// Query is a "Data Near Here" search request. The JSON tags are the
// dnhd wire format: the server decodes a POST /search body straight
// into a Query and keys its cache on the re-marshaled value, so field
// order and tags here are part of every cache key.
type Query struct {
	// Near ranks datasets by distance from this point.
	Near *LatLon `json:"near,omitempty"`
	// From and To bound the time period of interest (both zero = no time
	// dimension).
	From time.Time `json:"from,omitzero"`
	To   time.Time `json:"to,omitzero"`
	// Variables are the environmental variables of interest.
	Variables []VariableTerm `json:"variables,omitempty"`
	// K caps the result count (default 10).
	K int `json:"k,omitempty"`
}

// Hit is one ranked search result.
type Hit struct {
	// Path is the dataset's archive-relative path.
	Path string `json:"path"`
	// Score is the similarity in [0,1].
	Score float64 `json:"score"`
	// MatchedVariables explains which catalog variables matched each
	// query term.
	MatchedVariables []string `json:"matchedVariables,omitempty"`
	// Summary is the rendered dataset summary page.
	Summary string `json:"summary"`
}

// hitsFromResults converts internal search results into the facade's
// Hit shape. Each hit's summary page and match explanations are
// appended into one buffer reused across hits, so a string costs one
// copy of its bytes.
func hitsFromResults(results []search.Result) []Hit {
	hits := make([]Hit, len(results))
	buf := make([]byte, 0, 1024)
	for i := range results {
		r, h := &results[i], &hits[i]
		buf = search.AppendSummaryPage(buf[:0], r.Feature)
		h.Path, h.Score, h.Summary = r.Feature.Path, r.Score, string(buf)
		for j := range r.TermScores {
			ts := &r.TermScores[j]
			if ts.MatchedAs == "" {
				continue
			}
			// "<term> -> <matched> (<score to 2 places>)"
			buf = append(append(append(buf[:0], ts.Term...), " -> "...), ts.MatchedAs...)
			buf = append(strconv.AppendFloat(append(buf, " ("...), ts.Score, 'f', 2, 64), ')')
			h.MatchedVariables = append(h.MatchedVariables, string(buf))
		}
	}
	return hits
}

// Search ranks published datasets against the query.
func (s *System) Search(q Query) ([]Hit, error) {
	return s.SearchContext(context.Background(), q)
}

// SearchContext is Search with cancellation: when ctx ends before the
// ranking is complete the search stops scoring and returns ctx's error.
// This is the entry point request-scoped callers use.
func (s *System) SearchContext(ctx context.Context, q Query) ([]Hit, error) {
	hits, _, err := s.search(ctx, internalQuery(q), false)
	return hits, err
}

// SearchPartialContext is SearchContext with best-effort deadline
// semantics: when ctx ends mid-ranking it returns the hits gathered so
// far (possibly none) with partial=true instead of an error. The dnhd
// server uses it to honor per-request budgets without discarding work
// already done; see search.Searcher.SearchPartialContext for the
// exactness caveat on partial rankings.
func (s *System) SearchPartialContext(ctx context.Context, q Query) ([]Hit, bool, error) {
	return s.search(ctx, internalQuery(q), true)
}

// search is the one body behind every exported Search*: run the
// executor (keeping what a deadline cut short only when partialOK),
// wrap its error, render the hits. With an obs.QueryObs in ctx the
// rendering is timed into HitsNs and traced as a "hits" span.
func (s *System) search(ctx context.Context, iq search.Query, partialOK bool) (hits []Hit, partial bool, err error) {
	var results []search.Result
	if partialOK {
		results, partial, err = s.searcher.SearchPartialContext(ctx, iq)
	} else {
		results, err = s.searcher.SearchContext(ctx, iq)
	}
	if err != nil {
		return nil, false, fmt.Errorf("metamess: %w", err)
	}
	qo := obs.QueryFromContext(ctx)
	var t0 time.Time
	if qo != nil {
		t0 = time.Now()
	}
	tr, root := qo.Tracer()
	hid := tr.Start(root, "hits")
	hits = hitsFromResults(results)
	tr.Attr(hid, "hits", int64(len(hits)))
	tr.End(hid)
	if qo != nil {
		qo.HitsNs += time.Since(t0).Nanoseconds()
	}
	return hits, partial, nil
}

// internalQuery converts the facade query into the search package's.
func internalQuery(q Query) search.Query {
	iq := search.Query{K: q.K}
	if q.Near != nil {
		iq.Location = &geo.Point{Lat: q.Near.Lat, Lon: q.Near.Lon}
	}
	if !q.From.IsZero() || !q.To.IsZero() {
		tr := geo.NewTimeRange(q.From, q.To)
		iq.Time = &tr
	}
	for _, v := range q.Variables {
		term := search.Term{Name: v.Name}
		if v.Min != nil || v.Max != nil {
			lo, hi := 0.0, 0.0
			if v.Min != nil {
				lo = *v.Min
			}
			if v.Max != nil {
				hi = *v.Max
			} else {
				hi = lo
			}
			r := geo.NewValueRange(lo, hi)
			term.Range = &r
		}
		iq.Terms = append(iq.Terms, term)
	}
	return iq
}

// SearchText parses and runs a textual "Data Near Here" query, e.g. the
// poster's example information need:
//
//	near 45.5,-124.4 in mid-2010 with temperature between 5 and 10
func (s *System) SearchText(query string) ([]Hit, error) {
	return s.SearchTextContext(context.Background(), query)
}

// SearchTextContext is SearchText with cancellation (see SearchContext).
func (s *System) SearchTextContext(ctx context.Context, query string) ([]Hit, error) {
	iq, err := search.ParseQuery(query)
	if err != nil {
		return nil, fmt.Errorf("metamess: %w", err)
	}
	hits, _, err := s.search(ctx, iq, false)
	return hits, err
}

// DatasetSummary renders the summary page for an archive-relative path.
// The lookup goes through the immutable snapshot — no lock, no feature
// clone — so a serving layer can render summaries at full query rate.
func (s *System) DatasetSummary(path string) (string, error) {
	f, ok := s.ctx.Published.Snapshot().ByID(catalog.IDForPath(path))
	if !ok {
		return "", fmt.Errorf("metamess: dataset %q not in published catalog", path)
	}
	return string(search.AppendSummaryPage(nil, f)), nil
}

// SnapshotGeneration returns the generation of the published snapshot
// searches currently read. Every publish that actually changes the
// catalog (and any direct mutation of the published catalog) bumps it,
// so the value keys caches: a response computed at generation G is
// valid exactly as long as SnapshotGeneration() == G. A no-op
// re-wrangle publishes an empty delta and leaves the generation — and
// therefore every cached response — intact.
func (s *System) SnapshotGeneration() uint64 {
	return s.ctx.Published.Snapshot().Generation()
}

// SnapshotShardSizes returns the per-shard feature counts of the
// published snapshot, in shard order. The slice length is the shard
// count (Config.SnapshotShards or its GOMAXPROCS default); the sizes
// sum to DatasetCount. Serving layers expose it for balance monitoring.
func (s *System) SnapshotShardSizes() []int {
	return s.ctx.Published.Snapshot().ShardSizes()
}

// The curator calls below read or write the wrangling context's curated
// and per-run state (knowledge, pending decisions, discovered rules,
// taxonomy, last validation), so each holds pubMu like Wrangle: they
// wait out a running wrangle instead of racing it.

// AddSynonym records a curated synonym mapping (curatorial activity 3:
// adding entries to a synonym table). Takes effect on the next Wrangle.
func (s *System) AddSynonym(preferred string, alternates ...string) error {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	return s.ctx.Knowledge.Synonyms.Add(preferred, alternates...)
}

// CuratorQueue lists the names awaiting a curator decision, with the
// classifier's evidence.
func (s *System) CuratorQueue() []string {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	cls := s.ctx.Classifier()
	var out []string
	for _, vc := range s.ctx.Working.VariableNameCounts() {
		f := cls.Classify(vc.Value)
		switch f.Category {
		case semdiv.CatAmbiguous, semdiv.CatUnknown, semdiv.CatSourceContext:
			out = append(out, fmt.Sprintf("%s (%s; %s)", vc.Value, f.Category, f.Evidence))
		}
	}
	return out
}

// Clarify records a curator decision mapping an ambiguous or unknown
// name to a canonical target; Hide excludes it instead. Decisions apply
// on the next Wrangle.
func (s *System) Clarify(rawName, target string) {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	s.ctx.PendingDecisions = append(s.ctx.PendingDecisions,
		semdiv.Decision{RawName: rawName, Action: semdiv.ClarifyTo, Target: target})
}

// Hide records a curator decision to exclude a name from search.
func (s *System) Hide(rawName string) {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	s.ctx.PendingDecisions = append(s.ctx.PendingDecisions,
		semdiv.Decision{RawName: rawName, Action: semdiv.Hide})
}

// ExportRules renders the transformation rules discovered so far in the
// poster's JSON format (audit, versioning, replay elsewhere).
func (s *System) ExportRules() ([]byte, error) {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	return refine.ExportJSON(s.ctx.DiscoveredRules)
}

// VariableMenu renders the generated variable hierarchy as an indented
// menu, expanded to maxDepth levels (0 = fully expanded).
func (s *System) VariableMenu(maxDepth int) []string {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	if s.taxonomy == nil {
		return nil
	}
	return s.taxonomy.Menu(maxDepth)
}

// Validation returns the latest validation findings as display strings,
// in check order.
func (s *System) Validation() []string {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	if s.ctx.LastValidation == nil {
		return nil
	}
	var out []string
	for _, f := range s.ctx.LastValidation.Findings {
		out = append(out, fmt.Sprintf("[%s] %s: %s", f.Severity, f.Check, f.Detail))
	}
	return out
}

// SaveCatalog exports the published catalog as a checkpoint file.
func (s *System) SaveCatalog(path string) error {
	return catalog.Save(path, s.ctx.Published)
}

// LoadCatalog makes the published catalog equal to a checkpoint file, so
// a search service can start without re-scanning the archive. The load
// is committed at the next generation like any publish — journaled on a
// durable system — and, like a no-op re-wrangle, reloading an unchanged
// file keeps the generation and every cached response.
func (s *System) LoadCatalog(path string) error {
	c, err := catalog.Load(path)
	if err != nil {
		return err
	}
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	return s.commitCatalog(c, 0, nil)
}

// DatasetCount returns the published catalog's size.
func (s *System) DatasetCount() int { return s.ctx.Published.Len() }

// Vocabulary returns the canonical variable names the system wrangles
// toward.
func (s *System) Vocabulary() []string {
	return vocab.Names(s.ctx.Knowledge.Vocabulary)
}

// ValidationOK reports whether the last run's validation passed.
func (s *System) ValidationOK() bool {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	return s.ctx.LastValidation != nil && s.ctx.LastValidation.OK()
}
