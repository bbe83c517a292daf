// Package scan implements the "scan archive" component of the wrangling
// chain: walk configured directories, sniff each file's format, parse it
// once, and summarize it into a catalog feature (spatial extent, temporal
// extent, per-variable observed ranges). The poster's annotation
// "Configure: directories, file types, naming conventions" maps onto
// Config.
//
// Scans are delta-aware: against an existing catalog the scanner skips
// files whose stat fingerprint (size + mtime) matches, verifies
// stat-stable files by content hash when the fingerprint cannot be
// trusted (the racy-mtime window), reports files that vanished from the
// archive, and classifies every parsed feature as added or changed.
// Parsing fans out over a bounded worker pool, so a cold scan of a large
// archive uses the hardware.
//
// A scanner that lives across scans costs what changed, not what is
// there: from its third scan on it follows a change feed (inotify, see
// feed.go) and examines only the paths that had an event, plus the few
// candidates a trusted stat cannot settle. A full walk remains the
// oracle, run at the start and whenever the feed cannot vouch for the
// whole scope, and a scan through the feed returns exactly the Result
// the walk would.
package scan

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"metamess/internal/archive"
	"metamess/internal/catalog"
)

// statCalls counts the os.Stat invocations the walker has made over the
// process lifetime. Push-fed deployments care that their ingest path
// never touches the filesystem: the server's TestPublishEndpoint asserts
// this counter does not move across accepted publishes.
var statCalls atomic.Uint64

// StatCalls returns the number of stat calls the filesystem walker has
// performed so far in this process.
func StatCalls() uint64 { return statCalls.Load() }

// Config selects what to scan.
type Config struct {
	// Root is the archive root directory.
	Root string
	// Dirs are root-relative directories to scan; empty means the whole
	// archive. Adding a directory here is the poster's "specifying an
	// additional directory to scan" improvement step.
	Dirs []string
	// Extensions whitelists file extensions (with dot); empty means the
	// three known formats.
	Extensions []string
	// MaxFileBytes skips larger files (0 = no limit).
	MaxFileBytes int64
	// Workers bounds the parse worker pool (0 = GOMAXPROCS).
	Workers int
}

// Stats summarizes one scan run.
type Stats struct {
	// FilesSeen counts candidate files; Parsed counts full parses;
	// SkippedUnchanged counts incremental skips; SkippedOther counts
	// unknown types and oversized files; Failed counts stat, read, and
	// parse errors.
	FilesSeen, Parsed, SkippedUnchanged, SkippedOther, Failed int
	// HashVerified counts the subset of SkippedUnchanged whose stat
	// fingerprint was racy and had to be confirmed by content hash.
	HashVerified int
	// Removed counts previously cataloged files that no longer exist.
	Removed int
	// BytesParsed totals the raw bytes of parsed files.
	BytesParsed int64
	// Duration is the wall-clock scan time, and FullWalk reports whether
	// the scan walked the whole scope rather than following the change
	// feed. They say how the scan ran, not what it found.
	Duration time.Duration
	FullWalk bool
}

// Result carries the scan's features, delta classification, and
// per-file errors. Errors do not abort the scan: an archive with some
// corrupt files still yields a catalog for everything else.
type Result struct {
	Features []*catalog.Feature
	// Added and Changed partition Features by whether the existing
	// catalog already had the ID; on a from-scratch scan everything is
	// Added. Removed lists the IDs of cataloged files the walk no
	// longer found inside the scanned scope. All three are sorted.
	Added, Changed, Removed []string
	Errors                  []error
	Stats                   Stats

	// verified holds IDs whose unchanged-ness was confirmed by content
	// hash; ScanInto refreshes their scan stamps so the next run can
	// trust the stat fingerprint again.
	verified []string
	// recheck holds the paths of the candidates the next scan must
	// examine again (see Scanner.sticky); walkFailed is set when the walk
	// could not read part of the tree.
	recheck    []string
	walkFailed bool
}

// Scanner scans archives per its config. One scanner is meant to serve
// one catalog for as long as it lives: its first scan walks, its second
// walks and arms the change feed, and from its third on a scan examines
// only what changed (see feed.go). Scans through one scanner must be
// serialized; Close releases the feed.
type Scanner struct {
	cfg  Config
	exts map[string]bool
	// bases are the scanned directories in Config.Dirs order; scope holds
	// the root-relative form of each one the walk reaches, the directories
	// whose cataloged files a scan may retract.
	bases []scanBase
	scope []string
	// now is stubbed in tests.
	now func() time.Time

	// feed is the armed change feed, nil until the second scan and
	// whenever it could not be armed (armFailed); closed is set by Close.
	feed      *feed
	armFailed bool
	closed    bool
	// scans counts completed scans, sinceWalk those since the last walk;
	// walkErr is set when the last scan could not read part of the tree.
	scans, sinceWalk int
	walkErr          bool
	// inStep and gen name the catalog the last scan left and its
	// StatGeneration: the feed knows what changed on disk, so a scan
	// through it is exact only against the catalog as the scanner left
	// it.
	inStep *catalog.Working
	gen    uint64
	// files is the last scan's FilesSeen.
	files int
	// sticky holds the candidates a trusted stat cannot settle, which
	// every scan re-examines as the walk would: a fingerprint inside the
	// racy window (a mtime in the future stays there), a failed, oversized
	// or refused file, a symlink.
	sticky map[string]bool
}

// scanBase is one scanned directory: its path and its root-relative
// form (relErr when that cannot be formed).
type scanBase struct {
	abs, rel string
	relErr   error
}

// New returns a scanner. Extensions default to .csv/.obs/.jsonl.
func New(cfg Config) *Scanner {
	exts := cfg.Extensions
	if len(exts) == 0 {
		exts = []string{".csv", ".obs", ".jsonl"}
	}
	set := make(map[string]bool, len(exts))
	for _, e := range exts {
		set[strings.ToLower(e)] = true
	}
	s := &Scanner{cfg: cfg, exts: set, now: time.Now}
	for _, dir := range s.dirs() {
		abs := filepath.Join(cfg.Root, dir)
		rel, err := filepath.Rel(cfg.Root, abs)
		rel = filepath.Clean(rel) // Rel("arch", ".") is "../."
		s.bases = append(s.bases, scanBase{abs: abs, rel: rel, relErr: err})
		if err == nil {
			s.scope = append(s.scope, rel)
		}
	}
	return s
}

// dirs returns the scanned directories as configured.
func (s *Scanner) dirs() []string {
	if len(s.cfg.Dirs) == 0 {
		return []string{"."}
	}
	return s.cfg.Dirs
}

// Name implements Connector: the walker is the original, filesystem
// ingest source.
func (s *Scanner) Name() string { return "walker" }

// Close releases the change feed; the scanner still scans, by walking.
// Idempotent.
func (s *Scanner) Close() {
	s.closed = true
	if s.feed != nil {
		s.feed.close()
		s.feed = nil
	}
}

// ScanInto scans incrementally against an existing catalog: files whose
// stat fingerprint (or, when that is racy, content hash) matches the
// stored feature are skipped, parsed features are upserted into c, and
// features whose files vanished are deleted. This is the poster's
// "running & rerunning process" made cheap — the work tracks archive
// churn, not archive size. Past the second scan the scanner learns what
// changed from the change feed; its Result equals a walk's in every
// field but Stats.Duration and Stats.FullWalk.
func (s *Scanner) ScanInto(c *catalog.Working) (*Result, error) {
	var res *Result
	var err error
	reason := s.walkReason(c)
	if reason == "" {
		res, reason, err = s.follow(c)
	}
	if reason != "" {
		walksByReason[reason].Inc()
		res, err = s.walk(c, reason != walkFirst && !s.closed)
	}
	if err != nil {
		s.walkErr = true
		return nil, err
	}
	rejected := map[string]bool{}
	for _, f := range res.Features {
		if err := c.Upsert(f); err != nil {
			res.Errors = append(res.Errors, err)
			res.Stats.Failed++
			rejected[f.ID] = true
			// A refused file re-parses and re-fails every scan.
			res.recheck = append(res.recheck, f.Path)
		}
	}
	if len(rejected) > 0 {
		// A feature the catalog refused is not part of the delta: it is
		// surfaced through Errors/Failed, and leaving its ID in
		// Added/Changed would keep the delta permanently non-empty (the
		// file re-parses and re-fails every run), defeating the
		// empty-delta fast paths for the whole archive.
		keep := func(ids []string) []string {
			out := ids[:0]
			for _, id := range ids {
				if !rejected[id] {
					out = append(out, id)
				}
			}
			return out
		}
		res.Added = keep(res.Added)
		res.Changed = keep(res.Changed)
	}
	for _, id := range res.Removed {
		c.Delete(id)
	}
	stamp := s.now()
	for _, id := range res.verified {
		c.SetScanStamp(id, stamp)
	}

	// Every candidate on disk is now trusted by its stat or re-examined
	// next scan: sticky holds exactly the second kind.
	s.sticky = make(map[string]bool, len(res.recheck))
	for _, rel := range res.recheck {
		s.sticky[rel] = true
	}
	s.files = res.Stats.FilesSeen
	s.inStep, s.gen = c, c.StatGeneration()
	s.scans++
	s.sinceWalk++
	if res.Stats.FullWalk {
		s.sinceWalk = 0
		s.walkErr = res.walkFailed
	}
	return res, nil
}

// walkReason returns why the next scan of c must walk, or "" when it can
// follow the feed.
func (s *Scanner) walkReason(c *catalog.Working) string {
	switch {
	case s.scans == 0:
		return walkFirst
	case s.closed || (s.feed == nil && s.armFailed):
		return walkUnavailable
	case s.feed == nil:
		return walkArm
	case s.walkErr:
		return walkWalkError
	case c != s.inStep || c.StatGeneration() != s.gen:
		return walkCatalog
	case s.sinceWalk >= walkEvery:
		return walkPeriodic
	}
	return ""
}

// candidate is one file the walk selected for scanning.
type candidate struct {
	abs, rel string
	// info is the file's lstat when a scan through the feed has it and it
	// is a regular file: scanOne then skips its own stat.
	info fs.FileInfo
	// recheck marks a candidate that is not a regular file: a symlink's
	// target can change without an event in the watched directories.
	recheck bool
	// rank orders the feed's candidates like the walk: the first scanned
	// directory that reaches the file.
	rank int
}

// batch is a run of consecutive candidates, in walk order, and the slot
// each one's outcome goes in. The walker keeps every batch in order, so
// whichever worker fills a batch, aggregation reads outcomes in walk
// order and the Result does not depend on scheduling.
type batch struct {
	cands []candidate
	outs  []fileOutcome
}

// maxBatch caps a batch so that one flat directory still spreads over
// the workers; a batch otherwise ends where the walk enters a directory.
const maxBatch = 64

// statEntry is what the scan needs of one cataloged feature.
type statEntry struct {
	id              string
	size            int64
	modTime, scanAt time.Time
	hash            string
}

// racyWindow is the stat-trust guard: a stored fingerprint is only
// trusted when the file's mtime is at least this much older than the
// scan that recorded it. Inside the window an edit could have landed
// without moving size or mtime (filesystem timestamp granularity,
// deliberate mtime restoration), so the scanner re-reads the file and
// lets the content hash arbitrate. This is a stat-first trade-off, not
// a universal guarantee: an edit that restores a mtime already far in
// the past of the recorded scan is trusted-skipped without a read.
const racyWindow = 2 * time.Second

// checkRoot is every scan's first step.
func (s *Scanner) checkRoot() error {
	if s.cfg.Root == "" {
		return fmt.Errorf("scan: config needs a root directory")
	}
	statCalls.Add(1)
	if st, err := os.Stat(s.cfg.Root); err != nil {
		return fmt.Errorf("scan: root: %w", err)
	} else if !st.IsDir() {
		return fmt.Errorf("scan: root %q is not a directory", s.cfg.Root)
	}
	return nil
}

// pool stats and parses batches on Config.Workers goroutines while the
// caller is still producing them. Each batch is written by exactly one
// worker and read only after all of them are done, so aggregation needs
// no locks.
type pool struct {
	s       *Scanner
	view    map[string]statEntry
	batches []*batch
	workers int
	work    chan *batch
	wg      sync.WaitGroup
}

func (s *Scanner) newPool(view map[string]statEntry) *pool {
	p := &pool{s: s, view: view, workers: s.cfg.Workers}
	if p.workers <= 0 {
		p.workers = runtime.GOMAXPROCS(0)
	}
	if p.workers > 1 {
		// A couple of batches of slack per worker, so a worker finishing
		// one never waits on the producer for the next.
		p.work = make(chan *batch, 2*p.workers)
		for w := 0; w < p.workers; w++ {
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				for b := range p.work {
					s.scanBatch(b, view)
				}
			}()
		}
	}
	return p
}

// submit hands a batch of candidates to the workers.
func (p *pool) submit(cands []candidate) {
	if len(cands) == 0 {
		return
	}
	b := &batch{cands: cands, outs: make([]fileOutcome, len(cands))}
	p.batches = append(p.batches, b)
	if p.work != nil {
		p.work <- b
	} else {
		p.s.scanBatch(b, p.view)
	}
}

// finish waits for the workers and folds the outcomes into res in
// submission order.
func (p *pool) finish(res *Result) {
	if p.work != nil {
		close(p.work)
		p.wg.Wait()
	}
	for _, b := range p.batches {
		res.Stats.FilesSeen += len(b.cands)
		for i, out := range b.outs {
			if out.recheck || b.cands[i].recheck {
				res.recheck = append(res.recheck, b.cands[i].rel)
			}
			switch {
			case out.err != nil:
				res.Errors = append(res.Errors, out.err)
				res.Stats.Failed++
			case out.oversize:
				res.Stats.SkippedOther++
			case out.feature != nil:
				res.Features = append(res.Features, out.feature)
				res.Stats.Parsed++
				res.Stats.BytesParsed += out.feature.Bytes
				id := out.feature.ID
				if out.existed {
					res.Changed = append(res.Changed, id)
				} else {
					res.Added = append(res.Added, id)
				}
			default:
				res.Stats.SkippedUnchanged++
				if out.verified {
					res.Stats.HashVerified++
					res.verified = append(res.verified, p.view[b.cands[i].rel].id)
				}
			}
		}
	}
}

// sortResult puts a Result's lists in their documented order.
func sortResult(res *Result) {
	sort.Slice(res.Features, func(i, j int) bool { return res.Features[i].ID < res.Features[j].ID })
	sort.Strings(res.Added)
	sort.Strings(res.Changed)
	sort.Strings(res.Removed)
	sort.Strings(res.verified)
	res.Stats.Removed = len(res.Removed)
}

// walk scans by walking every configured directory: the oracle every
// scan through the feed must equal. With arm set it opens a fresh feed
// and watches each directory before reading it, so whatever changes
// after the walk has read a directory queues an event.
func (s *Scanner) walk(existing *catalog.Working, arm bool) (*Result, error) {
	start := s.now()
	if err := s.checkRoot(); err != nil {
		return nil, err
	}
	var fd *feed
	if arm {
		if s.feed != nil {
			s.feed.close()
			s.feed = nil
		}
		var err error
		if fd, err = openFeed(len(s.bases)); err != nil {
			feedFailures.Inc()
			s.armFailed = true
		}
	}
	// A watch that cannot be added leaves the feed blind to a directory:
	// the scanner walks until a later walk arms it whole.
	unarm := func() {
		feedFailures.Inc()
		fd.close()
		fd = nil
		s.armFailed = true
	}
	res := &Result{}
	res.Stats.FullWalk = true

	// One pass over the catalog serves the whole walk: the per-file
	// fingerprint check and removal detection both read this path-keyed
	// view. A feature's ID is IDForPath of its path (Feature.Validate),
	// so keying by path asks the catalog the same question keying by ID
	// did, without hashing every candidate's path every round.
	var view map[string]statEntry
	if existing != nil {
		view = make(map[string]statEntry, existing.Len())
		existing.ForEach(func(f *catalog.Feature) {
			view[f.Path] = statEntry{id: f.ID, size: f.Bytes, modTime: f.ModTime, scanAt: f.ScannedAt, hash: f.ContentHash}
		})
	}

	p := s.newPool(view)
	var cur []candidate
	flush := func() {
		p.submit(cur)
		cur = nil
	}

	// The walk. seen records every regular file (candidate or not) for
	// de-duplication across overlapping dirs and for deletion detection.
	// Subtrees the walk failed to read are remembered: their files were
	// never observed, so treating them as deleted would retract live
	// datasets over a transient EACCES/EIO — deletion detection skips
	// them instead.
	seen := make(map[string]bool, len(view))
	var walkErrored []string
	suppressRemovals := false
	var walkErr error
	for bi, b := range s.bases {
		err := filepath.WalkDir(b.abs, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				res.Errors = append(res.Errors, fmt.Errorf("scan: walk %s: %w", path, err))
				res.Stats.Failed++
				res.walkFailed = true
				if rel := relUnder(b.abs, b.rel, path); b.relErr == nil && rel != "." {
					walkErrored = append(walkErrored, filepath.ToSlash(rel))
				} else {
					// The archive root itself failed (rel "." prefixes
					// nothing): no removal can be proven this scan.
					suppressRemovals = true
				}
				if d != nil && d.IsDir() {
					return fs.SkipDir
				}
				return nil
			}
			if d.IsDir() {
				flush()
				if fd != nil {
					if path == b.abs {
						fd.bases[bi], _ = d.Info() // WalkDir's own lstat of the base
					}
					if err := fd.watch(path, relUnder(b.abs, b.rel, path)); err != nil {
						unarm()
					}
				}
				return nil
			}
			rel := relUnder(b.abs, b.rel, path)
			if b.relErr != nil || seen[rel] {
				return nil
			}
			seen[rel] = true
			if s.exts[strings.ToLower(filepath.Ext(rel))] {
				cur = append(cur, candidate{abs: path, rel: rel, recheck: !d.Type().IsRegular()})
				if len(cur) == maxBatch {
					flush()
				}
			}
			return nil
		})
		if err != nil {
			walkErr = fmt.Errorf("scan: walk %s: %w", b.abs, err)
			break
		}
	}
	flush()
	p.finish(res)
	if walkErr != nil {
		if fd != nil {
			fd.close()
		}
		return nil, walkErr
	}
	if fd != nil {
		s.feed, s.armFailed = fd, false
	}

	if existing != nil && !suppressRemovals {
		for path, e := range view {
			// Beneath a walk error a file is unreached, not deleted: its
			// absence proves nothing.
			if !seen[path] && pathInScope(path, s.scope) && !pathInScope(path, walkErrored) {
				res.Removed = append(res.Removed, e.id)
			}
		}
	}
	sortResult(res)
	res.Stats.Duration = s.now().Sub(start)
	return res, nil
}

// follow scans through the feed: it examines the paths that had an
// event and the sticky candidates, and counts
// every other candidate as the walk would find it, stat-unchanged and
// trusted. It returns a reason instead of a Result when the scan must
// walk after all: a scanned directory is no longer the one the feed
// watches, the feed asks for a walk, or a path fails to stat in a way
// the walk would have reported.
func (s *Scanner) follow(c *catalog.Working) (*Result, string, error) {
	start := s.now()
	if err := s.checkRoot(); err != nil {
		return nil, "", err
	}
	for i, b := range s.bases {
		statCalls.Add(1)
		st, err := os.Lstat(b.abs)
		if err != nil || s.feed.bases[i] == nil || !os.SameFile(st, s.feed.bases[i]) {
			return nil, walkDirEvent, nil
		}
	}
	paths, reason := s.feed.drain()
	if reason != "" {
		return nil, reason, nil
	}
	for rel := range s.sticky {
		paths[rel] = true
	}

	res := &Result{}
	files := s.files
	view := make(map[string]statEntry)
	var cands []candidate
	for rel := range paths {
		// A path some scanned directory reaches is in the removal scope.
		rank := s.rank(rel)
		if rank < 0 {
			continue // no walk reaches it
		}
		id := catalog.IDForPath(rel)
		size, modTime, scanAt, hash, cataloged := c.StatView(id)
		statCalls.Add(1)
		abs := filepath.Join(s.cfg.Root, rel)
		st, err := os.Lstat(abs)
		if err != nil && !isAbsent(err) {
			return nil, walkWalkError, nil
		}
		present := err == nil && !st.IsDir()
		if s.exts[strings.ToLower(filepath.Ext(rel))] {
			existed := s.sticky[rel] || cataloged
			switch {
			case present && !existed:
				files++
			case !present && existed:
				files--
			}
			if present {
				cd := candidate{abs: abs, rel: rel, rank: rank}
				if st.Mode().IsRegular() {
					cd.info = st
				} else {
					cd.recheck = true
				}
				cands = append(cands, cd)
				if cataloged {
					view[rel] = statEntry{id: id, size: size, modTime: modTime, scanAt: scanAt, hash: hash}
				}
			}
		}
		if !present && cataloged {
			res.Removed = append(res.Removed, id)
		}
	}
	slices.SortFunc(cands, func(a, b candidate) int {
		if a.rank != b.rank {
			return a.rank - b.rank
		}
		return walkCompare(a.rel, b.rel)
	})
	// A few changed files spread over every worker: several small
	// batches each, where the walk's per-directory batches would hand one
	// worker nearly everything.
	p := s.newPool(view)
	size := min(maxBatch, max(1, len(cands)/(4*p.workers)))
	for len(cands) > 0 {
		n := min(len(cands), size)
		p.submit(cands[:n:n])
		cands = cands[n:]
	}
	p.finish(res)
	res.Stats.SkippedUnchanged += files - res.Stats.FilesSeen
	res.Stats.FilesSeen = files
	sortResult(res)
	res.Stats.Duration = s.now().Sub(start)
	return res, "", nil
}

// rank returns the index of the first scanned directory whose walk
// reaches the root-relative path rel, or -1.
func (s *Scanner) rank(rel string) int {
	const sep = string(filepath.Separator)
	for i, b := range s.bases {
		if b.relErr != nil {
			continue
		}
		if b.rel == "." {
			if rel != "." && rel != ".." && !strings.HasPrefix(rel, ".."+sep) {
				return i
			}
		} else if strings.HasPrefix(rel, b.rel+sep) {
			return i
		}
	}
	return -1
}

// walkCompare orders two root-relative paths as one WalkDir visits them:
// directory by directory, each directory's entries by name.
func walkCompare(a, b string) int {
	const sep = filepath.Separator
	for {
		i, j := strings.IndexByte(a, sep), strings.IndexByte(b, sep)
		ea, eb := a, b
		if i >= 0 {
			ea = a[:i]
		}
		if j >= 0 {
			eb = b[:j]
		}
		if c := strings.Compare(ea, eb); c != 0 || i < 0 || j < 0 {
			if c == 0 {
				return cmp.Compare(i, j) // only equal paths get here
			}
			return c
		}
		a, b = a[i+1:], b[j+1:]
	}
}

// relUnder returns the root-relative form of a path that walking base
// produced, baseRel being base's own. WalkDir only ever joins names
// onto base, so the suffix is sliced off instead of re-deriving it with
// filepath.Rel for every file.
func relUnder(base, baseRel, path string) string {
	const sep = string(filepath.Separator)
	var suffix string
	switch {
	case path == base:
		return baseRel
	case base == ".": // filepath.Join(".", name) is name
		suffix = path
	default:
		suffix = strings.TrimPrefix(path[len(base):], sep)
	}
	if baseRel == "." {
		return suffix
	}
	return baseRel + sep + suffix
}

// pathInScope reports whether an archive-relative path lies inside one
// of dirs, clean root-relative directories — deletion detection must not
// retract features that simply live outside the current scan's scope.
func pathInScope(rel string, dirs []string) bool {
	p := filepath.ToSlash(rel)
	for _, dir := range dirs {
		d := filepath.ToSlash(dir)
		if d == "." || d == "" || p == d || strings.HasPrefix(p, d+"/") {
			return true
		}
	}
	return false
}

// fileOutcome is one candidate's scan result.
type fileOutcome struct {
	feature  *catalog.Feature
	existed  bool // the catalog already had this path (feature != nil → changed)
	verified bool // unchanged, confirmed by content hash
	oversize bool
	err      error
	// recheck: the next scan cannot trust this file's stat and must
	// examine it again (see Scanner.sticky).
	recheck bool
}

// scanBatch fills b.outs, one scanOne per candidate.
func (s *Scanner) scanBatch(b *batch, view map[string]statEntry) {
	stats := 0
	for i, c := range b.cands {
		if c.info == nil {
			stats++
		}
		b.outs[i] = s.scanOne(c, view)
	}
	statCalls.Add(uint64(stats))
}

// scanOne stats (and, when needed, reads) a single candidate file. The
// decision ladder is cheap-first: a stat mismatch or unknown file
// parses immediately; a stat match outside the racy window is trusted;
// a stat match inside it is read and the content hash arbitrates — the
// path that catches edits preserving both size and mtime.
func (s *Scanner) scanOne(c candidate, view map[string]statEntry) fileOutcome {
	abs, rel := c.abs, c.rel
	st := c.info
	if st == nil {
		var err error
		if st, err = os.Stat(abs); err != nil {
			return fileOutcome{err: fmt.Errorf("scan: stat %s: %w", rel, err), recheck: true}
		}
	}
	if s.cfg.MaxFileBytes > 0 && st.Size() > s.cfg.MaxFileBytes {
		return fileOutcome{oversize: true, recheck: true}
	}
	// racy reports whether a fingerprint of this file stamped at t falls
	// inside the racy window, so that the next scan must read it.
	racy := func(t time.Time) bool { return !st.ModTime().Add(racyWindow).Before(t) }
	var data []byte
	var err error
	e, existed := view[rel]
	if existed && e.size == st.Size() && e.modTime.Equal(st.ModTime()) && e.hash != "" {
		if e.modTime.Add(racyWindow).Before(e.scanAt) {
			return fileOutcome{} // fingerprint trusted: unchanged
		}
		data, err = os.ReadFile(abs)
		if err != nil {
			return fileOutcome{err: fmt.Errorf("scan: read %s: %w", rel, err), recheck: true}
		}
		if contentHash(data) == e.hash {
			// ScanInto stamps it no earlier than now.
			return fileOutcome{verified: true, recheck: racy(s.now())}
		}
		// Content moved behind a stable stat: fall through to a
		// re-parse of the bytes already in hand.
	}
	if data == nil {
		data, err = os.ReadFile(abs)
		if err != nil {
			return fileOutcome{err: fmt.Errorf("scan: read %s: %w", rel, err), recheck: true}
		}
	}
	f, err := s.parseData(rel, data)
	if err != nil {
		return fileOutcome{err: err, existed: existed, recheck: true}
	}
	f.Bytes = st.Size()
	f.ModTime = st.ModTime()
	f.ScannedAt = s.now()
	return fileOutcome{feature: f, existed: existed, recheck: racy(f.ScannedAt)}
}

// parseData sniffs and parses one file's bytes into a feature.
func (s *Scanner) parseData(rel string, data []byte) (*catalog.Feature, error) {
	return ParseBytes(rel, data)
}

// ParseBytes sniffs and parses one dataset's raw bytes into a catalog
// feature, exactly as the walker would for a file at the archive-relative
// path rel. It is the shared parse core every connector — walker, tar,
// HTTP — and every push producer goes through, so the three ingest paths
// summarize identical bytes into identical features. The caller owns the
// scan bookkeeping (Bytes, ModTime, ScannedAt).
func ParseBytes(rel string, data []byte) (*catalog.Feature, error) {
	format, ok := Sniff(rel, data)
	if !ok {
		return nil, fmt.Errorf("scan: %s: unrecognized format", rel)
	}
	var f *catalog.Feature
	var err error
	switch format {
	case archive.FormatCSV:
		f, err = parseCSV(rel, data)
	case archive.FormatOBS:
		f, err = parseOBS(rel, data)
	case archive.FormatJSONL:
		f, err = parseJSONL(rel, data)
	default:
		err = fmt.Errorf("scan: %s: no parser for format %q", rel, format)
	}
	if err != nil {
		return nil, err
	}
	f.ID = catalog.IDForPath(rel)
	f.Path = rel
	f.Format = string(format)
	f.Source = sourceOf(rel)
	f.ContentHash = contentHash(data)
	return f, nil
}

// contentHash fingerprints raw file bytes (truncated sha256, hex).
func contentHash(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// sourceOf derives the source collection from the path's first element —
// the archive's directory naming convention.
func sourceOf(rel string) string {
	rel = filepath.ToSlash(rel)
	if i := strings.IndexByte(rel, '/'); i > 0 {
		return rel[:i]
	}
	return "unknown"
}

// Sniff detects a file's format from its name and content head. The
// extension is a hint; content wins when they disagree.
func Sniff(path string, head []byte) (archive.Format, bool) {
	text := string(head[:min(len(head), 512)])
	trimmed := strings.TrimLeft(text, " \t\r\n")
	switch {
	case strings.HasPrefix(trimmed, "{"):
		return archive.FormatJSONL, true
	case strings.HasPrefix(trimmed, "#"):
		return archive.FormatOBS, true
	}
	// CSV: a header line containing commas, starting with a letter.
	if i := strings.IndexByte(trimmed, '\n'); i > 0 {
		first := trimmed[:i]
		if strings.Contains(first, ",") {
			return archive.FormatCSV, true
		}
	} else if strings.Contains(trimmed, ",") {
		return archive.FormatCSV, true
	}
	// Fall back to the extension.
	switch strings.ToLower(filepath.Ext(path)) {
	case ".csv":
		return archive.FormatCSV, true
	case ".obs":
		return archive.FormatOBS, true
	case ".jsonl":
		return archive.FormatJSONL, true
	}
	return "", false
}
