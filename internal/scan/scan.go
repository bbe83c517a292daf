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
// archive uses the hardware and a warm scan costs stat calls.
package scan

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
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
	// Duration is the wall-clock scan time.
	Duration time.Duration
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
}

// Scanner scans archives per its config.
type Scanner struct {
	cfg  Config
	exts map[string]bool
	// now is stubbed in tests.
	now func() time.Time
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
	return &Scanner{cfg: cfg, exts: set, now: time.Now}
}

// Name implements Connector: the walker is the original, filesystem
// ingest source.
func (s *Scanner) Name() string { return "walker" }

// ScanAll walks the configured directories and parses every candidate
// file ("scan once").
func (s *Scanner) ScanAll() (*Result, error) {
	return s.scan(nil)
}

// ScanInto scans incrementally against an existing catalog: files whose
// stat fingerprint (or, when that is racy, content hash) matches the
// stored feature are skipped, parsed features are upserted into c, and
// features whose files vanished are deleted. This is the poster's
// "running & rerunning process" made cheap — the work tracks archive
// churn, not archive size.
func (s *Scanner) ScanInto(c *catalog.Working) (*Result, error) {
	res, err := s.scan(c)
	if err != nil {
		return nil, err
	}
	rejected := map[string]bool{}
	for _, f := range res.Features {
		if err := c.Upsert(f); err != nil {
			res.Errors = append(res.Errors, err)
			res.Stats.Failed++
			rejected[f.ID] = true
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
	return res, nil
}

// candidate is one file the walk selected for scanning.
type candidate struct {
	abs, rel string
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

func (s *Scanner) scan(existing *catalog.Working) (*Result, error) {
	start := s.now()
	if s.cfg.Root == "" {
		return nil, fmt.Errorf("scan: config needs a root directory")
	}
	statCalls.Add(1)
	if st, err := os.Stat(s.cfg.Root); err != nil {
		return nil, fmt.Errorf("scan: root: %w", err)
	} else if !st.IsDir() {
		return nil, fmt.Errorf("scan: root %q is not a directory", s.cfg.Root)
	}
	dirs := s.cfg.Dirs
	if len(dirs) == 0 {
		dirs = []string{"."}
	}
	res := &Result{}

	// One pass over the catalog serves the whole scan: the per-file
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

	// Workers stat and parse batches while the walk is still producing
	// them. Each batch is written by exactly one worker and read only
	// after all of them are done, so aggregation needs no locks.
	workers := s.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		batches []*batch
		work    chan *batch
		wg      sync.WaitGroup
	)
	if workers > 1 {
		// A couple of batches of slack per worker, so a worker finishing
		// one never waits on the walk for the next.
		work = make(chan *batch, 2*workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for b := range work {
					s.scanBatch(b, view)
				}
			}()
		}
	}
	cur := &batch{}
	flush := func() {
		if len(cur.cands) == 0 {
			return
		}
		cur.outs = make([]fileOutcome, len(cur.cands))
		batches = append(batches, cur)
		if work != nil {
			work <- cur
		} else {
			s.scanBatch(cur, view)
		}
		cur = &batch{}
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
	for _, dir := range dirs {
		base := filepath.Join(s.cfg.Root, dir)
		baseRel, relErr := filepath.Rel(s.cfg.Root, base)
		baseRel = filepath.Clean(baseRel) // Rel("arch", ".") is "../."
		err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				res.Errors = append(res.Errors, fmt.Errorf("scan: walk %s: %w", path, err))
				res.Stats.Failed++
				if rel := relUnder(base, baseRel, path); relErr == nil && rel != "." {
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
				return nil
			}
			rel := relUnder(base, baseRel, path)
			if relErr != nil || seen[rel] {
				return nil
			}
			seen[rel] = true
			if s.exts[strings.ToLower(filepath.Ext(rel))] {
				cur.cands = append(cur.cands, candidate{abs: path, rel: rel})
				if len(cur.cands) == maxBatch {
					flush()
				}
			}
			return nil
		})
		if err != nil {
			walkErr = fmt.Errorf("scan: walk %s: %w", base, err)
			break
		}
	}
	flush()
	if work != nil {
		close(work)
		wg.Wait()
	}
	if walkErr != nil {
		return nil, walkErr
	}

	// Aggregate in walk order, then detect deletions.
	for _, b := range batches {
		res.Stats.FilesSeen += len(b.cands)
		for i, out := range b.outs {
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
					res.verified = append(res.verified, view[b.cands[i].rel].id)
				}
			}
		}
	}
	if existing != nil && !suppressRemovals {
		for path, e := range view {
			// Beneath a walk error a file is unreached, not deleted: its
			// absence proves nothing.
			if !seen[path] && pathInScope(path, dirs) && !pathInScope(path, walkErrored) {
				res.Removed = append(res.Removed, e.id)
			}
		}
		res.Stats.Removed = len(res.Removed)
	}

	sort.Slice(res.Features, func(i, j int) bool { return res.Features[i].ID < res.Features[j].ID })
	sort.Strings(res.Added)
	sort.Strings(res.Changed)
	sort.Strings(res.Removed)
	sort.Strings(res.verified)
	res.Stats.Duration = s.now().Sub(start)
	return res, nil
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
// of the scanned directories — deletion detection must not retract
// features that simply live outside the current scan's scope.
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
}

// scanBatch fills b.outs, one scanOne per candidate.
func (s *Scanner) scanBatch(b *batch, view map[string]statEntry) {
	statCalls.Add(uint64(len(b.cands)))
	for i, c := range b.cands {
		b.outs[i] = s.scanOne(c.abs, c.rel, view)
	}
}

// scanOne stats (and, when needed, reads) a single candidate file. The
// decision ladder is cheap-first: a stat mismatch or unknown file
// parses immediately; a stat match outside the racy window is trusted;
// a stat match inside it is read and the content hash arbitrates — the
// path that catches edits preserving both size and mtime.
func (s *Scanner) scanOne(abs, rel string, view map[string]statEntry) fileOutcome {
	st, err := os.Stat(abs)
	if err != nil {
		return fileOutcome{err: fmt.Errorf("scan: stat %s: %w", rel, err)}
	}
	if s.cfg.MaxFileBytes > 0 && st.Size() > s.cfg.MaxFileBytes {
		return fileOutcome{oversize: true}
	}
	var data []byte
	e, existed := view[rel]
	if existed && e.size == st.Size() && e.modTime.Equal(st.ModTime()) && e.hash != "" {
		if e.modTime.Add(racyWindow).Before(e.scanAt) {
			return fileOutcome{} // fingerprint trusted: unchanged
		}
		data, err = os.ReadFile(abs)
		if err != nil {
			return fileOutcome{err: fmt.Errorf("scan: read %s: %w", rel, err)}
		}
		if contentHash(data) == e.hash {
			return fileOutcome{verified: true}
		}
		// Content moved behind a stable stat: fall through to a
		// re-parse of the bytes already in hand.
	}
	if data == nil {
		data, err = os.ReadFile(abs)
		if err != nil {
			return fileOutcome{err: fmt.Errorf("scan: read %s: %w", rel, err)}
		}
	}
	f, err := s.parseData(rel, data)
	if err != nil {
		return fileOutcome{err: err, existed: existed}
	}
	f.Bytes = st.Size()
	f.ModTime = st.ModTime()
	f.ScannedAt = s.now()
	return fileOutcome{feature: f, existed: existed}
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
