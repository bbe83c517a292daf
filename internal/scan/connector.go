package scan

import (
	"archive/tar"
	"archive/zip"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"path"
	"sort"
	"strings"
	"time"

	"metamess/internal/catalog"
)

// Connector is one ingest source for the wrangling chain's scan step.
// The filesystem walker (*Scanner) is the original implementation; the
// streaming archive and HTTP connectors below make it one source among
// several. Every implementation produces the same Result shape — parsed
// features plus an added/changed/removed classification against the
// existing catalog — so the chain downstream (transforms, validation,
// publish, journal, replication) is connector-agnostic.
type Connector interface {
	// Name identifies the connector in reports and logs.
	Name() string
	// ScanInto ingests the source incrementally against c: unchanged
	// datasets (by content hash) are skipped, parsed features are
	// upserted, and datasets that vanished from the source are deleted.
	ScanInto(c *catalog.Working) (*Result, error)
}

// DefaultMaxEntryBytes bounds a single streamed entry when a connector's
// MaxFileBytes is unset. Streaming connectors must hold at most one
// entry in memory at a time, and never an unbounded one.
const DefaultMaxEntryBytes = 8 << 20

// ingester accumulates the streaming connectors' shared classification
// state: each entry is parsed (or hash-skipped) as it streams past, and
// finish computes removals against the existing catalog — the same
// added/changed/removed contract the walker produces.
type ingester struct {
	existing *catalog.Working
	max      int64
	exts     map[string]bool
	now      time.Time
	res      *Result
	seen     map[string]bool
}

func newIngester(existing *catalog.Working, maxBytes int64, extensions []string) *ingester {
	exts := extensions
	if len(exts) == 0 {
		exts = []string{".csv", ".obs", ".jsonl"}
	}
	set := make(map[string]bool, len(exts))
	for _, e := range exts {
		set[strings.ToLower(e)] = true
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxEntryBytes
	}
	return &ingester{
		existing: existing,
		max:      maxBytes,
		exts:     set,
		now:      time.Now(),
		res:      &Result{},
		seen:     make(map[string]bool),
	}
}

// cleanEntryPath normalizes a streamed entry name to an archive-relative
// slash path, rejecting absolute paths and parent-directory escapes
// (zip-slip style names must not alias other entries' identities).
func cleanEntryPath(name string) (string, bool) {
	p := path.Clean(strings.ReplaceAll(name, "\\", "/"))
	if p == "." || p == "" || strings.HasPrefix(p, "/") || p == ".." || strings.HasPrefix(p, "../") {
		return "", false
	}
	return p, true
}

// entry ingests one streamed object. r yields the entry's bytes; at most
// max+1 bytes are read from it, so memory stays bounded no matter what
// the stream header claimed. Returns any read error (a truncated
// transfer aborts the scan — a half-read source must not be mistaken
// for one with files removed).
func (in *ingester) entry(name string, size int64, mod time.Time, r io.Reader) error {
	rel, ok := cleanEntryPath(name)
	if !ok || in.seen[rel] {
		return nil
	}
	// Every well-formed entry marks presence — including formats we do
	// not parse — exactly like the walker's seen map, so removal
	// detection never retracts a dataset whose bytes were in the stream.
	in.seen[rel] = true
	if !in.exts[strings.ToLower(path.Ext(rel))] {
		return nil
	}
	in.res.Stats.FilesSeen++
	if size > in.max {
		in.res.Stats.SkippedOther++
		return nil
	}
	data, err := io.ReadAll(io.LimitReader(r, in.max+1))
	if err != nil {
		return fmt.Errorf("scan: read %s: %w", rel, err)
	}
	if int64(len(data)) > in.max {
		in.res.Stats.SkippedOther++
		return nil
	}
	hash := contentHash(data)
	existed := false
	if in.existing != nil {
		_, _, _, storedHash, ok := in.existing.StatView(catalog.IDForPath(rel))
		existed = ok
		if ok && storedHash == hash {
			// Same bytes as the cataloged feature: the summary cannot
			// have changed. Streaming sources have no trustworthy stat
			// fingerprint, so the content hash is the unchanged check.
			in.res.Stats.SkippedUnchanged++
			in.res.Stats.HashVerified++
			return nil
		}
	}
	f, err := ParseBytes(rel, data)
	if err != nil {
		in.res.Errors = append(in.res.Errors, err)
		in.res.Stats.Failed++
		return nil
	}
	f.Bytes = int64(len(data))
	f.ModTime = mod
	f.ScannedAt = in.now
	in.res.Features = append(in.res.Features, f)
	in.res.Stats.Parsed++
	in.res.Stats.BytesParsed += f.Bytes
	if existed {
		in.res.Changed = append(in.res.Changed, f.ID)
	} else {
		in.res.Added = append(in.res.Added, f.ID)
	}
	return nil
}

// finish runs removal detection (a cataloged dataset absent from the
// stream vanished from the source) and sorts the result like the walker.
func (in *ingester) finish() *Result {
	if in.existing != nil {
		in.existing.ForEach(func(f *catalog.Feature) {
			if !in.seen[f.Path] {
				in.res.Removed = append(in.res.Removed, f.ID)
			}
		})
		in.res.Stats.Removed = len(in.res.Removed)
	}
	sort.Slice(in.res.Features, func(i, j int) bool { return in.res.Features[i].ID < in.res.Features[j].ID })
	sort.Strings(in.res.Added)
	sort.Strings(in.res.Changed)
	sort.Strings(in.res.Removed)
	return in.res
}

// applyResult upserts the parsed features and deletes the removed IDs —
// the connector half of Scanner.ScanInto's contract.
func applyResult(c *catalog.Working, res *Result) {
	rejected := map[string]bool{}
	for _, f := range res.Features {
		if err := c.Upsert(f); err != nil {
			res.Errors = append(res.Errors, err)
			res.Stats.Failed++
			rejected[f.ID] = true
		}
	}
	if len(rejected) > 0 {
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
}

// --- tar ---------------------------------------------------------------

// TarConnector ingests a tar stream (optionally gzip-compressed,
// detected by magic bytes) as the archive: entry names are the
// archive-relative dataset paths. Entries are parsed one at a time as
// they stream past — memory is bounded by MaxFileBytes regardless of
// archive size, and the archive is never buffered whole.
type TarConnector struct {
	// Open returns the stream; called once per ScanInto.
	Open func() (io.ReadCloser, error)
	// MaxFileBytes bounds one entry (0 = DefaultMaxEntryBytes); larger
	// entries are skipped without buffering.
	MaxFileBytes int64
	// Extensions whitelists entry extensions (empty = the known formats).
	Extensions []string
}

// Name implements Connector.
func (t *TarConnector) Name() string { return "tar" }

// ScanInto implements Connector.
func (t *TarConnector) ScanInto(c *catalog.Working) (*Result, error) {
	start := time.Now()
	if t.Open == nil {
		return nil, fmt.Errorf("scan: tar connector needs an Open function")
	}
	rc, err := t.Open()
	if err != nil {
		return nil, fmt.Errorf("scan: tar open: %w", err)
	}
	defer rc.Close()
	var src io.Reader
	// Transparent gzip: sniff the two magic bytes without consuming them.
	br := newPeekReader(rc)
	if head, _ := br.Peek(2); len(head) == 2 && head[0] == 0x1f && head[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("scan: tar gzip: %w", err)
		}
		defer gz.Close()
		src = gz
	} else {
		src = br
	}

	in := newIngester(c, t.MaxFileBytes, t.Extensions)
	tr := tar.NewReader(src)
	for {
		hdr, err := tr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("scan: tar stream: %w", err)
		}
		if hdr.Typeflag != tar.TypeReg {
			continue
		}
		if err := in.entry(hdr.Name, hdr.Size, hdr.ModTime, tr); err != nil {
			return nil, err
		}
	}
	res := in.finish()
	applyResult(c, res)
	res.Stats.Duration = time.Since(start)
	return res, nil
}

// --- zip ---------------------------------------------------------------

// ZipConnector ingests a zip archive. The zip central directory needs
// random access, so the source is an io.ReaderAt (a file or an
// in-memory image); each entry's bytes still stream through the shared
// bounded-entry parse path, never the whole archive at once.
type ZipConnector struct {
	// ReaderAt and Size locate the zip image.
	ReaderAt io.ReaderAt
	Size     int64
	// MaxFileBytes bounds one entry (0 = DefaultMaxEntryBytes).
	MaxFileBytes int64
	// Extensions whitelists entry extensions (empty = the known formats).
	Extensions []string
}

// Name implements Connector.
func (z *ZipConnector) Name() string { return "zip" }

// ScanInto implements Connector.
func (z *ZipConnector) ScanInto(c *catalog.Working) (*Result, error) {
	start := time.Now()
	if z.ReaderAt == nil {
		return nil, fmt.Errorf("scan: zip connector needs a ReaderAt")
	}
	zr, err := zip.NewReader(z.ReaderAt, z.Size)
	if err != nil {
		return nil, fmt.Errorf("scan: zip open: %w", err)
	}
	in := newIngester(c, z.MaxFileBytes, z.Extensions)
	for _, zf := range zr.File {
		if zf.FileInfo().IsDir() {
			continue
		}
		// Oversize entries are skipped by declared size before any read;
		// the ingester re-checks the actual bytes read.
		rc, err := zf.Open()
		if err != nil {
			in.res.Errors = append(in.res.Errors, fmt.Errorf("scan: zip entry %s: %w", zf.Name, err))
			in.res.Stats.Failed++
			continue
		}
		err = in.entry(zf.Name, int64(zf.UncompressedSize64), zf.Modified, rc)
		rc.Close()
		if err != nil {
			in.res.Errors = append(in.res.Errors, err)
			in.res.Stats.Failed++
		}
	}
	res := in.finish()
	applyResult(c, res)
	res.Stats.Duration = time.Since(start)
	return res, nil
}

// --- http --------------------------------------------------------------

// HTTPObject is one entry of an HTTP connector listing.
type HTTPObject struct {
	// Path is the archive-relative dataset path.
	Path string `json:"path"`
	// URL fetches the object's bytes; relative URLs resolve against the
	// listing URL.
	URL string `json:"url,omitempty"`
	// Size and ModTime are optional object metadata.
	Size    int64     `json:"size,omitempty"`
	ModTime time.Time `json:"modTime,omitzero"`
	// ContentHash, when the producer supplies it, lets the connector
	// skip fetching an unchanged object entirely (it must equal the
	// catalog's truncated-sha256 content hash).
	ContentHash string `json:"contentHash,omitempty"`
}

// HTTPListing is the JSON body an HTTP connector listing endpoint
// returns.
type HTTPListing struct {
	Objects []HTTPObject `json:"objects"`
}

// HTTPConnector ingests an object store over HTTP: one GET against
// ListURL returns an HTTPListing, then each new or changed object is
// fetched and streamed through the shared bounded parse path. A listing
// that advertises content hashes turns the unchanged check into zero
// object fetches — the push-era analogue of the walker's stat skip.
type HTTPConnector struct {
	// ListURL is the listing endpoint.
	ListURL string
	// Client defaults to http.DefaultClient.
	Client *http.Client
	// MaxFileBytes bounds one object (0 = DefaultMaxEntryBytes).
	MaxFileBytes int64
	// Extensions whitelists object extensions (empty = the known formats).
	Extensions []string
}

// Name implements Connector.
func (h *HTTPConnector) Name() string { return "http" }

// ScanInto implements Connector.
func (h *HTTPConnector) ScanInto(c *catalog.Working) (*Result, error) {
	start := time.Now()
	if h.ListURL == "" {
		return nil, fmt.Errorf("scan: http connector needs a ListURL")
	}
	client := h.Client
	if client == nil {
		client = http.DefaultClient
	}
	base, err := url.Parse(h.ListURL)
	if err != nil {
		return nil, fmt.Errorf("scan: http listing url: %w", err)
	}
	listing, err := fetchListing(client, h.ListURL)
	if err != nil {
		return nil, err
	}
	in := newIngester(c, h.MaxFileBytes, h.Extensions)
	for _, obj := range listing.Objects {
		rel, ok := cleanEntryPath(obj.Path)
		if !ok || in.seen[rel] {
			continue
		}
		// An object the parsers would never accept is not worth a fetch;
		// presence still counts so it is never mistaken for a removal.
		if !in.exts[strings.ToLower(path.Ext(rel))] {
			in.seen[rel] = true
			continue
		}
		// A hash-advertising listing resolves the unchanged check before
		// any fetch; mark presence so the object is not retracted.
		if obj.ContentHash != "" && c != nil {
			if _, _, _, storedHash, ok := c.StatView(catalog.IDForPath(rel)); ok && storedHash == obj.ContentHash {
				in.seen[rel] = true
				in.res.Stats.FilesSeen++
				in.res.Stats.SkippedUnchanged++
				in.res.Stats.HashVerified++
				continue
			}
		}
		objURL := obj.URL
		if objURL == "" {
			objURL = rel
		}
		ref, err := url.Parse(objURL)
		if err != nil {
			in.res.Errors = append(in.res.Errors, fmt.Errorf("scan: http object %s: %w", rel, err))
			in.res.Stats.Failed++
			in.seen[rel] = true
			continue
		}
		resp, err := client.Get(base.ResolveReference(ref).String())
		if err != nil {
			return nil, fmt.Errorf("scan: http fetch %s: %w", rel, err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			in.res.Errors = append(in.res.Errors, fmt.Errorf("scan: http fetch %s: status %d", rel, resp.StatusCode))
			in.res.Stats.Failed++
			in.seen[rel] = true
			continue
		}
		err = in.entry(rel, obj.Size, obj.ModTime, resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	res := in.finish()
	applyResult(c, res)
	res.Stats.Duration = time.Since(start)
	return res, nil
}

// fetchListing GETs and decodes the object listing.
func fetchListing(client *http.Client, listURL string) (*HTTPListing, error) {
	resp, err := client.Get(listURL)
	if err != nil {
		return nil, fmt.Errorf("scan: http listing: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scan: http listing: status %d", resp.StatusCode)
	}
	var listing HTTPListing
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&listing); err != nil {
		return nil, fmt.Errorf("scan: http listing decode: %w", err)
	}
	return &listing, nil
}

// peekReader is the minimal buffered reader the tar connector needs to
// sniff gzip magic without dragging bufio's full buffer size into the
// bounded-memory accounting.
type peekReader struct {
	r    io.Reader
	head []byte
}

func newPeekReader(r io.Reader) *peekReader { return &peekReader{r: r} }

// Peek returns up to n leading bytes without consuming them.
func (p *peekReader) Peek(n int) ([]byte, error) {
	for len(p.head) < n {
		buf := make([]byte, n-len(p.head))
		m, err := p.r.Read(buf)
		p.head = append(p.head, buf[:m]...)
		if err != nil {
			return p.head, err
		}
	}
	return p.head[:n], nil
}

func (p *peekReader) Read(b []byte) (int, error) {
	if len(p.head) > 0 {
		n := copy(b, p.head)
		p.head = p.head[n:]
		return n, nil
	}
	return p.r.Read(b)
}
