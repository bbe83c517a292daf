package catalog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// The catalog has one on-disk record format, and this file owns it. Every
// record is one checksummed JSON line:
//
//	<crc32-hex8> <json-payload>\n
//
// and there are three kinds of record:
//
//	meta   the generation stamp and knowledge sidecar; the first line
//	       of a checkpoint
//	put    one feature; every other line of a checkpoint
//	delta  one publish (changed features, removed IDs, generation stamp,
//	       sidecar); every line of a journal and every /journal/tail frame
//
// Checkpoints — the Store's compactions and Save's exports — are written
// to a temp file, fsynced and renamed into place, so a bad line anywhere
// in one is corruption. Journals are appended in place, so a bad final
// line is the torn residue of a crash mid-append and is dropped, while a
// bad line with another after it is corruption. One reader, readRecords,
// applies both rules.
//
// The payload is encoding/json's encoding of logRecord; that is its
// definition. The record kernel in codec.go writes and reads the same
// bytes without reflection, and hands anything else to encoding/json.

// MaxStreamLine bounds one record line read from a stream of unknown
// length: a follower's checkpoint download, and the one record a tail
// response may carry past its byte budget. Files need no such bound: no
// line in a file can be longer than the file.
const MaxStreamLine = 1 << 26

// logRecord is the payload of one record line. Meta records carry Gen and
// Sidecar, put records carry Feature, delta records carry the rest.
type logRecord struct {
	Op      string   `json:"op"`
	Feature *Feature `json:"feature,omitempty"`
	// Gen stamps delta and meta records with the publish generation the
	// record produced (delta) or covers (meta).
	Gen uint64 `json:"gen,omitempty"`
	// Changed and Removed are a delta record's payload: the features the
	// publish upserted and the IDs it retracted.
	Changed []*Feature `json:"changed,omitempty"`
	Removed []string   `json:"removed,omitempty"`
	// Sidecar is the opaque knowledge state (discovered rules, curator
	// decisions, curated synonyms) serialized by the wrangling layer when
	// it moved; the catalog keeps the last one without interpreting it.
	Sidecar json.RawMessage `json:"sidecar,omitempty"`
}

// encodeRecord appends rec to dst as one checksummed line. The payload
// is the kernel's (codec.go) or, when it declines, json.Marshal's.
func encodeRecord(dst []byte, rec logRecord) ([]byte, error) {
	start := len(dst)
	dst = append(dst, "00000000 "...)
	line, ok := appendPayload(dst, &rec)
	if !ok {
		payload, err := json.Marshal(rec)
		if err != nil {
			return dst[:start], fmt.Errorf("catalog: encode log record: %w", err)
		}
		line = append(dst, payload...)
	}
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.ChecksumIEEE(line[start+9:]))
	hex.Encode(line[start:start+8], sum[:])
	return append(line, '\n'), nil
}

// decodeLine verifies one line's checksum — exactly eight hex digits —
// and decodes its record with the kernel or, when it declines,
// json.Unmarshal.
func decodeLine(line []byte) (logRecord, error) {
	var rec logRecord
	if bytes.IndexByte(line, ' ') != 8 {
		return rec, fmt.Errorf("malformed record header")
	}
	var sum [4]byte
	if _, err := hex.Decode(sum[:], line[:8]); err != nil {
		return rec, fmt.Errorf("bad checksum field %q", line[:8])
	}
	payload := line[9:]
	if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(sum[:]); got != want {
		return rec, fmt.Errorf("checksum mismatch: %08x != %08x", got, want)
	}
	if parsePayload(payload, &rec) {
		return rec, nil
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, fmt.Errorf("bad payload: %w", err)
	}
	return rec, nil
}

// errStopRead, returned by a readRecords callback, ends the read early
// without error.
var errStopRead = errors.New("catalog: stop reading records")

// readRecords is the one record reader behind checkpoint load, journal
// replay and the journal tail. It decodes the lines of r in order and
// calls fn with each raw line (without its newline, valid only during the
// call) and its record; an error from fn ends the read. A line that does
// not decode is fatal in a checkpoint; in a journal (tornTail) it is fatal
// only if another line follows. maxLine bounds one line.
func readRecords(r io.Reader, maxLine int, tornTail bool, fn func(line []byte, rec logRecord) error) error {
	what := "checkpoint"
	if tornTail {
		what = "journal"
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, min(maxLine, 1<<20)), maxLine)
	lineNo := 0
	var pendingErr error
	for sc.Scan() {
		lineNo++
		if pendingErr != nil {
			// A bad line followed by more lines means mid-file corruption.
			return pendingErr
		}
		rec, err := decodeLine(sc.Bytes())
		if err != nil {
			err = fmt.Errorf("catalog: %s line %d: %w", what, lineNo, err)
			if !tornTail {
				return err
			}
			// Only fatal if another line follows (torn-tail tolerance).
			pendingErr = err
			continue
		}
		if err := fn(sc.Bytes(), rec); err == errStopRead {
			return nil
		} else if err != nil {
			return fmt.Errorf("catalog: %s line %d: %w", what, lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("catalog: read %s: %w", what, err)
	}
	return nil
}

// readRecordFile is readRecords over the file at path; a missing file
// holds no records. It reads the bytes present when it opens the file (a
// record appended meanwhile is the next reader's) and bounds a line by
// their count, so any record a writer appended can be read back.
func readRecordFile(path string, tornTail bool, fn func(line []byte, rec logRecord) error) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("catalog: open %s: %w", filepath.Base(path), err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("catalog: stat %s: %w", filepath.Base(path), err)
	}
	return readRecords(io.LimitReader(f, st.Size()), int(st.Size())+1, tornTail, fn)
}

// deltaOf checks that a decoded record is a well-formed publish delta —
// op "delta", no null feature, every feature valid, no ID changed twice
// — and returns it. It is the one check journal replay and follower
// frame decoding share.
func deltaOf(rec logRecord) (DeltaRecord, error) {
	if rec.Op != "delta" {
		return DeltaRecord{}, fmt.Errorf("unexpected op %q", rec.Op)
	}
	seen := make(map[string]bool, len(rec.Changed))
	for _, feat := range rec.Changed {
		if feat == nil {
			return DeltaRecord{}, fmt.Errorf("null feature")
		}
		if err := feat.Validate(); err != nil {
			return DeltaRecord{}, err
		}
		if seen[feat.ID] {
			return DeltaRecord{}, fmt.Errorf("feature %s changed twice", feat.ID)
		}
		seen[feat.ID] = true
	}
	return DeltaRecord{Gen: rec.Gen, Changed: rec.Changed, Removed: rec.Removed, Sidecar: rec.Sidecar}, nil
}

// DecodeDeltaFrame decodes one tailed journal line (without its
// trailing newline) into the delta record it carries, verifying the
// checksum and validating every feature exactly as journal replay does.
func DecodeDeltaFrame(line string) (DeltaRecord, error) {
	rec, err := decodeLine([]byte(line))
	if err != nil {
		return DeltaRecord{}, fmt.Errorf("catalog: tail frame: %w", err)
	}
	d, err := deltaOf(rec)
	if err != nil {
		return DeltaRecord{}, fmt.Errorf("catalog: tail frame: %w", err)
	}
	return d, nil
}

// writeCheckpoint writes a checkpoint file: a meta record stamping the
// generation and sidecar, then one put record per feature. The file is
// fsynced before the function returns; callers rename it into place.
func writeCheckpoint(path string, feats []*Feature, gen uint64, sidecar json.RawMessage) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("catalog: checkpoint create: %w", err)
	}
	w := bufio.NewWriter(f)
	var line []byte
	write := func(rec logRecord) error {
		var err error
		if line, err = encodeRecord(line[:0], rec); err != nil {
			return err
		}
		if _, err := w.Write(line); err != nil {
			return fmt.Errorf("catalog: checkpoint write: %w", err)
		}
		return nil
	}
	if err := write(logRecord{Op: "meta", Gen: gen, Sidecar: sidecar}); err != nil {
		f.Close()
		return err
	}
	for _, feat := range feats {
		if err := write(logRecord{Op: "put", Feature: feat}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("catalog: checkpoint flush: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("catalog: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("catalog: checkpoint close: %w", err)
	}
	return nil
}

// checkpointLoad is one checkpoint read in progress: each put record,
// validated, goes into feats (a later put of an ID replaces an earlier
// one) and the meta header into gen and sidecar. A file without a meta
// header (put-only, as Save wrote before checkpoints had one) loads at
// generation 0.
type checkpointLoad struct {
	feats   map[string]*Feature
	lines   int
	gen     uint64
	sidecar json.RawMessage
}

func (ck *checkpointLoad) add(_ []byte, rec logRecord) error {
	ck.lines++
	switch rec.Op {
	case "meta":
		if ck.lines != 1 {
			return fmt.Errorf("meta record not first")
		}
		ck.gen, ck.sidecar = rec.Gen, rec.Sidecar
	case "put":
		if rec.Feature == nil {
			return fmt.Errorf("put without feature")
		}
		if err := rec.Feature.Validate(); err != nil {
			return err
		}
		ck.feats[rec.Feature.ID] = rec.Feature
	default:
		return fmt.Errorf("unexpected op %q", rec.Op)
	}
	return nil
}

// loadCheckpoint reads the checkpoint at path. A missing file is an
// empty store.
func loadCheckpoint(path string) (*checkpointLoad, error) {
	ck := &checkpointLoad{feats: make(map[string]*Feature)}
	if err := readRecordFile(path, false, ck.add); err != nil {
		return nil, err
	}
	return ck, nil
}

// LoadCheckpointFrom loads the checkpoint read from r into the given
// empty catalog and returns its generation stamp and sidecar — the
// follower bootstrap path, where the checkpoint arrives over HTTP
// instead of from disk. On error the catalog is unchanged.
func LoadCheckpointFrom(r io.Reader, into *Catalog) (uint64, json.RawMessage, error) {
	ck := &checkpointLoad{feats: make(map[string]*Feature)}
	if err := readRecords(r, MaxStreamLine, false, ck.add); err != nil {
		return 0, nil, err
	}
	into.load(ck.feats, ck.gen)
	return ck.gen, ck.sidecar, nil
}

// Save exports the catalog as a checkpoint file at path, stamped with the
// catalog's generation and no sidecar. The file is written beside path,
// fsynced and renamed into place, so a crash leaves the old file or the
// new one, never a mix.
func Save(path string, c *Catalog) error {
	snap := c.Snapshot()
	tmp := path + ".tmp"
	if err := writeCheckpoint(tmp, snap.All(), snap.Generation(), nil); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("catalog: save rename: %w", err)
	}
	syncDir(filepath.Dir(path))
	return nil
}

// Load imports a catalog from a checkpoint file: a Save export, a
// Store's checkpoint, or a put-only snapshot from an older build. The
// catalog serves the file's features at its generation stamp (0 for a
// put-only file). A missing file is an empty catalog; on any error Load
// returns a nil catalog.
func Load(path string) (*Catalog, error) {
	ck, err := loadCheckpoint(path)
	if err != nil {
		return nil, err
	}
	c := New()
	c.load(ck.feats, ck.gen)
	return c, nil
}
