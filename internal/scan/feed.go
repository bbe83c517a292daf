package scan

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"

	"metamess/internal/obs"
)

// The change feed. A scanner's first scan walks and opens nothing, so a
// one-shot scan never holds a kernel resource. The second scan arms a
// watch on every directory it walks, each before the directory is read.
// From the third scan on, the scanner drains the queued events without
// blocking and examines only the paths that had one, plus the sticky
// candidates a trusted stat cannot settle (see Scanner). The full walk
// stays the oracle and the fallback: see Scanner.walkReason and
// feed.drain for when a scan walks instead. On Linux the feed is inotify
// (feed_linux.go); elsewhere it is never available (feed_other.go).

// Event bits of the Linux inotify ABI (inotify(7)), spelled out here
// rather than taken from syscall so that the decoder builds, and is
// tested, on every platform.
const (
	inModify     = 0x2
	inAttrib     = 0x4
	inCloseWrite = 0x8
	inMovedFrom  = 0x40
	inMovedTo    = 0x80
	inCreate     = 0x100
	inDelete     = 0x200
	inDeleteSelf = 0x400
	inMoveSelf   = 0x800
	inUnmount    = 0x2000
	inQOverflow  = 0x4000
	inIgnored    = 0x8000
	inOnlyDir    = 0x1000000
	inDontFollow = 0x2000000
	inIsDir      = 0x40000000
)

// watchMask selects every event that can change what a walk of the
// directory would find. Reads (IN_ACCESS, IN_OPEN, IN_CLOSE_NOWRITE) are
// left out, so the scanner's own reads queue nothing.
const watchMask = inModify | inAttrib | inCloseWrite | inMovedFrom | inMovedTo |
	inCreate | inDelete | inDeleteSelf | inMoveSelf | inOnlyDir | inDontFollow

// walkEvery bounds the scans between two walks. inotify sees only the
// writes this kernel makes, so a file an NFS client (or a write through
// a hard link outside the watched directories, or an mmap store)
// changes is found by the next periodic walk.
const walkEvery = 16

// Walk reasons, the label of the walk counter.
const (
	walkFirst       = "first"       // a scanner's first scan opens no feed
	walkArm         = "arm"         // the second scan arms the feed as it walks
	walkOverflow    = "overflow"    // the event queue overflowed
	walkDirEvent    = "dir-event"   // a directory was created, removed, moved or re-permissioned
	walkWalkError   = "walk-error"  // the last walk could not read part of the tree
	walkUnavailable = "unavailable" // no feed: not Linux, a watch limit, a closed scanner
	walkPeriodic    = "periodic"    // walkEvery scans since the last walk
	walkCatalog     = "catalog"     // the catalog changed outside a scan (a pushed batch)
)

var (
	walksByReason = func() map[string]*obs.Counter {
		m := map[string]*obs.Counter{}
		for _, r := range []string{walkFirst, walkArm, walkOverflow, walkDirEvent, walkWalkError, walkUnavailable, walkPeriodic, walkCatalog} {
			m[r] = obs.Default().Counter("dnh_scan_walks_total",
				"Filesystem scans that walked the whole scope instead of following the change feed, by reason.",
				"reason", r)
		}
		return m
	}()
	feedFailures = obs.Default().Counter("dnh_scan_feed_failures_total",
		"Change feeds that could not be opened or armed (a per-user inotify limit, or no inotify).")
)

// eventHeader is the size of struct inotify_event before its name.
const eventHeader = 16

// event is one decoded inotify event.
type event struct {
	wd   int32
	mask uint32
	name string
}

var errTornEvent = errors.New("scan: torn inotify event")

// decodeEvents calls fn for each event in buf, a read(2) of an inotify
// descriptor: a 16-byte header (wd, mask, cookie, len) followed by len
// bytes of NUL-padded name. A buffer that ends inside an event is an
// error; the kernel never returns one.
func decodeEvents(buf []byte, fn func(event)) error {
	for len(buf) > 0 {
		if len(buf) < eventHeader {
			return errTornEvent
		}
		n := binary.NativeEndian.Uint32(buf[12:])
		if uint64(n) > uint64(len(buf)-eventHeader) {
			return errTornEvent
		}
		name := buf[eventHeader : eventHeader+int(n)]
		if i := bytes.IndexByte(name, 0); i >= 0 {
			name = name[:i]
		}
		fn(event{
			wd:   int32(binary.NativeEndian.Uint32(buf[0:])),
			mask: binary.NativeEndian.Uint32(buf[4:]),
			name: string(name),
		})
		buf = buf[eventHeader+int(n):]
	}
	return nil
}

// feed is one armed inotify instance: the directories one walk watched.
// A walk that re-arms opens a fresh feed, so a watch descriptor never
// outlives the walk that mapped it to a path.
type feed struct {
	fd *inotifyFD
	// dirs maps a watch descriptor to its root-relative directory.
	dirs map[int32]string
	// bases holds each scanned directory's identity at arm time (nil for
	// a directory the walk could not stat): a directory above the watched
	// ones that is moved or re-targeted changes it without an event.
	bases []os.FileInfo
	buf   []byte
}

// openFeed opens an inotify instance for nBases scanned directories.
func openFeed(nBases int) (*feed, error) {
	fd, err := openInotify()
	if err != nil {
		return nil, err
	}
	return &feed{fd: fd, dirs: map[int32]string{}, bases: make([]os.FileInfo, nBases)}, nil
}

// watch arms the directory at abs, root-relative rel.
func (f *feed) watch(abs, rel string) error {
	wd, err := f.fd.addWatch(abs, watchMask)
	if err != nil {
		return err
	}
	f.dirs[wd] = rel
	return nil
}

func (f *feed) close() { f.fd.close() }

// drain reads every queued event without blocking. It returns the
// root-relative paths of the files that had one, or why the scan must
// walk: the queue overflowed, a directory-level event arrived (the walk
// re-arms), or the descriptor failed.
func (f *feed) drain() (map[string]bool, string) {
	if f.buf == nil {
		f.buf = make([]byte, 16<<10)
	}
	dirty := map[string]bool{}
	reason := ""
	for reason == "" {
		n, err := f.fd.read(f.buf)
		if err != nil {
			return nil, walkUnavailable
		}
		if n == 0 {
			return dirty, ""
		}
		if err := decodeEvents(f.buf[:n], func(e event) {
			if reason == "" {
				reason = f.apply(e, dirty)
			}
		}); err != nil {
			return nil, walkUnavailable
		}
	}
	return nil, reason
}

// apply adds one event's path to dirty, or returns why it needs a walk.
func (f *feed) apply(e event, dirty map[string]bool) string {
	switch {
	case e.mask&inQOverflow != 0:
		return walkOverflow
	case e.mask&(inIsDir|inIgnored|inDeleteSelf|inMoveSelf|inUnmount) != 0 || e.name == "":
		// A subdirectory came or went, or a watched directory itself
		// moved, vanished or changed permissions.
		return walkDirEvent
	}
	dir, ok := f.dirs[e.wd]
	if !ok {
		return walkDirEvent
	}
	dirty[joinRel(dir, e.name)] = true
	return ""
}

// joinRel joins a name onto a root-relative directory the way the walk
// forms a file's root-relative path.
func joinRel(dir, name string) string {
	if dir == "." {
		return name
	}
	return dir + string(filepath.Separator) + name
}
