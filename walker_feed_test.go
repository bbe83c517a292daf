package metamess

import (
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"metamess/internal/archive"
)

// inotifyFDs counts this process's open inotify descriptors.
func inotifyFDs(t *testing.T) int {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	n := 0
	for _, e := range entries {
		if target, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil && target == "anon_inode:inotify" {
			n++
		}
	}
	return n
}

// settleFinalizers runs the finalizers of everything already
// unreachable — scanners other tests dropped unclosed — so that none
// closes a descriptor while the caller counts.
func settleFinalizers(t *testing.T) {
	t.Helper()
	for i := 0; i < 2; i++ {
		done := make(chan struct{})
		sentinel := new([64]byte)
		runtime.SetFinalizer(sentinel, func(*[64]byte) { close(done) })
		sentinel = nil
		runtime.GC()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("finalizers did not run")
		}
	}
}

// TestWalkerFeedLifetime: a one-shot New+Wrangle opens no inotify
// descriptor; the second wrangle arms one; Close releases it.
func TestWalkerFeedLifetime(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the change feed is inotify")
	}
	root := t.TempDir()
	if _, err := archive.Generate(root, archive.DefaultGenConfig(12, 4)); err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	settleFinalizers(t)
	before := inotifyFDs(t)

	sys, err := New(Config{ArchiveRoot: root})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	if n := inotifyFDs(t); n != before {
		t.Fatalf("one New+Wrangle: %d inotify descriptors, want %d", n, before)
	}
	for i := 0; i < 2; i++ {
		if _, err := sys.Wrangle(); err != nil {
			t.Fatal(err)
		}
	}
	if n := inotifyFDs(t); n != before+1 {
		t.Fatalf("after three wrangles: %d inotify descriptors, want %d", n, before+1)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if n := inotifyFDs(t); n != before {
		t.Fatalf("after Close: %d inotify descriptors, want %d", n, before)
	}
}
