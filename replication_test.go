package metamess

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"metamess/internal/archive"
	"metamess/internal/catalog"
)

// TestReplicatedFramesSequencing pins the follower's sequencing rule: a
// record at or below the follower's generation is skipped, the next
// generation applies, and anything further ahead is refused before it
// is applied — so a reordered or gapped batch fails loudly and leaves
// the follower exactly at its last good record.
func TestReplicatedFramesSequencing(t *testing.T) {
	root := t.TempDir()
	if _, err := archive.Generate(root, archive.DefaultGenConfig(4, 5)); err != nil {
		t.Fatal(err)
	}
	leader, err := OpenDurable(Config{ArchiveRoot: root, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if _, err := leader.Wrangle(); err != nil {
		t.Fatal(err)
	}
	// Three pushes of one new dataset each: generations 2, 3 and 4.
	base := leader.ctx.Published.Snapshot().All()[0]
	for i := 0; i < 3; i++ {
		f := base.Clone()
		f.Path = fmt.Sprintf("push/%d-%s", i, filepath.Base(base.Path))
		f.ID = catalog.IDForPath(f.Path)
		if _, err := leader.PublishFeatures(&PublishRequest{Features: []*catalog.Feature{f}}); err != nil {
			t.Fatal(err)
		}
	}
	frames, gen, _, err := leader.JournalTail(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(frames, []byte("\n"))
	lines = lines[:len(lines)-1] // the empty remainder after the last newline
	if gen != 4 || len(lines) != 4 {
		t.Fatalf("leader journal holds %d records up to generation %d, want 4 up to 4", len(lines), gen)
	}

	follower := func(records ...int) (*System, int, error) {
		sys, err := New(Config{ArchiveRoot: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		var batch []byte
		for _, r := range records {
			batch = append(batch, lines[r]...)
		}
		n, err := sys.ApplyReplicatedFrames(batch)
		return sys, n, err
	}
	good, n, err := follower(0, 1)
	if err != nil || n != 2 || good.SnapshotGeneration() != 2 {
		t.Fatalf("in-order prefix: applied %d, generation %d, err %v", n, good.SnapshotGeneration(), err)
	}
	for name, records := range map[string][]int{
		"swapped": {0, 1, 3, 2},
		"gapped":  {0, 1, 3},
	} {
		sys, n, err := follower(records...)
		if err == nil {
			t.Errorf("%s batch: applied %d records with no error", name, n)
		}
		if n != 2 || sys.SnapshotGeneration() != 2 {
			t.Errorf("%s batch: applied %d, generation %d; want the last good record, 2", name, n, sys.SnapshotGeneration())
		}
		if publishedFingerprint(t, sys) != publishedFingerprint(t, good) {
			t.Errorf("%s batch: %d datasets served, %d at the leader's generation 2", name, sys.DatasetCount(), good.DatasetCount())
		}
	}
}

// TestReplicatedFrameChangingAnIDTwiceRefused: a frame whose delta
// changes one ID twice carries a valid checksum, but the follower
// refuses it whole — its generation and the bytes it serves stay where
// they were, instead of serving the ID at two live positions.
func TestReplicatedFrameChangingAnIDTwiceRefused(t *testing.T) {
	root := t.TempDir()
	if _, err := archive.Generate(root, archive.DefaultGenConfig(40, 5)); err != nil {
		t.Fatal(err)
	}
	sys, err := New(Config{ArchiveRoot: root, SnapshotShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	gen, datasets := sys.SnapshotGeneration(), sys.DatasetCount()
	before := servedJSON(t, sys.ctx.Published.Snapshot())

	x := sys.ctx.Published.Snapshot().All()[0].Clone()
	x2 := x.Clone()
	x2.RowCount++
	path := filepath.Join(t.TempDir(), "journal")
	j, err := catalog.OpenJournal(path, catalog.SyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(catalog.DeltaRecord{Gen: gen + 1, Changed: []*catalog.Feature{x, x2}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	frame, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := sys.ApplyReplicatedFrames(frame); err == nil || n != 0 {
		t.Fatalf("frame changing %s twice: applied %d, err %v", x.ID, n, err)
	}
	if sys.SnapshotGeneration() != gen || sys.DatasetCount() != datasets {
		t.Fatalf("generation %d, %d datasets after the refused frame; want %d, %d",
			sys.SnapshotGeneration(), sys.DatasetCount(), gen, datasets)
	}
	if servedJSON(t, sys.ctx.Published.Snapshot()) != before {
		t.Fatal("the refused frame changed the served bytes")
	}
}
