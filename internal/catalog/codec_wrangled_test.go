package catalog_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"metamess"
	"metamess/internal/archive"
	"metamess/internal/catalog"
)

// TestRecordKernelTakesWrangledCatalog runs the kernel over what a real
// node writes: a 500-dataset generated archive (the benchmark's
// generator), wrangled by a durable system — the first publish's journal
// record, then a compaction's checkpoint with the knowledge-epoch
// sidecar. Writing and reading back every line must not make the kernel
// decline once, or restarts would quietly fall back to encoding/json.
func TestRecordKernelTakesWrangledCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and wrangles a 500-dataset archive")
	}
	root, dataDir := t.TempDir(), t.TempDir()
	if _, err := archive.Generate(root, archive.DefaultGenConfig(500, 7)); err != nil {
		t.Fatal(err)
	}
	before := catalog.KernelDeclines()
	sys, err := metamess.OpenDurable(metamess.Config{ArchiveRoot: root, DataDir: dataDir, CompactMinBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.Wrangle(); err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(filepath.Join(dataDir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if compacted, err := sys.CompactIfNeeded(); err != nil || !compacted {
		t.Fatalf("compaction: %v, %v", compacted, err)
	}
	checkpoint, err := os.ReadFile(filepath.Join(dataDir, "checkpoint"))
	if err != nil {
		t.Fatal(err)
	}
	puts := 0
	for _, line := range bytes.Split(append(journal, checkpoint...), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		rec, err := catalog.DecodeLine(line)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Op == "put" {
			puts++
		}
	}
	if puts != 500 {
		t.Fatalf("checkpoint holds %d puts, want 500", puts)
	}
	if d := catalog.KernelDeclines() - before; d != 0 {
		t.Fatalf("the kernel declined %d records of a wrangled catalog", d)
	}
}
