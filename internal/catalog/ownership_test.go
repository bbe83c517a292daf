package catalog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"
)

// servedBytes renders everything a snapshot serves: each feature, read
// through All and through ByID, and each segment's mask and name,
// parent, spatial and temporal index answers for the features it holds.
func servedBytes(s *Snapshot) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "generation %d, %d features\n", s.Generation(), s.Len())
	for _, f := range s.All() {
		g, _ := s.ByID(f.ID)
		line, _ := json.Marshal(g)
		b.Write(append(line, '\n'))
	}
	for si, sh := range s.Segments() {
		for p, f := range sh.All() {
			fmt.Fprintf(&b, "%d/%d masked %v\n", si, p, sh.Masked(int32(p)))
			for _, name := range f.SearchableNames() {
				fmt.Fprintf(&b, "%d/%d name %s %v\n", si, p, name, sh.WithVariable(name))
			}
			for _, v := range f.Variables {
				if !v.Excluded && v.Parent != "" {
					fmt.Fprintf(&b, "%d/%d parent %s %v\n", si, p, v.Parent, sh.WithParent(v.Parent))
				}
			}
			near, _ := sh.SpatialCandidatesAppend(f.BBox, 0, nil)
			during, _ := sh.TimeCandidatesAppend(f.Time, 0, nil)
			slices.Sort(near)
			slices.Sort(during)
			fmt.Fprintf(&b, "%d/%d near %v during %v\n", si, p, slices.Compact(near), during)
		}
	}
	return b.Bytes()
}

// heldSnapshot is a snapshot a test keeps after its catalog moved on,
// with the bytes it served when it was taken.
type heldSnapshot struct {
	what   string
	snap   *Snapshot
	served []byte
}

// TestHeldSnapshotNeverChanges is the ownership rule's property test: a
// stored feature is never edited in place, so while a working catalog
// goes through every mutator — MutateVariables and MutateVariablesOf
// (including an fn that edits without reporting it), ApplyTable,
// SetScanStamp, Upsert and Delete, SeedFrom, edits of Get copies,
// mutations of a Clone — no snapshot taken earlier, of either catalog,
// changes a byte it serves, and the published catalog, which shares
// its features with the working one, saves to the same bytes until the
// next publish. The tallies of every catalog touched must match a
// recount after every step. A reader goroutine re-reads the held
// snapshots throughout, so under -race an in-place edit is also a
// reported data race.
func TestHeldSnapshotNeverChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const ids = 30
	working, published := NewSharded(3), NewSharded(3)
	for i := 0; i < ids; i++ {
		if err := working.Upsert(tallyFeature(i, 0)); err != nil {
			t.Fatal(err)
		}
	}

	// held keeps the first snapshot and the latest few, which bounds the
	// checking work per step.
	var mu sync.Mutex
	var held []heldSnapshot
	hold := func(what string, s *Snapshot) {
		mu.Lock()
		defer mu.Unlock()
		held = append(held, heldSnapshot{what, s, servedBytes(s)})
		if len(held) > 6 {
			held = slices.Delete(held, 1, 2)
		}
	}
	checkHeld := func(when string) {
		mu.Lock()
		hs := slices.Clone(held)
		mu.Unlock()
		for _, h := range hs {
			if got := servedBytes(h.snap); !bytes.Equal(got, h.served) {
				t.Errorf("%s: the %s snapshot (generation %d) changed", when, h.what, h.snap.Generation())
			}
		}
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				checkHeld("reader")
			}
		}
	}()
	defer func() {
		close(stop)
		readers.Wait()
	}()

	var publishedBytes []byte
	publish := func() {
		changed, removed := published.DiffTo(working)
		if _, err := published.ApplyDelta(changed, removed); err != nil {
			t.Fatal(err)
		}
		hold("published", published.Snapshot())
		publishedBytes = saveCatalog(t, published)
	}
	publish()

	// edit changes one variable of f; report says whether fn owns up to it.
	edit := func(report bool) func(f *Feature) bool {
		return func(f *Feature) bool {
			v := &f.Variables[rng.Intn(len(f.Variables))]
			switch rng.Intn(3) {
			case 0:
				v.Excluded = !v.Excluded
			case 1:
				v.Parent = fmt.Sprintf("parent%d", rng.Intn(3))
			default:
				v.Name = fmt.Sprintf("%s_v%d", v.RawName, rng.Intn(3))
			}
			return report
		}
	}
	someID := func() string { return deltaFeature(rng.Intn(ids+5), 0).ID }
	ops := map[string]int{}
	for step := 0; step < 200; step++ {
		op := []string{"mutate-all", "mutate-of", "unreported", "apply-table", "scan-stamp", "upsert",
			"delete", "get-edit", "seed-from", "clone", "hold-working", "publish"}[rng.Intn(12)]
		ops[op]++
		switch op {
		case "mutate-all":
			working.MutateVariables(edit(true))
		case "mutate-of":
			working.MutateVariablesOf([]string{someID(), someID(), "absent"}, edit(true))
		case "unreported":
			// An edit fn does not report is dropped with its copy.
			before := saveCatalog(t, working)
			if n := working.MutateVariables(edit(false)); n != 0 {
				t.Fatalf("unreported edits counted %d changes", n)
			}
			if after := saveCatalog(t, working); !bytes.Equal(before, after) {
				t.Fatal("an unreported edit reached the catalog")
			}
		case "apply-table":
			grid := working.ToTable()
			for i := 0; i < grid.NumRows(); i++ {
				if rng.Intn(3) == 0 {
					if err := grid.SetCell(i, "field", fmt.Sprintf("rule%d", rng.Intn(3))); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, err := working.ApplyTable(grid); err != nil {
				t.Fatal(err)
			}
		case "scan-stamp":
			working.SetScanStamp(someID(), time.Date(2020, 1, 1, 0, 0, step, 0, time.UTC))
		case "upsert":
			f := tallyFeature(rng.Intn(ids+5), rng.Intn(3))
			if err := working.Upsert(f); err != nil {
				t.Fatal(err)
			}
			f.Variables[0].Name = "edited_after_upsert" // the caller's copy
		case "delete":
			working.Delete(someID())
		case "get-edit":
			if f, ok := working.Get(someID()); ok {
				f.Variables[0].Name = "edited_get_copy"
				f.ScannedAt = time.Time{}
			}
		case "seed-from":
			next := NewSharded(3)
			next.SeedFrom(working)
			working = next
		case "clone":
			clone := working.Clone()
			clone.MutateVariables(edit(true))
			clone.SetScanStamp(someID(), time.Date(2021, 1, 1, 0, 0, step, 0, time.UTC))
			requireTallyMatchesFeatures(t, clone, "clone")
			if rng.Intn(2) == 0 {
				working = clone
			}
		case "hold-working":
			hold("working", working.Snapshot())
		case "publish":
			publish()
		}
		checkHeld(op)
		if got := saveCatalog(t, published); !bytes.Equal(got, publishedBytes) {
			t.Fatalf("step %d (%s): the published catalog changed without a publish", step, op)
		}
		requireTallyMatchesFeatures(t, working, op)
		requireTallyMatchesFeatures(t, published, op)
	}
	for _, op := range []string{"mutate-all", "mutate-of", "unreported", "apply-table", "scan-stamp",
		"upsert", "delete", "get-edit", "seed-from", "clone", "hold-working", "publish"} {
		if ops[op] == 0 {
			t.Errorf("the schedule never ran %s", op)
		}
	}
}

// saveCatalog returns the bytes Save writes for c.
func saveCatalog(t *testing.T, c *Catalog) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "catalog")
	if err := Save(path, c); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCloneKeepsShardCount: a clone partitions its snapshots like its
// source, whatever the default shard count.
func TestCloneKeepsShardCount(t *testing.T) {
	shards := DefaultShardCount() + 2
	c := NewSharded(shards)
	for i := 0; i < 10; i++ {
		if err := c.Upsert(deltaFeature(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	clone := c.Clone()
	if got := clone.Snapshot().NumShards(); got != shards {
		t.Errorf("clone snapshots into %d shards, source into %d", got, shards)
	}
	if !bytes.Equal(servedBytes(clone.Snapshot()), servedBytes(c.Snapshot())) {
		t.Error("clone serves different bytes from its source")
	}
}
