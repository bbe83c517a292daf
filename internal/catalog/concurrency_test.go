package catalog

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentReadersAndWriters hammers a working catalog from
// parallel goroutines: upserts, deletes, reads, table extraction, and
// publishes into a served catalog with index queries over it, verifying
// no data race (run under -race) and that the final state is
// consistent.
func TestConcurrentReadersAndWriters(t *testing.T) {
	c := NewWorking()
	for i := 0; i < 50; i++ {
		if err := c.Upsert(feat(fmt.Sprintf("seed-%02d.csv", i), "salinity", "water_temperature")); err != nil {
			t.Fatal(err)
		}
	}
	// Publishes are serialized, as the publish path serializes them;
	// index reads of the served snapshot take no lock.
	pub := New()
	var pubMu sync.Mutex
	publish := func() {
		pubMu.Lock()
		defer pubMu.Unlock()
		if _, err := pub.ApplyDelta(pub.DiffTo(c)); err != nil {
			t.Error(err)
		}
	}
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch i % 6 {
				case 0:
					_ = c.Upsert(feat(fmt.Sprintf("w%d-%03d.csv", w, i), "turbidity"))
				case 1:
					c.Delete(IDForPath(fmt.Sprintf("w%d-%03d.csv", w, i-1)))
				case 2:
					publish()
					_ = countWithVariable(pub.Snapshot(), "salinity")
					_ = countWithParent(pub.Snapshot(), "fluorescence")
				case 3:
					if f, ok := c.Get(IDForPath("seed-00.csv")); ok && f.Path != "seed-00.csv" {
						t.Error("corrupted read")
					}
				case 4:
					_ = c.VariableNameCounts()
					_ = c.Len()
				case 5:
					_ = c.ToTable()
				}
			}
		}(w)
	}
	wg.Wait()

	// The 50 seed features must have survived untouched.
	for i := 0; i < 50; i++ {
		id := IDForPath(fmt.Sprintf("seed-%02d.csv", i))
		f, ok := c.Get(id)
		if !ok {
			t.Fatalf("seed feature %d lost", i)
		}
		if len(f.Variables) != 2 {
			t.Fatalf("seed feature %d corrupted: %d variables", i, len(f.Variables))
		}
	}
	// Index, tally and store agree.
	publish()
	if pub.Len() != c.Len() {
		t.Errorf("served %d features, working catalog holds %d", pub.Len(), c.Len())
	}
	for _, sh := range pub.Snapshot().Segments() {
		for _, p := range sh.WithVariable("salinity") {
			if _, ok := c.Get(sh.At(p).ID); !ok && !sh.Masked(p) {
				t.Errorf("index points at missing feature %s", sh.At(p).ID)
			}
		}
	}
	requireTallyMatchesFeatures(t, c, "after concurrent writers")
}

// TestConcurrentPublishAndSearchReads interleaves publishes (DiffTo +
// ApplyDelta) with read traffic, the working/published handoff under
// load.
func TestConcurrentPublishAndSearchReads(t *testing.T) {
	published := served(t, 0, feat("initial.csv", "salinity"))
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			working := NewWorking()
			for j := 0; j <= i%5; j++ {
				_ = working.Upsert(feat(fmt.Sprintf("gen%d-%d.csv", i, j), "salinity"))
			}
			changed, removed := published.DiffTo(working)
			if _, err := published.ApplyDelta(changed, removed); err != nil {
				t.Error(err)
			}
		}
		close(stop)
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var ids []string
				published.ForEach(func(f *Feature) { ids = append(ids, f.ID) })
				for _, id := range ids {
					// A listed feature may legitimately vanish between calls
					// (publish swapped); it must never be returned in a
					// corrupted state.
					if f, ok := published.Snapshot().ByID(id); ok && len(f.Variables) == 0 {
						t.Error("corrupted feature during publish")
						return
					}
				}
				_ = published.Generation()
			}
		}()
	}
	wg.Wait()
	if published.Len() == 0 {
		t.Error("final publish lost all features")
	}
}
