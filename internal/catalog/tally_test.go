package catalog

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"metamess/internal/table"
)

// tallyFeature is deltaFeature with the facts the directory and unit
// tallies count varied by version: the format, and the variables' units.
func tallyFeature(i, version int) *Feature {
	f := deltaFeature(i, version)
	f.Format = []string{"obs", "csv", "obs"}[version%3]
	f.Variables[0].Unit = []string{"degC", "", "furlongs"}[(i+version)%3]
	f.Variables[1].Unit = "PSU"
	return f
}

// requireTallyMatchesFeatures recounts the name, directory and unit
// tallies from the features and compares them with what the mutation
// hooks maintained, and with what their readers (ForEachVariableName,
// VariableNameCounts, DistinctVariableNames, ForEachDirectory,
// DistinctUnits) report.
func requireTallyMatchesFeatures(t *testing.T, c *Working, when string) {
	t.Helper()
	want := map[string]nameTally{}
	wantDirs := map[string]map[string]int{}
	wantUnits := map[string]int{}
	c.ForEach(func(f *Feature) {
		dir := featureDir(f)
		if wantDirs[dir] == nil {
			wantDirs[dir] = map[string]int{}
		}
		wantDirs[dir][f.Format]++
		for _, v := range f.Variables {
			if v.Unit != "" {
				wantUnits[v.Unit]++
			}
			n := want[v.Name]
			n.occurrences++
			if v.Excluded {
				n.excluded++
			}
			if v.Parent != "" {
				n.parented++
			}
			want[v.Name] = n
		}
	})
	got := map[string]nameTally{}
	var order []string
	c.ForEachVariableName(func(name string, occurrences, excluded, parented int) {
		got[name] = nameTally{occurrences, excluded, parented}
		order = append(order, name)
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: tally %v, recount %v", when, got, want)
	}
	if !sort.StringsAreSorted(order) {
		t.Fatalf("%s: names visited out of order: %v", when, order)
	}
	if !reflect.DeepEqual(c.DistinctVariableNames(), order) {
		t.Fatalf("%s: DistinctVariableNames %v, tally order %v", when, c.DistinctVariableNames(), order)
	}
	counts := make([]table.ValueCount, 0, len(want))
	for name, n := range want {
		counts = append(counts, table.ValueCount{Value: name, Count: n.occurrences})
	}
	sort.Slice(counts, func(i, j int) bool {
		if counts[i].Count != counts[j].Count {
			return counts[i].Count > counts[j].Count
		}
		return counts[i].Value < counts[j].Value
	})
	if got := c.VariableNameCounts(); !reflect.DeepEqual(got, counts) {
		t.Fatalf("%s: VariableNameCounts %v, recount %v", when, got, counts)
	}

	if !reflect.DeepEqual(c.dirs, wantDirs) {
		t.Fatalf("%s: directory tally %v, recount %v", when, c.dirs, wantDirs)
	}
	if !reflect.DeepEqual(c.units, wantUnits) {
		t.Fatalf("%s: unit tally %v, recount %v", when, c.units, wantUnits)
	}
	var dirs []string
	c.ForEachDirectory(func(dir string, formats []string) {
		dirs = append(dirs, dir)
		want := make([]string, 0, len(wantDirs[dir]))
		for f := range wantDirs[dir] {
			want = append(want, f)
		}
		sort.Strings(want)
		if !reflect.DeepEqual(formats, want) {
			t.Fatalf("%s: directory %s formats %v, recount %v", when, dir, formats, want)
		}
	})
	if len(dirs) != len(wantDirs) || !sort.StringsAreSorted(dirs) {
		t.Fatalf("%s: ForEachDirectory visited %v, recount has %d directories", when, dirs, len(wantDirs))
	}
	units := make([]string, 0, len(wantUnits))
	for u := range wantUnits {
		units = append(units, u)
	}
	sort.Strings(units)
	if got := c.DistinctUnits(); !reflect.DeepEqual(got, units) {
		t.Fatalf("%s: DistinctUnits %v, recount %v", when, got, units)
	}
}

// TestNameTallyTracksEveryMutation drives a working catalog through a
// random sequence of every mutation path — including seeding from what
// a served catalog serves after a delta or a reload from a store — and
// requires the maintained name, directory and unit tallies to equal a
// recount after each step. "apply-delta" runs the one apply body both
// unpinned and pinned (ApplyDeltaAt).
func TestNameTallyTracksEveryMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := NewWorking()
	const ids = 40
	ops := map[string]int{}
	for step := 0; step < 400; step++ {
		op := []string{"upsert", "delete", "mutate-of", "mutate-all", "apply-table", "apply-delta",
			"clone", "seed-from", "reload"}[rng.Intn(9)]
		ops[op]++
		switch op {
		case "upsert":
			if err := c.Upsert(tallyFeature(rng.Intn(ids), rng.Intn(3))); err != nil {
				t.Fatal(err)
			}
		case "delete":
			c.Delete(deltaFeature(rng.Intn(ids), 0).ID)
		case "mutate-of", "mutate-all":
			// Flip exclusion, set or clear a parent, rename: the three
			// facts the tally keeps per occurrence.
			fn := func(f *Feature) bool {
				v := &f.Variables[rng.Intn(len(f.Variables))]
				switch rng.Intn(3) {
				case 0:
					v.Excluded = !v.Excluded
				case 1:
					if v.Parent == "" {
						v.Parent = "fluorescence"
					} else {
						v.Parent = ""
					}
				default:
					v.Name = v.RawName + "_v2"
				}
				return true
			}
			if op == "mutate-all" {
				c.MutateVariables(fn)
			} else {
				c.MutateVariablesOf([]string{deltaFeature(rng.Intn(ids), 0).ID, "absent"}, fn)
			}
		case "apply-table":
			grid := c.ToTable()
			for i := 0; i < grid.NumRows(); i++ {
				if rng.Intn(4) == 0 {
					if err := grid.SetCell(i, "field", "renamed_by_rule"); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, err := c.ApplyTable(grid); err != nil {
				t.Fatal(err)
			}
		case "clone":
			c = c.Clone()
		case "seed-from", "apply-delta", "reload":
			// Publish the catalog, move the served one by a delta or
			// through a checkpoint and a recovery, and seed a fresh
			// working catalog from what it then serves.
			served := serve(t, 3, c)
			switch op {
			case "apply-delta":
				changed := []*Feature{tallyFeature(rng.Intn(ids), rng.Intn(3)), tallyFeature(ids+rng.Intn(5), 1)}
				removed := []string{deltaFeature(rng.Intn(ids), 0).ID}
				if rng.Intn(2) == 0 {
					if _, err := served.ApplyDelta(changed, removed); err != nil {
						t.Fatal(err)
					}
				} else if err := served.ApplyDeltaAt(served.Generation()+2, changed, removed); err != nil {
					t.Fatal(err)
				}
			case "reload":
				dir := t.TempDir()
				st, err := OpenStore(dir, NewSharded(3), StoreOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if err := st.Compact(served); err != nil {
					t.Fatal(err)
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				next := NewSharded(3)
				st, err = OpenStore(dir, next, StoreOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				if next.Len() != c.Len() {
					t.Fatalf("step %d: reload recovered %d features of %d", step, next.Len(), c.Len())
				}
				served = next
			}
			next := NewWorking()
			next.SeedFrom(served.Snapshot())
			c = next
		}
		requireTallyMatchesFeatures(t, c, op)
	}
	for _, op := range []string{"upsert", "delete", "mutate-of", "apply-table", "apply-delta", "seed-from", "reload"} {
		if ops[op] == 0 {
			t.Errorf("the schedule never ran %s", op)
		}
	}
	if len(c.DistinctVariableNames()) < 3 {
		t.Errorf("catalog ended with names %v: the schedule degenerated", c.DistinctVariableNames())
	}
}
