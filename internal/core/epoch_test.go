package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"metamess/internal/refine"
	"metamess/internal/scan"
	"metamess/internal/semdiv"
	"metamess/internal/synonym"
	"metamess/internal/units"
	"metamess/internal/vocab"
)

// TestEpochSidecarRoundTrip pins the warm-restart contract for the
// curated state: everything a crash would otherwise lose — synonym
// additions, discovered rules, pending curator decisions, the version
// and hierarchy names-hash — serializes into the sidecar and restores
// into a fresh context whose curation has the same content and version,
// so the first post-restart run stays delta-scoped.
func TestEpochSidecarRoundTrip(t *testing.T) {
	mkCtx := func() *Context {
		k, err := semdiv.NewKnowledge(vocab.Standard())
		if err != nil {
			t.Fatal(err)
		}
		return NewContext(k, scan.Config{Root: t.TempDir()})
	}

	ctx := mkCtx()
	if _, err := ctx.Curate(func(next *Curation) error {
		// A discovered rule (ExportRules-style state).
		next.DiscoveredRules = append(next.DiscoveredRules, &refine.MassEdit{
			Desc:       "Discovered by fingerprint over the residual mess",
			ColumnName: "field",
			Expression: "value",
			Edits:      []refine.Edit{{From: []string{"temp.", "tmp"}, To: "water_temperature"}},
		})
		// A pending curator decision submitted mid-run.
		next.PendingDecisions = append(next.PendingDecisions,
			semdiv.Decision{RawName: "cond", Action: semdiv.ClarifyTo, Target: "conductivity"})
		// A curated unit and unit alias.
		if err := next.Units.AddUnit(units.Unit{Symbol: "furlong/fortnight", Family: units.Speed, Scale: 1.663e-4}, "ff"); err != nil {
			return err
		}
		if err := next.Units.AddAlias("grados_c", "degC"); err != nil {
			return err
		}
		// A synonym a crash must not forget.
		return next.Knowledge.Synonyms.Add("water_temperature", "wassertemperatur")
	}); err != nil {
		t.Fatal(err)
	}
	ctx.lastNamesHash = 991
	version := ctx.Curation().Version

	sidecar, err := ctx.EpochSidecar()
	if err != nil {
		t.Fatal(err)
	}
	again, err := ctx.EpochSidecar()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sidecar, again) {
		t.Fatal("EpochSidecar is not deterministic")
	}

	restored := mkCtx()
	if err := restored.RestoreEpochSidecar(sidecar); err != nil {
		t.Fatal(err)
	}
	cur := restored.Curation()
	if cur.Version != version || restored.lastNamesHash != 991 {
		t.Fatalf("version/namesHash = %d/%d, want %d/991", cur.Version, restored.lastNamesHash, version)
	}
	if !restored.hasRun || restored.lastRunVersion != version {
		t.Fatal("restored context not marked as having completed a run")
	}
	if len(cur.PendingDecisions) != 1 || cur.PendingDecisions[0].Target != "conductivity" {
		t.Fatalf("pending decisions = %+v", cur.PendingDecisions)
	}
	for _, raw := range []string{"grados_c", "Grados C", "ff", "furlong/fortnight"} {
		if _, ok := cur.Units.Lookup(raw); !ok {
			t.Fatalf("curated unit string %q lost", raw)
		}
	}
	wantRules, err := refine.ExportJSON(ctx.Curation().DiscoveredRules)
	if err != nil {
		t.Fatal(err)
	}
	gotRules, err := refine.ExportJSON(cur.DiscoveredRules)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantRules, gotRules) {
		t.Fatalf("rules did not survive: %s != %s", gotRules, wantRules)
	}
	// The decisive check: the restored curation encodes exactly like the
	// original — knowledge, rules, decisions, version, names hash — so
	// ScanArchive sees no phantom change.
	back, err := restored.EpochSidecar()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, sidecar) {
		t.Fatalf("curation drifted across the sidecar round trip (restart would full-reprocess):\n%s\n%s", back, sidecar)
	}

	// Version gate: a sidecar from the future refuses cleanly.
	if err := mkCtx().RestoreEpochSidecar([]byte(`{"version":99}`)); err == nil {
		t.Fatal("unsupported sidecar version accepted")
	}
	if err := mkCtx().RestoreEpochSidecar([]byte(`{broken`)); err == nil {
		t.Fatal("malformed sidecar accepted")
	}
}

// curationContent renders what the version covers: the sidecar
// encoding of knowledge, rules and pending decisions, and the unit
// alias count.
func curationContent(t *testing.T, cur *Curation) string {
	k, err := semdiv.EncodeKnowledge(cur.Knowledge)
	if err != nil {
		t.Error(err)
	}
	rules, err := refine.ExportJSON(cur.DiscoveredRules)
	if err != nil {
		t.Error(err)
	}
	decisions, err := json.Marshal(cur.PendingDecisions)
	if err != nil {
		t.Error(err)
	}
	return fmt.Sprintf("%s\n%s\n%s\naliases=%d", k, rules, decisions, cur.Units.AliasCount())
}

// TestCurationVersionTracksContent drives a seeded sequence of curator
// operations, no-ops included, and holds the version to the content: it
// moves, by one, if and only if the content curationContent renders
// changed, and an operation that changes nothing publishes no new
// value. Every value published along the way must still render as it
// did when it was current — nothing edits a published value — and a
// reader goroutine renders the current value throughout, so under
// -race an edit that reached a published value is also a reported race.
func TestCurationVersionTracksContent(t *testing.T) {
	ctx, _ := newTestContext(t, 12, 17)
	if _, err := NewProcess("full", DefaultChain()...).Run(ctx); err != nil {
		t.Fatal(err)
	}
	known := ctx.Curation().Knowledge.Synonyms.AlternatesOf("water_temperature")
	if len(known) == 0 {
		t.Fatal("vocabulary gives water_temperature no alternates")
	}
	ext := synonym.NewTable()
	if err := ext.Add("salinity", "partner_site_salt", "psal_partner"); err != nil {
		t.Fatal(err)
	}
	curate := func(edit func(next *Curation) error) error {
		_, err := ctx.Curate(edit)
		return err
	}
	synonymAdd := func(pref string, alts ...string) func(int) error {
		return func(int) error {
			return curate(func(next *Curation) error { return next.Knowledge.Synonyms.Add(pref, alts...) })
		}
	}
	ops := []struct {
		name    string
		wantErr bool
		run     func(step int) error
	}{
		{"add a new synonym", false, func(step int) error {
			return synonymAdd("salinity", fmt.Sprintf("curated_salt_%d", step))(step)
		}},
		{"re-add an existing synonym", false, synonymAdd("water_temperature", known[0])},
		{"re-add a preferred name in another case", false, synonymAdd("WATER_TEMPERATURE")},
		{"refused synonym", true, synonymAdd("salinity", known[0])},
		{"merge or re-merge an external table", false, func(int) error {
			_, err := AddExternalMetadata{Tables: []*synonym.Table{ext}}.Run(ctx)
			return err
		}},
		{"mint a rule", false, func(step int) error {
			return curate(func(next *Curation) error {
				next.DiscoveredRules = append(next.DiscoveredRules, &refine.MassEdit{
					Desc: "curated", ColumnName: "field", Expression: "value",
					Edits: []refine.Edit{{From: []string{fmt.Sprintf("raw_%d", step)}, To: "salinity"}},
				})
				return nil
			})
		}},
		{"re-mint the known rules", false, func(int) error {
			// A full discovery pass over the catalog: every cluster it finds
			// is already on the books unless curation moved the residual.
			ctx.Delta = nil
			_, err := DiscoverTransforms{}.Run(ctx)
			return err
		}},
		{"add a unit alias", false, func(step int) error {
			return curate(func(next *Curation) error {
				return next.Units.AddAlias(fmt.Sprintf("curated_degrees_%d", step), "degC")
			})
		}},
		{"re-add a unit alias", false, func(int) error {
			return curate(func(next *Curation) error { return next.Units.AddAlias("Celsius", "degC") })
		}},
		{"clarify", false, func(step int) error {
			return curate(func(next *Curation) error {
				next.PendingDecisions = append(next.PendingDecisions,
					semdiv.Decision{RawName: fmt.Sprintf("raw_%d", step), Action: semdiv.ClarifyTo, Target: "salinity"})
				return nil
			})
		}},
		{"hide", false, func(step int) error {
			return curate(func(next *Curation) error {
				next.PendingDecisions = append(next.PendingDecisions, semdiv.Decision{RawName: fmt.Sprintf("raw_%d", step), Action: semdiv.Hide})
				return nil
			})
		}},
		{"consume the decisions", false, func(int) error {
			return curate(func(next *Curation) error { next.PendingDecisions = nil; return nil })
		}},
		{"empty edit", false, func(int) error {
			return curate(func(*Curation) error { return nil })
		}},
	}

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				curationContent(t, ctx.Curation())
			}
		}
	}()
	defer func() { close(stop); <-done }()

	rng := rand.New(rand.NewSource(41))
	var held []*Curation
	var heldContent []string
	moves, stays := 0, 0
	for step := 0; step < 120; step++ {
		op := ops[rng.Intn(len(ops))]
		before := ctx.Curation()
		content := curationContent(t, before)
		held, heldContent = append(held, before), append(heldContent, content)
		if err := op.run(step); (err != nil) != op.wantErr {
			t.Fatalf("step %d (%s): err = %v", step, op.name, err)
		}
		after := ctx.Curation()
		changed := curationContent(t, after) != content
		switch {
		case changed && after.Version != before.Version+1:
			t.Fatalf("step %d (%s): content changed, version %d -> %d", step, op.name, before.Version, after.Version)
		case !changed && after != before:
			t.Fatalf("step %d (%s): content unchanged, but a new value (version %d -> %d) was published", step, op.name, before.Version, after.Version)
		case changed:
			moves++
		default:
			stays++
		}
	}
	if moves == 0 || stays == 0 {
		t.Fatalf("sequence exercised %d moves and %d no-ops; want both", moves, stays)
	}
	for i, h := range held {
		if curationContent(t, h) != heldContent[i] {
			t.Fatalf("the value current before step %d (version %d) was edited after it was published", i, h.Version)
		}
	}
}
