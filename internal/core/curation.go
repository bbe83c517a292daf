package core

import (
	"encoding/json"
	"fmt"
	"slices"

	"metamess/internal/refine"
	"metamess/internal/semdiv"
	"metamess/internal/units"
)

// Curation is the curated state a run wrangles with — what the poster's
// third curatorial activity, improving the process, edits between runs
// — at a version. It is an immutable value, like a catalog snapshot:
// Context.Curate publishes the next one by pointer and nothing edits a
// published one, so searches, a push's validation and the sidecar
// encode read it with one atomic load and take no lock.
type Curation struct {
	// Knowledge holds the synonym table, abbreviations, contexts and
	// vocabulary the classifier and the query expander read.
	Knowledge *semdiv.Knowledge
	// Units resolves unit strings.
	Units *units.Registry
	// DiscoveredRules accumulates the mass edits produced by the
	// discovery component, applied by PerformDiscovered and exportable as
	// the poster's JSON rule files.
	DiscoveredRules []refine.Operation
	// PendingDecisions holds curator rulings applied by the next
	// KnownTransforms run.
	PendingDecisions []semdiv.Decision
	// Version moves by one with every edit that changed something; a run
	// at another version than the last completed run's reprocesses every
	// feature.
	Version uint64
}

// Curation returns the current curation; any goroutine may call it.
func (c *Context) Curation() *Curation { return c.cur.Load() }

// Curate runs edit on a private copy of the current curation (the
// knowledge copy shares what semdiv.Knowledge.Clone says, the rule list
// its operations) and, if it changed anything, publishes the copy one
// version on. A failed edit
// publishes nothing. The tables are add-only and rules and decisions are
// appended or dropped whole, so counts tell what changed; an unchanged
// part keeps its published value, and with it the classifier memo. A
// change mid-run marks the run's delta full. Callers serialize Curate
// with each other and with chain runs; readers need no lock.
func (c *Context) Curate(edit func(next *Curation) error) (bool, error) {
	cur := c.Curation()
	next := &Curation{
		Knowledge:        cur.Knowledge.Clone(),
		Units:            cur.Units.Clone(),
		DiscoveredRules:  slices.Clone(cur.DiscoveredRules),
		PendingDecisions: slices.Clone(cur.PendingDecisions),
		Version:          cur.Version + 1,
	}
	if err := edit(next); err != nil {
		return false, err
	}
	if tableSizes(next.Knowledge) == tableSizes(cur.Knowledge) {
		next.Knowledge = cur.Knowledge
	}
	if next.Units.AliasCount() == cur.Units.AliasCount() {
		next.Units = cur.Units
	}
	if next.Knowledge == cur.Knowledge && next.Units == cur.Units &&
		len(next.DiscoveredRules) == len(cur.DiscoveredRules) && len(next.PendingDecisions) == len(cur.PendingDecisions) {
		return false, nil
	}
	c.cur.Store(next)
	if c.Delta != nil {
		c.Delta.Full = true
	}
	return true, nil
}

// tableSizes is what an add-only edit of the knowledge tables grows.
func tableSizes(k *semdiv.Knowledge) [6]int {
	return [6]int{k.Synonyms.Len(), k.Synonyms.AlternateCount(), len(k.Abbrevs),
		len(k.Ambiguous), len(k.ExcessivePrefixes), len(k.ExcessiveSuffixes)}
}

// epochState is the knowledge sidecar a journal record carries when the
// curation or the names hash moved (see Commit): everything the
// incremental machinery needs beyond the catalog features for a
// restarted process to continue delta-scoped instead of falling back to
// a cold full reprocess.
type epochState struct {
	Version int `json:"version"`
	// CurationVersion is the curation's Version; the JSON name predates
	// it, so journals written before keep replaying.
	CurationVersion uint64 `json:"knowledgeEpoch"`
	// NamesHash is the distinct-name-set fingerprint the hierarchy
	// generator last processed (see Context.lastNamesHash).
	NamesHash uint64 `json:"namesHash,omitempty"`
	// Knowledge is the curated knowledge dump (semdiv.EncodeKnowledge).
	Knowledge json.RawMessage `json:"knowledge,omitempty"`
	// Rules is the discovered-rule list (refine.ExportJSON).
	Rules json.RawMessage `json:"rules,omitempty"`
	// PendingDecisions are curator rulings submitted but not yet folded
	// into a completed run.
	PendingDecisions []semdiv.Decision `json:"pendingDecisions,omitempty"`
	// Units and UnitAliases are the unit registry's curated additions
	// (units.Registry.Added). Sidecars written before they were kept
	// restore the standard registry.
	Units       []units.Unit  `json:"units,omitempty"`
	UnitAliases []units.Alias `json:"unitAliases,omitempty"`
}

// sidecarKey names a sidecar's content; the zero key names none.
type sidecarKey struct {
	set            bool
	version, names uint64
}

// EpochSidecar serializes the current curation and names hash. The
// encoding is deterministic for a given state.
func (c *Context) EpochSidecar() ([]byte, error) {
	cur := c.Curation()
	es := epochState{
		Version:          1,
		CurationVersion:  cur.Version,
		NamesHash:        c.lastNamesHash,
		PendingDecisions: cur.PendingDecisions,
	}
	es.Units, es.UnitAliases = cur.Units.Added()
	kdata, err := semdiv.EncodeKnowledge(cur.Knowledge)
	if err != nil {
		return nil, err
	}
	es.Knowledge = kdata
	if len(cur.DiscoveredRules) > 0 {
		rules, err := refine.ExportJSON(cur.DiscoveredRules)
		if err != nil {
			return nil, fmt.Errorf("core: serialize rules: %w", err)
		}
		es.Rules = rules
	}
	return json.Marshal(es)
}

// RestoreEpochSidecar is EpochSidecar's inverse, run once at warm
// restart after the published catalog has been recovered and seeded
// into the working catalog: it publishes a curation that merges the
// persisted knowledge over the current tables and reinstates the
// discovered rules, the pending curator decisions and the version, and
// marks the context as having completed a run at that version — so the
// next Wrangle scopes its work to the archive churn since the crash
// instead of reprocessing everything.
func (c *Context) RestoreEpochSidecar(data []byte) error {
	var es epochState
	if err := json.Unmarshal(data, &es); err != nil {
		return fmt.Errorf("core: decode knowledge sidecar: %w", err)
	}
	if es.Version != 1 {
		return fmt.Errorf("core: unsupported knowledge sidecar version %d", es.Version)
	}
	next := *c.Curation()
	if es.Knowledge != nil {
		next.Knowledge = next.Knowledge.Clone()
		if err := semdiv.MergeEncodedKnowledge(next.Knowledge, es.Knowledge); err != nil {
			return err
		}
	}
	if len(es.Units)+len(es.UnitAliases) > 0 {
		next.Units = next.Units.Clone()
		for _, u := range es.Units {
			if have, ok := next.Units.Lookup(u.Symbol); ok && have == u {
				continue
			}
			if err := next.Units.AddUnit(u); err != nil {
				return fmt.Errorf("core: restore units: %w", err)
			}
		}
		for _, a := range es.UnitAliases {
			if err := next.Units.AddAlias(a.Alias, a.Symbol); err != nil {
				return fmt.Errorf("core: restore units: %w", err)
			}
		}
	}
	if es.Rules != nil {
		rules, err := refine.ImportJSON(es.Rules)
		if err != nil {
			return fmt.Errorf("core: restore rules: %w", err)
		}
		next.DiscoveredRules = rules
	}
	next.PendingDecisions = es.PendingDecisions
	next.Version = es.CurationVersion
	c.cur.Store(&next)
	c.lastNamesHash = es.NamesHash
	// The persisted state is, by construction, the state at the end of a
	// completed (published) run: record the bookkeeping that lets the
	// next scan treat stat-unchanged files as clean.
	c.hasRun = true
	c.lastRunVersion = es.CurationVersion
	c.pendingDirty = nil
	return nil
}
