package core

import (
	"encoding/json"
	"fmt"

	"metamess/internal/refine"
	"metamess/internal/semdiv"
)

// epochState is the knowledge-epoch sidecar riding every journaled
// publish: everything the incremental machinery needs, beyond the
// catalog features themselves, for a restarted process to continue
// delta-scoped instead of falling back to a cold full reprocess —
// discovered rules (ExportRules-style state), curated synonym and
// abbreviation additions, curator decisions still pending, and the
// epoch/fingerprint bookkeeping the scan compares against.
type epochState struct {
	Version        int    `json:"version"`
	KnowledgeEpoch uint64 `json:"knowledgeEpoch"`
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
}

// EpochSidecar serializes the context's knowledge-epoch state. The
// encoding is deterministic for a given state, so the journal can skip
// appends when nothing (catalog or knowledge) changed.
func (c *Context) EpochSidecar() ([]byte, error) {
	es := epochState{
		Version:          1,
		KnowledgeEpoch:   c.KnowledgeEpoch,
		NamesHash:        c.lastNamesHash,
		PendingDecisions: c.PendingDecisions,
	}
	if c.Knowledge != nil {
		kdata, err := semdiv.EncodeKnowledge(c.Knowledge)
		if err != nil {
			return nil, err
		}
		es.Knowledge = kdata
	}
	if len(c.DiscoveredRules) > 0 {
		rules, err := refine.ExportJSON(c.DiscoveredRules)
		if err != nil {
			return nil, fmt.Errorf("core: serialize rules: %w", err)
		}
		es.Rules = rules
	}
	return json.Marshal(es)
}

// RestoreEpochSidecar is EpochSidecar's inverse, run once at warm
// restart after the published catalog has been recovered and cloned
// into the working catalog: it merges the persisted curation back into
// the knowledge base, reinstates the discovered rules and pending
// curator decisions, and marks the context as having completed a run at
// the persisted epoch — so the next Wrangle scopes its work to the
// archive churn since the crash instead of reprocessing everything.
func (c *Context) RestoreEpochSidecar(data []byte) error {
	var es epochState
	if err := json.Unmarshal(data, &es); err != nil {
		return fmt.Errorf("core: decode epoch sidecar: %w", err)
	}
	if es.Version != 1 {
		return fmt.Errorf("core: unsupported epoch sidecar version %d", es.Version)
	}
	if es.Knowledge != nil && c.Knowledge != nil {
		if err := semdiv.MergeEncodedKnowledge(c.Knowledge, es.Knowledge); err != nil {
			return err
		}
	}
	if es.Rules != nil {
		rules, err := refine.ImportJSON(es.Rules)
		if err != nil {
			return fmt.Errorf("core: restore rules: %w", err)
		}
		c.DiscoveredRules = rules
	}
	c.PendingDecisions = es.PendingDecisions
	c.KnowledgeEpoch = es.KnowledgeEpoch
	c.lastNamesHash = es.NamesHash
	// The persisted state is, by construction, the state at the end of a
	// completed (published) run: record the bookkeeping that lets the
	// next scan treat stat-unchanged files as clean.
	c.hasRun = true
	c.lastRunEpoch = es.KnowledgeEpoch
	c.lastKnowledgeFP = knowledgeFingerprint(c.Knowledge, c.Units, len(c.PendingDecisions))
	c.pendingDirty = nil
	return nil
}
