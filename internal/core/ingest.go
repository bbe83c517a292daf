package core

import (
	"fmt"
	"slices"

	"metamess/internal/catalog"
)

// PublishDirect applies an externally produced feature delta — a push
// from a live producer, not a wrangle over the working catalog — through
// the same Commit a chain Publish uses: the published catalog's sharded
// ApplyDelta and the durable journal append (with the knowledge sidecar
// when the curation moved). Durability, replication tailing, and generation-keyed cache
// invalidation therefore work unchanged for pushed metadata.
//
// The working catalog is kept in sync so the next Wrangle's publish
// diff does not see the pushed features as drift and retract them, and
// every pushed or removed ID joins the next run's scope (see
// Context.scope), so its validation and publish diff cover them. (A
// later filesystem scan can still retract a pushed feature whose path
// lies inside the scanned directories but has no backing file — push
// paths should live outside the walker's scope.)
//
// The delta is the published catalog's DiffOf the mirrored working
// catalog at the batch's IDs — the diff a chain Publish takes — so
// features content-equal to their published predecessor and removals of
// absent IDs drop out, and a replayed push is a generation-stable no-op,
// exactly like a no-op re-wrangle. Callers must serialize PublishDirect
// against chain runs; the facade holds one publish lock across both.
//
// Every feature must already be validated — PublishDirect validates
// again (defense in depth) before the mirror, so a rejected publish
// leaves the catalogs, the generation, and the journal untouched. The
// working catalog stores its own copy of each feature; the caller's stay
// the caller's.
func (c *Context) PublishDirect(features []*catalog.Feature, removeIDs []string) (gen uint64, changed int, removed int, err error) {
	if c.Published == nil {
		return 0, 0, 0, fmt.Errorf("core: no published catalog configured")
	}
	for _, f := range features {
		if f == nil {
			return 0, 0, 0, fmt.Errorf("core: publish: nil feature")
		}
		if err := f.Validate(); err != nil {
			return 0, 0, 0, fmt.Errorf("core: publish: %w", err)
		}
	}

	// DiffOf wants distinct IDs.
	ids := make([]string, 0, len(features)+len(removeIDs))
	for _, f := range features {
		ids = append(ids, f.ID)
	}
	ids = append(ids, removeIDs...)
	slices.Sort(ids)
	ids = slices.Compact(ids)
	c.addScope(ids...)
	for _, f := range features {
		if err := c.Working.Upsert(f); err != nil {
			return 0, 0, 0, fmt.Errorf("core: publish: %w", err)
		}
	}
	for _, id := range removeIDs {
		c.Working.Delete(id)
	}
	applyChanged, applyRemoved := c.Published.DiffOf(c.Working, ids)

	// The commit changes the published catalog only at scoped IDs, so a
	// scope that was in step with it stays so.
	inStep := c.Published.Generation() == c.publishedGen
	if _, _, err := c.Commit(applyChanged, applyRemoved, 0, nil); err != nil {
		return 0, 0, 0, fmt.Errorf("core: publish: %w", err)
	}
	if inStep {
		c.publishedGen = c.Published.Generation()
	}
	return c.Published.Generation(), len(applyChanged), len(applyRemoved), nil
}
