package metamess

import (
	"encoding/json"
	"errors"
	"fmt"

	"metamess/internal/catalog"
	"metamess/internal/validate"
)

// Push-based ingest: instead of waiting for a wrangle to walk an
// archive, a live producer parses its own datasets (scan.ParseBytes, or
// any process producing catalog features) and publishes the batch
// directly. The batch flows through the same pipeline a wrangle's
// publish uses — sharded ApplyDelta, durable journal append — so
// durability, follower replication, and
// generation-keyed cache invalidation need no push-specific machinery,
// and a warm publish costs zero filesystem stat calls.

// MaxPublishFeatures bounds one publish batch; larger batches are
// rejected before any work.
const MaxPublishFeatures = 10000

// ErrPublishRejected marks a publish refused before any state changed:
// a malformed request, an invalid feature, or a validation error. The
// serving layer maps it to a client-error status. A rejected publish
// leaves the catalogs, the snapshot generation, and the journal exactly
// as they were.
var ErrPublishRejected = errors.New("metamess: publish rejected")

// PublishRequest is the POST /publish wire body: a batch of complete
// catalog features to upsert, plus archive-relative paths to retract.
// Features use the catalog's JSON encoding — the same shape the
// checkpoint, the journal, and the replication stream carry.
type PublishRequest struct {
	Features []*catalog.Feature `json:"features,omitempty"`
	Remove   []string           `json:"remove,omitempty"`
}

// PublishReceipt reports one accepted publish.
type PublishReceipt struct {
	// Generation is the served snapshot generation after the publish —
	// the value a read-your-writes client sends as X-Min-Generation.
	Generation uint64 `json:"generation"`
	// Published and Retracted count the features the delta actually
	// changed; a replayed batch counts zero for both.
	Published int `json:"published"`
	Retracted int `json:"retracted"`
	// Datasets is the catalog size after the publish.
	Datasets int `json:"datasets"`
	// Stable marks a publish whose delta was empty: the generation did
	// not move and every cached response stayed valid.
	Stable bool `json:"stable"`
}

// DecodePublishRequest parses and statically validates a publish body.
// The error is always ErrPublishRejected-wrapped: nothing about a
// malformed request touches system state. Validation is exhaustive
// before any mutation — batch size, per-feature invariants
// (catalog.Feature.Validate), duplicate features and removal paths, and
// upsert/retract overlaps are all checked here. The body goes through
// the catalog's record kernel, and through json.Unmarshal when the
// kernel declines.
func DecodePublishRequest(data []byte) (*PublishRequest, error) {
	var req PublishRequest
	var ok bool
	if req.Features, req.Remove, ok = catalog.DecodePublishBody(data); !ok {
		if err := json.Unmarshal(data, &req); err != nil {
			return nil, fmt.Errorf("%w: bad request body: %v", ErrPublishRejected, err)
		}
	}
	if err := validatePublishRequest(&req); err != nil {
		return nil, err
	}
	return &req, nil
}

// validatePublishRequest checks a decoded request's static invariants.
func validatePublishRequest(req *PublishRequest) error {
	if len(req.Features) == 0 && len(req.Remove) == 0 {
		return fmt.Errorf("%w: empty publish (no features, no removals)", ErrPublishRejected)
	}
	if len(req.Features) > MaxPublishFeatures {
		return fmt.Errorf("%w: batch of %d features exceeds the %d cap", ErrPublishRejected, len(req.Features), MaxPublishFeatures)
	}
	seen := make(map[string]bool, len(req.Features))
	for i, f := range req.Features {
		if f == nil {
			return fmt.Errorf("%w: feature %d is null", ErrPublishRejected, i)
		}
		if err := f.Validate(); err != nil {
			return fmt.Errorf("%w: feature %d: %v", ErrPublishRejected, i, err)
		}
		if seen[f.ID] {
			return fmt.Errorf("%w: duplicate feature %s (path %q)", ErrPublishRejected, f.ID, f.Path)
		}
		seen[f.ID] = true
	}
	removing := make(map[string]bool, len(req.Remove))
	for _, p := range req.Remove {
		if p == "" {
			return fmt.Errorf("%w: empty removal path", ErrPublishRejected)
		}
		if seen[catalog.IDForPath(p)] {
			return fmt.Errorf("%w: path %q both published and removed", ErrPublishRejected, p)
		}
		if removing[p] {
			return fmt.Errorf("%w: duplicate removal path %q", ErrPublishRejected, p)
		}
		removing[p] = true
	}
	return nil
}

// publishChecks is the validation suite a push runs over its batch
// before touching any state. The batch-scoped catalog means directory
// type mixes and implausible ranges within the batch are caught; the
// synonym-coverage and expected-datasets checks need whole-catalog
// context and stay with the wrangle chain.
func publishChecks() []validate.Check {
	return []validate.Check{
		validate.SameTypeDirectory{},
		validate.UnitsResolved{},
		validate.PlausibleRanges{Slack: 0.5},
	}
}

// PublishFeatures ingests one pushed batch: validate everything, then
// apply and journal the delta exactly like a wrangle's publish step.
// The method serializes against Wrangle, so a push and a background
// re-wrangle can never interleave their apply/journal sequences.
//
// The returned error is ErrPublishRejected-wrapped when the batch was
// refused with no state change; any other error is an internal failure
// (e.g. a degraded journal refusing appends).
func (s *System) PublishFeatures(req *PublishRequest) (PublishReceipt, error) {
	if req == nil {
		return PublishReceipt{}, fmt.Errorf("%w: nil request", ErrPublishRejected)
	}
	if err := validatePublishRequest(req); err != nil {
		return PublishReceipt{}, err
	}
	// Rule-based validation over the batch alone, before the lock (the
	// curation is an immutable value): a batch that fails the checks is
	// rejected without blocking wrangles.
	scratch := catalog.NewWorking()
	for _, f := range req.Features {
		if err := scratch.Upsert(f); err != nil {
			return PublishReceipt{}, fmt.Errorf("%w: %v", ErrPublishRejected, err)
		}
	}
	cur := s.ctx.Curation()
	report := validate.Run(&validate.Context{
		Catalog:   scratch,
		Knowledge: cur.Knowledge,
		Units:     cur.Units,
	}, publishChecks()...)
	if !report.OK() {
		findings := ""
		for _, f := range report.Findings {
			if f.Severity == validate.Error {
				findings = f.Detail
				break
			}
		}
		return PublishReceipt{}, fmt.Errorf("%w: validation failed with %d errors (%s)", ErrPublishRejected, report.Errors(), findings)
	}

	removeIDs := make([]string, 0, len(req.Remove))
	for _, p := range req.Remove {
		removeIDs = append(removeIDs, catalog.IDForPath(p))
	}

	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	gen, changed, removed, err := s.ctx.PublishDirect(req.Features, removeIDs)
	if err != nil {
		return PublishReceipt{}, fmt.Errorf("metamess: %w", err)
	}
	return PublishReceipt{
		Generation: gen,
		Published:  changed,
		Retracted:  removed,
		Datasets:   s.ctx.Published.Len(),
		Stable:     changed == 0 && removed == 0,
	}, nil
}
