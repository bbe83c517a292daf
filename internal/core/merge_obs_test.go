package core

import (
	"fmt"
	"testing"

	"metamess/internal/catalog"
	"metamess/internal/geo"
	"metamess/internal/obs"
)

// TestCommitAttributesMerges pins where merge time goes: a commit whose
// apply merges segments hangs a "merge" span under its apply-delta span
// and feeds dnh_publish_stage_duration_seconds{stage="merge"}; a commit
// that only pushes a delta segment does neither.
func TestCommitAttributesMerges(t *testing.T) {
	feature := func(i, version int) *catalog.Feature {
		path := fmt.Sprintf("m/%03d.obs", i)
		return &catalog.Feature{
			ID: catalog.IDForPath(path), Path: path, Source: "m", Format: "obs",
			BBox:      geo.EmptyBBox(),
			Variables: []catalog.VarFeature{{RawName: "salinity", Name: "salinity", Range: geo.NewValueRange(0, float64(version))}},
		}
	}
	ctx := &Context{Published: catalog.NewSharded(1)}
	var preload []*catalog.Feature
	for i := 0; i < 64; i++ {
		preload = append(preload, feature(i, 0))
	}
	if _, _, err := ctx.Commit(preload, nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	commit := func(changed ...*catalog.Feature) *obs.SpanTree {
		t.Helper()
		ctx.Trace = obs.NewTrace()
		defer func() { ctx.Trace = nil }()
		ctx.TraceSpan = ctx.Trace.Start(-1, "publish")
		if _, _, err := ctx.Commit(changed, nil, 0, nil); err != nil {
			t.Fatal(err)
		}
		tree := ctx.Trace.Tree()
		if len(tree.Children) != 1 || tree.Children[0].Name != "apply-delta" {
			t.Fatalf("publish spans: %+v", tree.Children)
		}
		return tree.Children[0]
	}

	// One replacement in a 64-feature shard: a delta segment, no merge.
	before := mergeSeconds.Count()
	if apply := commit(feature(1, 1)); len(apply.Children) != 0 || mergeSeconds.Count() != before {
		t.Fatalf("a plain push attributed a merge: %+v", apply.Children)
	}
	// Five more replacements mask past the bound (64/16 = 4): the base
	// and the delta merge.
	apply := commit(feature(2, 1), feature(3, 1), feature(4, 1), feature(5, 1), feature(6, 1))
	if len(apply.Children) != 1 || apply.Children[0].Name != "merge" ||
		apply.Children[0].Attrs["shards"] != 1 || apply.Children[0].Attrs["base"] != 1 {
		t.Fatalf("merge not attributed: %+v", apply.Children)
	}
	if got := mergeSeconds.Count() - before; got != 1 {
		t.Fatalf("merge stage observed %d times, want 1", got)
	}
}
