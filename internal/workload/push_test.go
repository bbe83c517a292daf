package workload

import (
	"bytes"
	"encoding/json"
	"testing"

	"metamess/internal/catalog"
)

func TestPublishRequestsDeterministicAndValid(t *testing.T) {
	a, err := PublishRequests("http://x", 3, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PublishRequests("http://x", 3, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 3 {
		t.Fatalf("got %d requests, want 3", len(a))
	}
	seen := make(map[string]bool)
	for i := range a {
		if a[i].Method != "POST" || a[i].URL != "http://x/publish" {
			t.Errorf("request %d: %s %s", i, a[i].Method, a[i].URL)
		}
		if !bytes.Equal(a[i].Body, b[i].Body) {
			t.Errorf("request %d not deterministic", i)
		}
		var wire struct {
			Features []*catalog.Feature `json:"features"`
		}
		if err := json.Unmarshal(a[i].Body, &wire); err != nil {
			t.Fatalf("request %d body: %v", i, err)
		}
		if len(wire.Features) != 4 {
			t.Fatalf("request %d: %d features, want 4", i, len(wire.Features))
		}
		for _, f := range wire.Features {
			if err := f.Validate(); err != nil {
				t.Errorf("request %d: invalid feature: %v", i, err)
			}
			if seen[f.Path] {
				t.Errorf("path %s repeats across batches — publishes would be no-ops", f.Path)
			}
			seen[f.Path] = true
		}
	}
	if _, err := PublishRequests("http://x", 0, 4, 9); err == nil {
		t.Error("n=0 accepted")
	}
}
