package metamess

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"metamess/internal/catalog"
	"metamess/internal/workload"
)

// FuzzPublishRequest feeds hostile POST /publish bodies to the decoder.
// The endpoint is the system's push-era trust boundary — any producer
// that can reach the daemon supplies these bytes — so the properties
// are:
//
//   - no input panics the decoder;
//   - DecodePublishRequest returns a request XOR an error;
//   - every rejection is ErrPublishRejected-wrapped (the server maps it
//     to a client 4xx, never a 5xx);
//   - decoding is deterministic;
//   - whatever the catalog's record kernel decodes, it decodes exactly
//     as json.Unmarshal does;
//   - an accepted request is internally coherent — every feature passes
//     catalog validation, IDs and removal paths are unique, and no path
//     is both published and removed — and survives a marshal/decode
//     round trip.
func FuzzPublishRequest(f *testing.F) {
	f.Add([]byte(`{"features":[{"id":"607ef439c7d64fff","path":"push/a.csv","source":"push","format":"csv",` +
		`"bbox":{"minLat":45.5,"minLon":-124.4,"maxLat":45.6,"maxLon":-124.3},` +
		`"time":{"start":"2010-06-01T00:00:00Z","end":"2010-06-02T00:00:00Z"},` +
		`"variables":[{"rawName":"temp [C]","name":"temperature","unit":"C","range":{"min":5,"max":10},"count":2}],` +
		`"rowCount":2,"bytes":120,"scannedAt":"2010-06-02T00:00:00Z","contentHash":"deadbeef00000000"}]}`))
	f.Add([]byte(`{"remove":["stations/gone.obs"]}`))
	f.Add([]byte(`{"remove":["stations/gone.obs","stations/gone.obs"]}`))
	f.Add([]byte(`{"features":[null]}`))
	f.Add([]byte(`{"features":[{"id":"wrong","path":"a.csv"}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		if features, remove, ok := catalog.DecodePublishBody(data); ok {
			var ref PublishRequest
			if err := json.Unmarshal(data, &ref); err != nil {
				t.Fatalf("kernel accepted a body encoding/json rejects: %v", err)
			}
			if got := (PublishRequest{Features: features, Remove: remove}); !reflect.DeepEqual(got, ref) {
				t.Fatalf("kernel decode differs from encoding/json:\n got %+v\nwant %+v", got, ref)
			}
		}
		req1, err1 := DecodePublishRequest(data)
		if (req1 == nil) == (err1 == nil) {
			t.Fatalf("request XOR error violated: req=%v err=%v", req1, err1)
		}
		req2, err2 := DecodePublishRequest(data)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("nondeterministic outcome: first err=%v, second err=%v", err1, err2)
		}
		if err1 != nil {
			if !errors.Is(err1, ErrPublishRejected) {
				t.Fatalf("rejection not ErrPublishRejected-wrapped: %v", err1)
			}
			return
		}
		j1, _ := json.Marshal(req1)
		j2, _ := json.Marshal(req2)
		if string(j1) != string(j2) {
			t.Fatalf("nondeterministic decode:\n first %s\nsecond %s", j1, j2)
		}
		if len(req1.Features) == 0 && len(req1.Remove) == 0 {
			t.Fatal("accepted request is empty")
		}
		seen := make(map[string]bool, len(req1.Features))
		for _, feat := range req1.Features {
			if feat == nil {
				t.Fatal("accepted request carries a nil feature")
			}
			if err := feat.Validate(); err != nil {
				t.Fatalf("accepted feature invalid: %v", err)
			}
			if seen[feat.ID] {
				t.Fatalf("accepted request carries duplicate id %s", feat.ID)
			}
			seen[feat.ID] = true
		}
		removing := make(map[string]bool, len(req1.Remove))
		for _, p := range req1.Remove {
			if removing[p] {
				t.Fatalf("accepted request removes %q twice", p)
			}
			removing[p] = true
		}
		// A request that decoded once must survive its own canonical
		// encoding: the journal and the replication stream re-marshal
		// features, so re-encoding must not turn acceptance into
		// rejection.
		reenc, err := json.Marshal(req1)
		if err != nil {
			t.Fatalf("accepted request does not marshal: %v", err)
		}
		if _, err := DecodePublishRequest(reenc); err != nil {
			t.Fatalf("round-tripped request rejected: %v", err)
		}
	})
}

// TestPublishBodiesTakeTheKernel: the bodies the load generator posts —
// json.Marshal of a feature batch — are decoded by the catalog's record
// kernel, not handed back to encoding/json.
func TestPublishBodiesTakeTheKernel(t *testing.T) {
	reqs, err := workload.PublishRequests("", 4, 25, 1)
	if err != nil {
		t.Fatal(err)
	}
	retract, err := json.Marshal(PublishRequest{Features: []*catalog.Feature{}, Remove: []string{"push/b0000/f000.csv"}})
	if err != nil {
		t.Fatal(err)
	}
	for i, body := range append([][]byte{retract}, reqs[0].Body, reqs[1].Body, reqs[2].Body, reqs[3].Body) {
		if _, _, ok := catalog.DecodePublishBody(body); !ok {
			t.Errorf("body %d declined by the kernel:\n%.300s", i, body)
		}
	}
}
