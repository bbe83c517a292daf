package workload

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"metamess/internal/catalog"
	"metamess/internal/geo"
)

// This file generates push-ingest traffic: batched POST /publish
// requests carrying complete, valid catalog features — the workload
// shape of a push-fed deployment, where producers land deltas while
// readers search.

// publishWire mirrors the POST /publish body. It is declared locally so
// the workload package (which experiment harnesses import) does not
// depend on the metamess facade.
type publishWire struct {
	Features []*catalog.Feature `json:"features,omitempty"`
	Remove   []string           `json:"remove,omitempty"`
}

// pushVars are the canonical variables the generated features carry,
// with ranges inside the vocabulary's plausible bounds so the publishes
// clear wrangle-grade validation.
var pushVars = []struct {
	name     string
	raw      string
	unit     string
	min, max float64
}{
	{"water_temperature", "temp [C]", "C", 6, 18},
	{"salinity", "sal (PSU)", "PSU", 2, 30},
	{"turbidity", "turb", "NTU", 1, 80},
	{"dissolved_oxygen", "do mg/l", "mg/L", 3, 12},
}

// PublishRequests builds n POST /publish batches of batch features
// each, deterministic for a seed. Every batch lands at fresh paths
// (push/b<batch>/f<i>.csv) so each publish is a real delta: the
// generation advances exactly once per accepted batch.
func PublishRequests(base string, n, batch int, seed int64) ([]HTTPRequest, error) {
	if n <= 0 || batch <= 0 {
		return nil, fmt.Errorf("workload: publish stream needs n > 0 and batch > 0")
	}
	rng := rand.New(rand.NewSource(seed))
	t0 := time.Date(2010, 6, 1, 0, 0, 0, 0, time.UTC)
	out := make([]HTTPRequest, n)
	for i := 0; i < n; i++ {
		features := make([]*catalog.Feature, batch)
		for j := 0; j < batch; j++ {
			v := pushVars[rng.Intn(len(pushVars))]
			lo := v.min + rng.Float64()*(v.max-v.min)*0.5
			hi := lo + rng.Float64()*(v.max-lo)
			lat := 45 + rng.Float64()*2
			lon := -125 + rng.Float64()*2
			start := t0.Add(time.Duration(rng.Intn(90*24)) * time.Hour)
			path := fmt.Sprintf("push/b%04d/f%03d.csv", i, j)
			features[j] = &catalog.Feature{
				ID:     catalog.IDForPath(path),
				Path:   path,
				Source: "push",
				Format: "csv",
				BBox:   geo.BBox{MinLat: lat, MinLon: lon, MaxLat: lat + 0.05, MaxLon: lon + 0.05},
				Time:   geo.NewTimeRange(start, start.Add(24*time.Hour)),
				Variables: []catalog.VarFeature{{
					RawName: v.raw,
					Name:    v.name,
					Unit:    v.unit,
					Range:   geo.NewValueRange(lo, hi),
					Count:   24,
				}},
				RowCount:    24,
				Bytes:       int64(256 + rng.Intn(1024)),
				ScannedAt:   start,
				ModTime:     start,
				ContentHash: fmt.Sprintf("%016x", rng.Uint64()),
			}
		}
		body, err := json.Marshal(publishWire{Features: features})
		if err != nil {
			return nil, err
		}
		out[i] = HTTPRequest{Method: http.MethodPost, URL: base + "/publish", Body: body}
	}
	return out, nil
}
