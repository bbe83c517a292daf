package workload

import (
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// This file generates overload-shaped traffic: zipfian key popularity
// (a few queries dominate, a long tail stays cold — the distribution
// that exercises both the cache and the singleflight), steady and burst
// arrival schedules for open-loop replay, and a hostile request mix
// drawn from the fuzz corpora (parser-breaking inputs a public endpoint
// will eventually receive).

// ZipfIndices returns total indices in [0, n) with zipfian popularity:
// index 0 is the most popular, s > 1 steepens the skew. Deterministic
// for a seed. The draws are shuffled-free — raw rand.Zipf order — so
// repeats of a popular index cluster naturally, the arrival pattern
// that makes singleflight collapsing observable.
func ZipfIndices(total, n int, s float64, seed int64) []int {
	if n <= 0 || total <= 0 {
		return nil
	}
	if s <= 1 {
		s = 1.2
	}
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	out := make([]int, total)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// SteadyArrivals returns n offsets at a constant qps — the open-loop
// baseline schedule.
func SteadyArrivals(n int, qps float64) []time.Duration {
	if n <= 0 || qps <= 0 {
		return nil
	}
	gap := time.Duration(float64(time.Second) / qps)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i) * gap
	}
	return out
}

// BurstArrivals returns n offsets averaging qps, released in bursts of
// burst simultaneous requests: every burst lands at one instant, and
// bursts are spaced to preserve the average rate. Bursts are what
// overflow a bounded admission queue — a steady schedule at the same
// average rate may never shed.
func BurstArrivals(n, burst int, qps float64) []time.Duration {
	if n <= 0 || qps <= 0 {
		return nil
	}
	if burst <= 1 {
		return SteadyArrivals(n, qps)
	}
	period := time.Duration(float64(burst) / qps * float64(time.Second))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i/burst) * period
	}
	return out
}

// CorpusStrings extracts the string-typed inputs from a `go test fuzz
// v1` corpus directory: one file per case, each value line shaped like
// string("...") or []byte("..."). Unparsable lines are skipped — the
// corpus only has to yield hostile bytes, not parse perfectly.
func CorpusStrings(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("workload: corpus %s: %w", dir, err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(raw), "\n") {
			line = strings.TrimSpace(line)
			var lit string
			switch {
			case strings.HasPrefix(line, "string(") && strings.HasSuffix(line, ")"):
				lit = line[len("string(") : len(line)-1]
			case strings.HasPrefix(line, "[]byte(") && strings.HasSuffix(line, ")"):
				lit = line[len("[]byte(") : len(line)-1]
			default:
				continue
			}
			if s, err := strconv.Unquote(lit); err == nil {
				out = append(out, s)
			}
		}
	}
	return out, nil
}

// HostileTextRequests builds n GET /search/text requests whose q values
// are drawn (seeded, with replacement) from the corpus strings — the
// abuse mix for the no-5xx invariant. Most will be rejected with 400;
// none may crash or 500 the server.
func HostileTextRequests(base string, corpus []string, n int, seed int64) []HTTPRequest {
	if len(corpus) == 0 || n <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]HTTPRequest, n)
	for i := range out {
		q := corpus[rng.Intn(len(corpus))]
		out[i] = HTTPRequest{
			Method: "GET",
			URL:    base + "/search/text?q=" + url.QueryEscape(q),
		}
	}
	return out
}
