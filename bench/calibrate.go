package main

import (
	"context"
	"fmt"
	"io"
	"time"
)

// runCalibration is the A/A mode: the same code, seed and size, run
// several times per workload (every workload, or the one -workload
// names), untraced for the end-to-end metrics and traced for the counts
// that must repeat exactly. It prints each
// metric's min, median, max and relative spread and fails when an
// end-to-end spread exceeds half its bound or an exact count differs
// between runs — a benchmark that disagrees with itself by more than
// that cannot resolve a regression at the bound.
func runCalibration(ctx context.Context, cfg config, runs int, timeout time.Duration, log io.Writer) error {
	if runs < 2 {
		return fmt.Errorf("-runs must be at least 2")
	}
	var bad []string
	fmt.Fprintf(log, "A/A calibration: %d runs per workload, seed %d, -seconds %g, %d datasets\n\n", runs, cfg.seed, cfg.seconds, cfg.datasets)
	fmt.Fprintln(log, "| workload | metric | min | median | max | spread | limit |")
	fmt.Fprintln(log, "|---|---|---|---|---|---|---|")
	names := workloadNames
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	for _, name := range names {
		cfg.workload = name
		samples := map[string][]float64{}
		for _, traced := range []bool{false, true} {
			cfg.trace = traced
			for i := 0; i < runs; i++ {
				res, err := runGuarded(ctx, cfg, timeout, io.Discard)
				if err != nil {
					return fmt.Errorf("%s run %d: %w", name, i, err)
				}
				if !res.correct {
					return fmt.Errorf("%s run %d: %d of %d ops failed, failed checks: %q", name, i, res.failed, res.ops, res.failures)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				for _, d := range defs {
					if !traced || d.exact {
						samples[d.name] = append(samples[d.name], res.values[d.name])
					}
				}
			}
		}
		for _, d := range endToEnd {
			v := samples[d.name]
			s, limit := spread(v), d.bound/2
			sorted := sortedCopy(v)
			fmt.Fprintf(log, "| %s | %s (%s) | %.4g | %.4g | %.4g | %.2f%% | %.1f%% |\n",
				name, d.name, d.unit, sorted[0], median(v), sorted[len(sorted)-1], 100*s, 100*limit)
			if s > limit {
				bad = append(bad, fmt.Sprintf("%s %s: spread %.2f%% exceeds half its %.0f%% bound", name, d.name, 100*s, 100*d.bound))
			}
		}
		for _, d := range perLayer {
			if !d.exact {
				continue
			}
			v := sortedCopy(samples[d.name])
			if v[len(v)-1] == 0 {
				continue // a layer this workload bypasses
			}
			fmt.Fprintf(log, "| %s | %s (%s) | %g | %g | %g | exact | equal |\n", name, d.name, d.unit, v[0], median(v), v[len(v)-1])
			if v[0] != v[len(v)-1] {
				bad = append(bad, fmt.Sprintf("%s %s: %v does not repeat exactly", name, d.name, samples[d.name]))
			}
		}
	}
	fmt.Fprintln(log)
	for _, msg := range bad {
		fmt.Fprintln(log, "FAIL:", msg)
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d metrics outside their calibration limit", len(bad))
	}
	fmt.Fprintln(log, "calibration passed: every end-to-end spread is within half its bound and every exact count repeated")
	return nil
}
