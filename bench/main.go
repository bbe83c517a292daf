// Command dnhbench is the repository's one benchmark: it runs one
// workload per invocation against an in-process dnhd node — a durable
// metamess.System behind a server.Server on a loopback port, driven by
// goroutines in this same process — checks the node's outputs, prints
// every metric by name and unit as one JSON object on its last line of
// standard output, and exits. It starts no other process and leaves no
// listener, goroutine or file behind. See README.md for the design.
//
//	dnhbench -workload search-cold -seed 1 -seconds 10 -trace 0
//	dnhbench -calibrate -runs 3
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

const (
	// archiveDatasets is the size of the generated archive. It is a
	// constant and not a flag: this is the repository's one gate, and a
	// run at another size prints numbers no baseline can be compared with.
	archiveDatasets = 5000
	// workDir holds the run directory and the trace files. It is the
	// directory run.sh builds into, inside the checkout and git-ignored.
	workDir = ".bench_build"
	// unwindGrace is how long a run whose context has ended gets to return
	// before the process removes its directory and exits anyway.
	unwindGrace = 20 * time.Second
)

// metricOut is one reported value.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line: the end-to-end metrics of an untraced run,
// or the per-layer metrics of a traced one.
type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// render selects the metrics a run of this kind reports. Every listed
// metric is present; a per-layer metric of a layer the workload
// bypasses is 0.
func render(res result, traced bool) (output, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := output{Correct: res.correct, Attempted: res.ops, Failed: res.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok && !traced {
			return out, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	return out, nil
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dnhbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{datasets: archiveDatasets}
	fs.StringVar(&cfg.workload, "workload", "", "workload: search-cold, search-hot, publish-steady or wrangle-churn")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "size of the timed phase: op count = seconds x the workload's nominal rate")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "file the traced run writes its spans to (default "+workDir+"/trace-<workload>.csv)")
	timeout := fs.Duration("timeout", 150*time.Second, "watchdog: cancel the run after this long, clean up and exit non-zero")
	calibrate := fs.Bool("calibrate", false, "A/A mode: run every workload -runs times and check the spreads against the bounds")
	runs := fs.Int("runs", 3, "repeats per workload under -calibrate")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace != 0
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "dnhbench: -seconds must be positive")
		return 2
	}
	// The run directory's name is fixed before the run starts, so that the
	// watchdog can remove it whatever state the run is stuck in.
	abs, err := filepath.Abs(filepath.Join(workDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		fmt.Fprintln(stderr, "dnhbench:", err)
		return 2
	}
	cfg.runDir = abs

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *calibrate {
		if err := runCalibration(ctx, cfg, *runs, *timeout, stderr); err != nil {
			fmt.Fprintln(stderr, "dnhbench: calibration:", err)
			return 1
		}
		return 0
	}
	res, err := runGuarded(ctx, cfg, *timeout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "dnhbench:", err)
		return 1
	}
	out, err := render(res, cfg.trace)
	if err != nil {
		fmt.Fprintln(stderr, "dnhbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "dnhbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		fmt.Fprintln(stderr, "dnhbench: output checks failed")
		return 1
	}
	return 0
}

// runGuarded is run under the watchdog: the timeout ends the context,
// and guard ends the process if that was not enough.
func runGuarded(ctx context.Context, cfg config, timeout time.Duration, log io.Writer) (result, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	release := guard(ctx, cfg.runDir, unwindGrace, log)
	defer release()
	return run(ctx, cfg, log)
}

// guard bounds the life of a run whose context has ended. SIGINT, SIGTERM
// and the timeout end the context; every request the load generator has
// in flight carries it, so run notices and unwinds through its deferred
// teardown. A run that has still not called release a grace later is
// stuck in a call no context reaches — a deadlocked Close, a Wrangle
// that never ends — and will not unwind: guard removes the run directory
// itself and exits the process, so that -timeout holds whatever the
// program under test does.
func guard(ctx context.Context, runDir string, grace time.Duration, log io.Writer) (release func()) {
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
			return
		case <-ctx.Done():
		}
		select {
		case <-done:
		case <-time.After(grace):
			fmt.Fprintf(log, "dnhbench: run did not unwind within %v of its context ending (%v); removing %s and exiting\n", grace, ctx.Err(), runDir)
			os.RemoveAll(runDir)
			os.Exit(1)
		}
	}()
	return func() { close(done) }
}
