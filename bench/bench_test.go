package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesProgram pins BENCHMARK.json to the program's
// own tables: the same workloads, metrics, units, directions and bounds.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program runs %v", names, workloadNames)
	}
	var e2e, layers []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{name: m.Name, unit: m.Unit, better: m.Better, bound: m.Bound})
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, metricDef{name: m.Name, unit: m.Unit, better: m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs from the program's table:\n file    %+v\n program %+v", e2e, endToEnd)
	}
	want := make([]metricDef, len(perLayer))
	for i, d := range perLayer {
		d.exact = false
		want[i] = d
	}
	if !reflect.DeepEqual(layers, want) {
		t.Errorf("per_layer differs from the program's table:\n file    %+v\n program %+v", layers, want)
	}
	// 0.25 is the most the benchmark's contract lets a bound be.
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %.2f is outside (0, 0.25]", d.name, d.bound)
		}
	}
}

// TestSmoke runs every workload at 1/100 scale, traced and untraced. It
// is also the regression test for a benchmark that outlives itself: once
// run returns, the listener is closed, the run directory is gone and the
// goroutines are back where they started.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	work := t.TempDir()
	runDir := filepath.Join(work, "run")
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			label := name + "/untraced"
			if traced {
				label = name + "/traced"
			}
			t.Run(label, func(t *testing.T) {
				before := runtime.NumGoroutine()
				cfg := config{workload: name, seed: 3, seconds: 0.1, trace: traced, datasets: 50, runDir: runDir,
					traceOut: filepath.Join(work, "trace.csv")}
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				defer cancel()
				res, err := run(ctx, cfg, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 || !res.correct || res.ops < 1 {
					t.Errorf("ops=%d failed=%d correct=%v", res.ops, res.failed, res.correct)
				}
				out, err := render(res, traced)
				if err != nil {
					t.Fatal(err)
				}
				want := map[string]string{}
				if traced {
					for _, m := range bf.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range bf.EndToEnd {
						want[m.Name] = m.Unit
						if out.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, out.Metrics[m.Name].Value)
						}
					}
				}
				got := map[string]string{}
				for k, m := range out.Metrics {
					got[k] = m.Unit
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("reported metrics differ from BENCHMARK.json:\n got  %v\n want %v", got, want)
				}

				if conn, err := net.DialTimeout("tcp", res.addr, time.Second); err == nil {
					conn.Close()
					t.Errorf("listener %s still accepts connections after run returned", res.addr)
				}
				left, err := os.ReadDir(work)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range left {
					if e.IsDir() {
						t.Errorf("run left directory %s behind", e.Name())
					}
				}
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
					time.Sleep(10 * time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > before+2 {
					t.Errorf("%d goroutines after run, %d before", n, before)
				}
			})
		}
	}
}

// TestCancelledRunCleansUp covers the signal and watchdog path: a run
// whose context ends early fails, and still removes everything it made.
func TestCancelledRunCleansUp(t *testing.T) {
	work := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	cfg := config{workload: "search-hot", seed: 5, seconds: 60, datasets: 50, runDir: filepath.Join(work, "run")}
	if _, err := run(ctx, cfg, io.Discard); err == nil {
		t.Fatal("run outlived its context without an error")
	}
	left, err := os.ReadDir(work)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("cancelled run left %d entries in its work directory", len(left))
	}
}

// TestRequestEndsWithContext covers the watchdog's reach into the load
// generator: a server that takes a request and never answers holds post
// and stats only until their context ends.
func TestRequestEndsWithContext(t *testing.T) {
	// A listener nobody accepts from: the kernel completes the handshake
	// and takes the request bytes, and no response ever comes.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	r := &rig{addr: ln.Addr().String(), client: &http.Client{}}
	defer r.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, _, _, err := r.post(ctx, "/search", []byte("{}"), new(bytes.Buffer)); err == nil {
		t.Error("post to a silent server returned without an error")
	}
	if _, err := r.stats(ctx); err == nil {
		t.Error("stats from a silent server returned without an error")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("requests outlived their 200ms context by %v", d)
	}
}

// TestGuardEndsAStuckRun covers the path no deferred teardown reaches: a
// run that ignores its context (here: a child process that blocks
// forever) is ended by guard, which removes the run directory and exits
// non-zero.
func TestGuardEndsAStuckRun(t *testing.T) {
	if dir := os.Getenv("DNHBENCH_TEST_STUCK_RUN"); dir != "" {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		guard(ctx, dir, 100*time.Millisecond, os.Stderr)
		select {} // the stuck run: never returns, never calls release
	}
	dir := filepath.Join(t.TempDir(), "run")
	if err := os.MkdirAll(filepath.Join(dir, "archive"), 0o755); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestGuardEndsAStuckRun$", "-test.timeout=30s")
	cmd.Env = append(os.Environ(), "DNHBENCH_TEST_STUCK_RUN="+dir)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("stuck child: err=%v, want exit code 1\n%s", err, out)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("run directory survived the guard: %v", err)
	}
}
