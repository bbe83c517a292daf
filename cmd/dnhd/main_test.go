package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"metamess"
	"metamess/internal/archive"
	"metamess/internal/server"
	"metamess/internal/workload"
)

// daemonEnv makes the test binary run main() instead of the tests, so
// the process-level test drives the real daemon — flag parsing, signal
// handling, startup logs, kill -9 — without a separate build step, and
// under `go test -race` the daemon is race-instrumented too.
const daemonEnv = "DNHD_TEST_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) == "1" {
		// The parent test holds stdin open for the daemon's lifetime; EOF
		// means the parent died without stopping it, so stop with it.
		go func() {
			io.Copy(io.Discard, os.Stdin)
			os.Exit(3)
		}()
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// pollEvery is the interval of every wait in this file; waits end on an
// observed event or fail after pollTimeout.
const (
	pollEvery   = 10 * time.Millisecond
	pollTimeout = 20 * time.Second
)

// servingRe matches the daemon's "serving on <addr>" startup line.
var servingRe = regexp.MustCompile(`msg="serving on ([^"]+)"`)

// logBuf collects a daemon's stderr and hands the bound address to
// startDaemon once the serving line appears.
type logBuf struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
}

func (l *logBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if l.addr != nil {
		if m := servingRe.FindSubmatch(l.buf.Bytes()); m != nil {
			l.addr <- string(m[1])
			l.addr = nil
		}
	}
	return len(p), nil
}

func (l *logBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// daemon is one dnhd process.
type daemon struct {
	t    *testing.T
	cmd  *exec.Cmd
	log  *logBuf
	base string        // http://host:port
	done chan struct{} // closed once the process has been reaped
	err  error         // Wait's result; read after done
}

// startDaemon runs dnhd with args and returns once it logs its serving
// address.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	serving := make(chan string, 1)
	d := &daemon{t: t, log: &logBuf{addr: serving}, done: make(chan struct{})}
	d.cmd = exec.Command(os.Args[0], args...)
	d.cmd.Env = append(os.Environ(), daemonEnv+"=1")
	d.cmd.Stderr = d.log
	stdin, err := d.cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	t.Cleanup(func() {
		d.cmd.Process.Kill()
		<-d.done
		stdin.Close()
		if strings.Contains(d.log.String(), "WARNING: DATA RACE") {
			t.Errorf("dnhd %v reported a data race:\n%s", args, d.log)
		}
	})
	select {
	case addr := <-serving:
		d.base = "http://" + addr
	case <-d.done:
		t.Fatalf("dnhd %v exited before serving: %v\n%s", args, d.err, d.log)
	case <-time.After(pollTimeout):
		t.Fatalf("dnhd %v never logged its serving address\n%s", args, d.log)
	}
	return d
}

// mustLog fails unless the daemon's log so far contains want.
func (d *daemon) mustLog(want string) {
	d.t.Helper()
	if !strings.Contains(d.log.String(), want) {
		d.t.Fatalf("dnhd log lacks %q:\n%s", want, d.log)
	}
}

// kill is kill -9: no drain, no journal close.
func (d *daemon) kill() {
	d.t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		d.t.Fatal(err)
	}
	<-d.done
}

// signal delivers sig to the daemon.
func (d *daemon) signal(sig os.Signal) {
	d.t.Helper()
	if err := d.cmd.Process.Signal(sig); err != nil {
		d.t.Fatal(err)
	}
}

// terminate sends SIGTERM and requires a clean exit with the bye line.
func (d *daemon) terminate() {
	d.t.Helper()
	d.signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(pollTimeout):
		d.t.Fatalf("dnhd did not exit on SIGTERM\n%s", d.log)
	}
	if d.err != nil {
		d.t.Fatalf("dnhd exit after SIGTERM: %v, want 0\n%s", d.err, d.log)
	}
	d.mustLog(`msg=bye`)
}

// do issues one request and returns status, headers and body.
func (d *daemon) do(method, path string, body []byte) (int, http.Header, []byte) {
	d.t.Helper()
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		d.t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		d.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		d.t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}

// search answers a GET search and returns its body and cache state.
func (d *daemon) search(path string) ([]byte, string) {
	d.t.Helper()
	status, h, body := d.do(http.MethodGet, path, nil)
	if status != http.StatusOK {
		d.t.Fatalf("GET %s: %d %s", path, status, body)
	}
	return body, h.Get("X-Dnhd-Cache")
}

func (d *daemon) stats() server.StatsResponse {
	d.t.Helper()
	status, _, body := d.do(http.MethodGet, "/stats", nil)
	if status != http.StatusOK {
		d.t.Fatalf("/stats: %d %s", status, body)
	}
	var st server.StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		d.t.Fatal(err)
	}
	return st
}

// awaitRewrangles waits until the daemon's re-wrangle scheduler has
// finished runs runs, none failed.
func (d *daemon) awaitRewrangles(runs int) {
	d.t.Helper()
	waitFor(d.t, fmt.Sprintf("re-wrangle run %d", runs), func() bool {
		rw := d.stats().Rewrangle
		if rw.Failures > 0 {
			d.t.Fatalf("re-wrangle failed: %s", rw.LastError)
		}
		return rw.Runs >= runs && !rw.Running
	})
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(pollTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(pollEvery)
	}
}

// freeAddr reserves a loopback port for a listener whose bound address
// the daemon does not log (-pprof).
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// TestDaemonLifecycle drives real dnhd processes through what only a
// process exercises: flag wiring, SIGHUP, kill -9 recovery on a leader
// and a follower, startup log lines, and a clean SIGTERM exit. Every
// in-process behaviour (cache states, partials, metrics, publish
// validation, admission) has its own test in internal/server.
func TestDaemonLifecycle(t *testing.T) {
	dir := t.TempDir()
	arch := filepath.Join(dir, "archive")
	if _, err := archive.Generate(arch, archive.DefaultGenConfig(120, 42)); err != nil {
		t.Fatal(err)
	}
	leaderData := filepath.Join(dir, "leader-data")
	followerData := filepath.Join(dir, "follower-data")
	// -stale-window 0: right after a publish a node answers a warm query
	// at the new generation, not with the previous one's bytes, so
	// leader and follower bodies compare byte for byte.
	leaderArgs := func(addr string) []string {
		return []string{"-archive", arch, "-data", leaderData, "-addr", addr, "-stale-window", "0"}
	}
	followerArgs := func(leader string) []string {
		return []string{"-follow", leader, "-data", followerData, "-addr", "127.0.0.1:0", "-stale-window", "0"}
	}
	const query = "/search/text?q=with+salinity+top+5"

	// 1. A durable leader, cold-wrangled, with pprof on its own listener.
	pprofAddr := freeAddr(t)
	leader := startDaemon(t, append(leaderArgs("127.0.0.1:0"), "-pprof", pprofAddr)...)
	leader.mustLog("wrangled " + arch)
	waitFor(t, "pprof listener", func() bool {
		resp, err := http.Get("http://" + pprofAddr + "/debug/pprof/")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	warm, cache := leader.search(query)
	if cache != "miss" {
		t.Fatalf("first search: cache %q, want miss", cache)
	}

	// 2. A no-op SIGHUP: the archive is unchanged, so the delta is empty,
	// the generation holds and the warmed entry keeps hitting.
	gen := leader.stats().Generation
	leader.signal(syscall.SIGHUP)
	leader.awaitRewrangles(1)
	if got := leader.stats().Generation; got != gen {
		t.Fatalf("no-op SIGHUP moved the generation %d -> %d", gen, got)
	}
	if body, cache := leader.search(query); cache != "hit" || !bytes.Equal(body, warm) {
		t.Fatalf("warmed query after a no-op SIGHUP: cache %q, identical %v; want a hit", cache, bytes.Equal(body, warm))
	}

	// 3. A durable follower converges and serves the leader's bytes from
	// its own cache; it never accepts a direct publish.
	follower := startDaemon(t, followerArgs(leader.base)...)
	follower.mustLog("following " + leader.base)
	converge := func() uint64 {
		t.Helper()
		gen := leader.stats().Generation
		waitFor(t, fmt.Sprintf("follower at generation %d", gen), func() bool {
			return follower.stats().Generation == gen
		})
		return gen
	}
	identical := func(path string) []byte {
		t.Helper()
		lb, _ := leader.search(path)
		follower.search(path)
		fb, cache := follower.search(path)
		if cache != "hit" || !bytes.Equal(lb, fb) {
			t.Fatalf("%s: follower cache %q, bodies identical %v\nleader:   %s\nfollower: %s",
				path, cache, bytes.Equal(lb, fb), lb, fb)
		}
		return lb
	}
	converge()
	identical(query)
	pubs, err := workload.PublishRequests("", 1, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if status, _, body := follower.do(http.MethodPost, "/publish", pubs[0].Body); status != http.StatusNotFound {
		t.Fatalf("follower POST /publish: %d %s, want 404", status, body)
	}

	// 4. Archive growth plus SIGHUP on the leader ships to the follower.
	if _, err := archive.Generate(filepath.Join(arch, "extra"), archive.DefaultGenConfig(24, 46)); err != nil {
		t.Fatal(err)
	}
	leader.signal(syscall.SIGHUP)
	leader.awaitRewrangles(2)
	if g := converge(); g <= gen {
		t.Fatalf("archive growth did not advance the generation past %d", gen)
	}
	identical(query)

	// 5. A push publish on the leader ships too. It is then retracted: a
	// pushed path is not on disk, so the reconcile wrangle of step 6
	// would retract it and move the generation.
	gen = leader.stats().Generation
	if status, _, body := leader.do(http.MethodPost, "/publish", pubs[0].Body); status != http.StatusOK {
		t.Fatalf("leader POST /publish: %d %s", status, body)
	}
	if g := converge(); g != gen+1 {
		t.Fatalf("publish moved the generation %d -> %d, want one step", gen, g)
	}
	const pushQuery = "/search/text?q=near+46,-124+with+water_temperature+top+100"
	if body := identical(pushQuery); !bytes.Contains(body, []byte(`"push/`)) {
		t.Fatalf("pushed features not ranked: %s", body)
	}
	var batch metamess.PublishRequest
	if err := json.Unmarshal(pubs[0].Body, &batch); err != nil {
		t.Fatal(err)
	}
	retract := metamess.PublishRequest{}
	for _, f := range batch.Features {
		retract.Remove = append(retract.Remove, f.Path)
	}
	body, err := json.Marshal(retract)
	if err != nil {
		t.Fatal(err)
	}
	if status, _, body := leader.do(http.MethodPost, "/publish", body); status != http.StatusOK {
		t.Fatalf("leader retraction: %d %s", status, body)
	}
	converge()
	identical(query)

	// 6. kill -9 the leader and restart it on the same address: it
	// recovers from its data directory, reconciles instead of
	// re-wrangling, and comes back at the same generation and bytes.
	gen = leader.stats().Generation
	before, _ := leader.search(query)
	leader.kill()
	leader = startDaemon(t, leaderArgs(strings.TrimPrefix(leader.base, "http://"))...)
	leader.mustLog("recovered " + leaderData + "; reconciling against " + arch)
	leader.mustLog("reconciled " + arch)
	if got := leader.stats().Generation; got != gen {
		t.Fatalf("restarted leader at generation %d, want %d", got, gen)
	}
	if after, _ := leader.search(query); !bytes.Equal(after, before) {
		t.Fatalf("body changed across kill -9:\nbefore: %s\nafter:  %s", before, after)
	}
	if after, cache := leader.search(query); cache != "hit" || !bytes.Equal(after, before) {
		t.Fatalf("restarted leader's cache: %q, identical %v; want a hit with the same bytes", cache, bytes.Equal(after, before))
	}

	// 7. kill -9 the follower and restart it: it resumes its own journal's
	// tail instead of re-bootstrapping from the leader's checkpoint.
	follower.kill()
	follower = startDaemon(t, followerArgs(leader.base)...)
	follower.mustLog("recovered " + followerData + "; resuming tail of " + leader.base)
	converge()
	identical(query)
	if _, _, metrics := follower.do(http.MethodGet, "/metrics", nil); !regexp.MustCompile(`(?m)^dnh_replica_resyncs_total 0$`).Match(metrics) {
		t.Fatalf("restarted follower resynced:\n%s", metrics)
	}

	// 8. The admission flags reach the gate.
	gated := startDaemon(t, "-follow", leader.base, "-addr", "127.0.0.1:0", "-max-inflight", "1", "-queue-depth", "-1")
	if o := gated.stats().Overload; o.MaxInFlight != 1 || o.QueueDepth != 0 {
		t.Fatalf("gated daemon overload stats %+v, want maxInFlight 1 and no queue", o)
	}

	// 9. SIGTERM drains and exits 0 with the bye line.
	for _, d := range []*daemon{gated, follower, leader} {
		d.terminate()
	}
}
