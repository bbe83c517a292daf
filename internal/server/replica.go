package server

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"metamess"
	"metamess/internal/catalog"
)

// Replicator is dnhd's follower engine: it tails a leader's journal
// over HTTP (`GET /journal/tail?from=<gen>`, long-polled), applies each
// checksummed frame through the system's one publish commit, and
// bootstraps from the leader's checkpoint whenever the tail answers
// with a resync signal (the follower fell behind the journals' reach —
// typically across a compaction while the follower was down). A durable
// follower journals everything it applies, so a restart resumes from
// its own recovered generation instead of re-downloading the world.

// DefaultReplicaPollWait is the long-poll wait the follower asks the
// leader to hold an empty tail for.
const DefaultReplicaPollWait = 10 * time.Second

// DefaultReplicaBackoff is the retry delay after a tail or apply error.
const DefaultReplicaBackoff = 500 * time.Millisecond

// DefaultMaxLag is the /readyz lag threshold (generations behind the
// leader) when the config leaves it 0.
const DefaultMaxLag = 16

// replicaTailBudget is the max_bytes a follower asks for per tail round.
// The leader's budget is soft — it never tears a record — so a response
// is at most the budget plus one record, and a record read off the wire
// is bounded by catalog.MaxStreamLine. maxTailResponse is therefore what
// one round may read before it fails.
const (
	replicaTailBudget = catalog.DefaultTailMaxBytes
	maxTailResponse   = replicaTailBudget + catalog.MaxStreamLine
)

// ReplicaConfig configures a Replicator.
type ReplicaConfig struct {
	// Leader is the leader's base URL (e.g. http://leader:8080).
	// Required.
	Leader string
	// Sys is the follower's system — the catalog the tailed records are
	// applied to (and, when durable, the store that mirrors them).
	// Required.
	Sys *metamess.System
	// MaxLag is how many generations behind the leader /readyz tolerates
	// before reporting not-ready (0 = DefaultMaxLag).
	MaxLag uint64
	// PollWait is the long-poll hold per tail request
	// (0 = DefaultReplicaPollWait).
	PollWait time.Duration
	// Backoff is the retry delay after an error
	// (0 = DefaultReplicaBackoff).
	Backoff time.Duration
	// Client overrides the HTTP client (nil = one with a timeout sized
	// to PollWait).
	Client *http.Client
	// Logger receives replication logs; nil discards them.
	Logger *slog.Logger
}

// Replicator tails one leader. Start launches the loop; Stop halts it.
type Replicator struct {
	cfg    ReplicaConfig
	client *http.Client
	logger *slog.Logger

	kick   chan struct{}
	cancel context.CancelFunc
	done   chan struct{}
	// tailLimit caps the bytes one tail round reads (maxTailResponse;
	// tests lower it).
	tailLimit int64

	leaderGen atomic.Uint64
	applied   atomic.Uint64 // records applied
	batches   atomic.Uint64 // non-empty tail responses
	resyncs   atomic.Uint64 // checkpoint bootstraps
	errCount  atomic.Uint64
	connected atomic.Bool
	caughtUp  atomic.Bool // reached the leader's generation at least once

	mu           sync.Mutex
	lastErr      string
	lastCaughtUp time.Time
	started      time.Time
}

// NewReplicator wires a follower loop; call Start to begin tailing.
func NewReplicator(cfg ReplicaConfig) (*Replicator, error) {
	if cfg.Leader == "" {
		return nil, fmt.Errorf("server: ReplicaConfig.Leader is required")
	}
	if cfg.Sys == nil {
		return nil, fmt.Errorf("server: ReplicaConfig.Sys is required")
	}
	if cfg.MaxLag == 0 {
		cfg.MaxLag = DefaultMaxLag
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = DefaultReplicaPollWait
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = DefaultReplicaBackoff
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	client := cfg.Client
	if client == nil {
		// The long poll holds the request open for PollWait; the timeout
		// must comfortably outlast it plus a large frame transfer.
		client = &http.Client{Timeout: cfg.PollWait + 30*time.Second}
	}
	return &Replicator{
		cfg:       cfg,
		client:    client,
		logger:    logger,
		kick:      make(chan struct{}, 1),
		tailLimit: maxTailResponse,
	}, nil
}

// Start launches the tail loop in the background.
func (r *Replicator) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	r.done = make(chan struct{})
	r.mu.Lock()
	r.started = time.Now()
	r.mu.Unlock()
	go r.run(ctx)
}

// Stop halts the loop and waits for it to exit. Safe only after Start.
func (r *Replicator) Stop() {
	r.cancel()
	<-r.done
}

// Kick asks the loop to retry immediately (the follower SIGHUP path) —
// it cuts an error backoff short; a healthy loop is always tailing.
func (r *Replicator) Kick() {
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

func (r *Replicator) run(ctx context.Context) {
	defer close(r.done)
	for ctx.Err() == nil {
		n, err := r.iterate(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			r.errCount.Add(1)
			r.connected.Store(false)
			r.mu.Lock()
			r.lastErr = err.Error()
			r.mu.Unlock()
			r.logger.Warn("replica: tail failed", "leader", r.cfg.Leader, "err", err)
			// A failed apply can leave a durable follower degraded (catalog
			// ahead of its journal); compaction is the designed repair.
			if _, cerr := r.cfg.Sys.CompactIfNeeded(); cerr != nil {
				r.logger.Warn("replica: compact after error", "err", cerr)
			}
			select {
			case <-ctx.Done():
			case <-r.kick:
			case <-time.After(r.cfg.Backoff):
			}
			continue
		}
		if n == 0 {
			// An empty, non-blocking answer (leader restarted mid-poll,
			// zero PollWait in tests): yield briefly so a confused leader
			// cannot drive a hot loop.
			select {
			case <-ctx.Done():
			case <-r.kick:
			case <-time.After(10 * time.Millisecond):
			}
		}
	}
}

// iterate performs one tail round-trip: poll, then apply or resync.
// It returns how many records were applied.
func (r *Replicator) iterate(ctx context.Context) (int, error) {
	from := r.cfg.Sys.SnapshotGeneration()
	waitMs := r.cfg.PollWait.Milliseconds()
	url := fmt.Sprintf("%s/journal/tail?from=%d&wait_ms=%d&max_bytes=%d", r.cfg.Leader, from, waitMs, replicaTailBudget)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("leader tail: %s: %s", resp.Status, body)
	}
	if lg, err := strconv.ParseUint(resp.Header.Get("X-Dnhd-Generation"), 10, 64); err == nil {
		r.leaderGen.Store(lg)
	}
	if resp.Header.Get("X-Dnhd-Resync") == "1" {
		io.Copy(io.Discard, resp.Body)
		n, err := r.resync(ctx)
		if err != nil {
			return 0, err
		}
		return n, nil
	}
	frames, err := io.ReadAll(io.LimitReader(resp.Body, r.tailLimit+1))
	if err != nil {
		return 0, err
	}
	if int64(len(frames)) > r.tailLimit {
		return 0, fmt.Errorf("leader tail: response exceeds %d bytes (max_bytes %d plus one record)", r.tailLimit, replicaTailBudget)
	}
	applied, err := r.cfg.Sys.ApplyReplicatedFrames(frames)
	r.applied.Add(uint64(applied))
	if err != nil {
		return applied, err
	}
	if applied > 0 {
		r.batches.Add(1)
		// Fold the follower's own journal into a checkpoint when it has
		// grown — followers compact on the same policy leaders do.
		if _, err := r.cfg.Sys.CompactIfNeeded(); err != nil {
			r.logger.Warn("replica: compact", "err", err)
		}
	}
	r.connected.Store(true)
	r.noteProgress()
	return applied, nil
}

// resync downloads the leader's checkpoint and applies it as one pinned
// delta — the recovery path for a follower that fell behind the
// journals' reach.
func (r *Replicator) resync(ctx context.Context) (int, error) {
	r.logger.Info("replica: resyncing from checkpoint", "leader", r.cfg.Leader,
		"generation", r.cfg.Sys.SnapshotGeneration())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.cfg.Leader+"/journal/checkpoint", nil)
	if err != nil {
		return 0, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("leader checkpoint: %s: %s", resp.Status, body)
	}
	gen, err := r.cfg.Sys.BootstrapFromCheckpoint(resp.Body)
	if err != nil {
		return 0, err
	}
	r.resyncs.Add(1)
	r.connected.Store(true)
	r.noteProgress()
	r.logger.Info("replica: resync complete", "generation", gen)
	return 1, nil
}

// noteProgress records catch-up: whenever the follower reaches the last
// known leader generation, the lag clock resets.
func (r *Replicator) noteProgress() {
	if r.cfg.Sys.SnapshotGeneration() >= r.leaderGen.Load() {
		r.caughtUp.Store(true)
		r.mu.Lock()
		r.lastCaughtUp = time.Now()
		r.mu.Unlock()
	}
}

// Lag returns how far behind the leader this follower is: generations
// (last known leader generation minus the follower's), and seconds
// since the follower was last caught up (0 while caught up).
func (r *Replicator) Lag() (gens uint64, seconds float64) {
	follower := r.cfg.Sys.SnapshotGeneration()
	leader := r.leaderGen.Load()
	if leader > follower {
		gens = leader - follower
	}
	if gens == 0 && r.caughtUp.Load() {
		return 0, 0
	}
	r.mu.Lock()
	since := r.lastCaughtUp
	if since.IsZero() {
		since = r.started
	}
	r.mu.Unlock()
	if since.IsZero() {
		return gens, 0
	}
	return gens, time.Since(since).Seconds()
}

// Ready reports whether this follower should take traffic: it has been
// caught up with the leader at least once and is currently within
// MaxLag generations. A follower that synced and then lost its leader
// stays ready — it serves a consistent (if aging) generation, which
// beats serving nothing.
func (r *Replicator) Ready() bool {
	if !r.caughtUp.Load() {
		return false
	}
	gens, _ := r.Lag()
	return gens <= r.cfg.MaxLag
}

// ReplicaStats is the replication section of /stats and /readyz.
type ReplicaStats struct {
	Leader           string  `json:"leader"`
	Connected        bool    `json:"connected"`
	Ready            bool    `json:"ready"`
	LeaderGeneration uint64  `json:"leaderGeneration"`
	Generation       uint64  `json:"generation"`
	LagGenerations   uint64  `json:"lagGenerations"`
	LagSeconds       float64 `json:"lagSeconds"`
	MaxLag           uint64  `json:"maxLag"`
	AppliedRecords   uint64  `json:"appliedRecords"`
	Batches          uint64  `json:"batches"`
	Resyncs          uint64  `json:"resyncs"`
	Errors           uint64  `json:"errors"`
	LastError        string  `json:"lastError,omitempty"`
}

// Stats returns a point-in-time replication view.
func (r *Replicator) Stats() ReplicaStats {
	gens, secs := r.Lag()
	r.mu.Lock()
	lastErr := r.lastErr
	r.mu.Unlock()
	return ReplicaStats{
		Leader:           r.cfg.Leader,
		Connected:        r.connected.Load(),
		Ready:            r.Ready(),
		LeaderGeneration: r.leaderGen.Load(),
		Generation:       r.cfg.Sys.SnapshotGeneration(),
		LagGenerations:   gens,
		LagSeconds:       secs,
		MaxLag:           r.cfg.MaxLag,
		AppliedRecords:   r.applied.Load(),
		Batches:          r.batches.Load(),
		Resyncs:          r.resyncs.Load(),
		Errors:           r.errCount.Load(),
		LastError:        lastErr,
	}
}

// --- leader side: the endpoints a Replicator tails --------------------

// maxTailWait caps a tail request's long-poll hold, so a dead follower
// cannot pin a connection indefinitely.
const maxTailWait = 30 * time.Second

// handleJournalTail streams journal frames to a follower:
// GET /journal/tail?from=<gen>&wait_ms=<hold>&max_bytes=<cap>. The
// response body is raw checksummed journal lines for every record past
// from; X-Dnhd-Generation carries the leader's current generation, and
// X-Dnhd-Resync: 1 (empty body) tells a follower whose from predates
// the journals' reach to bootstrap from /journal/checkpoint instead.
// With wait_ms, an empty tail long-polls until a publish lands or the
// hold expires. Any durable node can serve tails — a durable follower
// journals leader-stamped records, so chaining followers off followers
// works unchanged.
func (s *Server) handleJournalTail(w http.ResponseWriter, r *http.Request) {
	if !s.sys.Durable() {
		writeError(w, http.StatusNotFound, "journal tailing requires a durable node (-data)")
		return
	}
	q := r.URL.Query()
	var from uint64
	if raw := q.Get("from"); raw != "" {
		var err error
		if from, err = strconv.ParseUint(raw, 10, 64); err != nil {
			writeError(w, http.StatusBadRequest, "bad from parameter: "+err.Error())
			return
		}
	}
	var wait time.Duration
	if raw := q.Get("wait_ms"); raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, "bad wait_ms parameter")
			return
		}
		if wait = time.Duration(ms) * time.Millisecond; wait > maxTailWait {
			wait = maxTailWait
		}
	}
	var maxBytes int64
	if raw := q.Get("max_bytes"); raw != "" {
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad max_bytes parameter")
			return
		}
		maxBytes = n
	}
	frames, gen, resync, err := s.sys.JournalTail(from, maxBytes)
	if err == nil && len(frames) == 0 && !resync && wait > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), wait)
		s.sys.AwaitPublish(ctx, from)
		cancel()
		frames, gen, resync, err = s.sys.JournalTail(from, maxBytes)
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.tel.tailsServed.Inc()
	w.Header().Set("X-Dnhd-Generation", strconv.FormatUint(gen, 10))
	if resync {
		w.Header().Set("X-Dnhd-Resync", "1")
	}
	w.Header().Set("Content-Type", "application/x-dnh-journal")
	w.WriteHeader(http.StatusOK)
	w.Write(frames)
}

// handleJournalCheckpoint streams the on-disk checkpoint — the
// follower bootstrap download behind the resync signal.
func (s *Server) handleJournalCheckpoint(w http.ResponseWriter, r *http.Request) {
	rc, err := s.sys.CheckpointReader()
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/x-dnh-checkpoint")
	w.WriteHeader(http.StatusOK)
	io.Copy(w, rc)
}
