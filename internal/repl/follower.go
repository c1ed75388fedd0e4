package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/wal"
)

// FollowerConfig tunes one replication link. The zero value (plus a
// primary URL) follows with the defaults documented per field.
type FollowerConfig struct {
	// Primary is the primary server's base URL, e.g. "http://10.0.0.1:7474".
	Primary string
	// PollWait is the long-poll hold the follower asks the primary for;
	// 0 means 20s.
	PollWait time.Duration
	// MaxBatchBytes is the per-batch cap the follower requests; 0 defers
	// to the primary's cap.
	MaxBatchBytes int
	// ReconnectMin/ReconnectMax bound the jittered exponential backoff
	// between failed feed requests; 0 means 50ms / 3s.
	ReconnectMin, ReconnectMax time.Duration
	// Logf receives one line per state transition (connect, sever,
	// bootstrap, promote); nil discards.
	Logf func(format string, args ...any)
	// Registry, when non-nil, receives the follower's counters and lag
	// gauges.
	Registry *obs.Registry
	// OnApplied, when non-nil, observes every replicated mutation once its
	// group is applied to the local store, with its global stream index,
	// in apply order. It runs on the pull loop — keep it cheap and
	// never let it block (the watch subsystem's replica feed enqueues into
	// a bounded ring here). Snapshot bootstraps jump the applied position
	// without per-record callbacks; observers must treat a non-contiguous
	// index as a gap.
	OnApplied func(index uint64, m *graph.Mutation)
	// Resume seeds the link with a previous link's stream state (see
	// StreamState), so a follower repointed at a new primary — typically
	// the sibling that won a failover — keeps its pinned log identity,
	// epoch, position, and prefix hash instead of starting as a blank
	// link over a non-empty store. nil starts fresh at position 0.
	Resume *StreamState
}

// StreamState is the resumable identity of a replication link: enough
// for a new Follower over the same store to continue exactly where this
// one stood, including the lineage checks. Captured with
// (*Follower).StreamState after Stop.
type StreamState struct {
	// LogID is the pinned primary log identity ("" before first contact).
	LogID string
	// Applied is the next stream index the link will request.
	Applied uint64
	// Epoch is the pinned primary epoch (0 before first contact with an
	// epoch-stamping primary).
	Epoch uint64
	// Hash is the chained prefix hash at Applied; HashKnown reports
	// whether the link ever learned it (it is seeded for links that
	// started at position 0 and adopted from snapshot bootstraps).
	Hash      uint64
	HashKnown bool
	// AppliedThrough is the staleness watermark at capture time.
	AppliedThrough time.Time
}

// Status is a point-in-time snapshot of a replication link, exposed via
// /readyz on replica servers.
type Status struct {
	// Applied is the next stream index the follower will request — the
	// count of records it has applied.
	Applied uint64
	// AppliedThrough is the staleness watermark: every primary mutation
	// at or before this timestamp is reflected in the local store.
	AppliedThrough time.Time
	// PrimaryNext is the primary's stream end as of the last contact.
	PrimaryNext uint64
	// LagRecords is max(PrimaryNext-Applied, 0) as of the last contact.
	LagRecords uint64
	// CaughtUp reports that the last poll found nothing to ship.
	CaughtUp bool
	// Promoted reports this node has been promoted to primary.
	Promoted bool
	// Reconnects counts feed requests that failed and were retried.
	Reconnects uint64
	// Bootstraps counts full snapshot loads (0 after a mere stream sever:
	// reconnecting resumes from Applied).
	Bootstraps uint64
	// LastContact is the local wall-clock time of the last successful
	// exchange with the primary (zero before the first).
	LastContact time.Time
	// LastError is the most recent feed failure ("" when healthy).
	LastError string
	// Epoch is the primary epoch this link is pinned to.
	Epoch uint64
	// Diverged reports the link parked with ErrDiverged: the primary's
	// history and the locally applied history forked, and the replica
	// must be rebuilt rather than resumed.
	Diverged bool
}

// Follower replicates a primary's WAL into a local store. Create with
// NewFollower, start the pull loop with Start, and serve reads from the
// store at the staleness bounds Status/WaitUntil expose. A follower's node
// is promoted to primary with Node.Promote.
type Follower struct {
	st  *graph.Store
	cfg FollowerConfig
	hc  *http.Client

	mu          sync.Mutex
	logID       string // primary log identity, pinned on first contact
	applied     uint64
	watermark   time.Time
	primaryNext uint64
	caughtUp    bool
	promoted    bool
	lastErr     error
	lastContact time.Time
	reconnects  uint64
	bootstraps  uint64
	// epoch is the pinned primary epoch; hash is the chained prefix hash
	// at applied (meaningful only when hashKnown — a link that started at
	// position 0 knows it from the seed, a bootstrap adopts it from the
	// snapshot). diverged latches when the link parks on a forked stream.
	epoch     uint64
	hash      uint64
	hashKnown bool
	diverged  bool
	changed   chan struct{} // closed+replaced whenever the watermark advances

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}

	// Metric handles, resolved from cfg.Registry before the pull loop
	// exists; nil (and no-ops) without a registry.
	mBatches    *obs.Counter
	mRecords    *obs.Counter
	mBytes      *obs.Counter
	mReconnects *obs.Counter
	mBootstraps *obs.Counter
	mDiverged   *obs.Counter
}

// NewFollower returns an unstarted replication link that replays the
// primary at cfg.Primary into st. Replayed records bypass the store's
// mutation hook, so a node's own WAL stays empty until Node.Promote.
func NewFollower(st *graph.Store, cfg FollowerConfig) *Follower {
	if cfg.PollWait <= 0 {
		cfg.PollWait = 20 * time.Second
	}
	if cfg.ReconnectMin <= 0 {
		cfg.ReconnectMin = 50 * time.Millisecond
	}
	if cfg.ReconnectMax <= 0 {
		cfg.ReconnectMax = 3 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	f := &Follower{
		st: st, cfg: cfg, hc: &http.Client{},
		// A link starting at position 0 provably has the empty history:
		// its prefix-hash chain starts at the seed.
		hash: wal.PrefixHashSeed, hashKnown: true,
		changed: make(chan struct{}),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),

		mBatches:    cfg.Registry.Counter("repl.follower.batches"),
		mRecords:    cfg.Registry.Counter("repl.follower.records_applied"),
		mBytes:      cfg.Registry.Counter("repl.follower.bytes_received"),
		mReconnects: cfg.Registry.Counter("repl.follower.reconnects"),
		mBootstraps: cfg.Registry.Counter("repl.follower.bootstraps"),
		mDiverged:   cfg.Registry.Counter("repl.follower.diverged"),
	}
	cfg.Registry.GaugeFunc("repl.follower.applied_index", func() float64 {
		f.mu.Lock()
		defer f.mu.Unlock()
		return float64(f.applied)
	})
	cfg.Registry.GaugeFunc("repl.follower.lag_records", func() float64 {
		return float64(f.Status().LagRecords)
	})
	if r := cfg.Resume; r != nil {
		f.logID = r.LogID
		f.applied = r.Applied
		f.epoch = r.Epoch
		f.hash, f.hashKnown = r.Hash, r.HashKnown
		f.watermark = r.AppliedThrough
	}
	return f
}

// StreamState captures the link's resumable identity — log ID, position,
// epoch, and prefix hash — for handing to a new Follower's Resume when
// repointing this store at a different primary. Meaningful once the link
// is stopped (a running link keeps moving underneath the snapshot).
func (f *Follower) StreamState() StreamState {
	f.mu.Lock()
	defer f.mu.Unlock()
	return StreamState{
		LogID:          f.logID,
		Applied:        f.applied,
		Epoch:          f.epoch,
		Hash:           f.hash,
		HashKnown:      f.hashKnown,
		AppliedThrough: f.watermark,
	}
}

// Start launches the pull loop. It is safe to call once; the loop runs
// until Stop or Promote.
func (f *Follower) Start() {
	f.startOnce.Do(func() { go f.run() })
}

// Stop terminates the pull loop and waits for it to exit. Idempotent.
func (f *Follower) Stop() {
	f.stopOnce.Do(func() { close(f.stop) })
	f.startOnce.Do(func() { close(f.done) }) // never started: nothing to wait for
	<-f.done
}

func (f *Follower) run() {
	defer close(f.done)
	backoff := f.cfg.ReconnectMin
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		err := f.syncOnce()
		if err == nil {
			backoff = f.cfg.ReconnectMin
			f.setErr(nil)
			continue
		}
		if errors.Is(err, errStopping) {
			return
		}
		if errors.Is(err, errFatal) {
			f.setErr(err)
			f.cfg.Logf("repl: replication halted: %v", err)
			return
		}
		f.setErr(err)
		f.mReconnects.Add(1)
		f.mu.Lock()
		f.reconnects++
		f.mu.Unlock()
		f.cfg.Logf("repl: feed from %s failed (retrying in %v): %v", f.cfg.Primary, backoff, err)
		// Jittered exponential backoff so a fleet of followers does not
		// hammer a recovering primary in lockstep.
		select {
		case <-f.stop:
			return
		case <-time.After(backoff/2 + time.Duration(rand.Int63n(int64(backoff)))):
		}
		if backoff *= 2; backoff > f.cfg.ReconnectMax {
			backoff = f.cfg.ReconnectMax
		}
	}
}

// errStopping aborts syncOnce when Stop fires mid-request.
var errStopping = errors.New("repl: follower stopping")

// errFatal marks conditions retrying cannot fix; the pull loop parks
// with the error in Status.LastError instead of hot-looping on it.
var errFatal = errors.New("repl: unrecoverable")

// errNeedBootstrap routes a 410 feed answer to the snapshot path.
var errNeedBootstrap = errors.New("repl: stream position truncated; bootstrap required")

// pinLogID enforces stream identity: the first non-empty log ID the
// primary sends is pinned for the link's lifetime, and any later
// mismatch — this follower, or the address it polls, now points at an
// unrelated log whose stream positions mean something else — is fatal.
// Resuming an offset against a foreign log would either loop on errors
// or silently apply misaligned records; parking with a clear error is
// the only safe answer.
func (f *Follower) pinLogID(id string) error {
	if id == "" {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.logID == "" {
		f.logID = id
		return nil
	}
	if f.logID != id {
		return fmt.Errorf("%w: primary %s serves WAL log %s, but this link is pinned to log %s (repointed at an unrelated primary?)",
			errFatal, f.cfg.Primary, id, f.logID)
	}
	return nil
}

// syncOnce performs one feed exchange: long-poll the primary from the
// current applied position, replay whatever arrives, and update the
// staleness watermark. A 410 triggers a checkpoint bootstrap first.
func (f *Follower) syncOnce() error {
	err := f.pull()
	if errors.Is(err, errNeedBootstrap) {
		if err := f.bootstrap(); err != nil {
			return err
		}
		return nil
	}
	return err
}

// reqCtx derives a request context canceled by Stop, bounded a little
// past the long-poll hold.
func (f *Follower) reqCtx(d time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	go func() {
		select {
		case <-f.stop:
			cancel()
		case <-ctx.Done():
		}
	}()
	return ctx, cancel
}

func (f *Follower) pull() error {
	f.mu.Lock()
	from, h, hashKnown, pinnedEpoch := f.applied, f.hash, f.hashKnown, f.epoch
	f.mu.Unlock()

	url := fmt.Sprintf("%s/v1/wal?from=%d&wait_ms=%d", f.cfg.Primary, from, f.cfg.PollWait.Milliseconds())
	if f.cfg.MaxBatchBytes > 0 {
		url += "&max_bytes=" + strconv.Itoa(f.cfg.MaxBatchBytes)
	}
	// Offer the link's lineage state: the prefix hash at from lets the
	// source verify "same history through here" BEFORE shipping a single
	// record, and the pinned epoch lets a superseded primary learn it was
	// superseded (it answers 409 and self-fences instead of feeding us a
	// stale era).
	if hashKnown {
		url += "&hash=" + strconv.FormatUint(h, 16)
	}
	if pinnedEpoch > 0 {
		url += "&epoch=" + strconv.FormatUint(pinnedEpoch, 10)
	}
	ctx, cancel := f.reqCtx(f.cfg.PollWait + 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		select {
		case <-f.stop:
			return errStopping
		default:
		}
		return err
	}
	defer resp.Body.Close()
	if err := f.pinLogID(resp.Header.Get(HeaderLogID)); err != nil {
		io.Copy(io.Discard, resp.Body)
		return err
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		io.Copy(io.Discard, resp.Body)
		return errNeedBootstrap
	case http.StatusConflict:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		var env struct {
			Error struct{ Code, Message string } `json:"error"`
		}
		_ = json.Unmarshal(body, &env)
		switch env.Error.Code {
		case "wal_diverged":
			f.markDiverged()
			return fmt.Errorf("%w: %w at stream position %d: %s", errFatal, ErrDiverged, from, env.Error.Message)
		case "wal_stale_epoch":
			return fmt.Errorf("%w: primary %s is stale: %s", errFatal, f.cfg.Primary, env.Error.Message)
		default:
			return fmt.Errorf("repl: feed returned %s: %s", resp.Status, body)
		}
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("repl: feed returned %s: %s", resp.Status, body)
	}
	srvEpoch, _ := strconv.ParseUint(resp.Header.Get(HeaderEpoch), 10, 64)
	if srvEpoch > 0 && pinnedEpoch > 0 && srvEpoch < pinnedEpoch {
		// Belt and braces: a primary that did not implement the epoch=
		// 409 still must not drag this link back into a superseded era.
		return fmt.Errorf("%w: primary %s serves epoch %d but this link is pinned to epoch %d (stale primary)",
			errFatal, f.cfg.Primary, srvEpoch, pinnedEpoch)
	}

	batch, rerr := io.ReadAll(resp.Body)
	if rerr != nil {
		if len(batch) == 0 {
			return fmt.Errorf("repl: reading feed body: %w", rerr)
		}
		// The connection died mid-body, but ReadAll hands back the prefix
		// that made it through: apply its whole groups and re-request the
		// tail from the new offset. A severed stream resumes from the last
		// applied group; it never re-bootstraps. The dead connection
		// forces a fresh dial, so it counts as a reconnect.
		f.mReconnects.Add(1)
		f.mu.Lock()
		f.reconnects++
		f.mu.Unlock()
	}
	next, err := strconv.ParseUint(resp.Header.Get(HeaderNext), 10, 64)
	if err != nil {
		return fmt.Errorf("repl: feed response missing %s (is %q really a nepal primary?)", HeaderNext, f.cfg.Primary)
	}
	primaryClock, _ := time.Parse(ClockFormat, resp.Header.Get(HeaderClock))

	applied := from
	var lastAt time.Time
	torn := false
	for len(batch) > 0 {
		ms, ends, err := wal.DecodeGroup(batch)
		if err != nil {
			// The primary only ships whole groups; a cut here — mid-frame,
			// or between two frames of one group — means the connection
			// died mid-body. Re-request from the last group that fully
			// applied.
			if wal.IsTorn(err) {
				torn = true
				break
			}
			if graph.SetFormatFile(err, f.cfg.Primary+"/v1/wal") {
				// A primary shipping another record format: no retry helps.
				return fmt.Errorf("%w: record at stream position %d: %w", errFatal, applied, err)
			}
			return fmt.Errorf("repl: undecodable record at stream position %d: %w", applied, err)
		}
		// One group is one store write lock hold: a reader on this replica
		// sees all of a primary batch or none of it.
		if _, err := f.st.ApplyMutation(ms...); err != nil {
			return fmt.Errorf("repl: replaying group at %d: %w", applied, err)
		}
		// Mirror the primary's prefix-hash chain record by record, so the
		// link can always prove which history it applied.
		start := 0
		for i, m := range ms {
			if f.cfg.OnApplied != nil {
				f.cfg.OnApplied(applied, m)
			}
			h = wal.ChainHash(h, wal.FrameChecksum(batch[start:]))
			start = ends[i]
			applied++
			lastAt = m.At
		}
		f.mBytes.Add(int64(start))
		batch = batch[start:]
	}
	if applied > from {
		f.mBatches.Add(1)
		f.mRecords.Add(int64(applied - from))
	}

	// With the whole batch applied, the locally chained hash must land
	// exactly on the hash the source stamped for the batch end: a
	// mismatch means the histories forked (the source-side check at
	// "from" is the first line of defense; this one also covers sources
	// we never offered a hash to). A batch cut short by a dying
	// connection — even on a clean frame boundary — is excluded by
	// matching the applied count against the served count.
	count, cerr := strconv.ParseUint(resp.Header.Get(HeaderCount), 10, 64)
	complete := !torn && rerr == nil && cerr == nil && applied-from == count
	if hdr := resp.Header.Get(HeaderHash); hdr != "" && complete {
		if srvHash, perr := strconv.ParseUint(hdr, 16, 64); perr == nil {
			if hashKnown && h != srvHash {
				f.markDiverged()
				return fmt.Errorf("%w: %w: primary chains to %016x at stream position %d, this replica to %016x",
					errFatal, ErrDiverged, srvHash, applied, h)
			}
			if !hashKnown {
				h, hashKnown = srvHash, true
			}
		}
	}

	f.mu.Lock()
	f.applied = applied
	f.hash, f.hashKnown = h, hashKnown
	if srvEpoch > f.epoch {
		// A higher epoch whose history verifiably contains ours (the
		// hash checks above) is a clean failover: adopt the new era.
		f.epoch = srvEpoch
	}
	if lastAt.After(f.watermark) {
		f.watermark = lastAt
	}
	// Caught up with the primary's durable end: adopt the primary's clock
	// as the watermark, so an idle primary's replicas still prove
	// freshness to min_timestamp reads.
	f.caughtUp = applied >= next
	if f.caughtUp && primaryClock.After(f.watermark) {
		f.watermark = primaryClock
	}
	if next > f.primaryNext {
		f.primaryNext = next
	}
	f.lastContact = time.Now()
	close(f.changed)
	f.changed = make(chan struct{})
	f.mu.Unlock()
	return nil
}

// bootstrap loads the primary's checkpoint into the (empty) local store
// and repositions the feed at the snapshot's resume index. The load is
// atomic — graph.(*Store).LoadHistory stages into scratch state and
// installs nothing on failure — so a download severed mid-stream leaves
// the store empty and the next loop iteration retries cleanly. A
// follower whose store already has state therefore genuinely cannot
// re-bootstrap in place (it fell past the feed's retention): that is a
// fatal condition surfaced to the operator (restart with a fresh store),
// never a silent full resync.
func (f *Follower) bootstrap() error {
	ctx, cancel := f.reqCtx(5 * time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.cfg.Primary+"/v1/wal/snapshot", nil)
	if err != nil {
		return err
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := f.pinLogID(resp.Header.Get(HeaderLogID)); err != nil {
		io.Copy(io.Discard, resp.Body)
		return err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("repl: snapshot returned %s: %s", resp.Status, body)
	}
	resume, err := strconv.ParseUint(resp.Header.Get(HeaderResume), 10, 64)
	if err != nil {
		return fmt.Errorf("repl: snapshot response missing %s", HeaderResume)
	}
	srvEpoch, _ := strconv.ParseUint(resp.Header.Get(HeaderEpoch), 10, 64)
	f.mu.Lock()
	pinnedEpoch := f.epoch
	f.mu.Unlock()
	if srvEpoch > 0 && pinnedEpoch > 0 && srvEpoch < pinnedEpoch {
		return fmt.Errorf("%w: snapshot from %s is at epoch %d but this link is pinned to epoch %d (stale primary)",
			errFatal, f.cfg.Primary, srvEpoch, pinnedEpoch)
	}
	srvHash, herr := strconv.ParseUint(resp.Header.Get(HeaderHash), 16, 64)
	if err := f.st.LoadHistory(resp.Body); err != nil {
		if errors.Is(err, graph.ErrStoreNotEmpty) {
			// In-place full resyncs are deliberately not supported: fall
			// so far behind that the feed is gone and the operator must
			// restart the replica with a fresh store — never silently
			// discard local state.
			return fmt.Errorf("%w: replica needs a bootstrap but its store is not empty; restart it with a fresh store: %v", errFatal, err)
		}
		if graph.SetFormatFile(err, req.URL.String()) {
			return fmt.Errorf("%w: loading snapshot: %w", errFatal, err)
		}
		return fmt.Errorf("repl: loading snapshot: %w", err)
	}
	f.mBootstraps.Add(1)
	f.mu.Lock()
	f.applied = resume
	// The snapshot repositions the link: adopt the source's chain state
	// at the resume index (the position-0 seed no longer applies there).
	f.hash, f.hashKnown = srvHash, herr == nil
	if srvEpoch > f.epoch {
		f.epoch = srvEpoch
	}
	// The snapshot proves coverage only through its newest stored
	// transaction time (which LoadHistory fenced the local clock past) —
	// NOT through the local wall clock, which would claim primary commits
	// that postdate the checkpoint before the feed has replayed them.
	if latest := f.st.Clock().Latest(); latest.After(f.watermark) {
		f.watermark = latest
	}
	f.bootstraps++
	f.lastContact = time.Now()
	close(f.changed)
	f.changed = make(chan struct{})
	f.mu.Unlock()
	f.cfg.Logf("repl: bootstrapped from %s snapshot, resuming feed at %d", f.cfg.Primary, resume)
	return nil
}

func (f *Follower) setErr(err error) {
	f.mu.Lock()
	f.lastErr = err
	f.mu.Unlock()
}

// markDiverged latches the fork flag the moment it is detected (the
// fatal ErrDiverged that parks the loop lands in LastError separately).
func (f *Follower) markDiverged() {
	f.mDiverged.Add(1)
	f.mu.Lock()
	f.diverged = true
	f.mu.Unlock()
}

// Status snapshots the link.
func (f *Follower) Status() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := Status{
		Applied:        f.applied,
		AppliedThrough: f.watermark,
		PrimaryNext:    f.primaryNext,
		CaughtUp:       f.caughtUp,
		Promoted:       f.promoted,
		Reconnects:     f.reconnects,
		Bootstraps:     f.bootstraps,
		LastContact:    f.lastContact,
		Epoch:          f.epoch,
		Diverged:       f.diverged,
	}
	if f.primaryNext > f.applied {
		s.LagRecords = f.primaryNext - f.applied
	}
	if f.lastErr != nil {
		s.LastError = f.lastErr.Error()
	}
	return s
}

// Applied returns the follower's stream position and staleness
// watermark.
func (f *Follower) Applied() (uint64, time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.applied, f.watermark
}

// WaitUntil blocks until the replica's watermark reaches ts, the
// follower is promoted (it is then the authority), or ctx expires —
// which returns ErrLagging annotated with the shortfall. A zero ts never
// waits.
func (f *Follower) WaitUntil(ctx context.Context, ts time.Time) error {
	if ts.IsZero() {
		return nil
	}
	for {
		f.mu.Lock()
		w, promoted, ch := f.watermark, f.promoted, f.changed
		f.mu.Unlock()
		if promoted || !w.Before(ts) {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return fmt.Errorf("%w: applied through %s, need %s",
				ErrLagging, w.Format(ClockFormat), ts.Format(ClockFormat))
		case <-f.stop:
			// Stopped without promotion: the watermark is frozen, so a
			// future ts will never be reached.
			f.mu.Lock()
			promoted = f.promoted
			f.mu.Unlock()
			if promoted {
				return nil
			}
			return fmt.Errorf("%w: applied through %s, need %s", ErrStopped,
				w.Format(ClockFormat), ts.Format(ClockFormat))
		}
	}
}

// Promote ends the link for a promotion: it marks the follower promoted
// (WaitUntil stops waiting — the node is about to be the authority),
// stops the pull loop, and hands over the link's stream state. Node.Promote
// takes it from there: the epoch, the WAL adoption and the checkpoint are
// the node's. Idempotent.
func (f *Follower) Promote() StreamState {
	f.mu.Lock()
	if !f.promoted {
		f.promoted = true
		close(f.changed)
		f.changed = make(chan struct{})
	}
	f.mu.Unlock()
	// Stop the pull loop BEFORE reading the stream position: a promote
	// racing an in-flight bootstrap must observe either the empty store
	// (the canceled download's LoadHistory installed nothing) or the
	// fully loaded one with its applied index already advanced — never a
	// checkpoint of half-staged state at a stale position.
	f.Stop()
	f.cfg.Logf("repl: link to %s stopped for promotion", f.cfg.Primary)
	return f.StreamState()
}

// Promoted reports whether Promote has run.
func (f *Follower) Promoted() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.promoted
}
