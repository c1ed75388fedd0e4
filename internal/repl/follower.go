package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/temporal"
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
}

// Status is a point-in-time snapshot of a replication link, exposed via
// /readyz on replica servers.
type Status struct {
	// Applied is the next stream index the follower will request: the
	// end of the node's WAL, which holds every record it has applied.
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
	// Epoch is the epoch of the node's WAL: on a replica, the primary
	// epoch the link last adopted.
	Epoch uint64
	// Pinned reports that the node's WAL is its primary's log: the link
	// has confirmed or adopted the primary's log identity, or the WAL
	// holds records (a replica logs only its primary's). An unpinned
	// replica cannot be promoted (ErrUnpinned).
	Pinned bool
	// Diverged reports the link parked with ErrDiverged: the primary's
	// history and the locally applied history forked, and the replica
	// must be rebuilt rather than resumed.
	Diverged bool
}

// Follower replicates a primary's WAL into a local store and the node's
// own WAL: each shipped group is logged verbatim at the primary's stream
// indexes, then applied, so the replica's log is its primary's. The
// link's position, prefix hash, log identity and epoch are the WAL's;
// the follower keeps only what the log cannot say — the staleness
// watermark, lag, and link health. Create with NewFollower, start the
// pull loop with Start, and serve reads from the store at the staleness
// bounds Status/WaitUntil expose. A follower's node is promoted to
// primary with Node.Promote.
type Follower struct {
	st  *graph.Store
	mgr *wal.Manager
	cfg FollowerConfig
	hc  *http.Client

	mu          sync.Mutex
	watermark   time.Time
	primaryNext uint64
	caughtUp    bool
	promoted    bool
	lastErr     error
	lastContact time.Time
	reconnects  uint64
	bootstraps  uint64
	// pinned: the WAL is the primary's log (see Status.Pinned); diverged
	// latches when the link parks on a forked stream.
	pinned   bool
	diverged bool
	changed  chan struct{} // closed+replaced whenever the watermark advances

	// dec decodes the shipped groups; only the pull loop uses it.
	dec wal.Decoder

	startOnce sync.Once
	// ctx is canceled by Stop; every feed request derives from it.
	ctx  context.Context
	stop context.CancelFunc
	done chan struct{}

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
// primary at cfg.Primary into st, logging every shipped group into mgr,
// st's WAL, before applying it. The link resumes where the WAL ends: a
// restarted replica recovers its log and asks for the next record, with
// no bootstrap.
func NewFollower(st *graph.Store, mgr *wal.Manager, cfg FollowerConfig) *Follower {
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
		st: st, mgr: mgr, cfg: cfg, hc: &http.Client{},
		// Every record in the store is one the WAL holds, so the store's
		// newest transaction time is covered.
		watermark: stampTime(st.Clock().Latest()),
		pinned:    mgr.NextIndex() > 0,
		changed:   make(chan struct{}),
		done:      make(chan struct{}),

		mBatches:    cfg.Registry.Counter("repl.follower.batches"),
		mRecords:    cfg.Registry.Counter("repl.follower.records_applied"),
		mBytes:      cfg.Registry.Counter("repl.follower.bytes_received"),
		mReconnects: cfg.Registry.Counter("repl.follower.reconnects"),
		mBootstraps: cfg.Registry.Counter("repl.follower.bootstraps"),
		mDiverged:   cfg.Registry.Counter("repl.follower.diverged"),
	}
	f.ctx, f.stop = context.WithCancel(context.Background())
	cfg.Registry.GaugeFunc("repl.follower.applied_index", func() float64 {
		return float64(mgr.NextIndex())
	})
	cfg.Registry.GaugeFunc("repl.follower.lag_records", func() float64 {
		return float64(f.Status().LagRecords)
	})
	return f
}

// Start launches the pull loop. It is safe to call once; the loop runs
// until Stop or Promote.
func (f *Follower) Start() {
	f.startOnce.Do(func() { go f.run() })
}

// Stop terminates the pull loop and waits for it to exit. Idempotent.
func (f *Follower) Stop() {
	f.stop()
	f.startOnce.Do(func() { close(f.done) }) // never started: nothing to wait for
	<-f.done
}

func (f *Follower) run() {
	defer close(f.done)
	backoff := f.cfg.ReconnectMin
	for f.ctx.Err() == nil {
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
		case <-f.ctx.Done():
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

// checkLogID enforces stream identity: the WAL holds the primary's
// log from position from on, so the log ID the primary sends must be
// the WAL's — except at position 0, where the empty log claims nothing
// yet and adopts the primary's identity at first contact (adoptLogID).
// Any other mismatch — this follower, or the address it polls, now points
// at an unrelated log whose stream positions mean something else — is
// fatal. Resuming an offset against a foreign log would either loop on
// errors or silently apply misaligned records; parking with a clear error
// is the only safe answer.
func (f *Follower) checkLogID(id string, from uint64) error {
	if id == "" || from == 0 {
		return nil
	}
	if own := f.mgr.LogID(); id != own {
		return fmt.Errorf("%w: primary %s serves WAL log %s, but this replica is pinned to log %s (repointed at an unrelated primary?)",
			errFatal, f.cfg.Primary, id, own)
	}
	return nil
}

// adoptLogID pins the link after a successful exchange: an empty log
// still under an identity of its own adopts the primary's.
func (f *Follower) adoptLogID(id string) error {
	if id == "" {
		return nil
	}
	if id != f.mgr.LogID() {
		if err := f.mgr.AdoptStream(f.st, id, 0, f.mgr.Epoch(), wal.PrefixHashSeed); err != nil {
			return fmt.Errorf("repl: adopting log %s: %w", id, err)
		}
	}
	f.mu.Lock()
	f.pinned = true
	f.mu.Unlock()
	return nil
}

// syncOnce performs one feed exchange: long-poll the primary from the
// end of the WAL, log and replay whatever arrives, and update the
// staleness watermark. A 410 triggers a checkpoint bootstrap instead.
func (f *Follower) syncOnce() error {
	if err := f.pull(); !errors.Is(err, errNeedBootstrap) {
		return err
	}
	return f.bootstrap()
}

func (f *Follower) pull() error {
	from, h := f.mgr.StreamHash()
	pinnedEpoch := f.mgr.Epoch()

	// Offer the link's lineage state: the prefix hash at from lets the
	// source verify "same history through here" BEFORE shipping a single
	// record, and the WAL's epoch lets a superseded primary learn it was
	// superseded (it answers 409 and self-fences instead of feeding us a
	// stale era).
	url := fmt.Sprintf("%s/v1/wal?from=%d&wait_ms=%d&hash=%s&epoch=%d", f.cfg.Primary, from,
		f.cfg.PollWait.Milliseconds(), strconv.FormatUint(h, 16), pinnedEpoch)
	if f.cfg.MaxBatchBytes > 0 {
		url += "&max_bytes=" + strconv.Itoa(f.cfg.MaxBatchBytes)
	}
	// Bounded a little past the long-poll hold.
	ctx, cancel := context.WithTimeout(f.ctx, f.cfg.PollWait+10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		if f.ctx.Err() != nil {
			return errStopping
		}
		return err
	}
	defer resp.Body.Close()
	logID := resp.Header.Get(HeaderLogID)
	if err := f.checkLogID(logID, from); err != nil {
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
		var env obs.ErrorBody
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
	if srvEpoch > 0 && srvEpoch < pinnedEpoch {
		// Belt and braces: a primary that did not implement the epoch=
		// 409 still must not drag this link back into a superseded era.
		return fmt.Errorf("%w: primary %s serves epoch %d but this replica's log is at epoch %d (stale primary)",
			errFatal, f.cfg.Primary, srvEpoch, pinnedEpoch)
	}
	if err := f.adoptLogID(logID); err != nil {
		return err
	}
	// A higher epoch is a clean failover: the feed ships only from a
	// position whose prefix hash matched the link's offer, so the
	// primary's history contains the replica's. The replica adopts the era
	// before it logs a record of it.
	if srvEpoch > pinnedEpoch {
		if err := f.mgr.SetEpoch(srvEpoch); err != nil {
			return fmt.Errorf("repl: adopting epoch %d: %w", srvEpoch, err)
		}
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
	lastAt := int64(math.MinInt64)
	torn := false
	for len(batch) > 0 {
		ms, ends, err := f.dec.Group(batch)
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
		// One group is one store write lock hold, logged before it
		// applies: a reader on this replica sees all of a primary batch or
		// none of it, and sees nothing its log does not hold.
		group := batch[:ends[len(ends)-1]]
		if _, err := f.st.ApplyLogged(func() error { return f.mgr.AppendFrames(group, len(ms)) }, ms...); err != nil {
			return fmt.Errorf("repl: logging and replaying group at %d: %w", applied, err)
		}
		applied += uint64(len(ms))
		lastAt = ms[len(ms)-1].At
		f.mBytes.Add(int64(len(group)))
		batch = batch[len(group):]
	}
	if applied > from {
		f.mBatches.Add(1)
		f.mRecords.Add(int64(applied - from))
	}

	// With the whole batch logged, the WAL's chained hash must land
	// exactly on the hash the source stamped for the batch end: a mismatch
	// means the histories forked (the source-side check at "from" is the
	// first line of defense; this one also covers a source that skipped
	// it). A batch cut short by a dying connection — even on a clean frame
	// boundary — is excluded by matching the applied count against the
	// served count.
	count, cerr := strconv.ParseUint(resp.Header.Get(HeaderCount), 10, 64)
	complete := !torn && rerr == nil && cerr == nil && applied-from == count
	if hdr := resp.Header.Get(HeaderHash); hdr != "" && complete {
		if srvHash, perr := strconv.ParseUint(hdr, 16, 64); perr == nil {
			if _, h := f.mgr.StreamHash(); h != srvHash {
				f.markDiverged()
				return fmt.Errorf("%w: %w: primary chains to %016x at stream position %d, this replica to %016x",
					errFatal, ErrDiverged, srvHash, applied, h)
			}
		}
	}

	f.mu.Lock()
	if t := stampTime(lastAt); t.After(f.watermark) {
		f.watermark = t
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

// bootstrap loads the primary's checkpoint into the empty local store
// and grafts it onto the empty WAL at the snapshot's resume index
// (wal.Manager.AdoptStream, crash-atomic). The load is atomic too —
// graph.(*Store).LoadHistory stages into scratch state and installs
// nothing on failure — so a download severed mid-stream leaves store and
// log empty and the next loop iteration retries cleanly. A replica whose
// log already holds records genuinely cannot re-bootstrap in place (it
// fell past the feed's retention): that is a fatal condition surfaced to
// the operator (rebuild it from an empty directory), never a silent full
// resync.
func (f *Follower) bootstrap() error {
	if pos := f.mgr.NextIndex(); pos > 0 {
		return fmt.Errorf("%w: the primary no longer holds stream position %d; rebuild this replica from an empty WAL directory", errFatal, pos)
	}
	ctx, cancel := context.WithTimeout(f.ctx, 5*time.Minute)
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
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("repl: snapshot returned %s: %s", resp.Status, body)
	}
	resume, err := strconv.ParseUint(resp.Header.Get(HeaderResume), 10, 64)
	if err != nil {
		return fmt.Errorf("repl: snapshot response missing %s", HeaderResume)
	}
	srvHash, err := strconv.ParseUint(resp.Header.Get(HeaderHash), 16, 64)
	if err != nil {
		return fmt.Errorf("repl: snapshot response missing %s", HeaderHash)
	}
	srvEpoch, _ := strconv.ParseUint(resp.Header.Get(HeaderEpoch), 10, 64)
	pinnedEpoch := f.mgr.Epoch()
	if srvEpoch > 0 && srvEpoch < pinnedEpoch {
		return fmt.Errorf("%w: snapshot from %s is at epoch %d but this replica's log is at epoch %d (stale primary)",
			errFatal, f.cfg.Primary, srvEpoch, pinnedEpoch)
	}
	if err := f.st.LoadHistory(resp.Body); err != nil {
		if graph.SetFormatFile(err, req.URL.String()) {
			return fmt.Errorf("%w: loading snapshot: %w", errFatal, err)
		}
		return fmt.Errorf("repl: loading snapshot: %w", err)
	}
	if err := f.mgr.AdoptStream(f.st, resp.Header.Get(HeaderLogID), resume, max(srvEpoch, pinnedEpoch), srvHash); err != nil {
		// The store holds a snapshot its log does not: only a restart,
		// which recovers both from the directory, makes them agree again.
		f.mu.Lock()
		f.pinned = false
		f.mu.Unlock()
		return fmt.Errorf("%w: logging the snapshot: %w; restart the replica", errFatal, err)
	}
	f.mBootstraps.Add(1)
	f.mu.Lock()
	f.pinned = true
	// The snapshot proves coverage only through its newest stored
	// transaction time (which LoadHistory fenced the local clock past) —
	// NOT through the local wall clock, which would claim primary commits
	// that postdate the checkpoint before the feed has replayed them.
	if latest := stampTime(f.st.Clock().Latest()); latest.After(f.watermark) {
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

// stampTime renders a transaction time of the store's clock as a
// watermark: the zero time for math.MinInt64, the clock's "none yet".
func stampTime(ns int64) time.Time {
	if ns == math.MinInt64 {
		return time.Time{}
	}
	return temporal.Time(ns)
}

// Status snapshots the link.
func (f *Follower) Status() Status {
	applied, epoch := f.mgr.NextIndex(), f.mgr.Epoch()
	f.mu.Lock()
	defer f.mu.Unlock()
	s := Status{
		Applied:        applied,
		AppliedThrough: f.watermark,
		PrimaryNext:    f.primaryNext,
		CaughtUp:       f.caughtUp,
		Promoted:       f.promoted,
		Reconnects:     f.reconnects,
		Bootstraps:     f.bootstraps,
		LastContact:    f.lastContact,
		Epoch:          epoch,
		Pinned:         f.pinned,
		Diverged:       f.diverged,
	}
	if f.primaryNext > applied {
		s.LagRecords = f.primaryNext - applied
	}
	if f.lastErr != nil {
		s.LastError = f.lastErr.Error()
	}
	return s
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
		case <-f.ctx.Done():
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
// (WaitUntil stops waiting — the node is about to be the authority) and
// stops the pull loop, so no shipped record lands after it returns.
// Node.Promote takes it from there: the epoch is the node's. Idempotent.
func (f *Follower) Promote() {
	f.mu.Lock()
	if !f.promoted {
		f.promoted = true
		close(f.changed)
		f.changed = make(chan struct{})
	}
	f.mu.Unlock()
	f.Stop()
	f.cfg.Logf("repl: link to %s stopped for promotion", f.cfg.Primary)
}

// Promoted reports whether Promote has run.
func (f *Follower) Promoted() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.promoted
}
