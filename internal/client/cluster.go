package client

// Cluster is the multi-endpoint client: one primary for writes, a set
// of read replicas for queries. Reads round-robin across healthy
// replicas and fail over — transient transport errors and lagging
// replicas retry against the next endpoint under a per-call retry
// budget with capped jittered backoff, honoring any Retry-After the
// server sent. When every replica is down or lagging the cluster
// degrades to primary-only reads. Writes always go to the primary and
// are never blindly retried over the network (a mutation that may have
// reached the server must not be replayed); the exceptions are 429
// "overloaded" and 403 "stale_primary", both of which the server
// guarantees were rejected before execution.
//
// The cluster is failover-epoch aware: it tracks the highest primary
// epoch any response has carried, stamps it on writes (fencing a stale
// primary on contact), rejects read answers served under a lower epoch
// (ErrStaleRead — accepting one could interleave pre- and
// post-failover histories), rediscovers the current primary when the
// configured one answers "stale_primary", and Failover promotes the
// most-caught-up healthy replica rather than the first that answers.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// ClusterConfig wires a Cluster. Primary is required; Replicas may be
// empty (all reads then hit the primary).
type ClusterConfig struct {
	// Primary is the write endpoint's base URL.
	Primary string
	// Replicas are the read endpoints' base URLs.
	Replicas []string
	// HTTPClient is shared by every endpoint; nil uses each client's
	// default (30s overall timeout).
	HTTPClient *http.Client
	// RetryBudget caps the total attempts one read makes across
	// endpoints; 0 means len(Replicas)+2 (every replica once, then the
	// primary, then one more for luck).
	RetryBudget int
	// BackoffMin/BackoffMax bound the jittered exponential backoff
	// between attempts; 0 means 25ms / 1s. A server Retry-After hint
	// overrides the computed backoff when longer.
	BackoffMin, BackoffMax time.Duration
	// ReplicaCooldown is how long a replica that failed a read sits out
	// of the rotation; 0 means 3s.
	ReplicaCooldown time.Duration
}

// Cluster routes requests across a primary and its replicas. Safe for
// concurrent use.
type Cluster struct {
	cfg ClusterConfig

	mu       sync.Mutex
	primary  *Client
	replicas []*clusterReplica
	rr       atomic.Uint64

	// epoch is the highest primary epoch any response has carried — the
	// cluster's watermark of "how recent a failover have I witnessed".
	epoch atomic.Uint64

	// mReadFailovers counts reads that left their first-choice endpoint.
	mReadFailovers atomic.Int64
	// mDegraded counts reads that fell back to the primary because no
	// replica was available.
	mDegraded atomic.Int64
	// mStaleReads counts read answers rejected for carrying a lower epoch
	// than the cluster had already seen.
	mStaleReads atomic.Int64
	// mRediscoveries counts writes that rewired the primary after a
	// "stale_primary" rejection.
	mRediscoveries atomic.Int64
}

type clusterReplica struct {
	c *Client
	// downUntil is the unix-nano deadline of the replica's cooldown
	// (atomic; 0 = healthy).
	downUntil atomic.Int64
}

// NewCluster returns a cluster client. Primary must be non-empty.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Primary == "" {
		return nil, errors.New("client: cluster needs a primary endpoint")
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = len(cfg.Replicas) + 2
	}
	if cfg.BackoffMin <= 0 {
		cfg.BackoffMin = 25 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = time.Second
	}
	if cfg.ReplicaCooldown <= 0 {
		cfg.ReplicaCooldown = 3 * time.Second
	}
	cl := &Cluster{cfg: cfg}
	// Every endpoint client participates in the epoch exchange: each
	// stamps the cluster's highest-seen epoch on writes and feeds the
	// epoch of every response back into the maximum.
	opts := []Option{WithEpochExchange(cl.epoch.Load, cl.observeEpoch)}
	if cfg.HTTPClient != nil {
		opts = append(opts, WithHTTPClient(cfg.HTTPClient))
	}
	cl.primary = New(cfg.Primary, opts...)
	for _, url := range cfg.Replicas {
		cl.replicas = append(cl.replicas, &clusterReplica{c: New(url, opts...)})
	}
	return cl, nil
}

// observeEpoch folds one observed epoch into the cluster maximum.
func (cl *Cluster) observeEpoch(e uint64) {
	for {
		cur := cl.epoch.Load()
		if e <= cur || cl.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// Epoch returns the highest primary epoch the cluster has observed.
func (cl *Cluster) Epoch() uint64 { return cl.epoch.Load() }

// Primary returns the write endpoint's client.
func (cl *Cluster) Primary() *Client {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.primary
}

// Replicas returns the read endpoints' clients, in configuration order.
func (cl *Cluster) Replicas() []*Client {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	out := make([]*Client, len(cl.replicas))
	for i, r := range cl.replicas {
		out[i] = r.c
	}
	return out
}

// ReadFailovers reports how many reads left their first-choice endpoint.
func (cl *Cluster) ReadFailovers() int64 { return cl.mReadFailovers.Load() }

// DegradedReads reports how many reads fell back to the primary because
// no replica was available.
func (cl *Cluster) DegradedReads() int64 { return cl.mDegraded.Load() }

// StaleReads reports how many read answers were rejected for carrying a
// lower epoch than the cluster had already observed.
func (cl *Cluster) StaleReads() int64 { return cl.mStaleReads.Load() }

// Rediscoveries reports how many writes rewired the primary after a
// "stale_primary" rejection.
func (cl *Cluster) Rediscoveries() int64 { return cl.mRediscoveries.Load() }

// readPlan builds the endpoint order for one read: healthy replicas
// starting at the round-robin cursor, then cooled-down replicas (better
// a maybe-stale replica than nothing), then the primary.
func (cl *Cluster) readPlan() []*clusterReplica {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	n := len(cl.replicas)
	plan := make([]*clusterReplica, 0, n+1)
	if n > 0 {
		start := int(cl.rr.Add(1)-1) % n
		now := time.Now().UnixNano()
		var cooled []*clusterReplica
		for i := 0; i < n; i++ {
			r := cl.replicas[(start+i)%n]
			if r.downUntil.Load() > now {
				cooled = append(cooled, r)
				continue
			}
			plan = append(plan, r)
		}
		plan = append(plan, cooled...)
	}
	plan = append(plan, &clusterReplica{c: cl.primary})
	return plan
}

// retryRead reports whether err warrants trying the next endpoint.
func retryRead(err error) bool {
	var te *TransportError
	if errors.As(err, &te) {
		return te.Retryable()
	}
	return errors.Is(err, ErrReplicaLagging) || errors.Is(err, ErrOverloaded) ||
		errors.Is(err, ErrReadOnly) || // endpoint list is stale: a promoted node moved
		errors.Is(err, ErrStaleRead) // answer predates the latest failover
}

// backoff sleeps before the next attempt: jittered exponential from the
// config bounds, raised to the server's Retry-After hint when present.
func (cl *Cluster) backoff(ctx context.Context, attempt int, err error) error {
	// Stop doubling once the cap is reached rather than shifting by the
	// raw attempt count: a large retry budget would overflow the shift
	// into a negative duration.
	d := cl.cfg.BackoffMin
	for i := 0; i < attempt && d < cl.cfg.BackoffMax; i++ {
		d <<= 1
	}
	if d > cl.cfg.BackoffMax {
		d = cl.cfg.BackoffMax
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	var ae *APIError
	if errors.As(err, &ae) && ae.RetryAfter > d {
		d = ae.RetryAfter
		if cap := 2 * cl.cfg.BackoffMax; d > cap {
			d = cap
		}
	}
	return sleepCtx(ctx, d)
}

// read runs one read-path call across the endpoint plan.
func (cl *Cluster) read(ctx context.Context, fn func(*Client) error) error {
	plan := cl.readPlan()
	budget := cl.cfg.RetryBudget
	var lastErr error
	for attempt := 0; attempt < budget; attempt++ {
		r := plan[attempt%len(plan)]
		if attempt > 0 {
			cl.mReadFailovers.Add(1)
		}
		if r.c == cl.Primary() && attempt > 0 {
			cl.mDegraded.Add(1)
		}
		err := fn(r.c)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryRead(err) || ctx.Err() != nil {
			return err
		}
		// Sideline the failing replica (the synthetic primary entry has
		// its cooldown discarded with it).
		r.downUntil.Store(time.Now().Add(cl.cfg.ReplicaCooldown).UnixNano())
		if attempt+1 < budget {
			if serr := cl.backoff(ctx, attempt, err); serr != nil {
				return fmt.Errorf("%w (last endpoint error: %v)", serr, lastErr)
			}
		}
	}
	return lastErr
}

// Query executes a read on the cluster: round-robin across healthy
// replicas with failover, degrading to the primary when none can serve.
// Answers served under a lower epoch than the cluster has already seen
// are rejected (ErrStaleRead) and retried elsewhere: after a failover
// the cluster never hands the caller an interleaving of the old
// primary's history and the new one's.
func (cl *Cluster) Query(ctx context.Context, query string, o *QueryOptions) (*Result, error) {
	var res *Result
	err := cl.read(ctx, func(c *Client) error {
		r, err := c.Query(ctx, query, o)
		if err != nil {
			return err
		}
		// The response already advanced cl.epoch through observeEpoch, so
		// a strict < here means some other response proved a newer era.
		if high := cl.epoch.Load(); r.Epoch > 0 && r.Epoch < high {
			cl.mStaleReads.Add(1)
			return fmt.Errorf("%w: %s answered at epoch %d, cluster has seen %d",
				ErrStaleRead, c.Base(), r.Epoch, high)
		}
		res = r
		return nil
	})
	return res, err
}

// writeRetry retries a primary write only on errors the server
// guarantees were rejected before execution: 429 "overloaded" (honoring
// Retry-After) and 403 "stale_primary" — the latter after rediscovering
// the current primary among the endpoints, since the configured one was
// superseded by a failover. Transport failures are NOT retried: the
// mutation may have been applied, and replaying it is worse than
// reporting it.
func (cl *Cluster) writeRetry(ctx context.Context, fn func(*Client) error) error {
	var lastErr error
	for attempt := 0; attempt < cl.cfg.RetryBudget; attempt++ {
		err := fn(cl.Primary())
		if err == nil {
			return nil
		}
		lastErr = err
		switch {
		case ctx.Err() != nil:
			return err
		case errors.Is(err, ErrOverloaded):
			if attempt+1 < cl.cfg.RetryBudget {
				if serr := cl.backoff(ctx, attempt, err); serr != nil {
					return fmt.Errorf("%w (last endpoint error: %v)", serr, lastErr)
				}
			}
		case errors.Is(err, ErrStalePrimary):
			// The write never executed; finding the real primary and
			// resending is safe. Without a rediscovery there is no point
			// retrying: the stale node will keep refusing.
			if !cl.rediscoverPrimary(ctx) {
				return err
			}
			cl.mRediscoveries.Add(1)
		default:
			return err
		}
	}
	return lastErr
}

// rediscoverPrimary scans the read endpoints for the true primary — the
// highest-epoch unfenced node reporting the primary role — and rewires
// the cluster onto it (the old primary leaves the write path). Returns
// false when no endpoint currently claims the role.
func (cl *Cluster) rediscoverPrimary(ctx context.Context) bool {
	cl.mu.Lock()
	replicas := append([]*clusterReplica(nil), cl.replicas...)
	cl.mu.Unlock()
	best := -1
	var bestEpoch uint64
	for i, r := range replicas {
		_, st, err := r.c.Ready(ctx)
		if err != nil || st == nil {
			continue
		}
		if st.Role != "primary" || st.Fenced || st.Epoch == 0 {
			continue
		}
		if best < 0 || st.Epoch > bestEpoch {
			best, bestEpoch = i, st.Epoch
		}
	}
	if best < 0 {
		return false
	}
	cl.observeEpoch(bestEpoch)
	cl.mu.Lock()
	cl.primary = replicas[best].c
	cl.replicas = append(append([]*clusterReplica(nil), replicas[:best]...), replicas[best+1:]...)
	cl.mu.Unlock()
	return true
}

// Ingest applies mutations through the primary.
func (cl *Cluster) Ingest(ctx context.Context, ops []server.IngestOp) (*server.IngestResponse, error) {
	var resp *server.IngestResponse
	err := cl.writeRetry(ctx, func(c *Client) error {
		r, err := c.Ingest(ctx, ops)
		if err == nil {
			resp = r
		}
		return err
	})
	return resp, err
}

// Checkpoint checkpoints the primary.
func (cl *Cluster) Checkpoint(ctx context.Context) error {
	return cl.writeRetry(ctx, func(c *Client) error { return c.Checkpoint(ctx) })
}

// Stats probes every configured endpoint's /readyz concurrently and
// returns the same map shape GET /debug/cluster serves: role, epoch,
// applied index, and lag per node, with transport failures surfaced as
// unreachable entries instead of errors. This is the client-side
// cluster view — it needs no server-side peer configuration because the
// cluster already knows its endpoints.
func (cl *Cluster) Stats(ctx context.Context) *server.ClusterResponse {
	cl.mu.Lock()
	endpoints := make([]*Client, 0, len(cl.replicas)+1)
	endpoints = append(endpoints, cl.primary)
	for _, r := range cl.replicas {
		endpoints = append(endpoints, r.c)
	}
	cl.mu.Unlock()

	resp := &server.ClusterResponse{Nodes: make(map[string]server.ClusterNode, len(endpoints))}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, c := range endpoints {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			node := server.ClusterNode{URL: c.Base()}
			if _, st, err := c.Ready(ctx); err != nil {
				node.Error = err.Error()
			} else {
				node.Reachable = true
				node.Ready = st
			}
			mu.Lock()
			resp.Nodes[c.Base()] = node
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return resp
}

// Failover promotes a replica to primary after the primary is lost. It
// asks every replica for its replication status and promotes the MOST
// CAUGHT-UP healthy one — highest applied stream index, ties broken by
// configuration order — not the first that answers: promoting a laggard
// silently discards every acked write past its position. Diverged
// (parked) replicas, and unpinned ones, whose logs never reached the
// primary's, are never candidates. Unreachable replicas fall to
// the back as promote-blind fallbacks, tried only when no replica could
// report status at all. The promoted node becomes the write endpoint
// and leaves the read rotation. The promote request carries the highest
// epoch the cluster has seen (the epoch exchange stamps it on every
// POST), and the node mints above it: a replica whose link has not
// polled since its primary was re-promoted cannot mint the live
// primary's epoch again. Returns the new primary's client.
func (cl *Cluster) Failover(ctx context.Context) (*Client, error) {
	cl.mu.Lock()
	replicas := append([]*clusterReplica(nil), cl.replicas...)
	cl.mu.Unlock()
	if len(replicas) == 0 {
		return nil, errors.New("client: failover found no promotable replica: no replicas to fail over to")
	}
	type candidate struct {
		idx     int
		applied uint64
		ranked  bool
	}
	cands := make([]candidate, 0, len(replicas))
	var blind []candidate
	var lastErr error
	for i, r := range replicas {
		_, st, err := r.c.Ready(ctx)
		if err != nil || st == nil {
			// Can't rank it; keep as a last-resort blind promote target.
			lastErr = err
			blind = append(blind, candidate{idx: i})
			continue
		}
		if st.Diverged {
			lastErr = fmt.Errorf("client: replica %s parked diverged; it cannot be promoted", r.c.Base())
			continue
		}
		if st.Unpinned {
			lastErr = fmt.Errorf("client: replica %s never reached its primary's log; it cannot be promoted", r.c.Base())
			continue
		}
		cands = append(cands, candidate{idx: i, applied: st.AppliedIndex, ranked: true})
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].applied > cands[b].applied })
	cands = append(cands, blind...)
	for _, cand := range cands {
		r := replicas[cand.idx]
		resp, err := r.c.Promote(ctx)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.Epoch > 0 {
			cl.observeEpoch(resp.Epoch)
		}
		cl.mu.Lock()
		cl.primary = r.c
		cl.replicas = append(append([]*clusterReplica(nil), replicas[:cand.idx]...), replicas[cand.idx+1:]...)
		cl.mu.Unlock()
		return r.c, nil
	}
	if lastErr == nil {
		lastErr = errors.New("no replicas to fail over to")
	}
	return nil, fmt.Errorf("client: failover found no promotable replica: %w", lastErr)
}
