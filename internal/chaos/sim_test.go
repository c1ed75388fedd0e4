package chaos_test

// FuzzClusterSim runs a seeded three-node cluster under faults. Each node
// is a WAL-backed core.DB writing through a CrashFS, served on a
// FlakyListener. The seed alone fixes the schedule: traffic through
// client.Cluster (unique-id writes, min_timestamp reads, watch
// subscribers) between severs, partitions, torn-tail kills, restarts on
// the same directory, failovers, a split brain, demote and re-promote,
// checkpoints under a watcher, and replicas restarted or repointed on
// their own logs, which are their primaries'. The run records a
// history, and check holds it to the cluster's contracts; it sees only
// the history, so TestCheckerCatchesEachContract can feed it hand-made
// ones. Tier-1 runs simCorpus; -fuzz explores new seeds, and a failing
// one, saved under testdata/fuzz, reproduces by number.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/temporal"
	"repro/internal/wal"
	"repro/internal/watch"
)

// simCorpus is the fixed seed corpus; between them its seeds fire every
// fault of simFaults, or the corpus proves nothing about that fault.
var simCorpus = []uint64{1, 2, 3, 4, 5, 6, 7, 8}

var simFaults = []string{
	"sever-resume",     // a severed follower resumed from its offset, no bootstrap
	"partition-heal",   // replicas caught up with a primary healed from a partition
	"tear-restart",     // a torn log tail, then restart and recovery
	"failover",         // Cluster.Failover promoted a replica
	"demote-repromote", // a demoted primary was re-promoted
	"compacted",        // a checkpoint compacted a watcher's position
	"stale-read",       // a client rejected an answer from a stale era
	"rediscovery",      // a stale_primary write found the new primary
	"diverged",         // a follower parked on a forked history
	"replica-restart",  // a killed replica restarted on its log and resumed, no bootstrap
}

// simHTTP dials a connection per request: a pooled connection a fault
// already cut would fail the next request at random, and a promote that
// fails that way may still have promoted.
var simHTTP = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

// Watch batches of 4 into a 1-event buffer: a subscriber's stream holds
// at most 5 accepted events it has not delivered.
var simWatch = &client.WatchOptions{PollWait: 50 * time.Millisecond, MaxEvents: 4, Buffer: 1}

func FuzzClusterSim(f *testing.F) {
	for _, seed := range simCorpus {
		f.Add(seed)
	}
	fired, ran := map[string]bool{}, 0 // seeds run one at a time
	f.Cleanup(func() {
		if fz := flag.Lookup("test.fuzz"); ran < len(simCorpus) || fz != nil && fz.Value.String() != "" {
			return // a partial or fuzzing run says nothing about the corpus
		}
		for _, fault := range simFaults {
			if !fired[fault] {
				f.Errorf("no corpus seed fired %q", fault)
			}
		}
	})
	f.Fuzz(func(t *testing.T, seed uint64) {
		s := simulate(t, seed, 0, func(s *sim) {
			for range 6 + seed%5 {
				s.next()
			}
		})
		for k := range s.fired {
			fired[k] = true
		}
		if slices.Contains(simCorpus, seed) {
			ran++
		}
	})
}

// simNode is a node slot: a directory and an address that outlive the
// node's incarnations.
type simNode struct {
	id        int
	dir, addr string
	fs        atomic.Pointer[chaos.CrashFS] // for files opened from now on
	db        *core.DB
	srv       *server.Server
	ln        *chaos.FlakyListener
	c         *client.Client // epoch-blind
	up        int            // node its link follows; -1 on a primary
	era       int            // era it logs into; -1 before it first does
	tail      uint64         // next WAL index to copy into its era
	// forked: its history left the cluster's.
	live, forked bool
	fork         []byte // its history when last started or repointed as a replica
}

type sim struct {
	t          *testing.T
	seed       uint64
	rng        *rand.Rand
	budget     int64 // every listener's byte budget: 0 draws one per incarnation, -1 none
	ctx        context.Context
	nodes      []*simNode
	prim       int
	c          *client.Cluster // the traffic client
	cls        []*client.Cluster
	subA, subB *sub // subA rides c; subB the primary alone, restarted at checkpoints
	h          history
	step, tick int
	id         int64
	last       time.Time // commit time of the latest acked write
	fired      map[string]bool
	trace      []string
}

// simulate starts the cluster — node 0 the primary, nodes 1 and 2 its
// replicas — runs schedule, lets the cluster quiesce, and holds the
// history to the contracts.
func simulate(t *testing.T, seed uint64, budget int64, schedule func(*sim)) *sim {
	ctx, cancel := context.WithCancel(context.Background())
	s := &sim{t: t, seed: seed, rng: rand.New(rand.NewPCG(seed, 0x5eed)), budget: budget, ctx: ctx, fired: map[string]bool{}, id: 100}
	defer s.close(cancel)
	for len(s.nodes) < 3 {
		// A port below the kernel's ephemeral range, so no outgoing
		// connection takes it while its node is down, in a block of 1000 per
		// process, so -fuzz workers' simulations keep apart. A process that
		// still binds a dead node's port breaks the run: the restart fails
		// "rebinding node", or clients reach a foreign cluster and report
		// contract 1 or 4. The blocks make that rare, not impossible.
		l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", 10000+os.Getpid()%20*1000+rand.IntN(1000)))
		if err != nil {
			continue
		}
		addr := l.Addr().String()
		l.Close()
		if slices.ContainsFunc(s.nodes, func(n *simNode) bool { return n.addr == addr }) {
			continue // an earlier node's, free only until it starts
		}
		s.nodes = append(s.nodes, &simNode{id: len(s.nodes), dir: t.TempDir(), addr: addr, era: -1,
			c: client.New("http://"+addr, client.WithHTTPClient(simHTTP))})
	}
	s.start(s.nodes[0], -1)
	s.newEra(s.nodes[0], -1)
	s.start(s.nodes[1], 0)
	s.start(s.nodes[2], 0)
	s.c = s.cluster(0, 1, 2)
	s.subA, s.subB = s.subscribe("subA", s.c, 0), s.subscribe("subB", s.cluster(0), 0)
	schedule(s)
	s.quiesce()
	t.Logf("seed %d: %s; fired %v", seed, strings.Join(s.trace, ", "), s.fired)
	for _, v := range check(&s.h) {
		t.Errorf("seed %d: %v", seed, v)
	}
	return s
}

func (s *sim) fatalf(format string, args ...any) {
	s.t.Helper()
	s.t.Fatalf("seed %d step %d (%s): %s", s.seed, s.step, strings.Join(s.trace, ", "), fmt.Sprintf(format, args...))
}

func (s *sim) url(n int) string { return "http://" + s.nodes[n].addr }

func (s *sim) cluster(primary int, replicas ...int) *client.Cluster {
	urls := make([]string, len(replicas))
	for i, r := range replicas {
		urls[i] = s.url(r)
	}
	// NewCluster fails only without a primary.
	c, _ := client.NewCluster(client.ClusterConfig{Primary: s.url(primary), Replicas: urls, HTTPClient: simHTTP,
		BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond, ReplicaCooldown: 20 * time.Millisecond})
	s.cls = append(s.cls, c)
	return c
}

func (s *sim) nodeAt(base string) *simNode {
	return s.nodes[slices.IndexFunc(s.nodes, func(n *simNode) bool { return s.url(n.id) == base })]
}

// rotation returns the traffic client's read replicas: its Failover
// candidates.
func (s *sim) rotation() []*simNode {
	var ns []*simNode
	for _, r := range s.c.Replicas() {
		ns = append(ns, s.nodeAt(r.Base()))
	}
	return ns
}

// ---- node lifecycle ----

// start opens n's directory and serves it as a primary, or as a replica
// of up, resuming where its log ends.
func (s *sim) start(n *simNode, up int) {
	n.fs.Store(chaos.NewCrashFS(1 << 40)) // no crash until a kill sets a budget
	open := func(name string, flag int, perm os.FileMode) (wal.File, error) {
		f, err := n.fs.Load().OpenFile(name, flag, perm)
		if err != nil {
			return nil, err
		}
		return f, nil
	}
	db, err := core.Open(netmodel.MustSchema(), core.WithWALOptions(n.dir, wal.Options{NoSync: true, OpenFile: open}))
	if err != nil {
		s.fatalf("opening node %d: %v", n.id, err)
	}
	n.db, n.live = db, true
	s.serve(n, up)
}

func (s *sim) serve(n *simNode, up int) {
	cfg := server.Config{MaxStalenessWait: 100 * time.Millisecond}
	if up >= 0 {
		cfg.Follow = &repl.FollowerConfig{Primary: s.url(up), PollWait: 50 * time.Millisecond,
			ReconnectMin: time.Millisecond, ReconnectMax: 20 * time.Millisecond}
		n.fork = writeHistory(n.db)
	}
	n.srv, n.up = server.New(n.db, cfg), up
	inner, err := net.Listen("tcp", n.addr)
	for i := 0; err != nil && i < 400; i++ { // the previous incarnation's port may linger
		time.Sleep(5 * time.Millisecond)
		inner, err = net.Listen("tcp", n.addr)
	}
	if err != nil {
		s.fatalf("rebinding node %d: %v", n.id, err)
	}
	var budget int64 // half the incarnations cut connections after 16-48 KB
	if s.rng.IntN(2) == 0 {
		budget = 16<<10 + s.rng.Int64N(32<<10)
	}
	if s.budget != 0 {
		budget = max(s.budget, 0)
	}
	n.ln = chaos.NewFlakyListener(inner, budget, 0)
	go n.srv.Serve(n.ln)
}

// kill stops n abruptly. With tear, the primary n first sets its CrashFS
// budget just past a checkpoint, then takes client writes until the
// budget tears one mid-frame: the machine dies inside an append.
func (s *sim) kill(n *simNode, tear bool) {
	if tear {
		n.fs.Store(chaos.NewCrashFS(int64(len(writeHistory(n.db))) + 512 + s.rng.Int64N(1024)))
		_ = n.db.Checkpoint() // the budget may tear the checkpoint itself: another crash point
		for i := 0; i < 64 && !n.fs.Load().Crashed(); i++ {
			s.write(s.c, 0)
		}
	}
	n.srv.Close()
	s.copyLog(n)
	n.db.Close() // after a crash this fails: only recovery matters
	n.live = false
}

// newEra opens a log era for n, which has just become, or come back as,
// a primary, continuing era up.
func (s *sim) newEra(n *simNode, up int) {
	mgr := n.db.WAL()
	base := mgr.BaseIndex()
	anchor, err := mgr.PrefixHash(base)
	if err != nil {
		s.fatalf("%v", err)
	}
	s.tick++
	s.h.eras = append(s.h.eras, era{node: n.id, step: s.step, begun: s.tick, epoch: mgr.Epoch(), up: up, start: base, anchor: anchor})
	n.era, n.tail = len(s.h.eras)-1, base
	s.copyLog(n)
}

// copyLog copies a primary's new WAL records into its era. Records the
// log counts but cannot serve stay missing, for the checker to see.
func (s *sim) copyLog(n *simNode) {
	if n.era < 0 || !n.live || n.up >= 0 {
		return
	}
	mgr, er := n.db.WAL(), &s.h.eras[n.era]
	for n.tail < mgr.NextIndex() {
		raw, _, err := mgr.ReadRecords(n.tail, 1<<20)
		if err != nil || len(raw) == 0 {
			return
		}
		for len(raw) > 0 && n.tail < mgr.NextIndex() {
			m, size, err := wal.DecodeRecord(raw)
			if err != nil {
				return
			}
			er.recs = append(er.recs, rec{bytes.Clone(raw[:size]), m})
			raw, n.tail = raw[size:], n.tail+1
		}
	}
}

// repoint moves replica n's link onto node to: the new link resumes
// where n's log ends.
func (s *sim) repoint(n *simNode, to int) {
	n.srv.Close()
	s.serve(n, to)
}

// drain waits until replica n has applied its primary's whole log. It
// does not wait for the link to pin the log: in a fresh cluster the
// primary's log is empty, so a replica that never polled has applied it
// all, and Failover passes such an unpinned replica over (the corpus
// entry seed38-regression-unpinned-promote). Nor does it wait for the
// link to learn the primary's epoch: a failover mints above the epoch
// its client has seen too, so a link that has not polled since a
// re-promotion, which keeps the log, cannot make it mint a live epoch
// again (the corpus entry seed401-regression-epoch-remint).
func (s *sim) drain(n *simNode) {
	f, up := n.srv.Follower(), s.nodes[n.up].db.WAL()
	deadline := time.Now().Add(5 * time.Second)
	for st := f.Status(); st.Applied < up.NextIndex(); st = f.Status() {
		if time.Now().After(deadline) {
			s.fatalf("node %d never caught up with node %d: %+v", n.id, n.up, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := f.Status(); st.Reconnects > 0 && st.Bootstraps == 0 && s.nodes[n.up].ln.Severed() > 0 {
		s.fired["sever-resume"] = true
	}
}

func (s *sim) healthy(n *simNode) bool {
	return n.live && n.up == s.prim && !n.forked
}

func (s *sim) drainAll() {
	for _, n := range s.nodes {
		if n.live && n.up == s.prim && !n.forked {
			s.drain(n)
		}
	}
}

// ---- client operations ----

func hostOp(id int64) []server.IngestOp {
	return []server.IngestOp{{Op: "insert-node", Class: "ComputeHost",
		Fields: map[string]any{"id": id, "name": fmt.Sprintf("h%d", id), "rack": "r", "status": "Active"}}}
}

func (s *sim) begin(kind string, who int, epoch uint64) op {
	s.tick++
	return op{kind: kind, step: s.step, client: who, invoke: s.tick, node: -1, era: -1, clientEpoch: epoch}
}

func (s *sim) done(o op) {
	s.tick++
	o.complete = s.tick
	s.h.ops = append(s.h.ops, o)
}

const simIDs = "Select source(P).id From PATHS P Where P MATCHES ComputeHost()"

// write ingests one host with a fresh id through c.
func (s *sim) write(c *client.Cluster, who int) error {
	s.id++
	o := s.begin("write", who, c.Epoch())
	o.id = s.id
	resp, err := c.Ingest(s.ctx, hostOp(s.id))
	if err == nil {
		n := s.nodeAt(c.Primary().Base())
		o.ok, o.epoch, o.node, o.era = true, resp.Epoch, n.id, n.era
		s.copyLog(n)
		if _, r, ok := s.h.find(n.era, s.id); ok {
			s.last = temporal.Time(r.m.At)
		}
	}
	s.done(o)
	return err
}

func (s *sim) read(c *client.Cluster, who int) {
	o := s.begin("read", who, c.Epoch())
	var qo *client.QueryOptions
	if !s.last.IsZero() {
		qo = &client.QueryOptions{MinTimestamp: s.last.Format(time.RFC3339Nano)}
	}
	res, err := c.Query(s.ctx, simIDs, qo)
	if err == nil {
		o.ok, o.epoch, o.seen, o.replica = true, res.Epoch, map[int64]bool{}, res.AppliedThrough != ""
		o.appliedThrough, _ = time.Parse(repl.ClockFormat, res.AppliedThrough) // "" on a primary's answer
		for _, row := range res.Rows {
			id, _ := row.Values[0].(int64)
			o.seen[id] = true
		}
	}
	s.done(o)
}

func (s *sim) traffic(k int) {
	for i := 0; i < k; i++ {
		if s.rng.IntN(4) == 0 {
			s.read(s.c, 0)
		} else {
			s.write(s.c, 0)
		}
	}
}

// subscribe tails c's watch stream from index from, recording with each
// event the epoch c had seen before the Next call that returned it.
func (s *sim) subscribe(name string, c *client.Cluster, from uint64) *sub {
	sb := &sub{name: name, from: from, window: simWatch.MaxEvents + simWatch.Buffer, done: make(chan struct{})}
	s.h.subs = append(s.h.subs, sb)
	sb.ws = c.Watch(s.ctx, from, simWatch)
	go func() {
		defer close(sb.done)
		for {
			seen := c.Epoch()
			ev, err := sb.ws.Next(s.ctx)
			if err != nil {
				return
			}
			sb.got = append(sb.got, delivery{ev, seen})
			sb.reached.Store(max(sb.reached.Load(), ev.Index+1))
		}
	}()
	return sb
}

// end closes the subscription and returns its resume token.
func (sb *sub) end() uint64 {
	sb.ws.Close()
	<-sb.done
	token := sb.from
	for _, d := range sb.got {
		if token = max(token, d.ev.Index+1); d.ev.Control() {
			token = d.ev.Index
		}
	}
	return token
}

// ---- the schedule ----

// next runs one schedule step, drawn from those the cluster allows.
func (s *sim) next() {
	var names []string
	var runs []func()
	add := func(ok bool, name string, weight int, run func()) {
		for i := 0; ok && i < weight; i++ {
			names, runs = append(names, name), append(runs, run)
		}
	}
	healthy := len(slices.DeleteFunc(slices.Clone(s.nodes), func(n *simNode) bool { return !s.healthy(n) }))
	promotable := slices.ContainsFunc(s.rotation(), s.healthy)
	add(true, "traffic", 2, func() { s.traffic(3 + s.rng.IntN(4)) })
	add(true, "sever", 1, s.sever)
	add(true, "checkpoint", 2, s.checkpoint)
	add(true, "demote", 1, s.demote)
	add(healthy > 0, "partition", 1, s.partition)
	add(healthy > 0, "kill-restart", 2, s.killRestart)
	add(promotable, "failover", 2, s.failover)
	add(promotable && healthy >= 2, "split-brain", 3, s.splitBrain)
	add(slices.ContainsFunc(s.nodes, s.rebuildable), "rebuild", 2, s.rebuild)
	i := s.rng.IntN(len(runs))
	s.do(names[i], runs[i])
}

// do runs run as the next schedule step.
func (s *sim) do(name string, run func()) {
	s.step++
	s.trace = append(s.trace, fmt.Sprintf("%d:%s", s.step, name))
	run()
	for _, n := range s.nodes {
		s.copyLog(n)
	}
}

// pick draws a node satisfying ok, or nil.
func (s *sim) pick(ok func(*simNode) bool) *simNode {
	ns := slices.DeleteFunc(slices.Clone(s.nodes), func(n *simNode) bool { return !ok(n) })
	if len(ns) == 0 {
		return nil
	}
	return ns[s.rng.IntN(len(ns))]
}

// sever cuts every live connection of a node, parked replication and
// watch long-polls included.
func (s *sim) sever() {
	n := s.pick(func(n *simNode) bool { return n.live })
	n.ln.Partition()
	n.ln.Heal()
	s.traffic(2)
}

// partition cuts the primary off from clients and replicas alike
// through some traffic, then heals it and lets the replicas catch up.
func (s *sim) partition() {
	p := s.nodes[s.prim]
	p.ln.Partition()
	if err := s.write(s.c, 0); !errors.As(err, new(*client.TransportError)) {
		s.t.Errorf("seed %d step %d: a write to the partitioned primary answered %v, not a transport error", s.seed, s.step, err)
	}
	s.traffic(2)
	p.ln.Heal()
	if err := s.write(s.c, 0); err != nil {
		s.t.Errorf("seed %d step %d: a write to the healed primary failed: %v", s.seed, s.step, err)
	}
	s.drainAll()
	s.fired["partition-heal"] = true
}

// killRestart kills a node — the primary with a torn log tail — runs
// traffic while it is down, and restarts it on its directory. A
// restarted replica resumes where its log ends: it catches up with no
// bootstrap.
func (s *sim) killRestart() {
	n := s.pick(func(n *simNode) bool { return n.id == s.prim || s.healthy(n) })
	tear := n.id == s.prim
	if tear {
		s.drainAll() // the tear checkpoints: a replica behind it could never catch up
	}
	s.kill(n, tear)
	s.traffic(2)
	if err := s.write(s.c, 0); tear && !errors.As(err, new(*client.TransportError)) {
		s.t.Errorf("seed %d step %d: a write to the dead primary answered %v, not a transport error", s.seed, s.step, err)
	}
	s.start(n, n.up)
	if tear {
		s.newEra(n, n.era)
		if n.db.RecoveryStats().TailTruncated {
			s.fired["tear-restart"] = true
		}
	} else {
		s.drain(n)
		if st := n.srv.Follower().Status(); st.Bootstraps != 0 {
			s.t.Errorf("seed %d step %d: node %d restarted on its log but bootstrapped %d times", s.seed, s.step, n.id, st.Bootstraps)
		}
		s.fired["replica-restart"] = true
	}
	s.traffic(2)
}

// failover fails over, half the time past a laggard.
func (s *sim) failover() {
	lag := s.pick(s.healthy)
	if s.rng.IntN(2) == 0 || lag == nil || !slices.ContainsFunc(s.rotation(), func(n *simNode) bool { return s.healthy(n) && n != lag }) {
		lag = nil
	}
	s.failoverPast(lag)
}

// failoverPast kills the primary once its replicas hold its whole log,
// fails over, repoints the other replicas at the new primary, and brings
// the old primary back as a replica resuming from its own log. With a
// laggard, it first kills that replica through two writes and restarts
// it only once the primary is dead: Failover must pass over it, and it is
// then rebuilt.
func (s *sim) failoverPast(lag *simNode) {
	if lag != nil {
		s.kill(lag, false)
		s.write(s.c, 0)
		s.write(s.c, 0)
	}
	s.drainAll()
	old := s.nodes[s.prim]
	s.kill(old, false)
	if lag != nil {
		s.start(lag, old.id)
	}
	if q := s.promote(); q != nil {
		for _, n := range s.nodes {
			switch {
			case n == lag && n != q:
				s.wipe(n, q.id)
			case n.live && n.up == old.id && !n.forked:
				s.repoint(n, q.id)
			}
		}
		s.start(old, q.id)
	} else {
		s.start(old, -1)
		s.newEra(old, old.era)
	}
	s.traffic(3)
}

// promote runs the traffic client's Failover and records it.
func (s *sim) promote() *simNode {
	o := s.begin("promote", 0, s.c.Epoch())
	for _, n := range s.rotation() {
		c := candidate{node: n.id, reachable: n.live}
		if n.live {
			st := n.srv.Follower().Status()
			c.diverged, c.applied = st.Diverged, st.Applied
		}
		o.candidates = append(o.candidates, c)
	}
	nc, err := s.c.Failover(s.ctx)
	if err != nil {
		s.done(o)
		return nil
	}
	q := s.nodeAt(nc.Base())
	o.ok, o.node, o.epoch = true, q.id, q.db.WAL().Epoch()
	if s.c.Epoch() < o.epoch {
		s.t.Errorf("seed %d step %d: Failover minted epoch %d, but its client has seen only %d", s.seed, s.step, o.epoch, s.c.Epoch())
	}
	s.done(o)
	s.newEra(q, s.nodes[q.up].era)
	q.up, s.prim = -1, q.id
	s.fired["failover"] = true
	return q
}

// splitBrain partitions the primary away and fails over while one
// replica stays with it. Healed, the old primary acks writes from a
// client that never saw the new era, and the replica copies that fork. A
// client that has seen the new era fences the old primary on contact and
// rediscovers the new one, the traffic client rejects the forked
// replica's answers, and the forked replica, repointed at the new
// primary, must park diverged.
func (s *sim) splitBrain() {
	s.drainAll()
	p := s.nodes[s.prim]
	p.ln.Partition()
	q := s.promote()
	p.ln.Heal()
	if q == nil {
		return
	}
	r2 := s.pick(func(n *simNode) bool { return n.live && n.up == p.id && !n.forked })
	rogue := 1 + s.rng.IntN(3)
	for acked, i := 0, 0; acked < rogue+2 && i < 50; i++ { // the fork lands inside q's log
		if s.write(s.c, 0) == nil {
			acked++
		}
	}
	old := s.cluster(p.id)
	for i := 0; i < rogue; i++ {
		s.write(old, 1)
	}
	s.drain(r2)
	r2.forked, p.forked = true, true
	c2 := s.cluster(p.id, q.id, r2.id)
	for i := 0; i < 8 && c2.Epoch() < q.db.WAL().Epoch(); i++ {
		s.read(c2, 2)
	}
	s.write(c2, 2)
	s.read(s.c, 0)
	s.read(s.c, 0)
	s.repoint(r2, q.id)
	for deadline := time.Now().Add(3 * time.Second); !r2.srv.Follower().Status().Diverged && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
	}
	s.fired["diverged"] = s.fired["diverged"] || r2.srv.Follower().Status().Diverged
}

// demote fences the primary by operator command, runs traffic it must
// refuse, and re-promotes it under a new epoch.
func (s *sim) demote() {
	p := s.nodes[s.prim]
	if _, err := p.c.Demote(s.ctx); err != nil {
		s.fatalf("demote: %v", err)
	}
	// With no other primary to find, a write fails stale_primary at once.
	if r, err := s.c.Rediscoveries(), s.write(s.c, 0); !errors.Is(err, client.ErrStalePrimary) || s.c.Rediscoveries() != r {
		s.t.Errorf("seed %d step %d: a write to the demoted primary answered %v", s.seed, s.step, err)
	}
	s.traffic(1)
	o := s.begin("promote", -1, 0)
	resp, err := p.c.Promote(s.ctx)
	if err != nil {
		s.fatalf("re-promote: %v", err)
	}
	o.ok, o.node, o.epoch = true, p.id, resp.Epoch
	s.done(o)
	s.newEra(p, p.era)
	s.fired["demote-repromote"] = true
	s.traffic(2)
}

// checkpoint stops subB, writes, checkpoints the primary, and resumes
// subB from its token on the primary alone, whose log no longer holds it.
func (s *sim) checkpoint() {
	token := s.subB.end()
	s.traffic(2)
	s.drainAll() // a replica behind the checkpoint could never catch up
	s.copyLog(s.nodes[s.prim])
	if err := s.c.Checkpoint(s.ctx); err != nil {
		s.fatalf("checkpoint: %v", err)
	}
	s.subB = s.subscribe("subB", s.cluster(s.prim), token)
	s.traffic(2)
}

func (s *sim) rebuildable(n *simNode) bool { return n.live && n.forked }

// rebuild wipes a forked node into a fresh replica.
func (s *sim) rebuild() {
	s.wipe(s.pick(s.rebuildable), s.prim)
	s.traffic(2)
}

// wipe kills n, empties its directory, and restarts it as a fresh
// replica of up.
func (s *sim) wipe(n *simNode, up int) {
	s.kill(n, false)
	if err := os.RemoveAll(n.dir); err != nil {
		s.fatalf("%v", err)
	}
	n.forked = false
	s.start(n, up)
}

// ---- quiescence ----

// quiesce lets the replicas catch up, ends the subscriptions, and records
// each node's final state.
func (s *sim) quiesce() {
	for _, n := range s.nodes {
		if n.live && n.up >= 0 && !n.srv.Follower().Status().Diverged {
			s.drain(n)
		}
		s.copyLog(n)
	}
	s.subA.must = s.nodes[s.prim].db.WAL().NextIndex()
	for deadline := time.Now().Add(3 * time.Second); s.subA.reached.Load() < s.subA.must && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
	}
	s.subA.end()
	s.subB.end()
	for _, c := range s.cls {
		s.fired["stale-read"] = s.fired["stale-read"] || c.StaleReads() > 0
		s.fired["rediscovery"] = s.fired["rediscovery"] || c.Rediscoveries() > 0
	}
	for _, sb := range s.h.subs {
		s.fired["compacted"] = s.fired["compacted"] || slices.ContainsFunc(sb.got, func(d delivery) bool { return d.ev.Control() })
	}
	for _, n := range s.nodes {
		if n.live {
			s.h.nodes = append(s.h.nodes, s.final(n))
		}
	}
}

func (s *sim) final(n *simNode) final {
	n.ln.Heal() // a byte budget would cut the probes
	fn := final{node: n.id, history: writeHistory(n.db)}
	if f := n.srv.Follower(); f != nil && !f.Promoted() {
		st := f.Status()
		up := s.nodes[n.up].db
		fn.replica, fn.diverged, fn.fork, fn.upHistory = true, st.Diverged, n.fork, writeHistory(up)
		fn.log, fn.upLog = sharedLog(n.db.WAL(), up.WAL())
		s.fired["diverged"] = s.fired["diverged"] || st.Diverged
	}
	_, ready, rerr := n.c.Ready(s.ctx)
	health, herr := n.c.Health(s.ctx)
	metrics, merr := n.c.Metrics(s.ctx)
	if ready == nil || herr != nil || merr != nil {
		s.fatalf("probing node %d: %v; %v; %v", n.id, rerr, herr, merr)
	}
	fn.readyStatus, fn.readyFenced, fn.readyEpoch = ready.Status, ready.Fenced, ready.Epoch
	fn.healthFenced, fn.healthEpoch = health.Fenced, health.Epoch
	for _, line := range strings.Split(metrics, "\n") {
		name, v, _ := strings.Cut(line, " ")
		x, _ := strconv.ParseFloat(v, 64)
		switch name {
		case "server_fenced":
			fn.metricFenced = x == 1
		case "repl_epoch":
			fn.metricEpoch = uint64(x)
		}
	}
	if ready.Fenced {
		s.id++
		_, err := n.c.Ingest(s.ctx, hostOp(s.id))
		fn.fencedErrs = []string{fmt.Sprint(err), fmt.Sprint(n.c.Checkpoint(s.ctx))}
		_, err = n.c.Query(s.ctx, simIDs, nil)
		fn.fencedRead = fmt.Sprint(err)
	}
	return fn
}

// sharedLog returns the record frames of a and of b over the stream
// range both logs hold.
func sharedLog(a, b *wal.Manager) (ra, rb []byte) {
	lo, hi := max(a.BaseIndex(), b.BaseIndex()), min(a.NextIndex(), b.NextIndex())
	return frames(a, lo, hi), frames(b, lo, hi)
}

// frames returns the record frames of mgr at [lo, hi), and what it could
// not read as text, so the comparison fails.
func frames(mgr *wal.Manager, lo, hi uint64) []byte {
	var out []byte
	for lo < hi {
		raw, _, err := mgr.ReadRecords(lo, 1<<20)
		if err != nil || len(raw) == 0 {
			return fmt.Appendf(out, "unreadable at %d: %v", lo, err)
		}
		for ; len(raw) > 0 && lo < hi; lo++ {
			_, size, err := wal.DecodeRecord(raw)
			if err != nil {
				return fmt.Appendf(out, "undecodable at %d: %v", lo, err)
			}
			out, raw = append(out, raw[:size]...), raw[size:]
		}
	}
	return out
}

func writeHistory(db *core.DB) []byte {
	var buf bytes.Buffer
	db.Store().WriteHistory(&buf) // into memory: it cannot fail
	return buf.Bytes()
}

func (s *sim) close(cancel context.CancelFunc) {
	if s.subB != nil {
		s.subA.ws.Close()
		s.subB.ws.Close()
	}
	cancel()
	for _, n := range s.nodes {
		if n.live {
			n.srv.Close()
			n.db.Close()
		}
	}
}

// ---- scripted scenarios ----

// The scenarios below run fixed schedules through the same cluster and
// checker: each tells one fault's story under its own name, and asserts
// on top of the eight contracts that the fault fired and what it must
// leave behind.

// writes acks k fresh writes through the traffic client.
func (s *sim) writes(k int) {
	for i := 0; i < k; i++ {
		if err := s.write(s.c, 0); err != nil {
			s.fatalf("write %d of %d: %v", i, k, err)
		}
	}
}

// TestSeveredStreamResumesFromOffset: every connection is cut after 2 KB
// of response, so the replicas follow a burst of writes across many
// severed streams. Each must resume from its applied offset, never
// re-bootstrap, and end byte-identical to the primary (contract 6).
func TestSeveredStreamResumesFromOffset(t *testing.T) {
	s := simulate(t, 1, 2<<10, func(s *sim) {
		s.do("traffic", func() { s.writes(60) })
		s.do("drain", s.drainAll)
		if s.nodes[0].ln.Severed() == 0 {
			s.fatalf("fault never fired: no connection to the primary was cut")
		}
		for _, n := range s.nodes[1:] {
			if st := n.srv.Follower().Status(); st.Reconnects == 0 || st.Bootstraps != 0 {
				s.fatalf("node %d: %d reconnects, %d bootstraps; want resumes from offset only", n.id, st.Reconnects, st.Bootstraps)
			}
		}
	})
	if !s.fired["sever-resume"] {
		t.Error("no replica resumed from its offset")
	}
}

// TestKillPrimaryPromoteKeepsAckedWrites kills the primary abruptly after
// a burst of acked writes and fails over: the promoted replica answers
// every acked write (contracts 1 and 4), acks new ones, and keeps its
// replication accounting on /metrics.
func TestKillPrimaryPromoteKeepsAckedWrites(t *testing.T) {
	simulate(t, 2, -1, func(s *sim) {
		s.do("traffic", func() { s.writes(25) })
		s.do("failover", func() { s.failoverPast(nil) })
		if s.prim == 0 {
			s.fatalf("failover left the dead node 0 primary")
		}
		s.writes(1)
		s.read(s.c, 0)
		r := s.h.ops[len(s.h.ops)-1]
		if !r.ok {
			s.fatalf("the read after failover failed")
		}
		for _, w := range s.h.ops {
			if w.kind == "write" && w.ok && !r.seen[w.id] {
				s.fatalf("the promoted node lost write %d, acked at step %d", w.id, w.step)
			}
		}
		mtx, err := s.nodes[s.prim].c.Metrics(s.ctx)
		if err != nil {
			s.fatalf("metrics: %v", err)
		}
		for _, name := range []string{"repl_follower_applied_index", "repl_follower_lag_records", "repl_follower_reconnects"} {
			if !strings.Contains(mtx, name) {
				t.Errorf("the promoted node's /metrics lacks %s", name)
			}
		}
	})
}

// TestPartitionedPrimarySplitBrainIsFencedAndDetected partitions the
// primary away and fails over; healed, the stale primary acks rogue
// writes that one replica copies. A client that has seen the new era
// fences the stale primary on contact and rediscovers the new one; the
// stale primary then refuses writes and keeps serving reads; the forked
// replica, repointed, parks diverged. Contracts 1, 3 and 6 hold the acks,
// the answers and the fork.
func TestPartitionedPrimarySplitBrainIsFencedAndDetected(t *testing.T) {
	s := simulate(t, 3, -1, func(s *sim) {
		s.do("traffic", func() { s.writes(5) })
		p := s.nodes[s.prim]
		s.do("split-brain", s.splitBrain)
		if s.prim == p.id {
			s.fatalf("split brain never failed over")
		}
		if h, err := p.c.Health(s.ctx); err != nil || !h.Fenced {
			s.fatalf("stale primary /healthz: %+v, %v; want fenced", h, err)
		}
		s.id++
		if _, err := p.c.Ingest(s.ctx, hostOp(s.id)); !errors.Is(err, client.ErrStalePrimary) {
			s.fatalf("write to the fenced primary: %v; want ErrStalePrimary", err)
		}
		if _, err := p.c.Query(s.ctx, simIDs, nil); err != nil {
			s.fatalf("the fenced primary stopped serving reads: %v", err)
		}
	})
	for _, fault := range []string{"rediscovery", "diverged"} {
		if !s.fired[fault] {
			t.Errorf("split brain never fired %q", fault)
		}
	}
}

// TestWatchSurvivesSeverAndFailover cuts every node's connections, parked
// watch long-polls included, between writes, then kills the primary and
// fails over. The subscribers, resuming by token alone, must deliver
// every record through the final log end, gap-free, in order, under
// non-decreasing epochs, each matching the WAL record at its index
// (contract 5), and end on the promoted epoch.
func TestWatchSurvivesSeverAndFailover(t *testing.T) {
	var epoch uint64
	s := simulate(t, 4, -1, func(s *sim) {
		sever := func() {
			for _, n := range s.nodes {
				n.ln.Partition()
				n.ln.Heal()
				s.writes(3)
			}
		}
		s.do("sever", sever)
		s.do("failover", func() { s.failoverPast(nil) })
		s.do("sever", sever)
		epoch = s.nodes[s.prim].db.WAL().Epoch()
	})
	var severed int64
	for _, n := range s.nodes {
		severed += n.ln.Severed()
	}
	if severed == 0 {
		t.Error("fault never fired: no connection was cut")
	}
	if got := s.subA.got; len(got) == 0 || got[len(got)-1].ev.Epoch != epoch {
		t.Errorf("the subscriber's last delivery is not stamped the promoted epoch %d", epoch)
	}
	// Stricter than contract 5 for the cluster subscriber: no checkpoint
	// ran and every node's WAL holds the whole run, so nothing may compact
	// it, every delivery carries an epoch, and none steps back an epoch.
	var top uint64
	for i, d := range s.subA.got {
		if d.ev.Control() {
			t.Errorf("delivery %d is a %s control event; the feeds must have retained the whole run", i, d.ev.Op)
		}
		if d.ev.Epoch == 0 {
			t.Errorf("delivery %d (index %d) carries no epoch", i, d.ev.Index)
		}
		if d.ev.Epoch < top {
			t.Errorf("delivery %d carries epoch %d after epoch %d", i, d.ev.Epoch, top)
		}
		top = max(top, d.ev.Epoch)
	}
}

// ---- the history and its checker ----

// op is a write, a read, or a promotion (by Failover, or the
// re-promotion of a demoted primary); ticks order the ops.
type op struct {
	kind               string // "write", "read", "promote"
	step, client, node int    // node: the acking, answering or promoted one; -1 unknown
	invoke, complete   int
	clientEpoch, epoch uint64 // seen by the client at invoke; stamped on the answer, or minted
	ok                 bool
	id                 int64 // write: the host, found by id in era, the acking node's log
	era                int
	replica            bool // read: answered by a replica, stamped appliedThrough
	appliedThrough     time.Time
	seen               map[int64]bool // read: the ids it returned
	candidates         []candidate    // Failover: the replicas it chose from
}

type candidate struct {
	node                int
	reachable, diverged bool
	applied             uint64
}

// era is one node's own log from start on, under one epoch, begun at a
// promotion or a restart; below start it inherits era up's history.
type era struct {
	node, step, begun, up int
	epoch, start, anchor  uint64 // anchor: the node's prefix hash at start
	recs                  []rec  // the records at start, start+1, ...
}

type rec struct {
	frame []byte
	m     *graph.Mutation
}

// delivery is a watch event and the epoch its client had seen before the
// Next call that returned it.
type delivery struct {
	ev        watch.Event
	seenEpoch uint64
}

// sub is a subscriber, whose stream holds up to window accepted events it
// has not delivered.
type sub struct {
	name       string
	from, must uint64 // must: the log end it has to reach by quiescence
	window     int
	got        []delivery
	ws         *client.WatchStream
	done       chan struct{}
	reached    atomic.Uint64 // the end of its delivered prefix, while it runs
}

// final is a live node at quiescence.
type final struct {
	node                                    int
	replica, diverged                       bool
	history, upHistory, fork                []byte // its history, its primary's, its own when last started or repointed
	log, upLog                              []byte // its WAL's records and its primary's, over the range both hold
	readyStatus                             string
	readyFenced, healthFenced, metricFenced bool
	readyEpoch, healthEpoch, metricEpoch    uint64
	fencedErrs                              []string // a fenced node's answers to a write and a checkpoint
	fencedRead                              string   // and to a read
}

type history struct {
	ops   []op
	eras  []era
	subs  []*sub
	nodes []final
}

type violation struct {
	contract int
	msg      string
}

func (v violation) String() string { return fmt.Sprintf("contract %d: %s", v.contract, v.msg) }

// record returns the record at index i of era e's lineage.
func (h *history) record(e int, i uint64) (rec, bool) {
	for ; e >= 0; e = h.eras[e].up {
		if er := &h.eras[e]; i >= er.start {
			if i-er.start < uint64(len(er.recs)) {
				return er.recs[i-er.start], true
			}
			return rec{}, false
		}
	}
	return rec{}, false
}

// exempt reports whether write w was acked after a primary of a higher
// epoch was promoted, by a client that had not seen that epoch.
func (h *history) exempt(w *op) bool {
	for _, p := range h.ops {
		if p.kind == "promote" && p.ok && p.epoch > w.epoch && p.invoke < w.complete && w.clientEpoch < p.epoch {
			return true
		}
	}
	return false
}

// check replays h against the eight contracts.
func check(h *history) []violation {
	var vs []violation
	bad := func(c int, format string, args ...any) { vs = append(vs, violation{c, fmt.Sprintf(format, args...)}) }
	type ack struct {
		*op
		index uint64
		rec   rec
	}
	var acks []ack
	for i := range h.ops {
		if w := &h.ops[i]; w.kind == "write" && w.ok {
			if idx, r, ok := h.find(w.era, w.id); ok {
				acks = append(acks, ack{w, idx, r})
			} else {
				bad(1, "step %d: write %d acked by node %d is not in its WAL", w.step, w.id, w.node)
			}
		}
	}

	// 1. Every era's inherited prefix is its upstream's, and an acked write
	// sits at its index on every later primary of its epoch or a higher one
	// unless acked after a higher epoch's promotion by a client blind to it.
	for _, er := range h.eras {
		hash := wal.PrefixHashSeed
		for i := uint64(0); i < er.start && er.up >= 0; i++ {
			r, ok := h.record(er.up, i)
			if !ok {
				break
			}
			hash = wal.ChainHash(hash, wal.FrameChecksum(r.frame))
		}
		if er.up >= 0 && hash != er.anchor {
			bad(1, "step %d: node %d's log at %d does not continue its upstream's history", er.step, er.node, er.start)
		}
	}
	// A write the exception covers never reaches a higher epoch's log.
	for _, a := range acks {
		for e, er := range h.eras {
			r, ok := h.record(e, a.index)
			has, exempt := ok && bytes.Equal(r.frame, a.rec.frame), h.exempt(a.op)
			if !exempt && !has && er.begun > a.complete && er.epoch >= a.epoch {
				bad(1, "step %d: write %d acked at epoch %d index %d is missing from node %d's log of step %d",
					a.step, a.id, a.epoch, a.index, er.node, er.step)
			}
			if exempt && has && er.epoch > a.epoch {
				bad(1, "step %d: write %d acked by a superseded primary reached node %d's epoch-%d log", a.step, a.id, er.node, er.epoch)
			}
		}
	}

	// 2. No two acks share an (epoch, index) with different bytes.
	byKey := map[[2]uint64]ack{}
	for _, a := range acks {
		k := [2]uint64{a.epoch, a.index}
		if b, ok := byKey[k]; ok && !bytes.Equal(a.rec.frame, b.rec.frame) {
			bad(2, "steps %d and %d: writes %d and %d both acked at epoch %d index %d", b.step, a.step, b.id, a.id, k[0], k[1])
		}
		byKey[k] = a
	}

	// 3. A client never accepts an answer below an epoch it has seen.
	for _, o := range h.ops {
		if o.ok && o.kind != "promote" && o.epoch > 0 && o.epoch < o.clientEpoch {
			bad(3, "step %d: client %d accepted a %s stamped epoch %d after seeing epoch %d", o.step, o.client, o.kind, o.epoch, o.clientEpoch)
		}
	}
	for _, s := range h.subs {
		var seen uint64
		for j, d := range s.got {
			if j >= s.window {
				seen = max(seen, s.got[j-s.window].seenEpoch)
			}
			if !d.ev.Control() && d.ev.Epoch < seen {
				bad(3, "%s: event %d (index %d) stamped epoch %d after its client saw epoch %d", s.name, j, d.ev.Index, d.ev.Epoch, seen)
			}
		}
	}

	// 4. An answer reflects every write of its epoch or an earlier one
	// acked at or before its watermark: a replica's applied_through, a
	// primary's read invocation.
	for _, r := range h.ops {
		for _, a := range acks {
			due := r.replica && !temporal.Time(a.rec.m.At).After(r.appliedThrough) || !r.replica && a.complete < r.invoke
			if r.kind == "read" && r.ok && due && a.epoch <= r.epoch && !h.exempt(a.op) && !r.seen[a.id] {
				bad(4, "step %d: an answer (replica %v, applied through %s) misses write %d acked at %s",
					r.step, r.replica, r.appliedThrough.Format(time.RFC3339Nano), a.id, temporal.Time(a.rec.m.At).Format(time.RFC3339Nano))
			}
		}
	}

	// 5. Watch tokens are gap-free, epochs never decrease, and every event
	// is the WAL record at its index, under an epoch of its lineage (the
	// corpus entry seed18-regression-epoch0-stamp: a replica once stamped
	// epoch 0 until its link learned the epoch).
	for _, s := range h.subs {
		want, top := s.from, uint64(0)
		for j, d := range s.got {
			ev := d.ev
			if ev.Op == watch.OpCompacted {
				want = ev.Index
				continue
			}
			if ev.Index > want {
				bad(5, "%s: event %d jumps to index %d past unseen %d", s.name, j, ev.Index, want)
			}
			if want = max(want, ev.Index+1); ev.Epoch < top {
				bad(5, "%s: event %d carries epoch %d after epoch %d", s.name, j, ev.Epoch, top)
			}
			if top = max(top, ev.Epoch); !h.matchesWAL(ev) {
				bad(5, "%s: event %d (%s uid %d at index %d, epoch %d) matches no WAL record there", s.name, j, ev.Op, ev.UID, ev.Index, ev.Epoch)
			}
		}
		if want < s.must {
			bad(5, "%s stopped at index %d; the quiescent log ends at %d", s.name, want, s.must)
		}
	}

	// 6, 7. A quiescent replica equals its primary, history and log
	// records alike, or is parked with nothing applied since it was
	// repointed; every node agrees with itself.
	for _, n := range h.nodes {
		if n.replica && n.diverged && !bytes.Equal(n.history, n.fork) {
			bad(6, "node %d parked diverged but applied records after it was repointed", n.node)
		}
		if n.replica && !n.diverged && !bytes.Equal(n.history, n.upHistory) {
			bad(6, "node %d's history (%d bytes) differs from its primary's (%d bytes)", n.node, len(n.history), len(n.upHistory))
		}
		if n.replica && !n.diverged && !bytes.Equal(n.log, n.upLog) {
			bad(6, "node %d's WAL records (%d bytes) differ from its primary's (%d bytes) over the range both hold", n.node, len(n.log), len(n.upLog))
		}
		status := (n.readyStatus == "fenced") == n.readyFenced && (n.readyStatus == "diverged") == (n.diverged && !n.readyFenced)
		if !status || n.readyFenced != n.healthFenced || n.readyFenced != n.metricFenced ||
			n.readyEpoch != n.healthEpoch || n.readyEpoch != n.metricEpoch {
			bad(7, "node %d disagrees with itself: readyz %s fenced=%v epoch %d, healthz fenced=%v epoch %d, metrics fenced=%v epoch %d (diverged=%v)",
				n.node, n.readyStatus, n.readyFenced, n.readyEpoch, n.healthFenced, n.healthEpoch, n.metricFenced, n.metricEpoch, n.diverged)
		}
		for _, err := range n.fencedErrs {
			if !strings.Contains(err, "stale_primary") {
				bad(7, "fenced node %d answered a write with %q, not stale_primary", n.node, err)
			}
		}
		if n.readyFenced && n.fencedRead != "<nil>" {
			bad(7, "fenced node %d stopped serving reads: %s", n.node, n.fencedRead)
		}
	}

	// 8. Failover promotes the reachable, non-diverged replica with the
	// highest applied index.
	for _, p := range h.ops {
		var top uint64
		for _, c := range p.candidates {
			if c.reachable && !c.diverged {
				top = max(top, c.applied)
			}
		}
		if p.ok && p.candidates != nil && !slices.ContainsFunc(p.candidates, func(c candidate) bool {
			return c.node == p.node && c.reachable && !c.diverged && c.applied == top
		}) {
			bad(8, "step %d: failover promoted node %d over a replica that had applied %d", p.step, p.node, top)
		}
	}
	return vs
}

// find locates host id among era e's own records.
func (h *history) find(e int, id int64) (uint64, rec, bool) {
	for j := 0; e >= 0 && j < len(h.eras[e].recs); j++ {
		if r := h.eras[e].recs[j]; fmt.Sprint(r.m.Fields["id"]) == fmt.Sprint(id) {
			return h.eras[e].start + uint64(j), r, true
		}
	}
	return 0, rec{}, false
}

// matchesWAL reports whether ev equals, field for field, the record at
// its index in the lineage of an era of its epoch, or of a later era
// descending from one: a replica still pinned to an epoch serves what
// its primary logged under the next one until its link adopts it.
func (h *history) matchesWAL(ev watch.Event) bool {
	for e := range h.eras {
		a := e
		for a >= 0 && h.eras[a].epoch != ev.Epoch {
			a = h.eras[a].up
		}
		r, ok := h.record(e, ev.Index)
		if a < 0 || !ok {
			continue
		}
		// JSON writes an integral float64 as an integer, which the wire
		// reads back as an int64: compare canonical JSON.
		fa, _ := json.Marshal(ev.Fields)
		fb, _ := json.Marshal(r.m.Fields)
		if ev.Op == r.m.Op.String() && ev.UID == int64(r.m.UID) && ev.Src == int64(r.m.Src) && ev.Dst == int64(r.m.Dst) &&
			ev.At.Equal(temporal.Time(r.m.At)) && bytes.Equal(fa, fb) {
			return true
		}
	}
	return false
}

// TestCheckerCatchesEachContract feeds the checker a clean history and,
// per contract, a variant breaking exactly that contract: each must be
// reported under its number and no other, so the checker cannot pass
// vacuously.
func TestCheckerCatchesEachContract(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	mk := func(id int64) rec {
		frame := make([]byte, 8) // a frame header: the checksum sits at [4:8]
		binary.LittleEndian.PutUint32(frame[4:], uint32(id)*2654435761)
		return rec{frame, &graph.Mutation{Op: graph.OpInsertNode, UID: graph.UID(id), Class: "ComputeHost",
			Fields: graph.Fields{"id": id}, At: temporal.Nanos(t0.Add(time.Duration(id) * time.Second))}}
	}
	chain := func(rs ...rec) uint64 {
		h := wal.PrefixHashSeed
		for _, r := range rs {
			h = wal.ChainHash(h, wal.FrameChecksum(r.frame))
		}
		return h
	}
	event := func(r rec, index, epoch, seen uint64) delivery {
		return delivery{watch.Event{Index: index, Op: "insert_node", UID: int64(r.m.UID), Fields: r.m.Fields, At: temporal.Time(r.m.At), Epoch: epoch}, seen}
	}
	r1, r2, r3 := mk(1), mk(2), mk(3)
	// Node 0 acks writes 1 and 2 under epoch 1; Failover promotes node 1 at
	// index 2 under epoch 2, which acks write 3; node 2 replicates node 1
	// and answers a read; a subscriber saw indexes 0 and 1 before the
	// failover.
	clean := func() *history {
		return &history{
			eras: []era{{node: 0, epoch: 1, up: -1, anchor: wal.PrefixHashSeed, recs: []rec{r1, r2}},
				{node: 1, epoch: 2, up: 0, start: 2, anchor: chain(r1, r2), begun: 5, recs: []rec{r3}}},
			ops: []op{
				{kind: "write", invoke: 1, complete: 2, node: 0, epoch: 1, ok: true, id: 1, era: 0},
				{kind: "write", invoke: 3, complete: 3, node: 0, epoch: 1, ok: true, id: 2, era: 0},
				{kind: "promote", invoke: 4, complete: 5, node: 1, epoch: 2, ok: true, candidates: []candidate{
					{node: 1, reachable: true, applied: 2}, {node: 2, reachable: true, applied: 1}}},
				{kind: "write", invoke: 6, complete: 7, node: 1, clientEpoch: 2, epoch: 2, ok: true, id: 3, era: 1},
				{kind: "read", invoke: 8, complete: 9, node: -1, clientEpoch: 2, epoch: 2, ok: true, replica: true,
					appliedThrough: temporal.Time(r3.m.At), seen: map[int64]bool{1: true, 2: true, 3: true}},
			},
			subs: []*sub{{name: "sub", window: 1, got: []delivery{event(r1, 0, 1, 0), event(r2, 1, 1, 1)}}},
			nodes: []final{{node: 1, readyStatus: "ready", readyEpoch: 2, healthEpoch: 2, metricEpoch: 2},
				{node: 2, replica: true, history: []byte("h"), upHistory: []byte("h"), readyStatus: "ready", readyEpoch: 2, healthEpoch: 2, metricEpoch: 2}},
		}
	}
	if vs := check(clean()); len(vs) != 0 {
		t.Fatalf("clean history reported: %v", vs)
	}
	for _, tc := range []struct {
		contract int
		name     string
		mutate   func(h *history)
	}{
		{1, "the promoted replica lost an acked write", func(h *history) { h.eras[1].start, h.eras[1].anchor = 1, chain(r1) }},
		{2, "two acks at one (epoch, index)", func(h *history) {
			h.eras = append(h.eras, era{node: 2, epoch: 2, up: 0, start: 2, anchor: chain(r1, r2), begun: 5, recs: []rec{mk(4)}})
			h.ops = append(h.ops, op{kind: "write", invoke: 6, complete: 7, node: 2, epoch: 2, ok: true, id: 4, era: 2})
		}},
		{3, "an ack below the client's epoch", func(h *history) { h.ops[3].clientEpoch = 3 }},
		{3, "a watch batch below the client's epoch", func(h *history) { h.subs[0].got[0].seenEpoch = 2 }},
		{4, "a replica answer misses a write under its watermark", func(h *history) { delete(h.ops[4].seen, 2) }},
		{5, "a watch token gap", func(h *history) { h.subs[0].got = h.subs[0].got[1:] }},
		{5, "a watch event differs from the WAL", func(h *history) { h.subs[0].got[1].ev.Fields = graph.Fields{"id": 9} }},
		{5, "a watch event without an epoch", func(h *history) { h.subs[0].got[0].ev.Epoch = 0 }},
		{6, "a replica's history differs", func(h *history) { h.nodes[1].history = []byte("x") }},
		{6, "a replica's WAL records differ", func(h *history) { h.nodes[1].log = []byte("x") }},
		{6, "a diverged replica applied past the fork", func(h *history) {
			h.nodes[1].diverged, h.nodes[1].readyStatus, h.nodes[1].fork = true, "diverged", []byte("g")
		}},
		{7, "health and readiness disagree", func(h *history) { h.nodes[0].healthFenced = true }},
		{7, "a fenced node acks a write", func(h *history) {
			n := &h.nodes[0]
			n.readyStatus, n.readyFenced, n.healthFenced, n.metricFenced = "fenced", true, true, true
			n.fencedErrs, n.fencedRead = []string{"<nil>"}, "<nil>"
		}},
		{8, "failover skipped the most caught-up replica", func(h *history) { h.ops[2].candidates[1].applied = 3 }},
	} {
		h := clean()
		tc.mutate(h)
		vs := check(h)
		if len(vs) == 0 {
			t.Errorf("%s: not reported; want contract %d", tc.name, tc.contract)
		}
		for _, v := range vs {
			if v.contract != tc.contract {
				t.Errorf("%s: reported %v; want only contract %d", tc.name, v, tc.contract)
			}
		}
	}
}
