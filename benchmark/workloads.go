package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/server"
	"repro/internal/watch"
	"repro/internal/workload"
)

// scenario is one workload, set up: an operation sequence of one or more
// closed-loop lanes that the harness runs in passes.
type scenario interface {
	classes() []string
	shape() []int // operations per lane
	classOf(lane, i int) int
	// pass runs the sequence once. Write workloads re-seed here, so
	// position i is the same kind of operation on the same targets in
	// every pass.
	pass(p int, tr *tracer) passRec
	// replayOps are the read operations the traced run replays stage by
	// stage: every tenth of the sequence (a read-back mix where the
	// sequence itself only writes).
	replayOps() []readOp
	// main is the database the per-run server and device counters are
	// read from.
	main() *dbEnv
	// finish closes everything and runs the workload's end-of-run checks.
	finish() error
}

// measure runs passes over the sequence; tracedPass (or -1) is the one
// recorded into tr. Workloads with background load override the loop; the
// error is what went wrong beside the operations.
type measurer interface {
	measure(passes, tracedPass int, tr *tracer) ([]passRec, error)
}

func measure(sc scenario, passes, tracedPass int, tr *tracer) ([]passRec, error) {
	if m, ok := sc.(measurer); ok {
		return m.measure(passes, tracedPass, tr)
	}
	recs := make([]passRec, 0, passes)
	for p := range passes {
		var t *tracer
		if p == tracedPass {
			t = tr
		}
		recs = append(recs, sc.pass(p+1, t))
	}
	return recs, nil
}

// readOp is one query of a sequence.
type readOp struct {
	id    int64 // the sequence position's span op id, set when sampled for replay
	class int
	env   *dbEnv
	rpe   string // the bare pathway expression
	body  string // the statement as the client sends it
	text  string // the statement as the server compiles it (AT folded in)
	// alt is text with another fresh literal: a second execution that
	// misses the plan cache the way the first did.
	alt  string
	hist bool // runs AT mid-history
	stmt int  // prepared statement index, -1 when ad hoc
}

func retrieve(rpe string) string { return "Retrieve P From PATHS P Where P MATCHES " + rpe }

func sigOf(rows int, paths, edges int, cached bool) sig {
	return sig{rows: int64(rows), paths: int64(paths), edges: int64(edges), cached: cached}
}

// embedded runs the operation through core.DB.Query, the embedded path.
func (o *readOp) embedded() (sig, error) {
	res, err := o.env.db.Query(o.text)
	if err != nil {
		return sig{}, err
	}
	return sigOf(len(res.Rows), res.Metrics.PathsEmitted, res.Metrics.EdgesScanned, false), nil
}

// served runs the operation through the client over loopback HTTP.
func (o *readOp) served(c *client.Client, stmts []*client.Stmt) (sig, error) {
	ctx := context.Background()
	var res *client.Result
	var err error
	switch {
	case o.stmt >= 0:
		res, err = stmts[o.stmt].Exec(ctx, nil)
	case o.hist:
		res, err = c.Query(ctx, o.body, &client.QueryOptions{At: o.env.histAt.Format(timeLayout)})
	default:
		res, err = c.Query(ctx, o.body, nil)
	}
	if err != nil {
		return sig{}, err
	}
	return sigOf(len(res.Rows), res.Metrics.PathsEmitted, res.Metrics.EdgesScanned, res.Cached), nil
}

func idOf(st *graph.Store, uid graph.UID) int64 {
	return st.Object(uid).Versions[0].Fields["id"].(int64)
}

// everyTenth samples the lanes' operations for the staged replay: every
// tenth, or closer together in a short sequence so there are still ten.
func everyTenth(lanes ...[]readOp) []readOp {
	var out []readOp
	for lane, ops := range lanes {
		stride := max(1, min(10, len(ops)/10))
		for i := 0; i < len(ops); i += stride {
			o := ops[i]
			o.id = opID(lane, i)
			out = append(out, o)
		}
	}
	return out
}

// ---- path-mining ----

// pathMining is the paper's mining queries, embedded and single
// threaded: the planner, the backend and the store do all the work.
// Class shares put the median on Host-Host(6) (now and AT together: ranks
// 30-80%) and the 95th percentile on Reverse path (ranks 80-100%).
//
// What a mining query costs depends on its anchors (Host-Host(6) finds 97 to 247 paths
// between one pair of hosts or another): drawn freely, the class medians
// moved 7% between seeds with the code unchanged. So the heavy classes
// draw from anchors of one cost. Hosts that attach to the same two
// switches are interchangeable in the fabric; every Host-Host(6)
// operation goes from a host of one such group to a host of the group
// half-way round the ring, which host being the seed's choice. Reverse
// path anchors at every third trunk, in the seed's order. The cheap
// VM-VM class draws its pairs freely.
type pathMining struct {
	legacy, service *dbEnv
	ops             []readOp
	seed            int64
}

var pathMiningClasses = []string{"vm-vm-4", "host-host-6", "reverse-path"}

// switchGroup returns the hosts that attach to the same switches as h.
func switchGroup(e *dbEnv, h graph.UID) []graph.UID {
	st := e.db.Store()
	uplinks := func(host graph.UID) string {
		var dsts []graph.UID
		for _, edge := range st.OutEdges(host) {
			dsts = append(dsts, st.Object(edge).Dst)
		}
		slices.Sort(dsts)
		return fmt.Sprint(dsts)
	}
	var out []graph.UID
	for _, host := range e.svc.Hosts {
		if uplinks(host) == uplinks(h) {
			out = append(out, host)
		}
	}
	return out
}

func newPathMining(cfg config, sc *scratch) (scenario, setupTimes, error) {
	var st setupTimes
	w := pathMining{seed: cfg.seed}
	var err error
	if w.legacy, err = buildLegacy(sizeFor(cfg.scale)); err != nil {
		return nil, st, err
	}
	if w.service, err = buildService(sizeFor(cfg.scale), "", nil); err != nil {
		return nil, st, err
	}
	st.build = w.legacy.loadTime + w.service.loadTime
	n := max(10, int(100*cfg.scale+0.5))
	rng := rand.New(rand.NewSource(cfg.seed))
	sampler := workload.NewServiceSampler(w.service.db.Store(), w.service.svc, cfg.seed)
	svc := w.service.svc
	from, to := switchGroup(w.service, svc.Hosts[0]), switchGroup(w.service, svc.Hosts[svc.Config.TORs/2])
	hostHost := func(int) string {
		return fmt.Sprintf("Host(id=%d)->[PhysicalLink()]{1,6}->Host(id=%d)",
			idOf(w.service.db.Store(), from[rng.Intn(len(from))]), idOf(w.service.db.Store(), to[rng.Intn(len(to))]))
	}
	at := fmt.Sprintf("AT '%s' ", w.service.histAt.Format(timeLayout))
	add := func(class, count int, env *dbEnv, hist bool, gen func(k int) string) {
		for k := range count {
			o := readOp{class: class, env: env, rpe: gen(k), hist: hist, stmt: -1}
			o.body = retrieve(o.rpe)
			o.text = o.body
			if hist {
				o.text = at + o.body
			}
			o.alt = o.text
			w.ops = append(w.ops, o)
		}
	}
	trunks, st2 := w.legacy.leg.Trunks, w.legacy.db.Store()
	add(0, n*3/10, w.service, false, func(int) string { return sampler.VMVM() })
	add(1, n*3/10, w.service, false, hostHost)
	add(1, n*2/10, w.service, true, hostHost)
	add(2, n-n*3/10*2-n*2/10, w.legacy, false, func(k int) string {
		return fmt.Sprintf("LegacyNode()->[%s]{1,4}->LegacyNode(id=%d)",
			w.legacy.leg.Config.ConnRPE(), idOf(st2, trunks[3*k%len(trunks)]))
	})
	rng.Shuffle(len(w.ops), func(i, j int) { w.ops[i], w.ops[j] = w.ops[j], w.ops[i] })
	return &w, st, nil
}

func (w *pathMining) classes() []string    { return pathMiningClasses }
func (w *pathMining) shape() []int         { return []int{len(w.ops)} }
func (w *pathMining) classOf(_, i int) int { return w.ops[i].class }
func (w *pathMining) replayOps() []readOp  { return everyTenth(w.ops) }
func (w *pathMining) main() *dbEnv         { return w.service }
func (w *pathMining) finish() error        { w.legacy.close(); return w.service.close() }

// pass runs the operations in an order of the pass's own. Each one
// allocates some 26 MB, so the collector runs about once per operation
// and an operation it overlaps takes twice as long; in a fixed order it
// overlaps the same ones in every pass and the percentiles follow the
// order, not the code (p50 moved 20% between seeds). Shuffled per pass,
// which operations it overlaps is drawn afresh every pass. The traced
// pass keeps the sequence's order, which is what its spans' op ids name.
func (w *pathMining) pass(p int, tr *tracer) passRec {
	order := rand.New(rand.NewSource(w.seed<<8 + int64(p))).Perm(len(w.ops))
	if tr != nil {
		slices.Sort(order)
	}
	rec := runPass(w.shape(), func(_, slot int) (sig, error) { return w.ops[order[slot]].embedded() }, tr, nil)
	lat, sigs := make([]time.Duration, len(order)), make([]sig, len(order))
	for slot, i := range order {
		lat[i], sigs[i] = rec.lat[0][slot], rec.sigs[0][slot]
	}
	rec.lat[0], rec.sigs[0] = lat, sigs
	return rec
}

// ---- the interactive statement mix ----

// The interactive statement kinds: ad-hoc Bottom-up now, ad-hoc Bottom-up
// AT mid-history, ad-hoc Select Top-down, and Top-down through prepared
// statements. The first three carry a fresh literal, so their texts never
// repeat within the plan cache's reach and always compile; the fourth
// executes eight prepared statements, which always hit. That makes the
// hit rate exact (the fourth kind's share) whatever the lanes'
// interleaving. Bottom-up costs the same now and AT, so the two kinds are
// one class where percentiles are placed.
var (
	interactiveClasses = []string{"bottom-up", "top-down-select", "top-down-exec"}
	classOfKind        = [4]int{0, 0, 1, 2}
)

const preparedStatements = 8

// anchors are the fixture objects the interactive statements ask about,
// chosen so that a class is a plateau: every statement of it does the
// same work, whatever the seed. With anchors drawn freely, Bottom-up cost
// followed the host's VM count in seven steps and the prepared
// statements' their eight VNFs' sizes, and both percentiles sat on a step
// (ranks 51% and 95%): p95 moved 33% between runs of the same code.
type anchors struct {
	hostsNow, hostsAT []int64 // Bottom-up targets of one cost, now and AT mid-history
	dearVNF           int64   // the dearest Top-down target: every prepared statement's
	otherVNFs         []int64 // the ad-hoc Top-down targets
}

// oneCost returns the ids among cands whose statement does the same work,
// as its counts of paths found and edges scanned (which repeat exactly)
// tell: the largest such group, and among equals the dearest.
func oneCost(e *dbEnv, cands []graph.UID, text func(id int64) string) ([]int64, error) {
	type work struct{ paths, edges int }
	groups := map[work][]int64{}
	var best work
	for _, uid := range cands {
		id := idOf(e.db.Store(), uid)
		res, err := e.db.Query(text(id))
		if err != nil {
			return nil, err
		}
		w := work{res.Metrics.PathsEmitted, res.Metrics.EdgesScanned}
		if w.paths == 0 {
			continue
		}
		groups[w] = append(groups[w], id)
		if n, m := len(groups[w]), len(groups[best]); n > m || n == m && w.edges > best.edges {
			best = w
		}
	}
	if len(groups[best]) == 0 {
		return nil, fmt.Errorf("no anchor answers %q", text(0))
	}
	return groups[best], nil
}

func bottomUp(host int64, literal string) string {
	return fmt.Sprintf("VNF()->[Vertical()]{1,6}->Host(id=%d, name!='%s')", host, literal)
}

func topDown(vnf int64, literal string) string {
	return fmt.Sprintf("VNF(id=%d, name!='%s')->[Vertical()]{1,6}->Host()", vnf, literal)
}

// chooseAnchors picks the anchors by querying e, which therefore is a
// twin of the fixture and not the database under test: that one sees its
// first query in its warm-up pass.
func chooseAnchors(e *dbEnv) (a anchors, err error) {
	at := fmt.Sprintf("AT '%s' ", e.histAt.Format(timeLayout))
	if a.hostsNow, err = oneCost(e, e.svc.Hosts, func(id int64) string { return retrieve(bottomUp(id, "-")) }); err != nil {
		return a, err
	}
	if a.hostsAT, err = oneCost(e, e.svc.Hosts, func(id int64) string { return at + retrieve(bottomUp(id, "-")) }); err != nil {
		return a, err
	}
	dearest := 0
	for _, uid := range e.svc.VNFs {
		id := idOf(e.db.Store(), uid)
		res, err := e.db.Query(retrieve(topDown(id, "-")))
		if err != nil {
			return a, err
		}
		if res.Metrics.EdgesScanned > dearest {
			if a.dearVNF != 0 {
				a.otherVNFs = append(a.otherVNFs, a.dearVNF)
			}
			dearest, a.dearVNF = res.Metrics.EdgesScanned, id
		} else {
			a.otherVNFs = append(a.otherVNFs, id)
		}
	}
	if len(a.otherVNFs) == 0 {
		return a, errors.New("the fixture has a single VNF: none for the ad-hoc Top-down statements")
	}
	return a, nil
}

// interactiveAnchors chooses the anchors on a twin of the service fixture,
// once per run.
func (cfg config) interactiveAnchors() (anchors, error) {
	if cfg.anchors.dearVNF == 0 {
		twin, err := buildService(sizeFor(cfg.scale), "", nil)
		if err != nil {
			return anchors{}, err
		}
		defer twin.close()
		if *cfg.anchors, err = chooseAnchors(twin); err != nil {
			return anchors{}, err
		}
	}
	return *cfg.anchors, nil
}

// preparedTexts are the prepared statements: eight top-down retrievals of
// the dearest VNF, apart in a literal that excludes nothing (the panels
// of the dashboard an operator keeps on it). Eight plan-cache entries of
// one cost: the slowest class, a plateau for the 95th percentile.
func preparedTexts(a anchors) []string {
	out := make([]string, preparedStatements)
	for i := range out {
		out[i] = retrieve(topDown(a.dearVNF, fmt.Sprintf("panel-%d", i)))
	}
	return out
}

// interactiveOps draws n operations for one lane. shares are the kinds'
// shares in percent. Each kind goes round its anchors in an order the
// seed draws, so every seed asks about every anchor equally often and
// the mix costs the same whichever seed drew it.
func interactiveOps(e *dbEnv, a anchors, rng *rand.Rand, lane, n int, shares [4]int) []readOp {
	prepared := preparedTexts(a)
	at := fmt.Sprintf("AT '%s' ", e.histAt.Format(timeLayout))
	ops := make([]readOp, 0, n)
	count := func(c int) int {
		if c == 3 { // the remainder, so the shares sum to n
			return n - len(ops)
		}
		return n * shares[c] / 100
	}
	for c, ids := range [4][]int64{a.hostsNow, a.hostsAT, a.otherVNFs, nil} {
		round := rng.Perm(len(ids))
		for k := range count(c) {
			o := readOp{class: classOfKind[c], env: e, stmt: -1}
			fresh := func(tag string) string { return fmt.Sprintf("%s%d-%d-%d", tag, lane, c, k) }
			switch c {
			case 0, 1:
				host := ids[round[k%len(ids)]]
				o.rpe, o.hist = bottomUp(host, fresh("q")), c == 1
				o.body, o.alt = retrieve(o.rpe), retrieve(bottomUp(host, fresh("r")))
			case 2:
				vnf := ids[round[k%len(ids)]]
				o.rpe = topDown(vnf, fresh("q"))
				o.body = "Select source(P).name From PATHS P Where P MATCHES " + o.rpe
				o.alt = "Select source(P).name From PATHS P Where P MATCHES " + topDown(vnf, fresh("r"))
			case 3:
				o.stmt = k % preparedStatements
				o.body = prepared[o.stmt]
				o.rpe = o.body[len(retrieve("")):]
				o.alt = o.body
			}
			o.text = o.body
			if o.hist {
				o.text, o.alt = at+o.body, at+o.alt
			}
			ops = append(ops, o)
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// prepare compiles the prepared statements through one lane's client.
func prepare(a anchors, c *client.Client) ([]*client.Stmt, error) {
	var out []*client.Stmt
	for _, text := range preparedTexts(a) {
		s, err := c.Prepare(context.Background(), text)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// ---- serve-interactive ----

// serveInteractive is operators at consoles: two connections, each
// waiting for its answer before asking again (closed loop), over
// loopback HTTP. Every query is sub-millisecond in the engine, so the
// server's decode, admission, plan cache and encode, compilation on the
// misses, telemetry, and the client's transport dominate.
type serveInteractive struct {
	env   *dbEnv
	lanes [][]readOp
	stmts [][]*client.Stmt
}

// serveShares puts ranks 45-55% inside Bottom-up (ranks 0-70%) and ranks
// 93-97% inside the prepared Top-down statements (ranks 80-100%). (At a
// quarter each, the median sat on the cliff between Bottom-up and
// Top-down.)
var serveShares = [4]int{35, 35, 10, 20}

func newServeInteractive(cfg config, sc *scratch) (scenario, setupTimes, error) {
	var st setupTimes
	env, err := buildFixture(cfg, sc, false, &st)
	if err != nil {
		return nil, st, err
	}
	a, err := cfg.interactiveAnchors()
	if err != nil {
		return nil, st, err
	}
	w := &serveInteractive{env: env}
	n := max(40, int(5000*cfg.scale+0.5))
	for lane := range 2 {
		w.lanes = append(w.lanes, interactiveOps(env, a, rand.New(rand.NewSource(cfg.seed+int64(lane))), lane, n, serveShares))
	}
	start := time.Now()
	if err := env.serve(len(w.lanes)); err != nil {
		return nil, st, err
	}
	for _, c := range env.clients {
		stmts, err := prepare(a, c)
		if err != nil {
			return nil, st, err
		}
		w.stmts = append(w.stmts, stmts)
	}
	st.serverStart = time.Since(start)
	return w, st, nil
}

func (w *serveInteractive) classes() []string       { return interactiveClasses }
func (w *serveInteractive) shape() []int            { return []int{len(w.lanes[0]), len(w.lanes[1])} }
func (w *serveInteractive) classOf(lane, i int) int { return w.lanes[lane][i].class }
func (w *serveInteractive) replayOps() []readOp     { return everyTenth(w.lanes...) }
func (w *serveInteractive) main() *dbEnv            { return w.env }
func (w *serveInteractive) finish() error           { return w.env.close() }
func (w *serveInteractive) pass(_ int, tr *tracer) passRec {
	return runPass(w.shape(), func(lane, i int) (sig, error) {
		return w.lanes[lane][i].served(w.env.clients[lane], w.stmts[lane])
	}, tr, nil)
}

// ---- the mutation generator ----

// mutator draws inventory mutations. reset re-seeds it, so every pass
// issues the same kinds of mutation against the same fixture objects,
// with the ids of what it inserts shifted past the previous pass's.
// Updates go round the targets in an order the seed draws: every seed
// rewrites every record equally often, so the version lists (and what
// growing them allocates) come out the same whichever seed drew the order.
type mutator struct {
	seed    int64
	targets []graph.UID // fixture VMs and hosts that updates rewrite
	hosts   []graph.UID
	records map[graph.UID]graph.Fields // the harness's copy of each target's record

	rng      *rand.Rand
	round    []int // the order updates visit targets in
	updates  int
	idBase   int64
	serial   int64
	inserted []int64 // UIDs of this pass's inserted nodes, oldest first
	deleted  int     // how many of them are deleted again
}

func newMutator(e *dbEnv, seed int64) *mutator {
	m := &mutator{seed: seed, hosts: e.svc.Hosts, records: map[graph.UID]graph.Fields{}}
	m.targets = append(append(m.targets, e.svc.VMs...), e.svc.Hosts...)
	for _, uid := range m.targets {
		m.records[uid] = e.db.Store().Object(uid).Current().Fields.Clone()
	}
	return m
}

func (m *mutator) reset(pass int) {
	m.rng = rand.New(rand.NewSource(m.seed))
	m.round, m.updates = m.rng.Perm(len(m.targets)), 0
	m.idBase = 50_000_000 + int64(pass)*1_000_000
	m.serial, m.inserted, m.deleted = 0, nil, 0
}

var statuses = []string{"Green", "Yellow", "Red"}

// one draws a mutation of the given kind: u(pdate), n(ode), e(dge),
// d(elete). Deletes and edges need earlier inserts to act on; until the
// pass has made enough they fall back to an update.
func (m *mutator) one(kind byte) server.IngestOp {
	m.serial++
	id := m.idBase + m.serial
	switch {
	case kind == 'n':
		return server.IngestOp{Op: "insert-node", Class: netmodel.NodeClassOfVMKind(int(m.serial)), Fields: map[string]any{
			"id": id, "name": fmt.Sprintf("feed-vm-%d", id), "status": "Green", "flavor": "m1.small",
			"ipAddress": fmt.Sprintf("10.%d.%d.%d", id%200, (id/200)%250, id%250+1),
		}}
	case kind == 'e' && len(m.inserted)-m.deleted >= 8:
		src := m.inserted[len(m.inserted)-1-m.rng.Intn(4)]
		dst := m.hosts[m.rng.Intn(len(m.hosts))]
		return server.IngestOp{Op: "insert-edge", Class: netmodel.OnServer, Src: src, Dst: int64(dst),
			Fields: map[string]any{"id": id}}
	case kind == 'd' && len(m.inserted)-m.deleted >= 8:
		m.deleted++
		return server.IngestOp{Op: "delete", UID: m.inserted[m.deleted-1]}
	}
	uid := m.targets[m.round[m.updates%len(m.round)]]
	m.updates++
	rec := m.records[uid]
	rec["status"] = statuses[m.rng.Intn(len(statuses))]
	return server.IngestOp{Op: "update", UID: int64(uid), Fields: rec.Clone()}
}

// batch draws one mutation per kind in kinds, in a drawn order.
func (m *mutator) batch(kinds string) []server.IngestOp {
	order := []byte(kinds)
	m.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	ops := make([]server.IngestOp, len(order))
	for i, k := range order {
		ops[i] = m.one(k)
	}
	return ops
}

// send posts one batch and records the UIDs the server gave the nodes it
// inserted.
func (m *mutator) send(c *client.Client, ops []server.IngestOp) (int, error) {
	resp, err := c.Ingest(context.Background(), ops)
	if err != nil {
		return 0, err
	}
	for i, op := range ops {
		if op.Op == "insert-node" && i < len(resp.UIDs) {
			m.inserted = append(m.inserted, resp.UIDs[i])
		}
	}
	return resp.Applied, nil
}

// ---- ingest-durable ----

// ingestDurable is the inventory feed on its own: one connection posting
// batches of ten mutations, each acknowledged only after its log
// records are flushed, with one synchronous checkpoint mid-pass. The
// log's append and flush under the store's write lock and the server's
// per-mutation loop do the work; the query engine does none.
type ingestDurable struct {
	env      *dbEnv
	mut      *mutator
	batches  int
	readBack []readOp

	mutations int64 // over every measured pass
	device    deviceCounts
}

const (
	ingestBatch = "uuuuunneed" // 50% update, 20% insert-node, 20% insert-edge, 10% delete
	// ingestPrelude primes each pass, untimed, with the inserted nodes
	// its first edges and deletes act on.
	ingestPrelude = "nnnnnnnnnnnnnnnn"
)

var ingestClasses = []string{"ingest-batch", "checkpoint"}

// buildFixture builds the service fixture (a durable one on the modelled
// device, in a directory of its own); st gets the build's time.
func buildFixture(cfg config, sc *scratch, durable bool, st *setupTimes) (env *dbEnv, err error) {
	if durable {
		env, err = buildService(sizeFor(cfg.scale), sc.dir(), &flushDevice{})
	} else {
		env, err = buildService(sizeFor(cfg.scale), "", nil)
	}
	if err == nil {
		st.build = env.loadTime
	}
	return env, err
}

func newIngestDurable(cfg config, sc *scratch) (scenario, setupTimes, error) {
	var st setupTimes
	env, err := buildFixture(cfg, sc, true, &st)
	if err != nil {
		return nil, st, err
	}
	start := time.Now()
	if err := env.serve(1); err != nil {
		return nil, st, err
	}
	st.serverStart = time.Since(start)
	w := &ingestDurable{env: env, mut: newMutator(env, cfg.seed), batches: max(16, int(800*cfg.scale+0.5))}
	if cfg.trace { // the read-back mix is only ever replayed
		a, err := cfg.interactiveAnchors()
		if err != nil {
			return nil, st, err
		}
		w.readBack = interactiveOps(env, a, rand.New(rand.NewSource(cfg.seed)), 0, max(40, int(400*cfg.scale+0.5)), serveShares)
	}
	return w, st, nil
}

func (w *ingestDurable) classes() []string { return ingestClasses }
func (w *ingestDurable) shape() []int      { return []int{w.batches} }
func (w *ingestDurable) classOf(_, i int) int {
	if i == w.batches/2 {
		return 1
	}
	return 0
}
func (w *ingestDurable) replayOps() []readOp { return everyTenth(w.readBack) }
func (w *ingestDurable) main() *dbEnv        { return w.env }
func (w *ingestDurable) finish() error       { return w.env.closeAndRecover() }

func (w *ingestDurable) pass(p int, tr *tracer) passRec {
	c := w.env.clients[0]
	w.mut.reset(p)
	_, prelude := w.mut.send(c, w.mut.batch(ingestPrelude))
	before := w.env.dev.counts()
	w.env.dev.tr.Store(tr)
	rec := runPass(w.shape(), func(_, i int) (sig, error) {
		if prelude != nil { // nothing to act on: the whole pass fails
			return sig{}, fmt.Errorf("pass prelude: %w", prelude)
		}
		if w.classOf(0, i) == 1 {
			return sig{rows: 1}, c.Checkpoint(context.Background())
		}
		applied, err := w.mut.send(c, w.mut.batch(ingestBatch))
		return sig{rows: int64(applied)}, err
	}, tr, func(ref *spanRef) { w.env.dev.curOp.Store(ref) })
	w.env.dev.tr.Store(nil)
	if p > 0 { // pass 0 is the warm-up
		d := w.env.dev.counts().sub(before)
		w.device.bytes += d.bytes
		w.device.syncs += d.syncs
		w.mutations += int64(w.batches-1) * int64(len(ingestBatch))
	}
	return rec
}

// ---- feed-mixed ----

// feedMixed is reads beside writes: an open-loop writer sends
// single-mutation ingests at a fixed rate (the inventory feed does not
// wait for readers), a standing query re-evaluates on every one of them,
// and one closed-loop reader cycles interactive queries. The operations
// are the reads; the writes are fixed background load. A write-path
// gain that costs the readers, or the reverse, shows here.
type feedMixed struct {
	env    *dbEnv
	ops    []readOp
	stmts  []*client.Stmt
	feed   *feed
	writes int // the writer's schedule
}

const (
	feedRate = 200.0 // writes per second
	// feedKinds, over and over: updates of VM and host records, and
	// isolated VMs coming and going. No edges, so the readers' answers do
	// not change under them and every pass can be checked against the first.
	feedKinds = "uuuunuuuud"
	// standingQuery's result changes whenever a VM's status enters or
	// leaves Red, and its class footprint (Container, OnServer and Host
	// subtrees) is hit by every write.
	standingQuery = "Retrieve P From PATHS P Where P MATCHES VM(status='Red')->OnServer()->Host()"
)

func newFeedMixed(cfg config, sc *scratch) (scenario, setupTimes, error) {
	var st setupTimes
	env, err := buildFixture(cfg, sc, true, &st)
	if err != nil {
		return nil, st, err
	}
	a, err := cfg.interactiveAnchors()
	if err != nil {
		return nil, st, err
	}
	w := &feedMixed{env: env, writes: max(40, int(feedRate*cfg.seconds*min(1, cfg.scale)+0.5))}
	w.ops = interactiveOps(env, a, rand.New(rand.NewSource(cfg.seed)), 0, max(40, int(2000*cfg.scale+0.5)), serveShares)
	start := time.Now()
	if err := env.serve(2); err != nil { // reader and writer, one connection each
		return nil, st, err
	}
	if w.stmts, err = prepare(a, env.clients[0]); err != nil {
		return nil, st, err
	}
	w.feed = newFeed(env, env.clients[1], newMutator(env, cfg.seed+1))
	// Warm the write path too: the first posts open the connection and
	// fault in the handler's code.
	w.feed.mut.reset(0)
	for range 20 {
		if _, err := w.feed.mut.send(w.feed.c, w.feed.mut.batch("u")); err != nil {
			return nil, st, err
		}
	}
	st.serverStart = time.Since(start)
	return w, st, nil
}

func (w *feedMixed) classes() []string    { return interactiveClasses }
func (w *feedMixed) shape() []int         { return []int{len(w.ops)} }
func (w *feedMixed) classOf(_, i int) int { return w.ops[i].class }
func (w *feedMixed) replayOps() []readOp  { return everyTenth(w.ops) }
func (w *feedMixed) main() *dbEnv         { return w.env }
func (w *feedMixed) finish() error        { return w.env.closeAndRecover() }

func (w *feedMixed) pass(_ int, tr *tracer) passRec {
	return runPass(w.shape(), func(_, i int) (sig, error) {
		return w.ops[i].served(w.env.clients[0], w.stmts)
	}, tr, nil)
}

// minFeedPasses is how many complete reader passes the writer waits for
// past the end of its schedule, on a host too slow to fit them in.
const minFeedPasses = 3

// measure starts the writer and cycles the reader until the writer's
// schedule ends, keeping only the passes the writer ran all the way
// through. passes is the fewest to make (the traced run needs four);
// the schedule, not the pass count, ends the run, so the writes (and
// with them heap and log traffic) are the same in every run. The writes
// are the fixed load the reads are measured under: one that fails, or a
// writer that ends a second behind its schedule, is reported.
func (w *feedMixed) measure(passes, tracedPass int, tr *tracer) ([]passRec, error) {
	var done atomic.Int32
	need := int32(max(minFeedPasses, passes))
	if err := w.feed.start(1, w.writes, func() bool { return done.Load() >= need }); err != nil {
		return nil, err
	}
	var recs []passRec
	for p := 0; ; p++ {
		var t *tracer
		if p == tracedPass {
			t = tr
			w.env.dev.tr.Store(tr)
		}
		rec := w.pass(p+1, t)
		w.env.dev.tr.Store(nil)
		if w.feed.finished() {
			break // the writer stopped part-way through this pass
		}
		recs = append(recs, rec)
		done.Add(1)
	}
	fs := w.feed.stop()
	if fs.failed > 0 {
		return recs, fmt.Errorf("%d of %d background writes failed: %w", fs.failed, fs.writes, fs.firstErr)
	}
	if behind := fs.late[len(fs.late)-1]; behind > time.Second {
		return recs, fmt.Errorf("the writer ended %.0f ms behind its schedule: the load was not %g writes/s", ms(behind), feedRate)
	}
	return recs, nil
}

// feed is the open-loop writer with the standing query's subscriber.
type feed struct {
	env *dbEnv
	c   *client.Client
	mut *mutator

	cancel context.CancelFunc
	wg     sync.WaitGroup
	ended  atomic.Bool
	stats  feedStats
}

// feedStats is what one writer run observed.
type feedStats struct {
	writes   int
	failed   int
	firstErr error
	ackLat   []time.Duration // due time → acknowledgement (open loop: a stall counts against later writes)
	late     []time.Duration // due time → actually sent
	delivery []time.Duration // sent → the standing query's notification
	evals    int64
	// device is the log traffic of the first scheduled writes, the part
	// of the run that is the same however long the writer went on.
	device       deviceCounts
	deviceWrites int
}

func newFeed(e *dbEnv, c *client.Client, mut *mutator) *feed {
	return &feed{env: e, c: c, mut: mut}
}

func (f *feed) finished() bool { return f.ended.Load() }

// start launches the writer and the subscriber. The writer sends at
// feedRate until it has sent schedule writes and enough() holds.
func (f *feed) start(pass, schedule int, enough func() bool) error {
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	f.ended.Store(false)
	f.stats = feedStats{}
	f.mut.reset(pass)

	sub, err := f.env.srv.Hub().Register("bench-red-vms", standingQuery, 4096)
	if err != nil {
		cancel()
		return fmt.Errorf("registering the standing query: %w", err)
	}
	type arrival struct {
		at    time.Time
		index uint64
	}
	var arrivals []arrival
	var subDone sync.WaitGroup
	subDone.Add(1)
	go func() {
		defer subDone.Done()
		for {
			n, err := sub.Next(ctx)
			if err != nil {
				return
			}
			if n.Kind == watch.KindDelta && !n.Delta.Full {
				arrivals = append(arrivals, arrival{time.Now(), n.Delta.Index})
			}
		}
	}()

	reg := f.env.srv.Registry()
	evals0 := reg.Counter("watch.standing.evals").Value()
	dev0 := f.env.dev.counts()
	base := f.env.db.WAL().NextIndex()
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		var sent []time.Time
		interval := time.Duration(float64(time.Second) / feedRate)
		t0 := time.Now()
		for k := 0; ctx.Err() == nil && (k < schedule || !enough()); k++ {
			if k == schedule {
				f.stats.device, f.stats.deviceWrites = f.env.dev.counts().sub(dev0), k
			}
			due := t0.Add(time.Duration(k) * interval)
			time.Sleep(time.Until(due))
			ops := []server.IngestOp{f.mut.one(feedKinds[k%len(feedKinds)])}
			// While the reader's traced pass runs, each write leaves a span
			// of its own for the device's spans to hang under.
			tr := f.env.dev.tr.Load()
			var ref *spanRef
			if tr != nil {
				ref = tr.reserve(opID(1, k))
				f.env.dev.curOp.Store(ref)
			}
			now := time.Now()
			_, err := f.mut.send(f.c, ops)
			ack := time.Now()
			if tr != nil {
				f.env.dev.curOp.Store(nil)
				tr.finish(ref, "feed.write", now, ack)
			}
			f.stats.writes++
			if err != nil {
				f.stats.failed++
				if f.stats.firstErr == nil {
					f.stats.firstErr = err
				}
			}
			sent = append(sent, now)
			f.stats.late = append(f.stats.late, now.Sub(due))
			f.stats.ackLat = append(f.stats.ackLat, ack.Sub(due))
		}
		f.ended.Store(true)
		// Let the last notifications through, then stop the subscriber.
		time.Sleep(20 * time.Millisecond)
		sub.Close()
		subDone.Wait()
		for _, a := range arrivals {
			// The notification is evaluated through stream index a.index,
			// and each write is exactly one log record.
			if k := int(a.index - base - 1); k >= 0 && k < len(sent) {
				f.stats.delivery = append(f.stats.delivery, a.at.Sub(sent[k]))
			}
		}
		f.stats.evals = reg.Counter("watch.standing.evals").Value() - evals0
		if f.stats.deviceWrites == 0 {
			f.stats.device, f.stats.deviceWrites = f.env.dev.counts().sub(dev0), f.stats.writes
		}
	}()
	return nil
}

// stop ends the writer (if its schedule has not) and waits for it and
// the subscriber.
func (f *feed) stop() feedStats {
	f.cancel()
	f.wg.Wait()
	return f.stats
}
