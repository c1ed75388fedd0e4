package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/gremlin"
	"repro/internal/plan"
	"repro/internal/relational"
	"repro/internal/rpe"
	"repro/internal/server"
	"repro/internal/wal"
)

// layers collects the per-layer metrics of a traced run by name.
type layers map[string]float64

func medianUS(ds []time.Duration) float64 { return us(median(ds)) }

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// queryRequest is the in-memory form of one POST /v1/query.
func queryRequest(text string) *http.Request {
	body, _ := json.Marshal(server.QueryRequest{Query: text}) // a struct of strings cannot fail to encode
	req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	return req
}

// replay executes each sampled operation again, stage by stage, on the
// quiet system the passes left behind: one "replay" span per operation
// with one child span per layer call. The timing metrics are medians of
// those spans' self times; differences between stages (what the server
// adds over the engine, what the transport adds over the server) are
// taken per operation.
func replay(ops []readOp, tr *tracer, out layers) error {
	ctx := context.Background()
	n := len(ops)
	stage := map[string][]time.Duration{}
	paths := make([]int, n)
	var respBytes, evalEdges int64
	for k := range ops {
		o := &ops[k]
		e := o.env
		if e.srv == nil { // an embedded workload: stand a server up for the serving stages
			if err := e.serve(1); err != nil {
				return err
			}
		}
		st := e.db.Store()
		view := graph.CurrentView(st)
		if o.hist {
			view = graph.PointView(st, e.histAt)
		}
		// One untimed execution first, so that no stage is charged for
		// faulting in what the ones after it then find warm.
		if _, err := e.db.Query(o.text); err != nil {
			return fmt.Errorf("replaying %q: %w", o.text, err)
		}
		ref := tr.reserve(o.id)
		t0 := time.Now()
		var err error
		run := func(name string, f func()) {
			if err != nil {
				return
			}
			s := time.Now()
			f()
			d := time.Now()
			tr.child(ref, name, s, d)
			stage[name] = append(stage[name], d.Sub(s))
		}
		var checked *rpe.Checked
		var p *plan.Plan
		var prep *core.Prepared
		var m plan.Metrics
		rec := httptest.NewRecorder()
		req := queryRequest(o.text)
		run("rpe.check", func() { checked, err = rpe.CheckString(o.rpe, st.Schema()) })
		run("plan.build", func() { p, err = plan.Build(checked, st.Stats()) })
		run("core.prepare", func() { prep, err = e.db.Prepare(o.text) })
		run("plan.eval", func() { _, m, err = e.db.Engine().EvalMetered(view, p) })
		run("core.exec", func() { _, err = prep.Exec(ctx) })
		run("server.handler", func() { e.srv.Handler().ServeHTTP(rec, req) })
		run("client.call", func() { _, err = e.clients[0].Query(ctx, o.alt, nil) })
		tr.finish(ref, "replay", t0, time.Now())
		if err == nil && rec.Code != http.StatusOK {
			err = fmt.Errorf("in-memory handler answered %d: %s", rec.Code, rec.Body.String())
		}
		if err != nil {
			return fmt.Errorf("replaying %q: %w", o.text, err)
		}
		paths[k] = m.PathsEmitted
		evalEdges += int64(m.EdgesScanned)
		respBytes += int64(rec.Body.Len())
	}

	// The same requests against a dark server (no spans, no trace store,
	// no statement statistics) over the same database: the difference is
	// what telemetry costs a request.
	for _, e := range envsOf(ops) {
		dark := server.New(e.db, server.Config{DisableTelemetry: true, StatementStatsSize: -1})
		e.db.SetStatementStats(nil)
		for k := range ops {
			if o := &ops[k]; o.env == e {
				rec, req := httptest.NewRecorder(), queryRequest(o.text)
				s := time.Now()
				dark.Handler().ServeHTTP(rec, req)
				d := time.Now()
				tr.root(o.id, "server.handler_dark", s, d)
				stage["server.handler_dark"] = append(stage["server.handler_dark"], d.Sub(s))
			}
		}
		if h := dark.Hub(); h != nil {
			h.Close()
		}
		e.db.SetStatementStats(e.srv.Stats())
		e.db.Instrument(e.srv.Registry())
	}

	self := selfTimes(tr.snapshot())
	out["rpe.check_us"] = medianUS(self["rpe.check"])
	out["plan.build_us"] = medianUS(self["plan.build"])
	out["core.prepare_us"] = medianUS(self["core.prepare"])
	out["plan.eval_us"] = medianUS(self["plan.eval"])
	var evalNS time.Duration
	for _, d := range self["plan.eval"] {
		evalNS += d
	}
	out["plan.eval_ns_per_edge"] = float64(evalNS) / float64(max(1, evalEdges))
	out["server.handler_us"] = medianUS(self["server.handler"])
	out["obs.telemetry_cost_us"] = medianUS(self["server.handler"]) - medianUS(self["server.handler_dark"])
	diff := func(a, b string) float64 {
		d := make([]time.Duration, n)
		for k := range d {
			d[k] = stage[a][k] - stage[b][k]
		}
		return medianUS(d)
	}
	out["core.exec_overhead_us"] = diff("core.exec", "plan.eval")
	out["server.self_us"] = diff("server.handler", "core.exec")
	out["client.transport_us"] = diff("client.call", "server.handler")
	out["server.response_bytes_per_op"] = float64(respBytes) / float64(n)
	return backends(ops, paths, out)
}

func envsOf(ops []readOp) []*dbEnv {
	var out []*dbEnv
	seen := map[*dbEnv]bool{}
	for _, o := range ops {
		if !seen[o.env] {
			seen[o.env] = true
			out = append(out, o.env)
		}
	}
	return out
}

// backends evaluates the sampled operations on a bare engine over each
// physical backend (no registry, no executor), and in both temporal
// views. Both backends must find the path counts the replay found.
func backends(ops []readOp, paths []int, out layers) error {
	type total struct {
		ns    time.Duration
		edges int
		paths int
	}
	eval := func(eng *plan.Engine, o *readOp, hist bool) (time.Duration, plan.Metrics, error) {
		st := o.env.db.Store()
		c, err := rpe.CheckString(o.rpe, st.Schema())
		if err != nil {
			return 0, plan.Metrics{}, err
		}
		p, err := plan.Build(c, st.Stats())
		if err != nil {
			return 0, plan.Metrics{}, err
		}
		view := graph.CurrentView(st)
		if hist {
			view = graph.PointView(st, o.env.histAt)
		}
		s := time.Now()
		_, m, err := eng.EvalMetered(view, p)
		return time.Since(s), m, err
	}
	var g, r, histT, snapT total
	var allocated uint64
	for _, e := range envsOf(ops) {
		st := e.db.Store()
		ge, re := plan.NewEngine(gremlin.New(st)), plan.NewEngine(relational.New(st))
		warmed := false
		for k := range ops {
			o := &ops[k]
			if o.env != e {
				continue
			}
			if !warmed { // the relational indexes build on first use, not on the clock
				if _, _, err := eval(re, o, o.hist); err != nil {
					return err
				}
				warmed = true
			}
			for _, b := range []struct {
				name string
				eng  *plan.Engine
				t    *total
			}{{"gremlin", ge, &g}, {"relational", re, &r}} {
				var a0 uint64
				if b.eng == ge {
					a0 = totalAlloc()
				}
				d, m, err := eval(b.eng, o, o.hist)
				if err != nil {
					return fmt.Errorf("%s backend on %q: %w", b.name, o.rpe, err)
				}
				if b.eng == ge {
					allocated += totalAlloc() - a0
				}
				if m.PathsEmitted != paths[k] {
					return fmt.Errorf("%s backend found %d paths for %q, the database found %d", b.name, m.PathsEmitted, o.rpe, paths[k])
				}
				b.t.ns, b.t.edges, b.t.paths = b.t.ns+d, b.t.edges+m.EdgesScanned, b.t.paths+m.PathsEmitted
			}
			dh, _, err := eval(ge, o, true)
			if err != nil {
				return err
			}
			ds, _, err := eval(ge, o, false)
			if err != nil {
				return err
			}
			histT.ns, snapT.ns = histT.ns+dh, snapT.ns+ds
		}
	}
	out["gremlin.eval_ns_per_edge"] = float64(g.ns) / float64(max(1, g.edges))
	out["relational.eval_ns_per_edge"] = float64(r.ns) / float64(max(1, r.edges))
	out["plan.alloc_kb_per_path"] = float64(allocated) / 1024 / float64(max(1, g.paths))
	out["temporal.hist_snap_ratio"] = float64(histT.ns) / float64(snapT.ns)
	return nil
}

// probes times the layers' public calls in isolation, the same way on
// every workload: the store on a log-less twin of the service fixture,
// the log on a durable twin on the modelled device, then that twin's
// restart. A workload that does not itself write takes its log counts
// and feed timings from here.
func probes(cfg config, sc *scratch, own *feedStats, out layers) error {
	// graph: a fresh log-less load, measured for size and speed.
	before := heapAlloc()
	twin, err := buildService(sizeFor(cfg.scale), "", nil)
	if err != nil {
		return err
	}
	st := twin.db.Store()
	_, versions := st.Counts()
	out["graph.bytes_per_version"] = float64(heapAlloc()-before) / float64(versions)
	out["graph.load_objects_per_s"] = float64(twin.objects) / twin.loadTime.Seconds()

	uids := append(append([]graph.UID{}, twin.svc.VMs...), twin.svc.Hosts...)
	const probeRounds = 200_000
	var sink int
	start := time.Now()
	for i := range probeRounds {
		u := uids[i%len(uids)]
		sink += len(st.OutEdges(u))
		if st.Object(u) != nil {
			sink++
		}
	}
	out["graph.probe_ns"] = float64(time.Since(start)) / probeRounds
	if sink == 0 {
		return fmt.Errorf("store probes found nothing")
	}

	timeUpdates := func(e *dbEnv, n int) ([]time.Duration, error) {
		mut := newMutator(e, cfg.seed)
		mut.reset(0)
		ds := make([]time.Duration, n)
		for i := range ds {
			op := mut.one('u')
			s := time.Now()
			if err := e.db.Update(graph.UID(op.UID), graph.Fields(op.Fields)); err != nil {
				return nil, err
			}
			ds[i] = time.Since(s)
		}
		return ds, nil
	}
	bare, err := timeUpdates(twin, 2000)
	if err != nil {
		return err
	}
	out["graph.apply_us"] = medianUS(bare)
	twin.close()

	// wal and server: a durable twin behind a server.
	dev := &flushDevice{}
	dur, err := buildService(sizeFor(cfg.scale), sc.dir(), dev)
	if err != nil {
		return err
	}
	if err := dur.serve(1); err != nil {
		return err
	}
	c0 := dev.counts()
	dev.takeSyncDurations()
	const durableUpdates = 400
	logged, err := timeUpdates(dur, durableUpdates)
	if err != nil {
		return err
	}
	d := dev.counts().sub(c0)
	out["wal.append_us"] = medianUS(logged) - medianUS(bare)
	out["wal.fsync_us"] = medianUS(dev.takeSyncDurations())
	out["wal.fsyncs_per_mutation"] = float64(d.syncs) / durableUpdates
	out["wal.bytes_per_mutation"] = float64(d.bytes) / durableUpdates

	// The ingest handler's own per-mutation cost, flush delay off.
	dev.off()
	mut := newMutator(dur, cfg.seed)
	mut.reset(0)
	var perBatch []time.Duration
	for range 100 {
		body, err := json.Marshal(server.IngestRequest{Ops: mut.batch("uuuuuuuuuu")})
		if err != nil {
			return err
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		s := time.Now()
		dur.srv.Handler().ServeHTTP(rec, req)
		perBatch = append(perBatch, time.Since(s))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-memory ingest answered %d: %s", rec.Code, rec.Body.String())
		}
	}
	out["server.ingest_us_per_mutation"] = medianUS(perBatch) / 10
	dev.on()

	fs := own
	if fs == nil { // not the feed workload: a short feed of its own
		f := newFeed(dur, dur.clients[0], newMutator(dur, cfg.seed+1))
		if err := f.start(1, max(40, int(150*min(1, cfg.scale*10))), func() bool { return true }); err != nil {
			return err
		}
		f.wg.Wait()
		s := f.stop()
		fs = &s
	}
	if fs.failed > 0 || len(fs.delivery) == 0 {
		return fmt.Errorf("feed probe: %d of %d writes failed, %d notifications", fs.failed, fs.writes, len(fs.delivery))
	}
	feedMetrics(fs, out)

	// Restart: reopen the directory and replay the log, then checkpoint.
	live, _ := dur.db.Store().Counts()
	if err := dur.close(); err != nil {
		return err
	}
	dev2 := &flushDevice{}
	start = time.Now()
	db, err := core.Open(dur.db.Schema(), core.WithWALOptions(dur.walDir, wal.Options{OpenFile: dev2.OpenFile}))
	if err != nil {
		return err
	}
	recovery := time.Since(start)
	rs := db.RecoveryStats()
	if got, _ := db.Store().Counts(); got != live || rs.TailTruncated {
		db.Close()
		return fmt.Errorf("restart probe: %d live objects after recovery, %d before; tail truncated: %v", got, live, rs.TailTruncated)
	}
	out["wal.recovery_ms"] = ms(recovery)
	out["wal.replay_records_per_s"] = float64(rs.RecordsApplied) / recovery.Seconds()
	dev2.on()
	start = time.Now()
	if err := db.Checkpoint(); err != nil {
		db.Close()
		return err
	}
	out["wal.checkpoint_ms"] = ms(time.Since(start))
	out["wal.checkpoint_bytes"] = float64(dev2.counts().checkpointBytes)
	return db.Close()
}

func feedMetrics(fs *feedStats, out layers) {
	sorted := func(ds []time.Duration) []time.Duration {
		s := slices.Clone(ds)
		slices.Sort(s)
		return s
	}
	ack, late, del := sorted(fs.ackLat), sorted(fs.late), sorted(fs.delivery)
	out["feed.write_ack_p50_ms"] = ms(quantile(ack, 0.50))
	out["feed.write_ack_p95_ms"] = ms(quantile(ack, 0.95))
	out["harness.writer_late_p95_ms"] = ms(quantile(late, 0.95))
	out["watch.delivery_p50_ms"] = ms(quantile(del, 0.50))
	out["watch.delivery_p95_ms"] = ms(quantile(del, 0.95))
	out["watch.evals_per_mutation"] = float64(fs.evals) / float64(max(1, fs.writes))
}
