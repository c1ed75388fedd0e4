package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/server"
	"repro/internal/temporal"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The fixtures are the repository's own evaluation datasets at their
// default seeds: the data is fixed, the operations on it come from
// --seed.
const timeLayout = "2006-01-02 15:04:05"

// dbEnv is one database under test with whatever is stood up around it:
// the modelled flush device when it is durable, the server and its
// one-connection clients when it is served.
type dbEnv struct {
	db  *core.DB
	svc *workload.Service // service fixture handles, or
	leg *workload.Legacy  // legacy fixture handles
	// histAt is the mid-history instant AT queries run at.
	histAt time.Time

	dev    *flushDevice
	walDir string

	srv      *server.Server
	served   chan error
	clients  []*client.Client
	conns    []*http.Transport
	objects  int           // live objects the load inserted
	loadTime time.Duration // fixture build time
}

// fixtureSize sizes the two fixtures.
type fixtureSize struct {
	svc            workload.ServiceConfig
	legacyServices int
	days           int // of churn history
}

// sizeFor is the repository's default datasets at scale 1 (the
// paper-scale service graph, the 2,500-service legacy feed, 60 days of
// churn), shrunk below it with floors that keep every sampler's
// preconditions (two racks, routed networks) for the tier-1 test.
func sizeFor(scale float64) fixtureSize {
	sz := fixtureSize{svc: workload.DefaultServiceConfig(), legacyServices: workload.DefaultLegacyConfig().Services, days: 60}
	if scale >= 1 {
		return sz
	}
	shrink := func(n, floor int) int { return max(floor, int(float64(n)*scale+0.5)) }
	c := &sz.svc
	c.VNFs, c.VFCsPerVNF, c.IdleVMs = shrink(c.VNFs, 12), shrink(c.VFCsPerVNF, 4), shrink(c.IdleVMs, 4)
	c.Hosts, c.TORs, c.Spines = shrink(c.Hosts, 16), shrink(c.TORs, 4), shrink(c.Spines, 2)
	c.VNets, c.VRouters = shrink(c.VNets, 4), shrink(c.VRouters, 2)
	sz.legacyServices, sz.days = shrink(sz.legacyServices, 50), shrink(sz.days, 4)
	return sz
}

// oracleSize is small enough for plan.ReferenceEval, which enumerates
// every simple pathway of up to eight hops from every node.
var oracleSize = fixtureSize{
	svc: workload.ServiceConfig{Seed: 1, VNFs: 3, VFCsPerVNF: 1, IdleVMs: 0, Hosts: 2, TORs: 2, Spines: 1,
		VNets: 3, VRouters: 1},
	legacyServices: 12,
	days:           4,
}

// buildService loads the service fixture with its churn history into a
// fresh default-backend database. A non-empty walDir makes it durable on
// dev, whose flush delay stays off while the fixture loads.
func buildService(sz fixtureSize, walDir string, dev *flushDevice) (*dbEnv, error) {
	start := time.Now()
	clock := temporal.NewManualClock(bench.LoadTime)
	opts := []core.Option{core.WithClock(clock)}
	if walDir != "" {
		dev.off()
		opts = append(opts, core.WithWALOptions(walDir, wal.Options{OpenFile: dev.OpenFile}))
	}
	db, err := core.Open(netmodel.MustSchema(), opts...)
	if err != nil {
		return nil, err
	}
	e := &dbEnv{db: db, dev: dev, walDir: walDir}
	if e.svc, err = workload.BuildService(db.Store(), sz.svc); err != nil {
		return nil, errors.Join(err, db.Close())
	}
	churn := workload.DefaultServiceChurn()
	churn.Days = sz.days
	if err := workload.ApplyServiceChurn(db.Store(), e.svc, clock, churn); err != nil {
		return nil, errors.Join(err, db.Close())
	}
	e.histAt = bench.LoadTime.Add(time.Duration(churn.Days/2) * 24 * time.Hour)
	e.objects, _ = db.Store().Counts()
	e.loadTime = time.Since(start)
	return e, nil
}

// buildLegacy loads the single-class legacy fixture with its churn.
func buildLegacy(sz fixtureSize) (*dbEnv, error) {
	start := time.Now()
	sch, err := workload.LegacySchema(false)
	if err != nil {
		return nil, err
	}
	clock := temporal.NewManualClock(bench.LoadTime)
	db, err := core.Open(sch, core.WithClock(clock))
	if err != nil {
		return nil, err
	}
	cfg := workload.DefaultLegacyConfig()
	cfg.Services = sz.legacyServices
	e := &dbEnv{db: db}
	if e.leg, err = workload.BuildLegacy(db.Store(), cfg); err != nil {
		return nil, err
	}
	churn := workload.DefaultLegacyChurn(e.leg)
	churn.Days = sz.days
	if err := workload.ApplyLegacyChurn(db.Store(), e.leg, clock, churn); err != nil {
		return nil, err
	}
	e.histAt = bench.LoadTime.Add(time.Duration(churn.Days/2) * 24 * time.Hour)
	e.objects, _ = db.Store().Counts()
	e.loadTime = time.Since(start)
	return e, nil
}

// serve starts a zero-config server over the database on a loopback port
// with one single-connection client per lane, and turns the flush delay
// on: from here the database is in its measured state.
func (e *dbEnv) serve(lanes int) error {
	e.srv = server.New(e.db, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(ln) }()
	for range lanes {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		e.conns = append(e.conns, tr)
		e.clients = append(e.clients, client.New("http://"+ln.Addr().String(),
			client.WithHTTPClient(&http.Client{Transport: tr, Timeout: 60 * time.Second})))
	}
	if e.dev != nil {
		e.dev.on()
	}
	return nil
}

// close stops the server (which closes the database) or closes the
// database, and waits for the serving goroutine.
func (e *dbEnv) close() error {
	for _, tr := range e.conns {
		tr.CloseIdleConnections()
	}
	if e.srv == nil {
		return e.db.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// closeAndRecover closes a durable database and reopens its directory
// the way a restarted process would, with default options: every acked
// write must be there (the same object and version counts) and the log
// must end cleanly. The modelled device keeps exactly the written bytes,
// so this is the acked-writes-survive check.
func (e *dbEnv) closeAndRecover() error {
	live, versions := e.db.Store().Counts()
	if err := e.close(); err != nil {
		return err
	}
	db, err := core.Open(e.db.Schema(), core.WithWAL(e.walDir))
	if err != nil {
		return fmt.Errorf("reopening %s: %w", e.walDir, err)
	}
	defer db.Close()
	gotLive, gotVersions := db.Store().Counts()
	if rs := db.RecoveryStats(); rs.TailTruncated {
		return fmt.Errorf("recovery of %s truncated a %d-byte tail", e.walDir, rs.DroppedBytes)
	}
	if gotLive != live || gotVersions != versions {
		return fmt.Errorf("recovery of %s restored %d live objects / %d versions, the closed store held %d / %d",
			e.walDir, gotLive, gotVersions, live, versions)
	}
	return nil
}

// scratch hands out fresh directories under the run's output directory,
// which is inside the checkout, and removes them all at the end.
type scratch struct {
	root string
	n    int
}

func newScratch(outDir string) (*scratch, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	return &scratch{root: root}, nil
}

func (s *scratch) dir() string {
	s.n++
	return fmt.Sprintf("%s/wal-%d", s.root, s.n)
}

func (s *scratch) remove() error { return os.RemoveAll(s.root) }
