package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/wal"
)

// tempWALDir makes a throwaway WAL directory for the primary; the bench
// needs a WAL-backed store because the WAL is the replication feed.
func tempWALDir() (string, error) {
	return os.MkdirTemp("", "nepalbench-wal-*")
}

// benchNode is one self-hosted server in the read-scaling topology.
type benchNode struct {
	db  *core.DB
	s   *server.Server
	url string
}

func (n *benchNode) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n.s.Shutdown(ctx)
}

// startBenchNode serves db on an ephemeral port; a non-nil follow makes
// the node a read replica.
func startBenchNode(db *core.DB, follow *repl.FollowerConfig) (*benchNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := server.New(db, server.Config{Follow: follow})
	go s.Serve(ln)
	return &benchNode{db: db, s: s, url: "http://" + ln.Addr().String()}, nil
}

// driveCluster drives the closed-loop read workload through a cluster
// client instead of a single endpoint.
func driveCluster(opt options, cl *client.Cluster) servingRun {
	var run servingRun
	ctx := context.Background()
	type clientOut struct {
		lat  []time.Duration
		errs int
	}
	results := make([]clientOut, opt.servingClients)
	start := time.Now()
	done := make(chan int, opt.servingClients)
	for i := 0; i < opt.servingClients; i++ {
		go func(i int) {
			defer func() { done <- i }()
			co := &results[i]
			for j := 0; j < opt.servingRequests; j++ {
				t0 := time.Now()
				if _, err := cl.Query(ctx, servingQueries[(i+j)%len(servingQueries)], nil); err != nil {
					co.errs++
					continue
				}
				co.lat = append(co.lat, time.Since(t0))
			}
		}(i)
	}
	for i := 0; i < opt.servingClients; i++ {
		<-done
	}
	run.elapsed = time.Since(start)
	for _, co := range results {
		run.lat = append(run.lat, co.lat...)
		run.errs += co.errs
	}
	sort.Slice(run.lat, func(i, j int) bool { return run.lat[i] < run.lat[j] })
	return run
}

// runReadScaling measures read scale-out: the same closed-loop read
// workload is driven once against the primary alone and once spread over
// opt.replicas WAL-streaming read replicas, and the throughput ratio is
// the reported speedup. The replicas are real: each runs its own store,
// bootstraps over HTTP, and serves with its staleness watermark.
func runReadScaling(opt options, report *bench.Report, out io.Writer) error {
	walDir, err := tempWALDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	pdb, err := core.Open(netmodel.MustSchema(),
		core.WithBackend(opt.backend),
		core.WithWALOptions(walDir, wal.Options{NoSync: true}))
	if err != nil {
		return err
	}
	defer pdb.Close()
	if _, err := netmodel.BuildDemo(pdb.Store(), 1000); err != nil {
		return err
	}
	primary, err := startBenchNode(pdb, nil)
	if err != nil {
		return err
	}
	defer primary.shutdown()

	fmt.Fprintf(out, "\nread-scaling bench: %d clients x %d requests, 1 primary + %d replicas\n",
		opt.servingClients, opt.servingRequests, opt.replicas)

	var replicaURLs []string
	for i := 0; i < opt.replicas; i++ {
		rdb, err := core.Open(netmodel.MustSchema(), core.WithBackend(opt.backend))
		if err != nil {
			return err
		}
		defer rdb.Close()
		node, err := startBenchNode(rdb, &repl.FollowerConfig{
			Primary:      primary.url,
			PollWait:     250 * time.Millisecond,
			ReconnectMin: 5 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		defer node.shutdown()
		replicaURLs = append(replicaURLs, node.url)
		f := node.s.Follower()

		deadline := time.Now().Add(30 * time.Second)
		for !f.Status().CaughtUp {
			if time.Now().After(deadline) {
				return fmt.Errorf("read-scaling: replica %d never caught up: %+v", i, f.Status())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	single, err := client.NewCluster(client.ClusterConfig{Primary: primary.url})
	if err != nil {
		return err
	}
	one := driveCluster(opt, single)
	fmt.Fprintf(out, "  1 endpoint     %d requests in %.2fs  %.0f qps\n",
		len(one.lat), one.elapsed.Seconds(), one.qps())

	scaled, err := client.NewCluster(client.ClusterConfig{Primary: primary.url, Replicas: replicaURLs})
	if err != nil {
		return err
	}
	many := driveCluster(opt, scaled)
	fmt.Fprintf(out, "  %d replicas     %d requests in %.2fs  %.0f qps\n",
		opt.replicas, len(many.lat), many.elapsed.Seconds(), many.qps())

	rs := &bench.ReadScalingResult{
		Replicas:          opt.replicas,
		Clients:           opt.servingClients,
		RequestsPerClient: opt.servingRequests,
		SingleQPS:         one.qps(),
		SingleP50MS:       percentileMS(one.lat, 0.50),
		ScaledQPS:         many.qps(),
		ScaledP50MS:       percentileMS(many.lat, 0.50),
		Errors:            one.errs + many.errs,
	}
	if rs.SingleQPS > 0 {
		rs.Speedup = rs.ScaledQPS / rs.SingleQPS
	}
	report.ReadScaling = rs
	fmt.Fprintf(out, "  speedup     %.2fx (p50 %.2f ms -> %.2f ms)\n", rs.Speedup, rs.SingleP50MS, rs.ScaledP50MS)
	return nil
}
