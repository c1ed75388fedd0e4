package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/temporal"
)

// runServe turns the process into a network query server: the loaded
// (and possibly WAL-recovered) store is served on opt.serveAddr until
// SIGINT/SIGTERM, then shut down gracefully — the listener stops,
// in-flight queries drain, and the DB closes so the WAL syncs its final
// segment.
func runServe(db *core.DB, opt options) error {
	var accessLog io.Writer
	if opt.accessLog != "" {
		if opt.accessLog == "-" {
			accessLog = os.Stderr
		} else {
			f, err := os.OpenFile(opt.accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("access log: %w", err)
			}
			defer f.Close()
			accessLog = f
		}
	}
	var follow *repl.FollowerConfig
	if opt.followURL != "" {
		follow = &repl.FollowerConfig{
			Primary: strings.TrimRight(opt.followURL, "/"),
			Logf:    func(format string, args ...any) { fmt.Fprintf(os.Stderr, "nepal: "+format+"\n", args...) },
		}
	}
	s := server.New(db, server.Config{
		MaxInFlight:        opt.maxInFlight,
		MaxQueue:           opt.maxQueue,
		Registry:           db.Registry(),
		AccessLog:          accessLog,
		Follow:             follow,
		Peers:              splitPeers(opt.peers),
		StatementStatsSize: opt.statsSize,
	})
	ln, err := net.Listen("tcp", opt.serveAddr)
	if err != nil {
		return err
	}
	role := "primary"
	if follow != nil {
		role = "replica of " + opt.followURL
	}
	fmt.Fprintf(os.Stderr, "nepal: serving on http://%s as %s (POST /v1/query; GET /healthz, /readyz, /metrics)\n",
		ln.Addr(), role)
	if opt.ready != nil {
		opt.ready(ln.Addr().String())
	}

	errCh := make(chan error, 1)
	go func() { errCh <- s.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)

	select {
	case err := <-errCh:
		// Listener died on its own; nothing left to drain.
		return err
	case <-sig:
	case <-opt.stop:
	}
	fmt.Fprintln(os.Stderr, "nepal: shutting down (draining in-flight queries)...")
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintln(os.Stderr, "nepal: store closed, WAL synced")
	return nil
}

// runConnect is the thin remote mode: instead of opening a store, the
// process talks to a running nepal server through internal/client. It
// checks /healthz first, then executes -q (or stdin lines) over the API.
func runConnect(opt options) error {
	out := opt.out
	if out == nil {
		out = os.Stdout
	}
	c := client.New(opt.connectURL)
	ctx := context.Background()
	if opt.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.timeout)
		defer cancel()
	}

	if opt.promote {
		resp, err := c.Promote(ctx)
		if err != nil {
			return fmt.Errorf("promote %s: %w", opt.connectURL, err)
		}
		fmt.Fprintf(out, "promoted %s to primary at stream position %d\n", opt.connectURL, resp.StreamPosition)
		return nil
	}

	if opt.top {
		return runTop(ctx, c, out, opt)
	}

	if opt.demote {
		resp, err := c.Demote(ctx)
		if err != nil {
			return fmt.Errorf("demote %s: %w", opt.connectURL, err)
		}
		if resp.Epoch > 0 {
			fmt.Fprintf(out, "demoted %s (fenced; last epoch %d)\n", opt.connectURL, resp.Epoch)
		} else {
			fmt.Fprintf(out, "demoted %s (fenced)\n", opt.connectURL)
		}
		return nil
	}

	h, err := c.Health(ctx)
	if err != nil {
		return fmt.Errorf("health check against %s: %w", opt.connectURL, err)
	}
	fmt.Fprintf(os.Stderr, "nepal: connected to %s: status=%s backend=%s in_flight=%d\n",
		opt.connectURL, h.Status, h.Backend, h.InFlight)

	if opt.watch {
		return runWatch(ctx, c, out, opt)
	}

	qopts := &client.QueryOptions{}
	if opt.maxPaths > 0 || opt.maxEdges > 0 {
		qopts.Limits = &server.Limits{MaxPaths: opt.maxPaths, MaxEdgesScanned: opt.maxEdges}
	}
	if opt.timeout > 0 {
		qopts.TimeoutMS = opt.timeout.Milliseconds()
	}

	if opt.q != "" {
		return executeRemote(ctx, c, out, opt.q, qopts, opt)
	}
	in := opt.in
	if in == nil {
		in = os.Stdin
	}
	return eachQueryLine(in, func(line string) {
		if err := executeRemote(ctx, c, out, line, qopts, opt); err != nil {
			fmt.Fprintln(os.Stderr, "nepal:", err)
		}
	})
}

// splitPeers parses the -peers list: comma-separated base URLs, blanks
// dropped, trailing slashes trimmed.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, strings.TrimRight(p, "/"))
		}
	}
	return out
}

// runTop prints the server's per-statement statistics table — the CLI
// face of GET /v1/stats/statements: one row per digest, ordered by
// -top-sort, normalized statement text truncated to keep the table
// scannable.
func runTop(ctx context.Context, c *client.Client, out io.Writer, opt options) error {
	resp, err := c.StatementStats(ctx, opt.topSort, opt.topN)
	if err != nil {
		return fmt.Errorf("statement stats from %s: %w", opt.connectURL, err)
	}
	rows := resp.Statements
	if resp.Other != nil {
		rows = append(rows, *resp.Other)
	}
	tw := tabwriter.NewWriter(out, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "DIGEST\tCALLS\tERRS\tTOTAL(ms)\tMEAN(ms)\tP50\tP95\tP99\tROWS\tEDGES\tCACHE\tSTATEMENT")
	for _, r := range rows {
		stmt := r.Statement
		if len(stmt) > 72 {
			stmt = stmt[:69] + "..."
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%d\t%d\t%d\t%s\n",
			r.Digest, r.Calls, r.Errors+r.Canceled+r.Deadline+r.LimitHits,
			r.TotalMS, r.MeanMS, r.P50MS, r.P95MS, r.P99MS,
			r.Rows, r.EdgesScanned, r.PlanCacheHits, stmt)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(out, "(%d digests tracked, %d evicted, sorted by %s)\n", resp.Tracked, resp.Evicted, resp.Sort)
	return nil
}

// runWatch tails the remote change feed, printing one JSON event per
// line — resume tokens included, so a consumer can pick up where a
// previous invocation stopped with -watch-from. Runs until the context
// ends (Ctrl-C, or -timeout).
func runWatch(ctx context.Context, c *client.Client, out io.Writer, opt options) error {
	fmt.Fprintf(os.Stderr, "nepal: watching %s from stream index %d\n", opt.connectURL, opt.watchFrom)
	stream := c.Watch(ctx, opt.watchFrom, nil)
	defer stream.Close()
	enc := json.NewEncoder(out)
	for {
		ev, err := stream.Next(ctx)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, client.ErrWatchClosed) {
				return nil
			}
			return fmt.Errorf("watch: %w", err)
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
}

// executeRemote runs one statement over the API, honoring the same
// -explain/-explain-analyze flags as local execution.
func executeRemote(ctx context.Context, c *client.Client, out io.Writer, src string, qopts *client.QueryOptions, opt options) error {
	if opt.explain {
		text, err := c.Explain(ctx, src)
		if err != nil {
			return err
		}
		fmt.Fprint(out, text)
		return nil
	}
	if opt.explainAnalyze {
		text, res, err := c.ExplainAnalyze(ctx, src)
		if err != nil {
			return err
		}
		fmt.Fprint(out, text)
		fmt.Fprintf(out, "(%d rows)\n", len(res.Rows))
		return nil
	}
	res, err := c.Query(ctx, src, qopts)
	if err != nil {
		return err
	}
	printRemoteResult(out, res)
	return nil
}

// printRemoteResult renders a decoded API result in the same shape as
// local execution output: header, one line per row, row count. Pathways
// use the server-side rendering; other values print as JSON scalars.
func printRemoteResult(out io.Writer, res *client.Result) {
	if len(res.Columns) > 0 {
		fmt.Fprintln(out, strings.Join(res.Columns, " | "))
	}
	for _, row := range res.Rows {
		vals := make([]string, len(row.Values))
		for i, v := range row.Values {
			if p, ok := v.(*client.Pathway); ok {
				vals[i] = p.Rendered
			} else {
				vals[i] = fmt.Sprint(v)
			}
		}
		fmt.Fprintln(out, strings.Join(vals, " | "))
	}
	if res.Agg != nil {
		switch {
		case res.Agg.Time != nil:
			fmt.Fprintf(out, "exists = %v at %s\n", res.Agg.Exists, res.Agg.Time.Format(temporal.Layout))
		case res.Agg.Current:
			fmt.Fprintf(out, "exists = %v (current)\n", res.Agg.Exists)
		default:
			fmt.Fprintf(out, "exists = %v over %d intervals\n", res.Agg.Exists, len(res.Agg.Set))
		}
	}
	suffix := ""
	if res.Cached {
		suffix = ", plan cached"
	}
	fmt.Fprintf(out, "(%d rows%s)\n", len(res.Rows), suffix)
}
