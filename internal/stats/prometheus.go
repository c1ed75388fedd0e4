package stats

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/obs"
)

// DefaultPromSeries is how many digests WritePrometheus exposes by
// default. Per-digest series are the one labeled metric family in the
// exposition, so the bound is deliberately small: scrape cardinality
// stays fixed no matter how diverse the workload is; the full table is
// always available from GET /v1/stats/statements.
const DefaultPromSeries = 20

// WritePrometheus appends per-digest statement series in the
// Prometheus text exposition format: the top `limit` digests by total
// time (DefaultPromSeries when limit <= 0) plus the "other" overflow
// bucket when present. Intended to be written after the registry's own
// obs.WritePrometheus output on /metrics.
func WritePrometheus(w io.Writer, s *Store, limit int) {
	if s == nil {
		return
	}
	if limit <= 0 {
		limit = DefaultPromSeries
	}
	snap := s.Snapshot(SortTotalTime, limit)
	rows := snap.Statements
	if snap.Other != nil {
		rows = append(rows, *snap.Other)
	}
	if len(rows) == 0 {
		return
	}
	families := []struct {
		name  string
		help  string
		value func(StatementStats) string
	}{
		{"statement_calls_total", "Executions per statement digest (top statements by total time).",
			func(r StatementStats) string { return strconv.FormatInt(r.Calls, 10) }},
		{"statement_seconds_total", "Total execution time per statement digest, in seconds.",
			func(r StatementStats) string { return strconv.FormatFloat(r.TotalMS/1000, 'g', -1, 64) }},
		{"statement_errors_total", "Non-ok outcomes (errors, cancellations, deadline and limit hits) per statement digest.",
			func(r StatementStats) string {
				return strconv.FormatInt(r.Errors+r.Canceled+r.Deadline+r.LimitHits, 10)
			}},
		{"statement_edges_scanned_total", "Edges scanned per statement digest.",
			func(r StatementStats) string { return strconv.FormatInt(r.EdgesScanned, 10) }},
		{"statement_rows_total", "Result rows returned per statement digest.",
			func(r StatementStats) string { return strconv.FormatInt(r.Rows, 10) }},
		{"statement_plan_cache_hits_total", "Plan-cache hits per statement digest.",
			func(r StatementStats) string { return strconv.FormatInt(r.PlanCacheHits, 10) }},
	}
	for _, f := range families {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s counter\n", f.name)
		for _, r := range rows {
			fmt.Fprintf(w, "%s{digest=\"%s\"} %s\n", f.name, obs.PromEscape(r.Digest), f.value(r))
		}
	}
}
