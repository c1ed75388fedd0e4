// Command nepalbench regenerates the paper's evaluation tables: Table 1
// (virtualized service graph), Table 2 (legacy topology), the §6
// edge-subclassing ablation, and the §6 history storage overhead — each
// printed side by side with the numbers the paper reports.
//
// Absolute times differ from the paper (embedded engine vs the authors'
// Gremlin/Postgres testbed, synthetic vs production data); the shape —
// which queries are interactive, which are mining queries, where the
// slow tail sits, and what subclassing buys — is the reproduction target.
// The seeded #paths and edges columns and the storage percentages repeat
// exactly run to run; the timing columns are single wall-clock samples.
// Per-layer numbers that gate changes come from `go run ./benchmark`.
//
// Usage:
//
//	nepalbench [-backend relational|gremlin] [-instances 50] [-services 8000] [-quick]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/bench"
)

// options collects one invocation's configuration; tests construct it
// directly with a capture writer.
type options struct {
	backend   string
	instances int
	services  int
	// out receives all table output; nil means os.Stdout.
	out io.Writer
}

func main() {
	var opt options
	flag.StringVar(&opt.backend, "backend", "relational", "query backend: relational or gremlin")
	flag.IntVar(&opt.instances, "instances", 50, "query instances per mix (paper: 50)")
	flag.IntVar(&opt.services, "services", 8000, "legacy topology scale (paper's feed ~ 1,200,000)")
	quick := flag.Bool("quick", false, "small quick run (8 instances, 2500 services)")
	flag.Parse()
	if *quick {
		opt.instances = 8
		opt.services = 2500
	}

	if err := run(opt); err != nil {
		fmt.Fprintln(os.Stderr, "nepalbench:", err)
		os.Exit(1)
	}
}

func run(opt options) error {
	out := opt.out
	if out == nil {
		out = os.Stdout
	}
	fmt.Fprintf(out, "nepalbench: backend=%s instances=%d legacy-services=%d\n",
		opt.backend, opt.instances, opt.services)

	fmt.Fprintln(out, "\nbuilding virtualized service fixture (Table 1: ~2k nodes, 60-day history)...")
	start := time.Now()
	svc, err := bench.BuildServiceFixture()
	if err != nil {
		return err
	}
	live, versions := svc.Store.Counts()
	fmt.Fprintf(out, "  %d live objects, %d stored versions (%.1fs)\n", live, versions, time.Since(start).Seconds())

	table1, err := bench.Table1(svc, opt.backend, opt.instances)
	if err != nil {
		return err
	}
	printTable(out, "Table 1. Query response times, virtualized service graph", table1)

	fmt.Fprintf(out, "\nbuilding legacy topology fixtures (Table 2 / ablation: %d services, both load modes)...\n", opt.services)
	start = time.Now()
	single, err := bench.BuildLegacyFixture(opt.services, false)
	if err != nil {
		return err
	}
	sub, err := bench.BuildLegacyFixture(opt.services, true)
	if err != nil {
		return err
	}
	live, versions = single.Store.Counts()
	fmt.Fprintf(out, "  %d live objects, %d stored versions per mode (%.1fs)\n", live, versions, time.Since(start).Seconds())

	table2, err := bench.Table2(single, opt.backend, opt.instances)
	if err != nil {
		return err
	}
	printTable(out, "Table 2. Query response times, legacy topology (single-class load)", table2)

	ablation, err := bench.Ablation(single, sub, opt.backend, opt.instances)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "\n§6 ablation. Legacy graph reloaded with 66 edge subclasses")
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Type\tsingle-class\tsubclassed\tedges single\tedges sub\tpaper single\tpaper subclassed")
	for _, r := range ablation {
		fmt.Fprintf(w, "%s\t%s\t%s\t%.0f\t%.0f\t%s\t%s\n",
			r.Type, fmtDur(r.SingleClass), fmtDur(r.Subclassed),
			r.SingleClassEdges, r.SubclassedEdges,
			fmtDur(r.PaperSingle), fmtDur(r.PaperSubclassed))
	}
	w.Flush()

	fmt.Fprintln(out, "\n§6 storage. Two-month history overhead vs 60 independent copies")
	w = tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Dataset\tmeasured\tpaper\tnaive 60 copies")
	for _, r := range bench.HistoryOverheads(svc, single) {
		fmt.Fprintf(w, "%s\t%.1f%%\t%.0f%%\t%.0f%%\n",
			r.Dataset, r.Overhead*100, r.PaperOverhead*100, r.NaiveCopies*100)
	}
	return w.Flush()
}

func printTable(out io.Writer, title string, rows []bench.Row) {
	fmt.Fprintln(out, "\n"+title)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Type\t#paths\tTime (snap)\tTime (hist)\tedges\tslow>4xmed\tpaper #paths\tpaper snap\tpaper hist")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.1f\t%s\t%s\t%.0f\t%d/%d\t%.1f\t%s\t%s\n",
			r.Type, r.AvgPaths, fmtDur(r.Snap), fmtDur(r.Hist), r.AvgEdgesScanned,
			r.SlowSamples, r.Instances,
			r.PaperPaths, fmtDur(r.PaperSnap), fmtDur(r.PaperHist))
	}
	w.Flush()
}

func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "-"
	case d < time.Millisecond:
		return fmt.Sprintf("%.3f ms", float64(d)/1e6)
	case d < time.Second:
		return fmt.Sprintf("%.1f ms", float64(d)/1e6)
	}
	return fmt.Sprintf("%.2f s", d.Seconds())
}
