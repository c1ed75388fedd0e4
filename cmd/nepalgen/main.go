// Command nepalgen generates synthetic network inventory topologies as
// snapshot JSON files loadable by the nepal CLI: the paper-scale
// virtualized service graph, the legacy flat topology (in either load
// mode), or the small Figure-1 demo.
//
// Usage:
//
//	nepalgen -kind service -out inventory.json
//	nepalgen -kind legacy -services 20000 -out legacy.json
//	nepalgen -kind demo -out demo.json
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/workload"
)

func main() {
	var (
		kind      = flag.String("kind", "service", "topology kind: service, legacy, legacy66, or demo")
		services  = flag.Int("services", 8000, "legacy topology scale")
		seed      = flag.Int64("seed", 1, "generator seed")
		out       = flag.String("out", "", "output file (default stdout)")
		statsOnly = flag.Bool("stats", false, "print size statistics instead of writing the snapshot")
	)
	flag.Parse()

	if err := run(*kind, *services, *seed, *out, *statsOnly); err != nil {
		fmt.Fprintln(os.Stderr, "nepalgen:", err)
		os.Exit(1)
	}
}

func run(kind string, services int, seed int64, out string, statsOnly bool) error {
	var st *graph.Store
	switch kind {
	case "service":
		cfg := workload.DefaultServiceConfig()
		cfg.Seed = seed
		st = graph.NewStore(netmodel.MustSchema(), nil, nil)
		if _, err := workload.BuildService(st, cfg); err != nil {
			return err
		}
	case "legacy", "legacy66":
		cfg := workload.DefaultLegacyConfig()
		cfg.Seed = seed
		cfg.Services = services
		cfg.Subclassed = kind == "legacy66"
		sch, err := workload.LegacySchema(cfg.Subclassed)
		if err != nil {
			return err
		}
		st = graph.NewStore(sch, nil, nil)
		if _, err := workload.BuildLegacy(st, cfg); err != nil {
			return err
		}
	case "demo":
		st = graph.NewStore(netmodel.MustSchema(), nil, nil)
		if _, err := netmodel.BuildDemo(st, 1000); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown kind %q (use service, legacy, legacy66, or demo)", kind)
	}

	live, versions := st.Counts()
	snap := st.CurrentSnapshot()
	fmt.Fprintf(os.Stderr, "generated %s: %d nodes, %d edges (%d live objects, %d versions)\n",
		kind, len(snap.Nodes), len(snap.Edges), live, versions)
	if statsOnly {
		return nil
	}

	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return graph.WriteSnapshot(w, snap)
}
