package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/rpe"
	"repro/internal/workload"
)

// oracle checks the engine against plan.ReferenceEval, the exhaustive
// specification of query evaluation, on eight queries of the workload's
// kinds drawn from the seed. The reference enumerates every simple
// pathway in the store, so it runs on fixtures small enough for that:
// the same generators at a size where it takes milliseconds.
func oracle(cfg config) error {
	var ops []readOp
	switch cfg.workload {
	case "path-mining":
		leg, err := buildLegacy(oracleSize)
		if err != nil {
			return err
		}
		svc, err := buildService(oracleSize, "", nil)
		if err != nil {
			return err
		}
		ls := workload.NewLegacySampler(leg.leg, cfg.seed)
		ss := workload.NewServiceSampler(svc.db.Store(), svc.svc, cfg.seed)
		for i := range 2 {
			ops = append(ops,
				readOp{env: leg, rpe: ls.ReversePath()},
				readOp{env: svc, rpe: ss.VMVM()},
				readOp{env: svc, rpe: ss.HostHost(6), hist: i == 1},
				readOp{env: svc, rpe: ss.HostHost(4)})
		}
	case "serve-interactive", "feed-mixed":
		svc, err := buildService(oracleSize, "", nil)
		if err != nil {
			return err
		}
		a, err := chooseAnchors(svc)
		if err != nil {
			return err
		}
		ops = interactiveOps(svc, a, rand.New(rand.NewSource(cfg.seed)), 0, 8, [4]int{25, 25, 25, 25})
	default:
		return nil // no reads to check
	}
	start := time.Now()
	for _, o := range ops {
		st := o.env.db.Store()
		c, err := rpe.CheckString(o.rpe, st.Schema())
		if err != nil {
			return fmt.Errorf("oracle: %q: %w", o.rpe, err)
		}
		text, view := retrieve(o.rpe), graph.CurrentView(st)
		if o.hist {
			text = fmt.Sprintf("AT '%s' %s", o.env.histAt.Format(timeLayout), text)
			view = graph.PointView(st, o.env.histAt)
		}
		res, err := o.env.db.Query(text)
		if err != nil {
			return fmt.Errorf("oracle: %q: %w", text, err)
		}
		if want := plan.ReferenceEval(view, c).Len(); res.Metrics.PathsEmitted != want {
			return fmt.Errorf("oracle: %q found %d pathways, the reference evaluation %d", text, res.Metrics.PathsEmitted, want)
		}
	}
	fmt.Fprintf(cfg.log, "oracle: %d queries agree with plan.ReferenceEval (%.0f ms)\n", len(ops), ms(time.Since(start)))
	return nil
}
