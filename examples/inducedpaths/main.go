// Induced paths (§2.3.2, §3.4): service-level flows are designed at the
// Service/Logical layers, but failures happen in the physical underlay.
// This example computes the physical communication path *induced* by a
// pair of VNFs — the paper's three-variable join query, where the
// physical pathway variable has no anchor of its own and imports one from
// the joined service pathways — and then runs the NOT EXISTS subquery
// that finds stranded capacity (VMs hosting nothing).
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/plan"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	db, err := core.Open(netmodel.MustSchema(), core.WithBackend(core.BackendRelational))
	if err != nil {
		return err
	}
	// A mid-size generated service inventory: ~35 VNFs on a leaf-spine
	// fabric, including idle VMs.
	cfg := workload.DefaultServiceConfig()
	cfg.VNFs = 6
	cfg.VFCsPerVNF = 4
	cfg.Hosts = 24
	cfg.TORs = 6
	cfg.Spines = 2
	cfg.VNets = 8
	cfg.VRouters = 3
	cfg.IdleVMs = 3
	svc, err := workload.BuildService(db.Store(), cfg)
	if err != nil {
		return err
	}
	idOf := func(uid graph.UID) any { return db.Store().Object(uid).Current().Fields["id"] }

	// The §3.4 join: the physical communication path between the hosts
	// implementing VNF A and VNF B. Phys's only anchor (PhysicalLink) is
	// huge, so the planner imports anchors from D1/D2 through the joins
	// and evaluates Phys seeded — exactly the paper's strategy.
	vnfA, vnfB := svc.VNFs[0], svc.VNFs[1]
	q := fmt.Sprintf(`Retrieve Phys
		From PATHS D1, PATHS D2, PATHS Phys
		Where D1 MATCHES VNF(id=%v)->Vertical(){1,6}->Host()
		And D2 MATCHES VNF(id=%v)->Vertical(){1,6}->Host()
		And Phys MATCHES PhysicalLink(){1,4}
		And source(Phys)=target(D1)
		And target(Phys)=target(D2)`, idOf(vnfA), idOf(vnfB))

	fmt.Fprintf(w, "== physical paths induced by VNF#%v <-> VNF#%v ==\n", idOf(vnfA), idOf(vnfB))
	res, err := db.Query(q)
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, row := range res.Rows {
		p := row.Values()[0].(*plan.Pathway)
		line := db.RenderPath(*p)
		if seen[line] {
			continue
		}
		seen[line] = true
		fmt.Fprintln(w, "  "+line)
		if len(seen) >= 6 {
			fmt.Fprintf(w, "  ... (%d rows total)\n", len(res.Rows))
			break
		}
	}

	// Routing constraint variant: only induced paths that traverse a
	// spine switch (e.g. a policy requires inter-rack traffic to cross
	// the spine). Pathway expressions compose: add the constraint inline.
	qSpine := fmt.Sprintf(`Retrieve Phys
		From PATHS D1, PATHS D2, PATHS Phys
		Where D1 MATCHES VNF(id=%v)->Vertical(){1,6}->Host()
		And D2 MATCHES VNF(id=%v)->Vertical(){1,6}->Host()
		And Phys MATCHES PhysicalLink(){1,2}->SpineSwitch()->PhysicalLink(){1,2}
		And source(Phys)=target(D1)
		And target(Phys)=target(D2)`, idOf(vnfA), idOf(vnfB))
	res, err = db.Query(qSpine)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n== of those, paths crossing a spine switch: %d ==\n", len(res.Rows))

	// Stranded capacity: the paper's NOT EXISTS example — VMs that do not
	// host a VFC or VNF. The subquery is correlated on target(V)=target(P).
	fmt.Fprintln(w, "\n== idle VMs (NOT EXISTS subquery) ==")
	res, err = db.Query(`
		Select source(V).name, source(V).id
		From PATHS V
		Where V MATCHES VM()
		And NOT EXISTS(
			Retrieve P from PATHS P
			Where P MATCHES (VNF()|VFC())->[Vertical()]{1,5}->VM()
			And target(V) = target(P)
		)`)
	if err != nil {
		return err
	}
	for _, row := range res.Rows {
		fmt.Fprintf(w, "  %v (id=%v) hosts nothing\n", row.Values()[0], row.Values()[1])
	}
	fmt.Fprintf(w, "  %d of %d VMs are idle\n", len(res.Rows), len(svc.VMs))
	return nil
}
