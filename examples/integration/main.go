// Data integration (§3.1): large operators keep network information in
// several inventories — an A&AI-style service inventory here, a legacy
// physical inventory there — and "it may be impractical to assume that
// the complete network inventory is stored in a single unified database."
// Nepal runs as a shim over all of them: this example joins pathways from
// two databases on two different backends in one query, with node
// identity crossing store boundaries via the schema-unique id field.
//
// It also demonstrates the update-by-snapshot service: the physical
// inventory publishes full dumps, and Nepal diffs each dump into
// versioned inserts/updates/deletes, so history accrues automatically.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/plan"
	"repro/internal/temporal"
)

var t0 = time.Date(2017, 2, 15, 0, 0, 0, 0, time.UTC)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// Inventory 1: the service/cloud inventory (Gremlin-style backend).
	clock1 := temporal.NewManualClock(t0)
	services, err := core.Open(netmodel.MustSchema(), core.WithClock(clock1))
	if err != nil {
		return err
	}
	// Inventory 2: the physical-plant inventory (relational backend),
	// owned by a different organization, fed by snapshots.
	clock2 := temporal.NewManualClock(t0)
	physical, err := core.Open(netmodel.MustSchema(),
		core.WithBackend(core.BackendRelational), core.WithClock(clock2))
	if err != nil {
		return err
	}

	// Both inventories know the hosts (shared ids 1001/1002); only the
	// service inventory knows VNFs/VMs, only the physical inventory knows
	// the switch fabric.
	if _, err := netmodel.BuildDemo(services.Store(), 1000); err != nil {
		return err
	}

	dump := physicalDump("ge-0/0/1")
	stats, err := physical.ApplySnapshot(dump)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "physical inventory initial dump: +%d nodes +%d edges\n",
		stats.NodesInserted, stats.EdgesInserted)

	// The cross-inventory question: for the firewall VNF (known only to
	// inventory 1), which physical fabric paths (known only to inventory
	// 2) carry its host's traffic? One Nepal query; the executor routes
	// the Phys variable to the physical database and joins on node ids.
	q := `Retrieve Phys
		From PATHS D1, PATHS Phys
		Where D1 MATCHES VNF(vnfType='firewall')->[Vertical()]{1,6}->Host()
		And Phys MATCHES PhysicalLink(){1,4}
		And source(Phys)=target(D1)`
	join, err := services.Prepare(q)
	if err != nil {
		return err
	}
	routed := exec.RunOptions{Routes: map[string]*plan.Engine{"Phys": physical.Engine()}}
	res, err := join.Run(context.Background(), routed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\n== fabric paths out of the firewall's host (cross-inventory join) ==")
	printPhys(w, physical, res)

	// A day later the physical team recables host-1 to tor-2 and ships a
	// fresh dump. ApplySnapshot computes the diff; history is preserved.
	clock2.Advance(24 * time.Hour)
	dump2 := physicalDump("ge-0/0/7")
	for i := range dump2.Edges {
		if dump2.Edges[i].SrcID == int64(1001) {
			dump2.Edges[i].DstID = int64(1004) // host-1 now uplinks via tor-2
		}
		if dump2.Edges[i].DstID == int64(1001) {
			dump2.Edges[i].SrcID = int64(1004)
		}
	}
	diff, err := physical.ApplySnapshot(dump2)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nnext-day dump applied as a diff: %+v\n", diff)

	res, err = join.Run(context.Background(), routed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\n== the same join after the recable ==")
	printPhys(w, physical, res)

	// And because the physical store is temporal, yesterday's wiring is
	// one AT clause away — even though it arrived via full dumps.
	past, err := physical.Query(`AT '2017-02-15 01:00:00' Retrieve P From PATHS P
		Where P MATCHES Host(id=1001)->PhysicalLink()->Switch()`)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\n== host-1 uplinks yesterday (from dump history) ==")
	for _, row := range past.Rows {
		p, _ := row.Binding("P")
		fmt.Fprintln(w, "  "+physical.RenderPath(p))
	}
	return nil
}

// printPhys prints the distinct Phys pathways of a result (the firewall
// has two service chains to the same host, so join rows repeat pathways).
func printPhys(w io.Writer, physical *core.DB, res *exec.Result) {
	seen := map[string]bool{}
	for _, row := range res.Rows {
		phys, _ := row.Binding("Phys")
		line := physical.RenderPath(phys)
		if !seen[line] {
			seen[line] = true
			fmt.Fprintln(w, "  "+line)
		}
	}
}

// physicalDump fabricates the physical team's full snapshot: two hosts,
// two TORs, one spine, bidirectionally linked.
func physicalDump(iface string) *graph.Snapshot {
	node := func(id int64, class, name string) graph.NodeSpec {
		return graph.NodeSpec{Class: class, Fields: graph.Fields{"id": id, "name": name, "status": "Active"}}
	}
	link := func(id, src, dst int64) graph.EdgeSpec {
		return graph.EdgeSpec{Class: netmodel.PhysicalLink, SrcID: src, DstID: dst,
			Fields: graph.Fields{"id": id, "serverInterface": iface}}
	}
	return &graph.Snapshot{
		Nodes: []graph.NodeSpec{
			node(1001, "ComputeHost", "host-1"),
			node(1002, "ComputeHost", "host-2"),
			node(1003, "TORSwitch", "tor-1"),
			node(1004, "TORSwitch", "tor-2"),
			node(1005, "SpineSwitch", "spine-1"),
		},
		Edges: []graph.EdgeSpec{
			link(2001, 1001, 1003), link(2002, 1003, 1001),
			link(2003, 1002, 1004), link(2004, 1004, 1002),
			link(2005, 1003, 1005), link(2006, 1005, 1003),
			link(2007, 1004, 1005), link(2008, 1005, 1004),
		},
	}
}
