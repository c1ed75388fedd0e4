// Quickstart: open a Nepal database over the layered network model, load
// the Figure-1 demo topology, and run the paper's flagship path queries —
// including the model-driven polymorphism (Vertical covers composed_of,
// on_vm, and on_server) and the strong typing that rejects garbage data.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netmodel"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// A Nepal database is a strongly-typed temporal graph store plus a
	// query backend (Gremlin-style by default; relational available).
	db, err := core.Open(netmodel.MustSchema())
	if err != nil {
		return err
	}
	demo, err := netmodel.BuildDemo(db.Store(), 1000)
	if err != nil {
		return err
	}

	// The network engineer's first question (§3.4): which hosts does the
	// firewall VNF ultimately run on? The engineer does not need to know
	// the implementation chain — composed_of, on_vm, on_server are all
	// Vertical, and the class hierarchy matches subclasses automatically.
	fmt.Fprintln(w, "== hosts supporting each VNF (VNF -> Vertical{1,6} -> Host) ==")
	res, err := db.Query(`
		Select source(P).name, target(P).name, len(P)
		From PATHS P
		Where P MATCHES VNF()->[Vertical()]{1,6}->Host()`)
	if err != nil {
		return err
	}
	for _, row := range res.Rows {
		fmt.Fprintf(w, "  %-8v -> %-8v (%v hops)\n", row.Values()[0], row.Values()[1], row.Values()[2])
	}

	// Pathways are first-class: Retrieve returns them whole, and they
	// compose — here, the full underlay route between the two hosts.
	fmt.Fprintln(w, "\n== physical routes host-1 -> host-2 ==")
	res, err = db.Query(`Retrieve P From PATHS P
		Where P MATCHES Host(name='host-1')->[PhysicalLink()]{1,4}->Host(name='host-2')`)
	if err != nil {
		return err
	}
	for _, row := range res.Rows {
		p, _ := row.Binding("P")
		fmt.Fprintln(w, "  "+db.RenderPath(p))
	}

	// Strong typing: the schema rejects garbage before it reaches the
	// graph — misspelled fields, wrong value types, and edges the model
	// does not permit (a VNF cannot be hosted directly on a server).
	fmt.Fprintln(w, "\n== strong typing in action ==")
	_, err = db.InsertNode("VMWare", graph.Fields{"id": 999, "stattus": "Green"})
	fmt.Fprintln(w, "  misspelled field:  ", err)
	_, err = db.InsertNode("VMWare", graph.Fields{"id": "not-a-number"})
	fmt.Fprintln(w, "  ill-typed id:      ", err)
	_, err = db.InsertEdge(netmodel.OnServer, demo.FirewallVNF, demo.Host1, graph.Fields{"id": 998})
	fmt.Fprintln(w, "  model-illegal edge:", err)

	// And the query language is typed too: referencing a subclass field
	// through a parent atom is a compile-time error.
	_, err = db.Query(`Retrieve P From PATHS P Where P MATCHES Container(flavor='m1.large')`)
	fmt.Fprintln(w, "  ill-typed query:   ", err)

	// EXPLAIN shows the §5.1 plan: anchor selection plus Extend operators.
	fmt.Fprintln(w, "\n== query plan ==")
	stmt, err := db.Prepare(`Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id=1001)`)
	if err != nil {
		return err
	}
	fmt.Fprint(w, stmt.Explain())
	return nil
}
