// Troubleshooting: the paper's motivating scenario (§4). Dropped calls
// spike at 10:00; at 13:00 an engineer investigates. The current network
// state is useless — vm-3 has already been migrated — so every question
// is a time-travel question: what did the service path look like at the
// time of the failure, which VNFs shared fate with the sick host, when
// did the problem state first appear, and how did the specific pathway
// evolve?
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/temporal"
)

var t0 = time.Date(2017, 2, 15, 0, 0, 0, 0, time.UTC)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	clock := temporal.NewManualClock(t0)
	db, err := core.Open(netmodel.MustSchema(), core.WithBackend(core.BackendRelational), core.WithClock(clock))
	if err != nil {
		return err
	}
	demo, err := netmodel.BuildDemo(db.Store(), 1000)
	if err != nil {
		return err
	}

	// --- The incident timeline ---------------------------------------
	// 09:30 host-2 degrades; 10:00 its alarms fire and vm-3 (the DNS
	// resolver) goes Red; 11:00 ops evacuates vm-3 to host-1; 11:05 the
	// VM recovers. At 13:00 the engineer starts digging.
	set := func(at time.Time, uid graph.UID, field string, value any) error {
		clock.SetNow(at)
		f := db.Store().Object(uid).Current().Fields.Clone()
		f[field] = value
		return db.Update(uid, f)
	}
	if err := set(t0.Add(9*time.Hour+30*time.Minute), demo.Host2, "status", "Degraded"); err != nil {
		return err
	}
	if err := set(t0.Add(10*time.Hour), demo.VM3, "status", "Red"); err != nil {
		return err
	}

	clock.SetNow(t0.Add(11 * time.Hour))
	for _, e := range db.Store().OutEdges(demo.VM3) {
		obj := db.Store().Object(e)
		if obj.Class.Name == netmodel.OnServer && obj.Current() != nil {
			if err := db.Delete(e); err != nil {
				return err
			}
		}
	}
	if _, err := db.InsertEdge(netmodel.OnServer, demo.VM3, demo.Host1, graph.Fields{"id": 9001}); err != nil {
		return err
	}
	if err := set(t0.Add(11*time.Hour+5*time.Minute), demo.VM3, "status", "Green"); err != nil {
		return err
	}
	clock.SetNow(t0.Add(13 * time.Hour))

	// --- Question 1: what was the DNS service's footprint at 10:00? ---
	// The timeslice query runs against the past state; the current state
	// (vm-3 on host-1) would mislead.
	fmt.Fprintln(w, "== DNS VNF footprint AT the failure time (10:00) ==")
	res, err := db.Query(`
		AT '2017-02-15 10:00:00'
		Select source(P).name, target(P).name
		From PATHS P
		Where P MATCHES VNF(vnfType='dns')->[Vertical()]{1,6}->Host()`)
	if err != nil {
		return err
	}
	for _, row := range res.Rows {
		fmt.Fprintf(w, "  %v ran on %v\n", row.Values()[0], row.Values()[1])
	}
	fmt.Fprintln(w, "   (now it runs on host-1 — the past state is what matters)")

	// --- Question 2: shared fate — what else depended on host-2? ------
	fmt.Fprintln(w, "\n== shared fate of host-2 at 10:00 (bottom-up vertical) ==")
	res, err = db.Query(fmt.Sprintf(`
		AT '2017-02-15 10:00:00'
		Select source(P).name
		From PATHS P
		Where P MATCHES VNF()->[Vertical()]{1,6}->Host(id=%d)`, 1002))
	if err != nil {
		return err
	}
	for _, row := range res.Rows {
		fmt.Fprintf(w, "  affected VNF: %v\n", row.Values()[0])
	}

	// --- Question 3: which placements held during the incident window? -
	// The time-range query returns every placement that existed at some
	// moment in 09:00-12:00, each with its MAXIMAL assertion range — the
	// old placement's range starts at load time, well before the window.
	fmt.Fprintln(w, "\n== vm-3 placements during 09:00-12:00, with maximal ranges ==")
	res, err = db.Query(`
		AT '2017-02-15 09:00' : '2017-02-15 12:00'
		Select target(P).name
		From PATHS P
		Where P MATCHES VM(name='vm-3')->OnServer()->Host()`)
	if err != nil {
		return err
	}
	for _, row := range res.Rows {
		fmt.Fprintf(w, "  on %-8v during %v\n", row.Values()[0], row.Coexist())
	}

	// --- Question 4: when did the red state begin and end? -------------
	fmt.Fprintln(w, "\n== temporal aggregates over vm-3's red state ==")
	first, err := db.Query(`First Time When Exists Retrieve P From PATHS P Where P MATCHES VM(name='vm-3', status='Red')`)
	if err != nil {
		return err
	}
	last, err := db.Query(`Last Time When Exists Retrieve P From PATHS P Where P MATCHES VM(name='vm-3', status='Red')`)
	if err != nil {
		return err
	}
	when, err := db.Query(`When Exists Retrieve P From PATHS P Where P MATCHES VM(name='vm-3', status='Red')`)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  first red: %v\n", first.Agg.Time.Format("15:04:05"))
	fmt.Fprintf(w, "  last red:  %v (current=%v)\n", last.Agg.Time.Format("15:04:05"), last.Agg.Current)
	fmt.Fprintf(w, "  red during: %v\n", when.Agg.Set)

	// --- Question 5: drill into one pathway's evolution ----------------
	// Path evolution (§4): for the placement pathway the range query
	// surfaced, walk its field history slice by slice.
	res, err = db.Query(`AT '2017-02-15 10:00:00' Retrieve P From PATHS P
		Where P MATCHES VM(name='vm-3')->OnServer()->Host()`)
	if err != nil || len(res.Rows) == 0 {
		return fmt.Errorf("no pathway to drill into: %v", err)
	}
	placement, _ := res.Rows[0].Binding("P")
	fmt.Fprintln(w, "\n== evolution of the failing placement pathway ==")
	fmt.Fprintln(w, "  "+db.RenderPath(placement))
	steps, err := db.PathEvolution(placement, `VM(status='Green')->OnServer()->Host(status='Active')`)
	if err != nil {
		return err
	}
	for _, s := range steps {
		state := "healthy"
		if !s.Exists {
			state = "pathway gone (migrated away)"
		} else if !s.Satisfies {
			state = "UNHEALTHY"
		}
		fmt.Fprintf(w, "  %-52v %s\n", s.Period, state)
	}
	return nil
}
