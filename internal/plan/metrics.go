package plan

import "fmt"

// Metrics instruments one plan evaluation — the observability face of the
// Select/Extend operator pipeline. The §6 ablation is visible here
// deterministically: on the single-class legacy load a bottom-up query
// scans every incident edge of a heavy rack (EdgesScanned in the
// thousands, mostly rejected), while the subclassed load's per-class
// index probes return only the relevant few.
type Metrics struct {
	// AnchorRecords counts elements returned by the Select operator(s).
	AnchorRecords int
	// EdgesScanned counts edges returned by IncidentEdges probes — the
	// physical read volume of the Extend operators.
	EdgesScanned int
	// ElementsConsumed counts successful NFA advances over an element.
	ElementsConsumed int
	// ElementsRejected counts candidate elements no transition accepted.
	ElementsRejected int
	// PartialsExplored counts partial pathways expanded by the search.
	PartialsExplored int
	// PathsEmitted counts distinct result pathways.
	PathsEmitted int
}

func (m Metrics) String() string {
	return fmt.Sprintf("anchors=%d edges_scanned=%d consumed=%d rejected=%d partials=%d paths=%d",
		m.AnchorRecords, m.EdgesScanned, m.ElementsConsumed, m.ElementsRejected,
		m.PartialsExplored, m.PathsEmitted)
}

// Merge folds another evaluation's counters into m — the executor uses it
// to total metrics across the variable evaluations of one query.
func (m *Metrics) Merge(o Metrics) {
	m.AnchorRecords += o.AnchorRecords
	m.EdgesScanned += o.EdgesScanned
	m.ElementsConsumed += o.ElementsConsumed
	m.ElementsRejected += o.ElementsRejected
	m.PartialsExplored += o.PartialsExplored
	m.PathsEmitted += o.PathsEmitted
}
