package graph

import (
	"time"

	"repro/internal/obs"
)

// storeObs caches the store's registry metrics so that instrumented reads
// cost one atomic pointer load plus an atomic add. The pointer lives in
// Store.obs; a nil pointer (the default) disables recording entirely.
type storeObs struct {
	adjProbes  *obs.Counter
	classScans *obs.Counter
	snapshots  *obs.Counter
	snapshotMS *obs.Histogram
}

// SetRegistry attaches a metrics registry to the store: adjacency probes
// (the physical reads behind the Extend operator), class-index scans (the
// reads behind Select), and update-by-snapshot reconciliations are then
// counted under "store.*" names, and the store's size is read at scrape
// time as "store.live_objects" and "store.versions". A nil registry
// detaches.
func (st *Store) SetRegistry(r *obs.Registry) {
	if r == nil {
		st.obs.Store(nil)
		return
	}
	st.obs.Store(&storeObs{
		adjProbes:  r.Counter("store.adjacency_probes"),
		classScans: r.Counter("store.class_scans"),
		snapshots:  r.Counter("store.snapshots_applied"),
		snapshotMS: r.Histogram("store.snapshot_apply_ms"),
	})
	r.GaugeFunc("store.live_objects", func() float64 { live, _ := st.Counts(); return float64(live) })
	r.GaugeFunc("store.versions", func() float64 { _, versions := st.Counts(); return float64(versions) })
}

// recordSnapshot folds one ApplySnapshot run into the registry.
func (st *Store) recordSnapshot(d time.Duration) {
	o := st.obs.Load()
	if o == nil {
		return
	}
	o.snapshots.Add(1)
	o.snapshotMS.Observe(float64(d) / 1e6)
}
