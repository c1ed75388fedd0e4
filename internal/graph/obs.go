package graph

import (
	"time"

	"repro/internal/obs"
)

// storeObs holds the store's registry metrics, resolved once by NewStore:
// class-index scans (the reads behind Select) and update-by-snapshot
// reconciliations. A store built without a registry holds nil metrics,
// whose operations are no-ops.
type storeObs struct {
	classScans *obs.Counter
	snapshots  *obs.Counter
	snapshotMS *obs.Histogram
}

// newStoreObs resolves the "store.*" metrics on reg and registers the
// store's size, read at scrape time, as "store.live_objects" and
// "store.versions".
func newStoreObs(st *Store, reg *obs.Registry) storeObs {
	reg.GaugeFunc("store.live_objects", func() float64 { live, _ := st.Counts(); return float64(live) })
	reg.GaugeFunc("store.versions", func() float64 { _, versions := st.Counts(); return float64(versions) })
	return storeObs{
		classScans: reg.Counter("store.class_scans"),
		snapshots:  reg.Counter("store.snapshots_applied"),
		snapshotMS: reg.Histogram("store.snapshot_apply_ms"),
	}
}

// Registry returns the registry the store was built with: the components
// built over the store (backends, engines, the write-ahead log) resolve
// their metrics on it.
func (st *Store) Registry() *obs.Registry { return st.reg }

// recordSnapshot folds one ApplySnapshot run into the registry.
func (st *Store) recordSnapshot(d time.Duration) {
	st.o.snapshots.Add(1)
	st.o.snapshotMS.Observe(float64(d) / 1e6)
}
