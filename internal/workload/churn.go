package workload

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/schema"
	"repro/internal/temporal"
)

// ChurnConfig drives the history generator: Days rounds of inventory
// churn, each advancing a manual clock by one day. The per-day volumes
// control the history-to-snapshot overhead the §6 storage experiment
// measures (6% for the virtualized service over two months, 16% for the
// legacy feed).
type ChurnConfig struct {
	Seed int64
	Days int
	// StatusFlipsPerDay updates a random object's status field.
	StatusFlipsPerDay int
	// MigrationsPerDay moves a random VM to another host (delete + insert
	// of its OnServer edge). Ignored by legacy churn.
	MigrationsPerDay int
}

// DefaultServiceChurn reproduces the virtualized service's two-month,
// ~6%-overhead history.
func DefaultServiceChurn() ChurnConfig {
	return ChurnConfig{Seed: 11, Days: 60, StatusFlipsPerDay: 10, MigrationsPerDay: 2}
}

// DefaultLegacyChurn reproduces the legacy feed's ~16% overhead.
func DefaultLegacyChurn(l *Legacy) ChurnConfig {
	// Scale daily churn to the graph so the 60-day total lands near 16%.
	live, _ := l.store.Counts()
	return ChurnConfig{Seed: 13, Days: 60, StatusFlipsPerDay: live * 16 / 100 / 60}
}

// ApplyServiceChurn replays cfg.Days days of operational churn on the
// virtualized service graph: VM/host status flips and VM migrations.
func ApplyServiceChurn(st *graph.Store, svc *Service, clock *temporal.Clock, cfg ChurnConfig) error {
	rng := rand.New(rand.NewSource(cfg.Seed))
	statuses := []string{"Green", "Yellow", "Red"}
	for day := 0; day < cfg.Days; day++ {
		clock.Advance(24 * time.Hour)
		for i := 0; i < cfg.StatusFlipsPerDay; i++ {
			vm := svc.VMs[rng.Intn(len(svc.VMs))]
			obj := st.Elem(vm)
			cur := obj.Current()
			if cur == nil {
				continue
			}
			next := obj.Class.Map(cur.Rec)
			next["status"] = statuses[rng.Intn(len(statuses))]
			if err := st.Update(vm, next); err != nil {
				return fmt.Errorf("workload: churn day %d: %w", day, err)
			}
		}
		for i := 0; i < cfg.MigrationsPerDay; i++ {
			vm := svc.VMs[rng.Intn(len(svc.VMs))]
			if err := migrateVM(st, svc, rng, vm); err != nil {
				return fmt.Errorf("workload: churn day %d: %w", day, err)
			}
		}
	}
	return nil
}

// migrateVM moves the VM's OnServer placement to a different host.
func migrateVM(st *graph.Store, svc *Service, rng *rand.Rand, vm graph.UID) error {
	var placement *graph.Elem
	for _, e := range st.OutEdges(vm) {
		obj := st.Elem(e)
		if obj.Class.Name == netmodel.OnServer && obj.Current() != nil {
			placement = obj
			break
		}
	}
	if placement == nil {
		return nil // already gone
	}
	newHost := svc.Hosts[rng.Intn(len(svc.Hosts))]
	if newHost == placement.Dst {
		return nil
	}
	oldID := placement.Current().Rec[schema.IDSlot]
	if err := st.Delete(placement.UID); err != nil {
		return err
	}
	uid, err := st.InsertEdge(netmodel.OnServer, vm, newHost, graph.Fields{"id": oldID})
	if err != nil {
		return err
	}
	svc.HostOf[vm] = newHost
	_ = uid
	return nil
}

// ApplyLegacyChurn replays status-flip churn on the legacy graph.
func ApplyLegacyChurn(st *graph.Store, l *Legacy, clock *temporal.Clock, cfg ChurnConfig) error {
	rng := rand.New(rand.NewSource(cfg.Seed))
	pools := [][]graph.UID{l.Services, l.Access, l.Trunks, l.Equip}
	statuses := []string{"up", "down", "degraded"}
	for day := 0; day < cfg.Days; day++ {
		clock.Advance(24 * time.Hour)
		for i := 0; i < cfg.StatusFlipsPerDay; i++ {
			pool := pools[rng.Intn(len(pools))]
			uid := pool[rng.Intn(len(pool))]
			obj := st.Elem(uid)
			cur := obj.Current()
			if cur == nil {
				continue
			}
			next := obj.Class.Map(cur.Rec)
			next["status"] = statuses[rng.Intn(len(statuses))]
			if err := st.Update(uid, next); err != nil {
				return fmt.Errorf("workload: legacy churn day %d: %w", day, err)
			}
		}
	}
	return nil
}

// HistoryOverhead reports the relative growth of stored versions over the
// live snapshot: (versions-live)/live. The paper compares this against
// the ~5,900% cost of keeping 60 independent graph copies, which
// NaiveCopyOverhead computes.
func HistoryOverhead(st *graph.Store) float64 {
	live, versions := st.Counts()
	if live == 0 {
		return 0
	}
	return float64(versions-live) / float64(live)
}

// NaiveCopyOverhead is the storage overhead of the conventional
// alternative: days full copies of the snapshot instead of one temporal
// store ((days-1) extra copies ≈ 5,900% for 60 days).
func NaiveCopyOverhead(days int) float64 {
	return float64(days - 1)
}
