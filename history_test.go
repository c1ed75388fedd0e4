package repro

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/workload"
)

// TestHistoryOverheadShape asserts the §6 storage claim end to end from
// the root package: the temporal store's 60-day history costs a few
// percent, versus ~5,900% for 60 independent copies.
func TestHistoryOverheadShape(t *testing.T) {
	f, err := bench.BuildServiceFixture()
	if err != nil {
		t.Fatal(err)
	}
	virt := workload.HistoryOverhead(f.Store)
	if virt <= 0 || virt > 0.25 {
		t.Errorf("virtualized service history overhead = %.1f%%, want a few percent (paper: 6%%)", virt*100)
	}
	lf, err := bench.BuildLegacyFixture(2000, false)
	if err != nil {
		t.Fatal(err)
	}
	legacy := workload.HistoryOverhead(lf.Store)
	if legacy <= virt/2 || legacy > 0.40 {
		t.Errorf("legacy history overhead = %.1f%%, want ~16%%", legacy*100)
	}
	if naive := workload.NaiveCopyOverhead(60); naive < 50 {
		t.Errorf("naive copies overhead = %.0f%%, want ~5900%%", naive*100)
	}
	t.Logf("history overhead: virt %.1f%% (paper 6%%), legacy %.1f%% (paper 16%%), naive 60 copies %.0f%%",
		virt*100, legacy*100, workload.NaiveCopyOverhead(60)*100)
}
