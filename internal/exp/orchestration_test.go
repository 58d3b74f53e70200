package exp

import "testing"

// TestOrchestrationWorkload checks the semantic outcome: a clean run
// migrates every long-running pod exactly once, with a positive
// blackout and an ordered distribution, and nothing restarts.
func TestOrchestrationWorkload(t *testing.T) {
	res, err := RunOrchestrationWorkload(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrated == 0 {
		t.Fatal("upgrade migrated nothing")
	}
	if res.Migrated+res.Skipped != res.Pods {
		t.Errorf("migrated %d + skipped %d != %d pods", res.Migrated, res.Skipped, res.Pods)
	}
	if res.BlackoutMin == 0 || res.BlackoutMin > res.BlackoutMax {
		t.Errorf("degenerate blackout range [%d, %d]", res.BlackoutMin, res.BlackoutMax)
	}
	if res.BlackoutMean < float64(res.BlackoutMin) || res.BlackoutMean > float64(res.BlackoutMax) {
		t.Errorf("blackout mean %.1f outside [%d, %d]", res.BlackoutMean, res.BlackoutMin, res.BlackoutMax)
	}
	if res.Makespan == 0 {
		t.Error("zero upgrade makespan")
	}
	if res.Restarts != 0 {
		t.Errorf("%d restarts without chaos", res.Restarts)
	}
}
