package ck

import "testing"

// TestTable2MatchesPaperShape verifies the calibrated simulation against
// the paper's Table 2 and Section 5.3 within a tolerance band, and — more
// importantly — that the orderings the paper reports hold (mapping loads
// are the cheapest, kernel loads the most expensive, writeback adds
// substantial cost, the optimized fault path beats transfer+load+resume).
func TestTable2MatchesPaperShape(t *testing.T) {
	got, err := MeasureTable2()
	if err != nil {
		t.Fatalf("measure: %v\n%s", err, got)
	}
	t.Logf("\n%s", got)
	p := PaperTable2()

	within := func(name string, got, want, tol float64) {
		t.Helper()
		if got < want*(1-tol) || got > want*(1+tol) {
			t.Errorf("%s = %.1f µs, want %.0f ±%.0f%%", name, got, want, tol*100)
		}
	}
	within("mapping load", got.MappingLoad, p.MappingLoad, 0.25)
	within("mapping load opt", got.MappingLoadOpt, p.MappingLoadOpt, 0.25)
	within("mapping load wb", got.MappingLoadWB, p.MappingLoadWB, 0.25)
	within("mapping load opt wb", got.MappingLoadOptWB, p.MappingLoadOptWB, 0.25)
	within("mapping unload", got.MappingUnload, p.MappingUnload, 0.25)
	within("thread load", got.ThreadLoad, p.ThreadLoad, 0.25)
	within("thread load wb", got.ThreadLoadWB, p.ThreadLoadWB, 0.25)
	within("thread unload", got.ThreadUnload, p.ThreadUnload, 0.25)
	within("space load", got.SpaceLoad, p.SpaceLoad, 0.25)
	within("space load wb", got.SpaceLoadWB, p.SpaceLoadWB, 0.25)
	within("space unload", got.SpaceUnload, p.SpaceUnload, 0.25)
	within("kernel load", got.KernelLoad, p.KernelLoad, 0.25)
	within("kernel load wb", got.KernelLoadWB, p.KernelLoadWB, 0.25)
	within("kernel unload", got.KernelUnload, p.KernelUnload, 0.25)
	within("trap getpid", got.TrapGetpid, p.TrapGetpid, 0.3)
	within("signal deliver", got.SignalDeliver, p.SignalDeliver, 0.3)
	within("signal return", got.SignalReturn, p.SignalReturn, 0.3)
	within("page fault", got.PageFaultTotal, p.PageFaultTotal, 0.3)
	within("fault transfer", got.FaultTransfer, p.FaultTransfer, 0.3)

	// Shape assertions (robust to recalibration).
	if !(got.MappingLoad < got.SpaceLoad && got.SpaceLoad < got.ThreadLoad && got.ThreadLoad < got.KernelLoad) {
		t.Error("load-cost ordering violated: want mapping < space < thread < kernel")
	}
	if got.MappingLoadWB <= got.MappingLoad {
		t.Error("writeback should add cost to mapping load")
	}
	if got.ThreadLoadWB <= 2*got.ThreadLoad {
		t.Error("thread writeback should dominate thread load")
	}
	if got.MappingLoadOpt >= got.MappingLoad+got.FaultTransfer {
		t.Error("optimized load should beat separate load + resume")
	}
}
