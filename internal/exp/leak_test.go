package exp

import (
	"runtime"
	"testing"

	"vpp/internal/leakcheck"
)

// TestMeasurementsCloseMachines requires the paper-table measurements
// to leave the goroutine count where it started: each closes the
// machine it boots, parked SRM threads included.
func TestMeasurementsCloseMachines(t *testing.T) {
	cases := []struct {
		name string
		run  func() error
	}{
		{"table2", func() error { _, err := MeasureTable2(); return err }},
		{"thrash", func() error { _, err := MeasureThrash(256, []int{64, 320}, 1); return err }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
			leakcheck.Wait(t, base)
		})
	}
}
