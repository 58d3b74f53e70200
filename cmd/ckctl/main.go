// Command ckctl boots the orchestration plane (internal/ckctl) over a
// simulated multi-module machine, runs a pod fleet through a rolling
// upgrade (live cross-MPM migration of every long-running instance),
// and prints the resulting cluster status — a `ps`-style table by
// default, the full structured status with -json. Everything derives
// from the virtual clock, so the same flags always print the same
// bytes:
//
//	ckctl                          3 modules, 24 pods, upgrade at 10 ms
//	ckctl -mpms 4 -pods 40 -json   bigger fleet, status as JSON
//	ckctl -upgrade 0               no upgrade, just run the fleet
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	"vpp/internal/ck"
	"vpp/internal/ckctl"
	"vpp/internal/hw"
)

func main() {
	var (
		mpms    = flag.Int("mpms", 3, "modules (MPMs) in the machine")
		pods    = flag.Int("pods", 24, "fleet size (a fifth are bounded batch pods)")
		upgrade = flag.Int("upgrade", 10_000, "rolling-upgrade start in virtual µs (0 = none)")
		jsonOut = flag.Bool("json", false, "print the structured status as JSON instead of the table")
	)
	flag.Parse()
	if err := run(*mpms, *pods, *upgrade, *jsonOut); err != nil {
		fmt.Fprintf(os.Stderr, "ckctl: %v\n", err)
		os.Exit(1)
	}
}

func run(mpms, pods, upgradeUS int, jsonOut bool) error {
	if mpms < 2 {
		return fmt.Errorf("-mpms must be at least 2 (migration needs a target)")
	}
	if pods < 5 {
		return fmt.Errorf("-pods must be at least 5")
	}

	mcfg := hw.DefaultConfig()
	mcfg.MPMs = mpms
	mcfg.CPUsPerMPM = 2
	mcfg.PhysMemBytes = 256 << 20
	m := hw.NewMachine(mcfg)

	cfg := ckctl.Config{
		Horizon: hw.CyclesFromMicros(float64(upgradeUS + pods*15_000 + 2_000*pods*pods/mpms + 400_000)),
		CK:      ck.Config{KernelSlots: pods + 8, SpaceSlots: pods + 16},
	}

	batch := pods / 5
	spec := ckctl.Spec{Kernels: []ckctl.KernelSpec{
		{Name: "fleet", Count: pods - batch, MPM: -1,
			Restart: ckctl.RestartOnFailure, BeatUS: 150},
		{Name: "batch", Count: batch, MPM: -1,
			Restart: ckctl.RestartNever, Beats: 200, BeatUS: 150},
	}}
	c, err := ckctl.New(m, cfg, spec)
	if err != nil {
		return err
	}
	if upgradeUS > 0 {
		c.ScheduleRollingUpgrade(hw.CyclesFromMicros(float64(upgradeUS)))
	}

	m.SetMaxSteps(2_000_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		return err
	}
	for _, v := range c.Verify() {
		fmt.Fprintf(os.Stderr, "ckctl: verify: %s\n", v)
	}

	st := c.Status()
	if jsonOut {
		b, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		return nil
	}
	fmt.Print(st.Table())
	return nil
}
